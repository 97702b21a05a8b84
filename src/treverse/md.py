"""Classical MD of charged particles in a magnetic field, with the
trajectory-level conjugacy check and Green-Kubo correlator estimation.

The integrator is a palindromic splitting: half force kick, half magnetic
rotation (Boris tan-form, an exact rotation of the velocity), full drift,
half rotation, half kick.  The palindrome makes one step exactly conjugate
to its inverse under any compatible per-particle map, which is what the
conjugacy check exercises.

Each step evaluates the WCA forces once: the closing kick's forces are
those of the positions the next step starts from, so they are carried in
MDState and reused by the next opening kick.  The force kernel visits
each i<j pair of a Verlet neighbour list once and evaluates the potential
only inside the cutoff; its result is bitwise equal to the dense all-pairs
sum.

The list holds the pairs within cutoff + skin at its build; step carries
it in MDState, and a forces call without one builds a fresh list.  A pair
outside that radius cannot reach the cutoff before one of its particles
has moved skin/2, so the whole batch's list is rebuilt as soon as any
particle's unwrapped position has moved more than skin/2 since the build.
The list keeps the dense (trajectory, pair) row order and computes each
listed displacement and r^2 with the dense kernel's elementwise
operations, so filtering it by the cutoff yields exactly the rows, in the
same order, that the dense kernel selects.

Trajectories are vectorized: state arrays have shape (R, N, 3) for R
independent trajectories of N particles.  Each is an (R, N, 3) view of a
C-contiguous component-major (3, R, N) buffer, so step, forces and the
rotation run every operation as one contiguous loop over R*N values per
component; a state built from C-ordered arrays is copied once by its
first step.  Elementwise arithmetic gives the same bits in either layout,
but a reduction over (N, 3) does not, so the kinetic and potential
energies sum C-ordered arrays.  Per-trajectory random streams are derived
from the master seed by counter, so results do not depend on how
trajectories are chunked.

The rotation writes out its cross products and |t|^2 per component, with
the operations np.cross and np.sum perform in the same order, so it is
bitwise equal to the form that calls them; every r^2 adds its squares in
that order too.  A constant field is not evaluated: its rotation vectors
are computed once per step and serve both half-rotations.

The correlators are estimated chunk by chunk.  A chunk stores the sampled
velocities of only the components its pairs read, and holds as many
trajectories as fit in _CHUNK_FLOATS stored floats.  Its FFT runs in row
blocks of trajectories, at most _CHUNK_FLOATS // 32 padded samples each,
so the transforms' memory is bounded apart from the chunk.  Each block
transforms every stored component once and forms each pair from those
spectra; every per-trajectory result is bitwise equal to transforming
both operands of each pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .fields import FAMILY_CONSTANT, FieldSpec, _validated_block, eval_field, field_scale, \
    find_compatible, flip_field
from .phasespace import PhasePoint, TimeReversalOp, symmetry_constraints

WCA_CUTOFF = 2.0 ** (1.0 / 6.0)
COMPONENTS = "xyz"
# the statistical gates pass a deviation of at most this many standard errors
SIGMA_GATE = 3.0
# Verlet-list skin in units of wca_sigma: at the criterion-7 density about
# 7% of the pairs are listed, and a list lasts about 20 steps
_SKIN = 0.3
# init_state places no pair closer than this many wca_sigma
_MIN_SEP = 0.9


class NotApplicable(ValueError):
    """The field's compatible operations force no correlator to vanish."""


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters in reduced units (k_B = 1).

    The box is [-box_half, box_half]^3 with periodic boundaries; pair
    interactions use the minimum image.  wca_epsilon None turns the pair
    potential off.  The cyclotron resolution constraint dt * w_c < 0.2 is
    enforced at construction.
    """

    n: int
    field: FieldSpec
    dt: float
    steps: int
    temperature: float = 1.0
    mass: float = 1.0
    charge: float = 1.0
    box_half: float = 1.0
    wca_epsilon: float | None = None
    wca_sigma: float = 1.0
    seed: int = 0
    n_trajectories: int = 1
    equilibration: int = 0
    thermostat_interval: int = 10

    def __post_init__(self):
        for name in ("n", "dt", "steps", "n_trajectories", "mass", "box_half",
                     "wca_sigma", "thermostat_interval"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("temperature", "equilibration"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        omega_c = abs(self.charge) * field_scale(self.field, self.box_half) / self.mass
        if self.dt * omega_c >= 0.2:
            raise ValueError(
                f"dt {self.dt} too large for cyclotron frequency {omega_c:.3g}")

    @property
    def box(self) -> float:
        return 2.0 * self.box_half

    @property
    def interacting(self) -> bool:
        return self.wca_epsilon is not None


@dataclass(frozen=True)
class NeighbourList:
    """Candidate pairs of a batch and the unwrapped positions they were built at.

    a and b are the rows r*N + i and r*N + j (i < j) of pos.reshape(-1, 3)
    of the pairs within cutoff + skin at ref, in dense (trajectory, pair)
    order; ref is component-major, (3, R, N).  A list is never modified,
    so states may share it.
    """

    ref: np.ndarray
    a: np.ndarray
    b: np.ndarray


@dataclass
class MDState:
    """Positions (unwrapped) and velocities, shape (R, N, 3).

    step makes pos, vel and force (R, N, 3) views of component-major
    (3, R, N) buffers; it accepts C-ordered arrays too.  force, when set,
    is forces(pos, cfg) for the interacting config being stepped; step
    reuses it for its opening kick.  neighbours, when set, is the Verlet
    list step last used: it holds every pair that can be inside the cutoff
    until some particle has moved skin/2 from its build, and step rebuilds
    it past that.  Forces from the list are bitwise equal to
    forces(pos, cfg), since it keeps the dense pair order.  A state whose
    positions were changed by anything but step must carry force and
    neighbours None.
    """

    pos: np.ndarray
    vel: np.ndarray
    force: np.ndarray | None = None
    neighbours: NeighbourList | None = None

    def copy(self) -> "MDState":
        force = None if self.force is None else self.force.copy(order="K")
        return MDState(self.pos.copy(order="K"), self.vel.copy(order="K"), force,
                       self.neighbours)


def _component_major(x: np.ndarray) -> np.ndarray:
    """x (R, N, 3) as a C-contiguous (3, R, N) array; no copy for a view of one."""
    return np.ascontiguousarray(x.transpose(2, 0, 1))


def _particle_major(x: np.ndarray) -> np.ndarray:
    """The (R, N, 3) view of a component-major (3, R, N) array."""
    return x.transpose(1, 2, 0)


def _wrap(pos: np.ndarray, box: float) -> np.ndarray:
    return pos - box * np.rint(pos / box)


def _norm2(x: np.ndarray) -> np.ndarray:
    """|x|^2 over the first axis, adding the squares in the order np.sum does."""
    return (x[0] * x[0] + x[1] * x[1]) + x[2] * x[2]


@lru_cache(maxsize=None)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The i<j pairs of n particles, ordered by i then j."""
    return np.triu_indices(n, 1)


def _image_r2(d: np.ndarray, box: float):
    """Minimum images of the displacements d (3, ...) (modified in place) and their r^2."""
    d -= box * np.rint(d / box)
    return d, _norm2(d)


def _close_pairs(pos: np.ndarray, cfg: SimConfig, radius: float = WCA_CUTOFF):
    """The pairs closer than radius * sigma at pos (3, R, N): trajectory, i < j and r^2."""
    i, j = _pair_index(pos.shape[2])
    _, r2 = _image_r2(pos[:, :, i] - pos[:, :, j], cfg.box)
    traj, pair = np.nonzero(r2 < (radius * cfg.wca_sigma) ** 2)
    return traj, i[pair], j[pair], r2[traj, pair]


def _neighbours(pos: np.ndarray, cfg: SimConfig,
                previous: NeighbourList | None) -> NeighbourList:
    """previous while no particle has moved skin/2 since its build, else a new list."""
    pos = _component_major(pos)
    if previous is not None:
        if np.max(_norm2(pos - previous.ref)) <= (0.5 * _SKIN * cfg.wca_sigma) ** 2:
            return previous
    traj, i, j, _ = _close_pairs(pos, cfg, WCA_CUTOFF + _SKIN)
    n = pos.shape[2]
    return NeighbourList(pos, traj * n + i, traj * n + j)


def _listed_close_pairs(pos: np.ndarray, cfg: SimConfig, neighbours: NeighbourList):
    """The listed pairs inside the cutoff at pos (3, R, N): rows r*N + i and
    r*N + j, x_i - x_j (3, P) and r^2."""
    flat = pos.reshape(3, -1)
    d, r2 = _image_r2(flat[:, neighbours.a] - flat[:, neighbours.b], cfg.box)
    (close,) = np.nonzero(r2 < (WCA_CUTOFF * cfg.wca_sigma) ** 2)
    return neighbours.a[close], neighbours.b[close], d[:, close], r2[close]


def forces(pos: np.ndarray, cfg: SimConfig,
           neighbours: NeighbourList | None = None) -> np.ndarray:
    """WCA pair forces; zero array when the potential is off.

    Pairs outside the cutoff contribute signed zeros to the dense sum, which
    leave it unchanged, so only pairs inside are evaluated.  Particle i gets
    the terms of its partners in ascending order, as the dense sum does:
    the -f terms of partners j < i come first in pair order, then the +f
    terms of partners j > i, and bincount adds them in that order (each
    component c of row r is bin c*R*N + r).  Only the pairs of the
    neighbour list, which must be valid at pos, are visited; they yield the
    dense sum's close pairs in the same order.  Without a list a fresh one
    is built.  The result is an (R, N, 3) view of a component-major array.
    """
    if not cfg.interacting or cfg.n == 1:
        return np.zeros_like(pos)
    if neighbours is None:
        neighbours = _neighbours(pos, cfg, None)
    pos = _component_major(pos)
    a, b, d, r2 = _listed_close_pairs(pos, cfg, neighbours)
    inv2 = cfg.wca_sigma ** 2 / r2
    inv6 = inv2 ** 3
    coef = 24.0 * cfg.wca_epsilon * (2.0 * inv6 * inv6 - inv6) * inv2 / cfg.wca_sigma ** 2
    f = d * coef
    rows = pos[0].size
    bins = (rows * np.arange(3)[:, None] + np.concatenate([b, a])).ravel()
    total = np.bincount(bins, weights=np.concatenate([-f, f], axis=1).ravel(),
                        minlength=pos.size)
    return _particle_major(total.reshape(pos.shape))


def potential_energy(pos: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Per-trajectory WCA potential energy (truncated and shifted)."""
    if not cfg.interacting or cfg.n == 1:
        return np.zeros(pos.shape[0])
    traj, i, j, r2 = _close_pairs(_component_major(pos), cfg)
    inv6 = (cfg.wca_sigma ** 2 / r2) ** 3
    pair = 4.0 * cfg.wca_epsilon * (inv6 * inv6 - inv6) + cfg.wca_epsilon
    # summed as the full symmetric (R, N, N) matrix, in the dense order
    r, n = pos.shape[:2]
    matrix = np.zeros((r, n, n))
    matrix[traj, i, j] = pair
    matrix[traj, j, i] = pair
    return 0.5 * np.sum(matrix, axis=(1, 2))


def _kinetic(vel: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """Per-trajectory kinetic energy, summed over a C-ordered (R, N, 3) copy."""
    return 0.5 * cfg.mass * np.sum(np.ascontiguousarray(vel) ** 2, axis=(1, 2))


def energy(state: MDState, cfg: SimConfig) -> np.ndarray:
    """Per-trajectory total energy; the magnetic force does no work."""
    return _kinetic(state.vel, cfg) + potential_energy(state.pos, cfg)


# the components of a x b are the differences of the products
# a[_CROSS_A] * b[_CROSS_B], first half minus second half
_CROSS_A = np.array([1, 2, 0, 2, 0, 1])
_CROSS_B = np.array([2, 0, 1, 1, 2, 0])


def _add_cross(v: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """v + a x b over the first axis, with the operations np.cross performs."""
    prod = a[_CROSS_A]
    prod *= b[_CROSS_B]
    out = np.subtract(prod[:3], prod[3:])
    out += v
    return out


def _tan_vectors(bvec: np.ndarray, half_angle: float):
    """t = half_angle * bvec and s = 2t / (1 + |t|^2), component-major and
    C-contiguous; bvec is (3, R, N), or (3, 1, 1) for a field that does not vary."""
    t = np.multiply(half_angle, bvec, order="C")
    return t, 2.0 * t / (1.0 + _norm2(t))


def _boris_rotate(vel: np.ndarray, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Exact rotation of velocities vel (3, R, N) by the tan-half-angle
    vectors t and s of _tan_vectors."""
    return _add_cross(vel, _add_cross(vel, vel, t), s)


def _half_rotation(pos: np.ndarray, cfg: SimConfig):
    """The tan vectors of a dt/2 rotation in the field at pos (3, R, N)."""
    if cfg.field.family == FAMILY_CONSTANT:
        bvec = cfg.field.b.reshape(3, 1, 1)
    else:
        bvec = eval_field(cfg.field, _particle_major(_wrap(pos, cfg.box))).transpose(2, 0, 1)
    return _tan_vectors(bvec, cfg.charge / cfg.mass * cfg.dt / 4.0)


def step(state: MDState, cfg: SimConfig) -> MDState:
    """One palindromic step: kick(dt/2) rotate(dt/2) drift(dt) rotate(dt/2) kick(dt/2)."""
    dt = cfg.dt
    pos, vel = _component_major(state.pos), _component_major(state.vel)
    force, neighbours = None, None
    if cfg.interacting:
        force = forces(state.pos, cfg) if state.force is None else state.force
        vel = vel + (0.5 * dt / cfg.mass) * _component_major(force)
    rotation = _half_rotation(pos, cfg)
    vel = _boris_rotate(vel, *rotation)
    pos = pos + dt * vel
    if cfg.field.family != FAMILY_CONSTANT:
        rotation = _half_rotation(pos, cfg)
    vel = _boris_rotate(vel, *rotation)
    pos = _particle_major(pos)
    if cfg.interacting:
        if cfg.n > 1:
            neighbours = _neighbours(pos, cfg, state.neighbours)
        force = forces(pos, cfg, neighbours)
        vel = vel + (0.5 * dt / cfg.mass) * _component_major(force)
    return MDState(pos, _particle_major(vel), force, neighbours)


def init_state(cfg: SimConfig, trajectory_indices=None) -> MDState:
    """Lattice-plus-jitter positions and Maxwell-Boltzmann velocities.

    For N > 1 the center-of-mass velocity is removed; the draw temperature
    is inflated by N/(N-1) so each particle keeps variance T/m per
    component.  Jitter is bounded so no pair starts closer than 0.9 sigma.
    """
    if trajectory_indices is None:
        trajectory_indices = range(cfg.n_trajectories)
    indices = list(trajectory_indices)
    n = cfg.n
    n_side = math.ceil(n ** (1.0 / 3.0))
    spacing = cfg.box / n_side
    min_sep = _MIN_SEP * cfg.wca_sigma if cfg.interacting else 0.0
    if cfg.interacting and n > 1 and spacing < min_sep:
        raise ValueError("packing fraction too high to place particles")
    jitter_amp = min(0.2 * spacing, 0.5 * (spacing - min_sep)) if n > 1 else 0.45 * cfg.box
    sites = np.array([((i % n_side) + 0.5, ((i // n_side) % n_side) + 0.5,
                       (i // n_side ** 2) + 0.5) for i in range(n)])
    lattice = sites * spacing - cfg.box_half

    scale = math.sqrt(cfg.temperature / cfg.mass)
    if n > 1:
        scale *= math.sqrt(n / (n - 1.0))
    pos = np.empty((3, len(indices), n))
    vel = np.empty((3, len(indices), n))
    for row, r in enumerate(indices):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, int(r)]))
        pos[:, row] = (lattice + rng.uniform(-jitter_amp, jitter_amp, size=(n, 3))).T
        v = scale * rng.standard_normal((n, 3))
        if n > 1:
            v -= v.mean(axis=0, keepdims=True)
        vel[:, row] = v.T
    if cfg.interacting and n > 1 and _close_pairs(pos, cfg, _MIN_SEP)[0].size:
        raise ValueError("packing fraction too high to place particles")
    return MDState(_particle_major(pos), _particle_major(vel))


def equilibrate(state: MDState, cfg: SimConfig) -> MDState:
    """Burn-in with a velocity-rescaling thermostat (off during production)."""
    if cfg.equilibration == 0 or cfg.temperature == 0.0:
        return state
    target = 1.5 * cfg.n * cfg.temperature
    for k in range(cfg.equilibration):
        state = step(state, cfg)
        if (k + 1) % cfg.thermostat_interval == 0:
            factor = np.sqrt(target / np.maximum(_kinetic(state.vel, cfg), 1e-300))
            state = replace(state, vel=_particle_major(
                _component_major(state.vel) * factor[:, None]))
    return state


# ---------------------------------------------------------------------------
# correlator estimation


def _normalize_pairs(pairs) -> list[tuple]:
    out = []
    for p in pairs:
        if len(p) == 2:
            out.append((None, p[0], None, p[1]))
        elif len(p) == 4:
            out.append((p[0], p[1], p[2], p[3]))
        else:
            raise ValueError(f"bad correlator pair {p!r}")
    return out


def pair_label(pair) -> str:
    i, a, j, b = pair
    left = f"v{a}" if i is None else f"v{a}[{i}]"
    right = f"v{b}" if j is None else f"v{b}[{j}]"
    return f"{left}*{right}"


@dataclass(frozen=True)
class CorrelatorEstimate:
    """Time-origin averaged correlators with per-trajectory resolution.

    per_traj has shape (R, n_pairs, n_lags); mean and jackknife standard
    errors are derived over the trajectory axis.
    """

    lags: np.ndarray
    pairs: tuple
    per_traj: np.ndarray
    energy_drift: float = 0.0

    def mean(self) -> np.ndarray:
        return self.per_traj.mean(axis=0)

    def se(self) -> np.ndarray:
        return jackknife_se(self.per_traj)

    def labels(self) -> list[str]:
        return [pair_label(p) for p in self.pairs]


def jackknife_se(samples: np.ndarray) -> np.ndarray:
    """Leave-one-out jackknife standard error of the mean over axis 0."""
    r = samples.shape[0]
    if r < 2:
        return np.full(samples.shape[1:], np.inf)
    total = samples.sum(axis=0)
    loo = (total[None, ...] - samples) / (r - 1)
    center = loo.mean(axis=0)
    return np.sqrt((r - 1) / r * np.sum((loo - center) ** 2, axis=0))


# Velocity floats one chunk stores.  Criterion 6 (2000 trajectories of 2049
# samples, two components) fits, so it steps as one batch.  The FFT of a
# chunk runs in row blocks of at most _CHUNK_FLOATS // 32 padded samples.
_CHUNK_FLOATS = 1 << 23


def _pair_components(pairs) -> str:
    """The velocity components the pairs read, in xyz order."""
    used = {c for _, a, _, b in pairs for c in (a, b)}
    return "".join(c for c in COMPONENTS if c in used)


def _fft_size(n_samples: int) -> int:
    """Power-of-two length >= 2S: the circular correlation has no wrap-around."""
    return 1 << (2 * n_samples - 1).bit_length()


def _fft_correlate(series: np.ndarray, out: np.ndarray, comps: str, pairs) -> None:
    """Fill out (R, n_pairs, n_lags) with (1/(S-lag)) sum_t a[t] b[t+lag].

    series (len(comps), R, N, S) holds the sampled components; each is
    transformed once.  Particle-averaged pairs take the mean over N.
    """
    s = series.shape[-1]
    size = _fft_size(s)
    n_lags = out.shape[-1]
    norm = s - np.arange(n_lags)
    spectra = [np.fft.rfft(x, size, axis=-1) for x in series]
    for col, (i, a, j, b) in enumerate(pairs):
        fa = spectra[comps.index(a)]
        fb = spectra[comps.index(b)]
        if i is None and j is None:
            cc = np.fft.irfft(fa.conj() * fb, size, axis=-1)[..., :n_lags]
            out[:, col] = (cc / norm).mean(axis=1)
        else:
            cc = np.fft.irfft(fa[:, i].conj() * fb[:, j], size, axis=-1)[..., :n_lags]
            out[:, col] = cc / norm


def _chunk_correlators(cfg: SimConfig, indices, stride: int, n_samples: int,
                       n_lags: int, pairs) -> tuple[np.ndarray, float]:
    comps = _pair_components(pairs)
    picks = [COMPONENTS.index(c) for c in comps]
    state = equilibrate(init_state(cfg, indices), cfg)
    r = len(indices)
    # particles innermost: the FFT outputs keep this memory order, so the
    # particle mean sums contiguous values, which fixes its rounding
    series = np.empty((len(comps), r, n_samples, cfg.n))
    e0 = energy(state, cfg)
    for s in range(n_samples):
        series[:, :, s] = _component_major(state.vel)[picks]
        if s < n_samples - 1:
            for _ in range(stride):
                state = step(state, cfg)
    drift = float(np.max(np.abs(energy(state, cfg) - e0)
                         / np.maximum(np.abs(e0), 1e-300)))
    out = np.empty((r, len(pairs), n_lags))
    block = max(1, (_CHUNK_FLOATS >> 5) // (cfg.n * _fft_size(n_samples)))
    for lo in range(0, r, block):
        _fft_correlate(np.moveaxis(series[:, lo:lo + block], 2, -1), out[lo:lo + block],
                       comps, pairs)
    return out, drift


def velocity_correlator(cfg: SimConfig, pairs, max_lag: float,
                        stride: int = 1) -> CorrelatorEstimate:
    """Ensemble- and time-origin-averaged velocity correlators.

    The lag grid is stride * dt; per-trajectory estimates are kept so the
    jackknife errors and downstream Green-Kubo integrals propagate
    consistently.
    """
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    if not max_lag >= 0.0:
        raise ValueError(f"max_lag must be non-negative, got {max_lag}")
    pairs = _normalize_pairs(pairs)
    for pair in pairs:
        i, a, j, b = pair
        if a not in tuple(COMPONENTS) or b not in tuple(COMPONENTS):
            raise ValueError(f"pair {pair_label(pair)}: components must be x, y or z")
        if any(k is not None and not 0 <= k < cfg.n for k in (i, j)):
            raise ValueError(f"pair {pair_label(pair)}: particle index outside "
                             f"0..{cfg.n - 1}")
    dt_sample = cfg.dt * stride
    production = cfg.steps * cfg.dt
    if max_lag >= production:
        raise ValueError("max_lag must be shorter than the production window")
    n_samples = cfg.steps // stride + 1
    n_lags = int(round(max_lag / dt_sample)) + 1
    lags = np.arange(n_lags) * dt_sample

    stored = n_samples * cfg.n * len(_pair_components(pairs))
    chunk_size = max(1, min(cfg.n_trajectories, _CHUNK_FLOATS // max(1, stored)))
    chunks = [list(range(lo, min(lo + chunk_size, cfg.n_trajectories)))
              for lo in range(0, cfg.n_trajectories, chunk_size)]
    results = [_chunk_correlators(cfg, c, stride, n_samples, n_lags, pairs)
               for c in chunks]
    per_traj = np.concatenate([r[0] for r in results], axis=0)
    drift = max(r[1] for r in results)
    return CorrelatorEstimate(lags, tuple(pairs), per_traj, drift)


# ---------------------------------------------------------------------------
# Green-Kubo integrals and the symmetry verdicts

@dataclass(frozen=True)
class DiffusionTensor:
    """Green-Kubo integrals D[a, b] = int_0^tmax C_ab dt with jackknife errors.

    per_traj keeps the per-trajectory integrals (R, 3, 3) so errors of
    derived quantities (like D_xy + D_yx) propagate with the cross
    correlations intact.
    """

    d: np.ndarray
    se: np.ndarray
    t_max: float
    converged: bool
    per_traj: np.ndarray


def component_pairs() -> list[tuple]:
    """The nine particle-averaged component pairs (alpha, beta)."""
    return [(a, b) for a in COMPONENTS for b in COMPONENTS]


def diffusion_tensor(corr: CorrelatorEstimate, t_max: float) -> DiffusionTensor:
    """Integrate a correlator estimate of the nine component_pairs(), in
    their order, into the 3x3 tensor."""
    if list(corr.pairs) != _normalize_pairs(component_pairs()):
        raise ValueError("the diffusion tensor needs the nine component_pairs(), in order")
    if not t_max >= 0.0:
        raise ValueError(f"t_max must be non-negative, got {t_max}")
    if t_max > corr.lags[-1] + 1e-12:
        raise ValueError("t_max beyond the available lag grid")
    sel = corr.lags <= t_max + 1e-12
    samples = np.trapezoid(corr.per_traj[:, :, sel], corr.lags[sel], axis=-1).reshape(-1, 3, 3)

    # tail criterion: diagonal correlators must have decayed at the cutoff
    converged = True
    mean_c = corr.mean()
    tail = corr.lags[sel] >= 0.8 * t_max
    for k in (0, 4, 8):     # xx, yy, zz
        c0 = abs(mean_c[k, 0])
        tail_level = float(np.mean(np.abs(mean_c[k, sel][tail])))
        if c0 > 0 and tail_level > 0.2 * c0:
            converged = False
    return DiffusionTensor(samples.mean(axis=0), jackknife_se(samples), float(t_max),
                           converged, samples)


@dataclass(frozen=True)
class AntisymmetryVerdict:
    value: float            # D_xy + D_yx
    se: float
    ratio: float            # |value| / max(|D_xx|, |D_xy|)

    @property
    def passed(self) -> bool:
        return abs(self.value) <= SIGMA_GATE * self.se


def antisymmetry_check(tensor: DiffusionTensor) -> AntisymmetryVerdict:
    """Off-diagonal antisymmetry D_xy = -D_yx within combined errors.

    The combined error is the jackknife error of the per-trajectory sums,
    which keeps the cross correlation between the two estimates.
    """
    value = float(tensor.d[0, 1] + tensor.d[1, 0])
    se = float(jackknife_se(tensor.per_traj[:, 0, 1] + tensor.per_traj[:, 1, 0]))
    scale = max(abs(tensor.d[0, 0]), abs(tensor.d[0, 1]))
    ratio = abs(value) / scale if scale > 0 else math.inf
    return AntisymmetryVerdict(value, se, ratio)


@dataclass(frozen=True)
class DiffusionReport:
    """The 9-pair correlator, its Green-Kubo tensor and the antisymmetry verdict."""

    corr: CorrelatorEstimate
    tensor: DiffusionTensor
    verdict: AntisymmetryVerdict

    @property
    def passed(self) -> bool:
        """D_xy = -D_yx within 3 SE, at under a tenth of the tensor's scale,
        from correlators that have decayed by t_max."""
        return self.verdict.passed and self.verdict.ratio < 0.1 and self.tensor.converged

    def as_dict(self) -> dict:
        return {
            "d_xy": float(self.tensor.d[0, 1]), "d_yx": float(self.tensor.d[1, 0]),
            "sum": self.verdict.value, "se": self.verdict.se, "ratio": self.verdict.ratio,
            "converged": self.tensor.converged, "energy_drift": self.corr.energy_drift,
        }


def diffusion_check(cfg: SimConfig, max_lag: float, stride: int,
                    t_max: float | None = None) -> DiffusionReport:
    """Run the MD and integrate its correlators up to t_max (None: the last lag)."""
    corr = velocity_correlator(cfg, component_pairs(), max_lag, stride=stride)
    tensor = diffusion_tensor(corr, float(corr.lags[-1]) if t_max is None else t_max)
    return DiffusionReport(corr, tensor, antisymmetry_check(tensor))


def _sigma(diff: np.ndarray, se: np.ndarray) -> np.ndarray:
    """diff / se per lag, 0 where diff is exactly 0 (also where se is 0)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(diff == 0.0, 0.0, diff / se)


@dataclass(frozen=True)
class CasimirReport:
    """Correlators at field B against their partners at -B."""

    lags: np.ndarray
    pairs: tuple
    forward: np.ndarray
    reverse: np.ndarray
    se_combined: np.ndarray
    max_sigma: float

    @property
    def passed(self) -> bool:
        return self.max_sigma <= SIGMA_GATE


def casimir_check(cfg: SimConfig, pairs, max_lag: float,
                  stride: int = 1) -> CasimirReport:
    """<v_i^a(0) v_j^b(t)>_B = <v_j^b(0) v_i^a(t)>_-B within 3 SE per lag."""
    pairs = _normalize_pairs(pairs)
    swapped = [(j, b, i, a) for (i, a, j, b) in pairs]
    fwd = velocity_correlator(cfg, pairs, max_lag, stride)
    rev = velocity_correlator(replace(cfg, field=flip_field(cfg.field)),
                              swapped, max_lag, stride)
    se = np.sqrt(fwd.se() ** 2 + rev.se() ** 2)
    sigma = _sigma(np.abs(fwd.mean() - rev.mean()), se)
    return CasimirReport(fwd.lags, tuple(pairs), fwd.mean(), rev.mean(),
                         se, float(np.max(sigma)))


def forced_zero_pairs(spec: FieldSpec) -> list[tuple[str, str]]:
    """Component pairs (a, b) whose correlator is forced to zero: each compatible
    block A gives C(t) = A C(t)^T A^T, and e_ab lies in the row space of these
    conditions (its row-space weight is 1)."""
    blocks = np.array([op.A for op in find_compatible(spec).ops], dtype=float)
    weight = np.sum(symmetry_constraints(blocks.reshape(-1, 3, 3)) ** 2, axis=0)
    return [pair for pair, w in zip(component_pairs(), weight) if abs(w - 1.0) <= 1e-9]


@dataclass(frozen=True)
class VanishingReport:
    pairs: tuple
    max_sigma_per_pair: np.ndarray
    lags: np.ndarray

    @property
    def passed(self) -> bool:
        return bool(np.all(self.max_sigma_per_pair <= SIGMA_GATE))


def vanishing_correlator_check(cfg: SimConfig, max_lag: float,
                               stride: int = 1) -> VanishingReport:
    """Verify that symmetry-forced-zero correlators vanish within errors."""
    forced = forced_zero_pairs(cfg.field)
    if not forced:
        raise NotApplicable(
            f"no compatible operation forces a zero correlator for {cfg.field.label}")
    corr = velocity_correlator(cfg, forced, max_lag, stride)
    sigma = _sigma(np.abs(corr.mean()), corr.se())
    return VanishingReport(tuple(forced), sigma.max(axis=1), corr.lags)


# ---------------------------------------------------------------------------
# conjugacy

def state_from_phasepoint(gamma: PhasePoint, cfg: SimConfig) -> MDState:
    if gamma.dim != 3 * cfg.n:
        raise ValueError("phase point does not match particle count")
    pos = gamma.coords.reshape(1, cfg.n, 3).copy()
    vel = (gamma.momenta / cfg.mass).reshape(1, cfg.n, 3).copy()
    return MDState(pos, vel)


def phasepoint_from_state(state: MDState, cfg: SimConfig) -> PhasePoint:
    return PhasePoint(state.pos[0].reshape(-1),
                      (cfg.mass * state.vel[0]).reshape(-1))


def _apply_block(state: MDState, block: np.ndarray) -> MDState:
    pos, vel = np.ascontiguousarray(state.pos), np.ascontiguousarray(state.vel)
    return MDState(pos @ block.T, -(vel @ block.T))


def conjugacy_check(op: TimeReversalOp, gamma0: PhasePoint, n_steps: int,
                    cfg: SimConfig) -> float:
    """Relative deviation of M S^n M S^n from the identity at gamma0.

    For an operation whose per-particle block satisfies the field
    compatibility condition the deviation sits at roundoff; incompatible
    blocks (e.g. the identity) give order-one deviations.  A block that is
    not an orthogonal involution raises InvalidOperation.
    """
    if op.dim not in (3, 3 * cfg.n):
        raise ValueError("operation must act as a common per-particle block")
    block, _ = _validated_block(op)
    state = state_from_phasepoint(gamma0, cfg)
    for _ in range(n_steps):
        state = step(state, cfg)
    state = _apply_block(state, block)
    for _ in range(n_steps):
        state = step(state, cfg)
    state = _apply_block(state, block)
    final = phasepoint_from_state(state, cfg)
    ref = max(float(np.max(np.abs(gamma0.coords))),
              float(np.max(np.abs(gamma0.momenta))), 1e-300)
    dev = max(float(np.max(np.abs(final.coords - gamma0.coords))),
              float(np.max(np.abs(final.momenta - gamma0.momenta))))
    return dev / ref


# ---------------------------------------------------------------------------
# closed-form single-particle oracle used by tests and the verifier

def cyclotron_correlators(temperature: float, mass: float, charge: float,
                          b_z: float, lags: np.ndarray) -> dict:
    """Exact free-particle correlators in a constant field along z.

    C_xx = (T/m) cos(w t) and C_xy = -(T/m) sin(w t) with the signed
    frequency w = q B_z / m; cross pairs with z vanish.
    """
    omega = charge * b_z / mass
    amp = temperature / mass
    return {
        ("x", "x"): amp * np.cos(omega * lags),
        ("y", "y"): amp * np.cos(omega * lags),
        ("z", "z"): amp * np.ones_like(lags),
        ("x", "y"): -amp * np.sin(omega * lags),
        ("y", "x"): amp * np.sin(omega * lags),
        ("x", "z"): np.zeros_like(lags),
        ("z", "x"): np.zeros_like(lags),
        ("y", "z"): np.zeros_like(lags),
        ("z", "y"): np.zeros_like(lags),
    }
