import itertools
from dataclasses import replace

import numpy as np
import pytest

from treverse.cli import parse_sim_config
from treverse.fields import FieldSpec, builtin_fields, eval_field, find_compatible
from treverse.md import (
    CorrelatorEstimate,
    MDState,
    NotApplicable,
    SimConfig,
    antisymmetry_check,
    casimir_check,
    component_pairs,
    conjugacy_check,
    cyclotron_correlators,
    diffusion_tensor,
    energy,
    equilibrate,
    flip_field,
    forced_zero_pairs,
    forces,
    init_state,
    jackknife_se,
    phasepoint_from_state,
    potential_energy,
    state_from_phasepoint,
    step,
    vanishing_correlator_check,
    velocity_correlator,
)
from treverse import md
from treverse.md import (
    COMPONENTS, WCA_CUTOFF, _apply_block, _chunk_correlators, _normalize_pairs,
)
from treverse.phasespace import PhasePoint, TimeReversalOp, symmetry_constraints
from treverse.verify import diffusion_run_config, md_fields

CONST_Z = FieldSpec.constant([0.0, 0.0, 1.0], label="constant-z")
ZERO = FieldSpec.constant([0.0, 0.0, 0.0], label="zero")
KAWASAKI = TimeReversalOp(np.diag([1.0, -1.0, 1.0]), label="kawasaki")


def free_config(**kw):
    base = dict(n=1, field=CONST_Z, dt=0.02, steps=100, temperature=1.0, seed=0)
    base.update(kw)
    return SimConfig(**base)


def test_config_rejects_coarse_dt():
    with pytest.raises(ValueError):
        SimConfig(n=1, field=FieldSpec.constant([0, 0, 10.0]), dt=0.05, steps=10)


def test_init_single_particle_equipartition():
    cfg = free_config(n_trajectories=10_000)
    state = init_state(cfg)
    var = state.vel[:, 0, 0].var()
    se = np.sqrt(2.0 / 10_000)      # var of variance estimator for a Gaussian
    assert abs(var - 1.0) <= 3 * se


def test_init_zero_temperature():
    state = init_state(free_config(temperature=0.0, n_trajectories=4))
    assert np.all(state.vel == 0.0)


@pytest.mark.parametrize("n", [1, 16])
def test_init_mean_kinetic_energy(n):
    cfg = SimConfig(n=n, field=CONST_Z, dt=0.01, steps=10, temperature=1.3,
                    seed=3, n_trajectories=10_000,
                    wca_epsilon=1.0 if n > 1 else None,
                    box_half=2.0 if n > 1 else 1.0)
    state = init_state(cfg)
    ke = 0.5 * cfg.mass * np.sum(state.vel ** 2, axis=(1, 2))
    target = 1.5 * n * cfg.temperature
    se = ke.std(ddof=1) / np.sqrt(len(ke))
    assert abs(ke.mean() - target) <= 3 * se


def test_init_respects_overlap_floor():
    cfg = SimConfig(n=16, field=CONST_Z, dt=0.01, steps=10, wca_epsilon=1.0,
                    box_half=2.0, seed=5, n_trajectories=20)
    state = init_state(cfg)
    d = state.pos[:, :, None, :] - state.pos[:, None, :, :]
    d -= cfg.box * np.rint(d / cfg.box)
    r = np.sqrt((d ** 2).sum(-1))
    r[:, np.arange(16), np.arange(16)] = np.inf
    assert r.min() >= 0.9 * cfg.wca_sigma


def test_init_packing_failure():
    with pytest.raises(ValueError):
        init_state(SimConfig(n=64, field=ZERO, dt=0.01, steps=1,
                             wca_epsilon=1.0, box_half=1.0, seed=0))


def test_straight_line_motion_without_field():
    cfg = SimConfig(n=1, field=ZERO, dt=0.1, steps=10)
    state = MDState(np.zeros((1, 1, 3)), np.array([[[0.3, -0.2, 0.7]]]))
    for _ in range(10):
        state = step(state, cfg)
    assert np.allclose(state.pos[0, 0], [0.3, -0.2, 0.7], atol=1e-15)
    assert np.array_equal(state.vel[0, 0], [0.3, -0.2, 0.7])


def test_cyclotron_orbit_second_order():
    errors = {}
    for dt in (0.02, 0.01):
        steps = int(round(2 * np.pi / dt))
        cfg = free_config(dt=dt, steps=steps)
        state = MDState(np.zeros((1, 1, 3)), np.array([[[1.0, 0.0, 0.0]]]))
        for _ in range(steps):
            state = step(state, cfg)
        t = steps * dt
        exact_v = np.array([np.cos(t), -np.sin(t), 0.0])
        exact_x = np.array([np.sin(t), np.cos(t) - 1.0, 0.0])
        errors[dt] = max(np.max(np.abs(state.vel[0, 0] - exact_v)),
                         np.max(np.abs(state.pos[0, 0] - exact_x)))
    assert errors[0.02] <= 5.0 * 0.02 ** 2 * 2 * np.pi
    assert errors[0.02] / errors[0.01] == pytest.approx(4.0, rel=0.2)


def test_speed_conserved_in_pure_field():
    cfg = free_config(dt=0.05, steps=1)
    state = MDState(np.zeros((1, 1, 3)), np.array([[[1.0, 0.5, -0.2]]]))
    speed0 = np.linalg.norm(state.vel)
    for _ in range(2000):
        state = step(state, cfg)
    assert abs(np.linalg.norm(state.vel) - speed0) <= 1e-12


def test_energy_drift_long_interacting_run():
    cfg = SimConfig(n=16, field=CONST_Z, dt=1e-3, steps=100_000,
                    temperature=1.0, box_half=1.71, wca_epsilon=1.0,
                    seed=3, equilibration=1000)
    state = equilibrate(init_state(cfg, [0]), cfg)
    energies = [energy(state, cfg)[0]]
    for s in range(1, cfg.steps + 1):
        state = step(state, cfg)
        if s % 500 == 0:
            energies.append(energy(state, cfg)[0])
    drift = np.max(np.abs(np.array(energies) - energies[0])) / abs(energies[0])
    assert drift <= 1e-4


def _dense_pairs(pos, cfg):
    d = pos[:, :, None, :] - pos[:, None, :, :]
    d -= cfg.box * np.rint(d / cfg.box)
    r2 = np.sum(d * d, axis=-1)
    n = pos.shape[1]
    r2[:, np.arange(n), np.arange(n)] = np.inf
    return d, r2


def dense_forces(pos, cfg):
    # the all-pairs kernel the half-pair one replaced, kept as its oracle
    d, r2 = _dense_pairs(pos, cfg)
    cut2 = (WCA_CUTOFF * cfg.wca_sigma) ** 2
    inv2 = np.where(r2 < cut2, cfg.wca_sigma ** 2 / r2, 0.0)
    inv6 = inv2 ** 3
    coef = 24.0 * cfg.wca_epsilon * (2.0 * inv6 * inv6 - inv6) * inv2 / cfg.wca_sigma ** 2
    return np.einsum("rijk,rij->rik", d, coef)


def dense_potential_energy(pos, cfg):
    _, r2 = _dense_pairs(pos, cfg)
    cut2 = (WCA_CUTOFF * cfg.wca_sigma) ** 2
    inside = r2 < cut2
    inv6 = np.where(inside, (cfg.wca_sigma ** 2 / r2) ** 3, 0.0)
    pair = np.where(inside, 4.0 * cfg.wca_epsilon * (inv6 * inv6 - inv6) + cfg.wca_epsilon, 0.0)
    return 0.5 * np.sum(pair, axis=(1, 2))


@pytest.mark.parametrize("r", [1, 5, 40])
@pytest.mark.parametrize("n", [2, 16, 27])
def test_half_pair_kernel_bitwise_equals_dense(r, n):
    # dilute: the criterion-7 density a few steps after set-up
    dilute = SimConfig(n=n, field=CONST_Z, dt=0.002, steps=5, box_half=2.55,
                       wca_epsilon=1.0, seed=n, n_trajectories=r)
    state = init_state(dilute)
    for _ in range(dilute.steps):
        state = step(state, dilute)
    # compressed: most pairs inside the cutoff, positions spread over three
    # box widths so the minimum image folds most displacements
    compressed = SimConfig(n=n, field=CONST_Z, dt=0.002, steps=1, box_half=0.75,
                           wca_epsilon=1.3, wca_sigma=0.9, seed=n, n_trajectories=r)
    rng = np.random.default_rng([r, n])
    packed = rng.uniform(-2.25, 2.25, size=(r, n, 3))
    _, r2 = _dense_pairs(packed, compressed)
    off_diagonal = r2[np.isfinite(r2)]
    assert np.mean(off_diagonal < (WCA_CUTOFF * 0.9) ** 2) > 0.5
    for pos, cfg in ((state.pos, dilute), (packed, compressed)):
        assert forces(pos, cfg).tobytes() == dense_forces(pos, cfg).tobytes()
        assert potential_energy(pos, cfg).tobytes() == dense_potential_energy(pos, cfg).tobytes()


def test_force_cache_matches_fresh_evaluation(monkeypatch):
    cfg = SimConfig(n=16, field=CONST_Z, dt=0.002, steps=30, box_half=2.55,
                    wca_epsilon=1.0, seed=4, n_trajectories=3, equilibration=20,
                    thermostat_interval=5)

    def run():
        state = equilibrate(init_state(cfg), cfg)
        for _ in range(cfg.steps):
            state = md.step(state, cfg)
        return state

    # the run ends on a thermostat rescale, which keeps force and list
    assert cfg.equilibration % cfg.thermostat_interval == 0
    assert equilibrate(init_state(cfg), cfg).neighbours is not None
    cached = run()
    assert cached.force.tobytes() == forces(cached.pos, cfg).tobytes()
    real_step = md.step
    # a state stripped of both the force and the neighbour list
    monkeypatch.setattr(md, "step", lambda state, c: real_step(MDState(state.pos, state.vel), c))
    stripped = run()
    monkeypatch.undo()
    for name in ("pos", "vel", "force"):
        assert getattr(cached, name).tobytes() == getattr(stripped, name).tobytes()

    # the conjugacy map moves positions, so the cached force and list must go
    # with it, as they must from every state not made by step
    reflected = _apply_block(cached, KAWASAKI.matrix())
    assert reflected.force is None and reflected.neighbours is None
    assert init_state(cfg).neighbours is None
    assert state_from_phasepoint(phasepoint_from_state(cached, cfg), cfg).neighbours is None
    after = step(reflected, cfg)
    fresh = step(MDState(reflected.pos.copy(), reflected.vel.copy()), cfg)
    assert after.vel.tobytes() == fresh.vel.tobytes()
    copied = cached.copy()
    assert copied.force is not cached.force
    assert copied.force.tobytes() == cached.force.tobytes()
    assert copied.neighbours is cached.neighbours


def _rebuilds(state, cfg, steps):
    """The state after steps, and the number of list rebuilds after the first build."""
    rebuilds = 0
    for _ in range(steps):
        previous = state.neighbours
        state = step(state, cfg)
        rebuilds += previous is not None and state.neighbours is not previous
    return state, rebuilds


@pytest.mark.parametrize("cfg", [
    replace(diffusion_run_config(md_fields()["constant-z"], 42, "quick"), equilibration=0),
    SimConfig(n=16, field=CONST_Z, dt=0.004, steps=1, wca_epsilon=1.0, box_half=1.71,
              seed=42),
], ids=["criterion-7-quick", "criterion-8-dense"])
def test_neighbour_list_step_bitwise_equals_list_free(monkeypatch, cfg):
    steps = 3000
    listed, rebuilds = _rebuilds(init_state(cfg), cfg, steps)
    assert rebuilds > 1
    monkeypatch.setattr(md, "forces", lambda pos, c, neighbours=None: dense_forces(pos, c))
    free, _ = _rebuilds(init_state(cfg), cfg, steps)
    for name in ("pos", "vel", "force"):
        assert getattr(listed, name).tobytes() == getattr(free, name).tobytes()


def test_neighbour_list_rebuilds_past_half_skin():
    # head-on pairs on the x axis: trajectory 0 starts just outside
    # cutoff + skin, trajectory 1 just inside it
    cfg = SimConfig(n=2, field=CONST_Z, dt=0.002, steps=1, box_half=2.55, wca_epsilon=1.0)
    skin, edge, delta = md._SKIN, WCA_CUTOFF + md._SKIN, 1e-3
    pos = np.zeros((2, 2, 3))
    for r, gap in enumerate((edge + delta, edge - 4 * delta)):
        pos[r, :, 0] = -0.5 * gap, 0.5 * gap
    listed = md._neighbours(pos, cfg, None)
    assert (listed.a.tolist(), listed.b.tolist()) == ([2], [3])

    def closer(move):
        moved = pos.copy()
        moved[:, 0, 0] += move
        moved[:, 1, 0] -= move
        return moved

    # each moved just under skin/2: no rebuild, and trajectory 1's pair,
    # now inside the cutoff, is the only one with a force
    moved = closer(0.5 * skin - delta)
    assert md._neighbours(moved, cfg, listed) is listed
    force = forces(moved, cfg, listed)
    assert np.all(force[0] == 0.0) and np.all(force[1, :, 0] != 0.0)
    assert force.tobytes() == forces(moved, cfg).tobytes()
    # just over skin/2: trajectory 0's unlisted pair is inside the cutoff now
    moved = closer(0.5 * skin + delta)
    rebuilt = md._neighbours(moved, cfg, listed)
    assert rebuilt is not listed
    assert (rebuilt.a.tolist(), rebuilt.b.tolist()) == ([0, 2], [1, 3])
    force = forces(moved, cfg, rebuilt)
    assert np.all(force[:, :, 0] != 0.0)
    assert force.tobytes() == forces(moved, cfg).tobytes()


def cross_boris_rotate(vel, bvec, half_angle):
    # the np.cross form of the rotation, kept as its oracle
    t = half_angle * bvec
    vp = vel + np.cross(vel, t)
    s = 2.0 * t / (1.0 + np.sum(t * t, axis=-1, keepdims=True))
    return vel + np.cross(vp, s)


def field_evaluating_step(state, cfg):
    # the step that evaluated every field at the wrapped positions and
    # rotated with the np.cross form, kept as its oracle
    dt = cfg.dt
    qm = cfg.charge / cfg.mass
    pos, vel, force = state.pos, state.vel, None
    if cfg.interacting:
        force = forces(pos, cfg) if state.force is None else state.force
        vel = vel + (0.5 * dt / cfg.mass) * force
    bvec = eval_field(cfg.field, md._wrap(pos, cfg.box))
    vel = cross_boris_rotate(vel, bvec, qm * dt / 4.0)
    pos = pos + dt * vel
    bvec = eval_field(cfg.field, md._wrap(pos, cfg.box))
    vel = cross_boris_rotate(vel, bvec, qm * dt / 4.0)
    if cfg.interacting:
        force = forces(pos, cfg)
        vel = vel + (0.5 * dt / cfg.mass) * force
    return MDState(pos, vel, force)


@pytest.mark.parametrize("shape", [(1, 1, 3), (50, 1, 3), (325, 1, 3), (40, 16, 3), (7, 27, 3)])
def test_boris_rotation_bitwise_equals_cross_form(shape):
    rng = np.random.default_rng(list(shape))
    for _ in range(20):
        vel = rng.standard_normal(shape)
        bvec = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 1.0)
        half_angle = rng.uniform(1e-4, 0.3)
        expected = cross_boris_rotate(vel, bvec, half_angle)
        assert md._boris_rotate(vel, bvec, half_angle).tobytes() == expected.tobytes()
        # a field that does not vary is passed as one 3-vector
        uniform = np.broadcast_to(bvec[0, 0], shape)
        expected = cross_boris_rotate(vel, uniform, half_angle)
        assert md._boris_rotate(vel, bvec[0, 0], half_angle).tobytes() == expected.tobytes()


WCA_FLUID = dict(n=16, dt=0.002, steps=200, box_half=2.55, wca_epsilon=1.0, seed=3,
                 n_trajectories=4)


@pytest.mark.parametrize("cfg", [
    # tilted, so every component of B enters every cross product
    SimConfig(n=1, field=FieldSpec.constant([0.3, -0.5, 0.4]), dt=0.02, steps=300,
              seed=5, n_trajectories=50),
    SimConfig(field=md_fields()["constant-z"], **WCA_FLUID),
    SimConfig(field=md_fields()["axial-md"], **WCA_FLUID),
    SimConfig(n=2, field=FieldSpec.planar([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
              dt=0.01, steps=300, seed=6, n_trajectories=20),
    SimConfig(n=16, field=CONST_Z, dt=0.004, steps=200, wca_epsilon=1.0, box_half=1.71,
              seed=7),
], ids=["free-constant", "wca-constant-z", "wca-axial-md", "free-planar", "conjugacy-r1"])
def test_step_bitwise_equals_field_evaluating_step(cfg):
    state = init_state(cfg)
    expected = state.copy()
    for _ in range(cfg.steps):
        state = step(state, cfg)
        expected = field_evaluating_step(expected, cfg)
    assert state.pos.tobytes() == expected.pos.tobytes()
    assert state.vel.tobytes() == expected.vel.tobytes()
    if cfg.interacting:
        assert state.force.tobytes() == expected.force.tobytes()


def test_conjugacy_free_particle():
    cfg = free_config(steps=1)
    gamma = PhasePoint([0.3, -0.2, 0.5], [1.0, 0.4, -0.3])
    assert conjugacy_check(KAWASAKI, gamma, 500, cfg) <= 1e-10


def test_conjugacy_incompatible_identity():
    cfg = free_config(steps=1)
    gamma = PhasePoint([0.3, -0.2, 0.5], [1.0, 0.4, -0.3])
    assert conjugacy_check(TimeReversalOp(np.eye(3)), gamma, 500, cfg) > 0.1


def test_conjugacy_requires_common_block():
    cfg = SimConfig(n=2, field=CONST_Z, dt=0.02, steps=1)
    perm = np.arange(6)
    perm[0], perm[5] = 5, 0
    cross = TimeReversalOp.from_signed_permutation(perm, np.ones(6, dtype=int))
    gamma = PhasePoint(np.arange(6.0), np.ones(6))
    with pytest.raises(ValueError):
        conjugacy_check(cross, gamma, 10, cfg)


def test_correlator_against_cyclotron_oracle_small():
    max_lag = 4 * np.pi
    dt = max_lag / 255 / 4
    cfg = free_config(dt=dt, steps=4096, seed=7, n_trajectories=500)
    corr = velocity_correlator(cfg, [("x", "x"), ("x", "y")], max_lag, stride=4)
    oracle = cyclotron_correlators(1.0, 1.0, 1.0, 1.0, corr.lags)
    mean, se = corr.mean(), corr.se()
    assert np.max(np.abs(mean[0] - oracle[("x", "x")]) / se[0]) <= 3.5
    assert np.max(np.abs(mean[1] - oracle[("x", "y")]) / se[1]) <= 3.5
    assert abs(mean[1][0]) <= 3 * se[1][0]          # C_xy(0) = 0


def test_correlator_zero_field_cross_component():
    cfg = free_config(field=ZERO, dt=0.05, steps=1200, seed=8, n_trajectories=400)
    corr = velocity_correlator(cfg, [("x", "y")], 10.0, stride=4)
    assert np.max(np.abs(corr.mean()[0]) / corr.se()[0]) <= 3.5


def test_correlator_rejects_long_lag():
    cfg = free_config(steps=100)
    with pytest.raises(ValueError):
        velocity_correlator(cfg, [("x", "x")], max_lag=10.0)


def test_negative_lag_and_cutoff_rejected():
    cfg = free_config(steps=100, n_trajectories=3)
    with pytest.raises(ValueError, match="max_lag must be non-negative"):
        velocity_correlator(cfg, [("x", "x")], max_lag=-0.05)
    corr = velocity_correlator(cfg, component_pairs(), max_lag=0.5)
    for t_max in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="t_max must be non-negative"):
            diffusion_tensor(corr, t_max)


@pytest.mark.parametrize("pair, message", [
    (("x", "w"), "components must be x, y or z"),
    (("xy", "x"), "components must be x, y or z"),
    ((0, "x", 2, "y"), "particle index outside 0..1"),
    ((-1, "x", 0, "y"), "particle index outside 0..1"),
])
def test_correlator_rejects_bad_pairs_before_stepping(monkeypatch, pair, message):
    def no_md(*args):
        raise AssertionError("MD ran for an unusable pair")

    monkeypatch.setattr(md, "init_state", no_md)
    cfg = free_config(n=2, steps=100, n_trajectories=3)
    with pytest.raises(ValueError, match=message):
        velocity_correlator(cfg, [("x", "x"), pair], max_lag=0.5)


def test_per_traj_independent_of_chunking(monkeypatch):
    # one trajectory's estimate depends only on its own index, never on
    # which other trajectories share its chunk or its FFT block; at 1 << 16
    # stored floats the N=16 chunks transform in blocks of two rows, so the
    # split [0, 1], [2, 3] lands on a block boundary and [1, 2] straddles one
    pairs = _normalize_pairs(component_pairs() + [(0, "x", 0, "y")])
    configs = [SimConfig(n=16, field=field, dt=0.004, steps=60, box_half=2.55,
                         wca_epsilon=1.0, seed=3, n_trajectories=4, equilibration=40)
               for field in md_fields().values()]
    configs.append(free_config(steps=60, n_trajectories=4))
    _, blocks = _record_blocks(monkeypatch)
    for chunk_floats in (md._CHUNK_FLOATS, 1 << 16):
        monkeypatch.setattr(md, "_CHUNK_FLOATS", chunk_floats)
        for cfg in configs:
            blocks.clear()
            whole, _ = _chunk_correlators(cfg, [0, 1, 2, 3], 3, 21, 8, pairs)
            assert blocks == ([2, 2] if cfg.n == 16 and chunk_floats == 1 << 16 else [4])
            for parts in (([0], [1, 2], [3]), ([0, 1], [2, 3])):
                split = [_chunk_correlators(cfg, part, 3, 21, 8, pairs)[0] for part in parts]
                assert whole.tobytes() == np.concatenate(split).tobytes()


def pairwise_fft_correlate(a, b, n_lags):
    # the correlator that transformed both operands of every pair, kept
    # with the two functions below as the oracle of the blocked one
    s = a.shape[-1]
    size = 1
    while size < 2 * s:
        size *= 2
    fa = np.fft.rfft(a, size, axis=-1)
    fb = np.fft.rfft(b, size, axis=-1)
    cc = np.fft.irfft(fa.conj() * fb, size, axis=-1)[..., :n_lags]
    return cc / (s - np.arange(n_lags))


def three_component_chunk(cfg, indices, stride, n_samples, n_lags, pairs):
    state = equilibrate(init_state(cfg, indices), cfg)
    r = len(indices)
    vels = np.empty((r, n_samples, cfg.n, 3))
    e0 = energy(state, cfg)
    for s in range(n_samples):
        vels[:, s] = state.vel
        if s < n_samples - 1:
            for _ in range(stride):
                state = step(state, cfg)
    drift = float(np.max(np.abs(energy(state, cfg) - e0)
                         / np.maximum(np.abs(e0), 1e-300)))
    out = np.empty((r, len(pairs), n_lags))
    for col, (i, a, j, b) in enumerate(pairs):
        ai = md.COMPONENTS.index(a)
        bi = md.COMPONENTS.index(b)
        if i is None and j is None:
            series_a = np.moveaxis(vels[:, :, :, ai], 1, -1)
            series_b = np.moveaxis(vels[:, :, :, bi], 1, -1)
            out[:, col] = pairwise_fft_correlate(series_a, series_b, n_lags).mean(axis=1)
        else:
            out[:, col] = pairwise_fft_correlate(vels[:, :, i, ai], vels[:, :, j, bi], n_lags)
    return out, drift


def three_component_correlator(cfg, pairs, max_lag, stride):
    # chunks of at most 2e6 stored floats, all three components stored
    pairs = _normalize_pairs(pairs)
    n_samples = cfg.steps // stride + 1
    n_lags = int(round(max_lag / (cfg.dt * stride))) + 1
    size = max(1, min(cfg.n_trajectories, 2_000_000 // (n_samples * cfg.n * 3)))
    results = [three_component_chunk(cfg, list(range(lo, min(lo + size, cfg.n_trajectories))),
                                     stride, n_samples, n_lags, pairs)
               for lo in range(0, cfg.n_trajectories, size)]
    return np.concatenate([r[0] for r in results]), max(r[1] for r in results)


def _record_blocks(monkeypatch):
    # the rows of every chunk and every FFT block velocity_correlator runs
    chunks, blocks = [], []
    chunk, fft = md._chunk_correlators, md._fft_correlate

    def record_chunk(cfg, indices, *args):
        chunks.append(len(indices))
        return chunk(cfg, indices, *args)

    def record_fft(series, out, *args):
        blocks.append(out.shape[0])
        return fft(series, out, *args)

    monkeypatch.setattr(md, "_chunk_correlators", record_chunk)
    monkeypatch.setattr(md, "_fft_correlate", record_fft)
    return chunks, blocks


WCA_PAIRS = component_pairs() + [(0, "x", 3, "y"), (2, "z", 2, "z"), (5, "y", 1, "x")]
WCA_SHORT = dict(n=16, dt=0.004, steps=60, box_half=2.55, wca_epsilon=1.0, seed=5,
                 n_trajectories=5, equilibration=40)


@pytest.mark.parametrize("cfg, pairs, chunk_floats, chunks, blocks", [
    # free N=1: pairs reading one component, two, and two that skip y
    (free_config(steps=400, seed=11, n_trajectories=50), [("y", "y")], None, [50], [50]),
    (free_config(steps=400, seed=11, n_trajectories=50), [("x", "x"), ("x", "y")], None,
     [50], [50]),
    (free_config(steps=400, seed=11, n_trajectories=50), [("z", "x")], None, [50], [50]),
    (SimConfig(field=md_fields()["constant-z"], **WCA_SHORT), WCA_PAIRS, None, [5], [5]),
    (SimConfig(field=md_fields()["axial-md"], **WCA_SHORT), WCA_PAIRS, None, [5], [5]),
    # 21 samples pad to 64: 6144 floats give chunks of 146 rows and blocks
    # of 3, 2016 give N=16 chunks of 2 rows and blocks of 1
    (free_config(steps=60, seed=12, n_trajectories=300), [("x", "x"), ("x", "y")], 6144,
     [146, 146, 8], [3] * 48 + [2] + [3] * 48 + [2] + [3, 3, 2]),
    (SimConfig(field=md_fields()["axial-md"], **WCA_SHORT), WCA_PAIRS, 2016,
     [2, 2, 1], [1] * 5),
], ids=["free-y", "free-xy", "free-xz", "wca-constant-z", "wca-axial-md",
        "free-forced", "wca-forced"])
def test_correlator_bitwise_equals_three_component_form(monkeypatch, cfg, pairs,
                                                        chunk_floats, chunks, blocks):
    max_lag, stride = 10 * cfg.dt * 3, 3
    per_traj, drift = three_component_correlator(cfg, pairs, max_lag, stride)
    if chunk_floats is not None:
        monkeypatch.setattr(md, "_CHUNK_FLOATS", chunk_floats)
    seen_chunks, seen_blocks = _record_blocks(monkeypatch)
    corr = velocity_correlator(cfg, pairs, max_lag, stride)
    assert (seen_chunks, seen_blocks) == (chunks, blocks)
    assert corr.per_traj.tobytes() == per_traj.tobytes()
    assert corr.energy_drift == drift


def test_estimator_stationarity_between_halves():
    # same trajectories, origins restricted to first vs second production half
    cfg = free_config(dt=0.05, steps=1600, seed=9, n_trajectories=300)
    state = init_state(cfg)
    samples = np.empty((300, 1601, 3))
    for s in range(1601):
        samples[:, s] = state.vel[:, 0, :]
        if s < 1600:
            state = step(state, cfg)
    n_lags = 40

    def half_correlator(block):
        s = block.shape[1]
        out = np.empty((block.shape[0], n_lags))
        for lag in range(n_lags):
            out[:, lag] = np.mean(block[:, :s - lag, 0] * block[:, lag:, 1], axis=1)
        return out

    first = half_correlator(samples[:, :800])
    second = half_correlator(samples[:, 800:])
    diff = first.mean(axis=0) - second.mean(axis=0)
    se = np.sqrt(jackknife_se(first) ** 2 + jackknife_se(second) ** 2)
    assert np.max(np.abs(diff) / se) <= 3.5


def test_diffusion_ballistic_flagged_nonconverged():
    cfg = free_config(field=ZERO, dt=0.05, steps=1200, seed=10, n_trajectories=64)
    corr = velocity_correlator(cfg, component_pairs(), 10.0, stride=4)
    short = diffusion_tensor(corr, 5.0)
    longer = diffusion_tensor(corr, 10.0)
    assert not short.converged
    # ballistic growth: D scales with the cutoff
    assert longer.d[0, 0] == pytest.approx(2.0 * short.d[0, 0], rel=0.05)


def test_free_particle_diffusion_integral_matches_quadrature():
    lags = np.linspace(0.0, 4 * np.pi, 257)
    oracle = cyclotron_correlators(1.0, 1.0, 1.0, 1.0, lags)
    d_xy = np.trapezoid(oracle[("x", "y")], lags)
    closed = -(1.0 - np.cos(lags[-1]))      # -(T/m)(1 - cos(w t))/w at w = 1
    assert d_xy == pytest.approx(closed, abs=1e-4)


def diffusion_tensor_by_pair(corr, t_max):
    """d, se and per-trajectory integrals placed pair by pair into the 3x3 grid."""
    sel = corr.lags <= t_max + 1e-12
    per_traj_d = np.trapezoid(corr.per_traj[:, :, sel], corr.lags[sel], axis=-1)
    mean_d, se_d = per_traj_d.mean(axis=0), jackknife_se(per_traj_d)
    index = {(a, b): k for k, (_, a, _, b) in enumerate(corr.pairs)}
    d, se = np.empty((3, 3)), np.empty((3, 3))
    samples = np.empty((per_traj_d.shape[0], 3, 3))
    for r, a in enumerate("xyz"):
        for c, b in enumerate("xyz"):
            k = index[(a, b)]
            d[r, c], se[r, c], samples[:, r, c] = mean_d[k], se_d[k], per_traj_d[:, k]
    return d, se, samples


@pytest.mark.parametrize("r", [1, 2, 7, 40])
def test_diffusion_tensor_matches_pairwise_assembly(r):
    rng = np.random.default_rng(r)
    lags = np.arange(31) * 0.026
    corr = CorrelatorEstimate(lags, tuple(_normalize_pairs(component_pairs())),
                              rng.normal(size=(r, 9, lags.size)))
    for t_max in (float(lags[-1]), 0.5):
        tensor = diffusion_tensor(corr, t_max)
        for got, want in zip((tensor.d, tensor.se, tensor.per_traj),
                             diffusion_tensor_by_pair(corr, t_max)):
            assert got.tobytes() == want.tobytes()


def test_diffusion_tensor_needs_the_nine_component_pairs():
    lags = np.arange(5) * 0.1
    pairs = _normalize_pairs(component_pairs())
    for subset in (pairs[:1], pairs[::-1]):
        corr = CorrelatorEstimate(lags, tuple(subset), np.ones((3, len(subset), 5)))
        with pytest.raises(ValueError, match="nine component_pairs"):
            diffusion_tensor(corr, 0.4)


def test_antisymmetry_exact_for_analytic_tensor():
    lags = np.linspace(0.0, 2 * np.pi, 129)
    oracle = cyclotron_correlators(1.0, 1.0, 1.0, 1.0, lags)
    pairs = [(None, a, None, b) for a in "xyz" for b in "xyz"]
    per_traj = np.stack([np.stack([oracle[(a, b)] for _, a, _, b in pairs])] * 2)
    corr = CorrelatorEstimate(lags, tuple(pairs), per_traj)
    tensor = diffusion_tensor(corr, lags[-1])
    verdict = antisymmetry_check(tensor)
    assert verdict.value == pytest.approx(0.0, abs=1e-12)
    assert verdict.passed


def test_casimir_free_particle_closed_form():
    # C_xy(t; B) = C_yx(t; -B) and C_xy(t; B) = -C_xy(t; -B) exactly
    lags = np.linspace(0, 2 * np.pi, 50)
    fwd = cyclotron_correlators(1.0, 1.0, 1.0, 1.0, lags)
    rev = cyclotron_correlators(1.0, 1.0, 1.0, -1.0, lags)
    assert np.allclose(fwd[("x", "y")], rev[("y", "x")])
    assert np.allclose(fwd[("x", "y")], -rev[("x", "y")])


def test_casimir_check_free_particle(monkeypatch):
    calls = spy_sigma(monkeypatch)
    cfg = free_config(dt=0.05, steps=1500, seed=11, n_trajectories=300)
    report = casimir_check(cfg, [("x", "y")], max_lag=8.0, stride=4)
    assert report.passed
    [(diff, se, sigma)] = calls
    assert diff.tobytes() == np.abs(report.forward - report.reverse).tobytes()
    assert se.tobytes() == report.se_combined.tobytes()
    assert sigma.tobytes() == replaced_casimir_sigma(diff, se).tobytes()
    assert report.max_sigma == float(np.max(sigma))


def test_casimir_interacting_desk_scale():
    cfg = SimConfig(n=16, field=CONST_Z, dt=0.002, steps=12000, temperature=1.0,
                    box_half=1.71, wca_epsilon=1.0, seed=7, n_trajectories=24,
                    equilibration=2500)
    report = casimir_check(cfg, [("x", "y")], max_lag=5.0, stride=12)
    assert report.passed


def test_casimir_zero_field_runs_identical():
    cfg = free_config(field=ZERO, dt=0.05, steps=600, seed=12, n_trajectories=50)
    fwd = velocity_correlator(cfg, [("x", "y")], 4.0, stride=4)
    from dataclasses import replace
    rev = velocity_correlator(replace(cfg, field=flip_field(ZERO)),
                              [("x", "y")], 4.0, stride=4)
    assert np.array_equal(fwd.per_traj, rev.per_traj)
    assert casimir_check(cfg, [("x", "y")], max_lag=4.0, stride=4).passed


def test_forced_zero_pairs_constant_field():
    forced = forced_zero_pairs(CONST_Z)
    assert forced == [("x", "z"), ("y", "z"), ("z", "x"), ("z", "y")]
    assert ("x", "y") not in forced


def test_forced_zero_pairs_zero_field():
    forced = forced_zero_pairs(ZERO)
    assert len(forced) == 6          # every cross-component pair


def test_forced_zero_pairs_axial_matches_constant():
    assert forced_zero_pairs(FieldSpec.axial([1.0, 0.2])) == forced_zero_pairs(CONST_Z)


def _slot_action(block, axis):
    """Image (component, sign) of velocity component `axis` under -R."""
    row = -block[axis]
    col = int(np.argmax(np.abs(row)))
    return col, int(round(row[col]))


def pairwise_forced_zero_pairs(spec):
    """The search forced_zero_pairs replaced: two compatible operations acting
    identically on one velocity slot and with opposite signs (same image
    component) on the other pin the correlator to minus itself."""
    blocks = [op.A.astype(float) for op in find_compatible(spec).ops]
    forced = set()
    for ai in range(3):
        for bi in range(3):
            if ai == bi:
                continue
            for x in range(len(blocks)):
                for y in range(x + 1, len(blocks)):
                    a1, a2 = _slot_action(blocks[x], ai), _slot_action(blocks[y], ai)
                    b1, b2 = _slot_action(blocks[x], bi), _slot_action(blocks[y], bi)
                    same_a = a1 == a2
                    opposite_b = b1[0] == b2[0] and b1[1] == -b2[1]
                    same_b = b1 == b2
                    opposite_a = a1[0] == a2[0] and a1[1] == -a2[1]
                    if (same_a and opposite_b) or (same_b and opposite_a):
                        forced.add((COMPONENTS[ai], COMPONENTS[bi]))
    return sorted(forced)


def oracle_fields():
    """The 27 constant directions in {-1, 0, 1}^3, 20 random constant, 20
    random axial and 20 random planar fields, and the 3 builtins."""
    rng = np.random.default_rng(21)
    fields = [FieldSpec.constant(b) for b in itertools.product((-1.0, 0.0, 1.0), repeat=3)]
    for _ in range(20):
        # some components zeroed, so that some random fields keep symmetries
        b = rng.normal(size=3) * rng.integers(0, 2, size=3)
        fields.append(FieldSpec.constant(b))
    for _ in range(20):
        fields.append(FieldSpec.axial(rng.normal(size=rng.integers(1, 4))))
    for _ in range(20):
        m = rng.integers(1, 4)
        c = rng.normal(size=(m, m)) * rng.integers(0, 2, size=(m, m))
        fields.append(FieldSpec.planar(c + c.T))
    return fields + list(builtin_fields().values())


def test_forced_zero_pairs_match_pairwise_search():
    fields = oracle_fields()
    assert len(fields) == 90
    lists = [forced_zero_pairs(spec) for spec in fields]
    assert lists == [pairwise_forced_zero_pairs(spec) for spec in fields]
    # the set is not degenerate: empty, partial and full lists all occur
    assert {len(forced) for forced in lists} == {0, 4, 6}


def constraint_rows(spec):
    blocks = np.array([op.A for op in find_compatible(spec).ops], dtype=float)
    return symmetry_constraints(blocks.reshape(-1, 3, 3))


@pytest.mark.parametrize("spec, rank", [
    (CONST_Z, 6), (FieldSpec.axial([1.0, 0.2]), 6),
    (builtin_fields()["planar-quartic"], 6), (ZERO, 8),
    (FieldSpec.constant([1.0, 1.0, 1.0]), 6), (FieldSpec.constant([1.0, 1.0, 0.0]), 5),
])
def test_constraint_rank(spec, rank):
    assert constraint_rows(spec).shape == (rank, 9)


def test_generic_direction_has_no_constraints():
    generic = FieldSpec.constant([0.3, -1.2, 0.7], label="generic")
    assert find_compatible(generic).ops == ()
    assert constraint_rows(generic).shape == (0, 9)
    assert forced_zero_pairs(generic) == []
    cfg = SimConfig(n=1, field=generic, dt=0.02, steps=100, seed=0)
    with pytest.raises(NotApplicable):
        vanishing_correlator_check(cfg, max_lag=1.0)


def test_constant_z_constraints_span():
    """D_xy = -D_yx, D_xx = D_yy and the four xz/yz entries zero."""
    xx, xy, xz, yx, yy, yz, zx, zy, _ = np.eye(9)      # row-major unit vectors
    q, _ = np.linalg.qr(np.array([xy + yx, xx - yy, xz, zx, yz, zy]).T)
    rows = constraint_rows(CONST_Z)
    assert np.allclose(rows.T @ rows, q @ q.T, atol=1e-12)
    # criterion 7's antisymmetry row D_xy + D_yx lies in the row space
    assert np.linalg.norm(rows @ (xy + yx)) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def replaced_casimir_sigma(diff, se):
    """The sigma casimir_check formed before md._sigma."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(diff == 0.0, 0.0, diff / se)


def replaced_vanishing_sigma(mean, se):
    """The sigma vanishing_correlator_check formed before md._sigma."""
    with np.errstate(invalid="ignore", divide="ignore"):
        sigma = np.abs(mean) / se
    return np.where(np.abs(mean) == 0.0, 0.0, sigma)


def test_sigma_matches_both_replaced_forms():
    mean = np.array([[0.0, 0.0, -0.0, 1.5, -2.0, np.nan, 1e-300, 3.0]])
    se = np.array([[0.0, 1.0, 0.0, 0.0, 0.5, 1.0, 1e300, np.inf]])
    got = md._sigma(np.abs(mean), se)
    assert got.tobytes() == replaced_casimir_sigma(np.abs(mean), se).tobytes()
    assert got.tobytes() == replaced_vanishing_sigma(mean, se).tobytes()


def spy_sigma(monkeypatch):
    calls = []
    real = md._sigma

    def spy(diff, se):
        out = real(diff, se)
        calls.append((diff, se, out))
        return out
    monkeypatch.setattr(md, "_sigma", spy)
    return calls


def test_vanishing_check_not_applicable():
    tilted = FieldSpec.constant([1.0, 1.0, 1.0], label="tilted")
    assert forced_zero_pairs(tilted) == []
    cfg = SimConfig(n=2, field=tilted, dt=0.02, steps=100, seed=0)
    with pytest.raises(NotApplicable):
        vanishing_correlator_check(cfg, max_lag=1.0)


def test_vanishing_check_free_particles(monkeypatch):
    calls = spy_sigma(monkeypatch)
    cfg = free_config(dt=0.05, steps=1500, seed=13, n_trajectories=300)
    report = vanishing_correlator_check(cfg, max_lag=8.0, stride=4)
    assert report.pairs == (("x", "z"), ("y", "z"), ("z", "x"), ("z", "y"))
    assert report.passed
    [(diff, se, sigma)] = calls
    assert sigma.tobytes() == replaced_vanishing_sigma(diff, se).tobytes()
    assert report.max_sigma_per_pair.tobytes() == sigma.max(axis=1).tobytes()


def test_phasepoint_roundtrip():
    cfg = SimConfig(n=2, field=CONST_Z, dt=0.01, steps=1)
    gamma = PhasePoint(np.arange(6.0), np.arange(6.0) + 10)
    back = phasepoint_from_state(state_from_phasepoint(gamma, cfg), cfg)
    assert np.array_equal(back.coords, gamma.coords)
    assert np.array_equal(back.momenta, gamma.momenta)


def test_equilibration_reaches_temperature():
    cfg = SimConfig(n=16, field=CONST_Z, dt=0.004, steps=1, temperature=1.0,
                    box_half=2.0, wca_epsilon=1.0, seed=14, n_trajectories=8,
                    equilibration=2000)
    state = equilibrate(init_state(cfg), cfg)
    ke = 0.5 * np.sum(state.vel ** 2, axis=(1, 2)).mean()
    assert ke == pytest.approx(1.5 * 16, rel=0.25)


def test_parse_sim_config():
    cfg = parse_sim_config("""
n = 16
field = constant:0,0,1
dt = 0.002
steps = 1000
temperature = 1.0
box_half = 2.0
wca_epsilon = 1.0
seed = 7
n_trajectories = 4
equilibration = 100
""")
    assert cfg.n == 16 and cfg.steps == 1000 and cfg.wca_epsilon == 1.0
    assert cfg.field.family == "constant"
    none_cfg = parse_sim_config("n = 1\nfield = constant:0,0,1\ndt = 0.01\nsteps = 10\nwca_epsilon = none\n")
    assert none_cfg.wca_epsilon is None
    with pytest.raises(ValueError):
        parse_sim_config("n = 1\ndt = 0.01\n")


def test_energy_function_free_particle():
    cfg = free_config()
    state = MDState(np.zeros((1, 1, 3)), np.array([[[2.0, 0.0, 0.0]]]))
    assert energy(state, cfg)[0] == pytest.approx(2.0)
