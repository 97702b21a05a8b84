"""Aggregated verification suite behind the `verify` CLI subcommand.

Each criterion runs at the requested scale and reports one pass/fail line;
the JSON report is free of timestamps so identical (args, seed) runs are
byte-identical.
"""

from __future__ import annotations

import functools

import numpy as np

from . import enumeration as en
from . import fields as fl
from . import kubo as kb
from . import md
from . import spin as sp
from .phasespace import PhasePoint, TimeReversalOp, _apply_rows, angular_momentum, \
    antisymplectic_residual, apply, is_involution, is_orthogonal, \
    reverses_angular_momentum

SCALES = ("quick", "full")


def _expm(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor exponential of each matrix in a (..., d, d) stack.

    Each matrix gets its own squaring count from its own inf-norm; a stack
    gives every slice the bits it would get alone.
    """
    a = np.asarray(a, dtype=complex)
    norm = np.linalg.norm(a, np.inf, axis=(-2, -1))
    squarings = np.maximum(0, np.ceil(np.log2(np.maximum(norm, 1e-30))).astype(int)) + 1
    x = a / (2.0 ** squarings)[..., None, None]
    eye = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape)
    out = term = eye
    for k in range(1, 24):
        term = term @ x / k
        out = out + term
    for s in range(int(np.max(squarings, initial=0))):
        more = squarings > s
        sub = out[more]
        out[more] = sub @ sub
    return out


def _criterion(name, passed, **details):
    record = {"criterion": name, "passed": bool(passed)}
    record.update(details)
    return record


def check_counting() -> dict:
    ok = en.count_binary(3) == 20
    lengths = {}
    for m in range(1, 7):
        lengths[m] = len(en.enumerate_binary(m))
        ok = ok and lengths[m] == en.count_binary(m)
    ok = ok and en.count_antisymmetric(2) == 2 and en.count_antisymmetric(4) == 12
    ok = ok and len(en.enumerate_antisymmetric(2)) == 2
    ok = ok and len(en.enumerate_antisymmetric(4)) == 12
    try:
        en.count_antisymmetric(3)
        odd_rejected = False
    except en.NoAntisymmetricFamily:
        odd_rejected = True
    ok = ok and odd_rejected
    return _criterion("1-counting", ok, dim3=en.count_binary(3),
                      lengths={str(k): v for k, v in lengths.items()},
                      odd_antisymmetric_rejected=odd_rejected)


def check_structural(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    ok = True
    worst_sympl = 0.0
    worst_roundtrip = 0.0
    ops = en.enumerate_binary(3) + en.enumerate_binary(4)
    points_per_op = max(1, 10_000 // len(ops) + 1)
    for op in ops:
        ok = ok and is_involution(op) and is_orthogonal(op)
        worst_sympl = max(worst_sympl, antisymplectic_residual(op.induced()))
        # the stream order of drawing coords, then momenta, point by point
        draws = rng.uniform(-1, 1, (points_per_op, 2, op.dim))
        back = np.stack(_apply_rows(op, *_apply_rows(op, draws[:, 0], draws[:, 1])),
                        axis=1)
        worst_roundtrip = max(worst_roundtrip, float(np.max(np.abs(back - draws))))
    ok = ok and worst_sympl <= 1e-12 and worst_roundtrip == 0.0
    return _criterion("2-structural", ok, antisymplectic_residual=worst_sympl,
                      involution_roundtrip=worst_roundtrip,
                      ops_checked=len(ops), points_per_op=points_per_op)


def check_compat_equivalence(seed: int) -> dict:
    catalog = en.single_particle_catalog()
    ok = True
    worst_curl = 0.0
    for spec in fl.builtin_fields().values():
        for op in catalog:
            rb = fl.check_B_compat(op, spec, seed=seed)
            ra = fl.check_A_compat(op, spec, seed=seed)
            if rb.verdict != ra.verdict:
                ok = False
            if ra.verdict:
                worst_curl = max(worst_curl, ra.max_residual)
    worst_theta = 0.0
    spec = fl.builtin_fields()["constant-z"]
    for theta in np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False):
        rep = fl.check_B_compat(fl.continuous_family(theta), spec,
                                tol=1e-12, seed=seed)
        worst_theta = max(worst_theta, rep.max_residual)
        ok = ok and rep.verdict
    return _criterion("3-compat-equivalence", ok and worst_theta <= 1e-12,
                      worst_compatible_curl=worst_curl,
                      continuous_family_worst=worst_theta)


def check_spin_lift(seed: int) -> dict:
    ok = True
    worst = 0.0
    lifted = 0
    for spec in fl.builtin_fields().values():
        for op in fl.find_compatible(spec, seed=seed).ops:
            us = sp.spin_lift(op)
            resid = sp.spin_coupling_residual(op, us, spec, seed=seed)
            worst = max(worst, resid)
            lifted += 1
            ok = ok and resid <= 1e-10
    expected = {"sigma_x": 1, "sigma_y": -1, "sigma_z": 1,
                "exchange-xy-fix-z": 1, "exchange-yz-fix-x": 1,
                "exchange-xz-flip-y": 1}
    signs = {}
    for entry in sp.catalog_spin_ops():
        if entry.label in expected:
            signs[entry.label] = entry.verdict.t_squared
            ok = ok and entry.verdict.t_squared == expected[entry.label]
        else:
            ok = ok and entry.verdict.t_squared is None
    return _criterion("4-spin-lift", ok, worst_coupling_residual=worst,
                      lifted_pairs=lifted, sign_table=signs)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 128 nodes and weights on [-1, 1]; read-only, since every caller shares them."""
    nodes = np.polynomial.legendre.leggauss(128)
    for a in nodes:
        a.flags.writeable = False
    return nodes


def _kubo_quadrature(system, beta, phi, psi, t):
    h = system.hamiltonian()
    shift = float(np.linalg.norm(h, 2))
    hs = h - shift * np.eye(h.shape[0])
    x, w = _gauss_legendre()
    lam = 0.5 * beta * (x + 1.0)
    wl = 0.5 * beta * w
    left = _expm(-(beta - lam)[:, None, None] * hs)
    right = _expm(-lam[:, None, None] * hs)
    boltzmann, u = _expm([-beta * hs, 1j * h * t])
    z = np.trace(boltzmann).real
    psit = u @ psi @ u.conj().T
    traces = np.trace(left @ phi @ right @ psit, axis1=-2, axis2=-1)
    total = 0.0 + 0.0j
    for ww, tr in zip(wl, traces):
        total += ww * tr
    return (total / (beta * z)).real


def check_kubo(seed: int, n_random: int = 50) -> dict:
    rng = np.random.default_rng(seed)
    worst_imag = 0.0
    worst_quad = 0.0
    for _ in range(n_random):
        n = int(rng.integers(1, 4))
        system = kb.SpinSystem(rng.uniform(-1, 1, (n, 3)), rng.uniform(0.5, 1.5, n),
                               {(0, 1): float(rng.uniform(-0.5, 0.5))} if n > 1 else {})
        dim = 2 ** n
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        phi = kb.Observable((raw + raw.conj().T) / 2)
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        psi = kb.Observable((raw + raw.conj().T) / 2)
        beta = float(rng.uniform(0.2, 2.0))
        t = float(rng.uniform(-2.0, 2.0))
        mine = kb.canonical_correlator(system, beta, phi, psi, t)
        worst_imag = max(worst_imag, mine.imag_residual)
        worst_quad = max(worst_quad, abs(
            mine.value - _kubo_quadrature(system, beta, phi.matrix, psi.matrix, t)))
    system = documented_two_spin_system()
    tr = kb.SpinTimeReversal((sp.pauli("x"), sp.pauli("x")))
    phi = kb.Observable(kb.site_operator(sp.pauli("x"), 0, 2))
    psi = kb.Observable(kb.site_operator(sp.pauli("x"), 1, 2))
    rep = kb.verify_kubo_symmetry(system, tr, phi, psi,
                                  np.linspace(0.0, 10.0, 16), beta=1.3, tol=1e-8)
    ok = worst_imag <= 1e-10 and worst_quad <= 1e-8 and rep.passed
    return _criterion("5-kubo", ok, worst_imag=worst_imag,
                      worst_quadrature=worst_quad,
                      symmetry_deviation=rep.max_deviation)


def documented_two_spin_system() -> kb.SpinSystem:
    """The reference 2-spin instance: in-plane fields plus weak exchange."""
    return kb.SpinSystem([[0.7, 0.2, 0.0], [0.7, 0.2, 0.0]], exchange={(0, 1): 0.3})


def check_md_oracle(seed: int, scale: str) -> dict:
    # dt keeps the O(dt^2) integrator frequency shift below the statistical
    # resolution that 10^4 trajectories reach at full-period lags
    n_traj = 10_000 if scale == "full" else 2_000
    max_lag = 4.0 * np.pi
    dt = max_lag / 255.0 / 4.0
    cfg = md.SimConfig(n=1, field=fl.FieldSpec.constant([0, 0, 1], label="constant-z"),
                       dt=dt, steps=8192, temperature=1.0, seed=seed,
                       n_trajectories=n_traj)
    pairs = [("x", "x"), ("x", "y")]
    corr = md.velocity_correlator(cfg, pairs, max_lag, stride=4)
    oracle = md.cyclotron_correlators(1.0, 1.0, 1.0, 1.0, corr.lags)
    mean, se = corr.mean(), corr.se()
    sigma_xx = float(np.max(np.abs(mean[0] - oracle[("x", "x")]) / se[0]))
    sigma_xy = float(np.max(np.abs(mean[1] - oracle[("x", "y")]) / se[1]))
    ok = sigma_xx <= 3.0 and sigma_xy <= 3.0
    return _criterion("6-md-oracle", ok, sigma_xx=sigma_xx, sigma_xy=sigma_xy,
                      trajectories=n_traj, lags=int(corr.lags.size))


def diffusion_run_config(field: fl.FieldSpec, seed: int, scale: str) -> md.SimConfig:
    # constant fields keep coherent gyration much longer than inhomogeneous
    # ones, so their off-diagonal sums need more trajectories for the same
    # resolution
    homogeneous = field.family == "constant"
    if scale == "full":
        dt, t_prod, equil = 0.001, 48.0, 4000
        n_traj = 56 if homogeneous else 32
    else:
        dt, t_prod, equil = 0.002, 40.0, 2500
        n_traj = 40 if homogeneous else 24
    return md.SimConfig(n=16, field=field, dt=dt, steps=int(round(t_prod / dt)),
                        temperature=1.0, box_half=2.55, wca_epsilon=1.0,
                        wca_sigma=1.0, seed=seed, n_trajectories=n_traj,
                        equilibration=equil)


def md_fields() -> dict[str, fl.FieldSpec]:
    return {
        "constant-z": fl.FieldSpec.constant([0.0, 0.0, 1.0], label="constant-z"),
        "axial-md": fl.FieldSpec.axial([1.0, 0.1], label="axial-md"),
    }


def check_diffusion_antisymmetry(seed: int, scale: str) -> dict:
    details = {}
    ok = True
    stride = 25 if scale == "full" else 13
    for offset, (name, field) in enumerate(md_fields().items()):
        report = md.diffusion_check(diffusion_run_config(field, seed + 59 * offset, scale),
                                    10.0, stride)
        ok = ok and report.passed
        details[name] = report.as_dict()
    return _criterion("7-diffusion-antisymmetry", ok, **details)


def check_conjugacy(seed: int) -> dict:
    const_z = fl.FieldSpec.constant([0, 0, 1], label="constant-z")
    kawasaki = TimeReversalOp(np.diag([1.0, -1.0, 1.0]), label="diag(1,-1,1)")
    free_cfg = md.SimConfig(n=1, field=const_z, dt=0.02, steps=1, seed=seed)
    gamma = PhasePoint([0.3, -0.2, 0.5], [1.0, 0.4, -0.3])
    free_dev = md.conjugacy_check(kawasaki, gamma, 500, free_cfg)

    base = md.SimConfig(n=16, field=const_z, dt=0.004, steps=1, wca_epsilon=1.0,
                        box_half=1.71, seed=seed, equilibration=500, temperature=1.0)
    state = md.equilibrate(md.init_state(base, [0]), base)
    gamma16 = md.phasepoint_from_state(state, base)
    devs = []
    for dt in (0.008, 0.004, 0.002):
        cfg = md.SimConfig(n=16, field=const_z, dt=dt, steps=1, wca_epsilon=1.0,
                           box_half=1.71, seed=seed)
        devs.append(md.conjugacy_check(kawasaki, gamma16, 400, cfg))
    ratios = [devs[0] / devs[1], devs[1] / devs[2]]
    ok = free_dev <= 1e-8 and all(r >= 4.0 for r in ratios)
    return _criterion("8-conjugacy", ok, free_deviation=free_dev,
                      interacting_deviations=devs, halving_ratios=ratios)


def check_angular_momentum(seed: int) -> dict:
    ok = True
    worst = 0.0
    for op3 in en.single_particle_catalog():
        block = op3.matrix()
        two_particle = TimeReversalOp(np.kron(np.eye(2), block), label=op3.label)
        verdict = reverses_angular_momentum(two_particle, samples=1000, seed=seed,
                                            tol=1e-12)
        worst = max(worst, verdict.max_residual)
        ok = ok and verdict.always_reversed
    perm = np.arange(6)
    perm[0], perm[5] = 5, 0
    cross = TimeReversalOp.from_signed_permutation(perm, np.ones(6, dtype=int),
                                                   label="cross-swap")
    counter = reverses_angular_momentum(cross, samples=1000, seed=seed)
    certified = not counter.always_reversed and counter.counterexample is not None
    if certified:
        gamma = counter.counterexample
        got = angular_momentum(apply(cross, gamma))
        certified = bool(np.max(np.abs(got + angular_momentum(gamma))) > 1e-6)
    ok = ok and certified
    return _criterion("9-angular-momentum", ok, catalog_worst_residual=worst,
                      cross_swap_counterexample=certified)


def run_verify(seed: int = 42, scale: str = "quick") -> list[dict]:
    """Run all aggregated criteria and return their records in order."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}")
    return [
        check_counting(),
        check_structural(seed),
        check_compat_equivalence(seed),
        check_spin_lift(seed),
        check_kubo(seed),
        check_md_oracle(seed, scale),
        check_diffusion_antisymmetry(seed, scale),
        check_conjugacy(seed),
        check_angular_momentum(seed),
    ]
