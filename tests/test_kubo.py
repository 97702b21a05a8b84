import numpy as np
import pytest
from scipy.linalg import expm

from treverse.cli import parse_system_file
from treverse.kubo import (
    Observable,
    SignatureError,
    SpinSystem,
    SpinTimeReversal,
    ThermalState,
    canonical_correlator,
    detect_signature,
    site_operator,
    tr_commutes,
    verify_kubo_symmetry,
)
from treverse import kubo
from treverse.kubo import _correlator_in_basis
from treverse.spin import catalog_spin_ops, pauli
from treverse.verify import _expm, _kubo_quadrature, check_kubo


def quadrature_oracle(system, beta, phi, psi, t, npts=128, expm=expm):
    """Independent evaluation of the lambda integral by Gauss-Legendre.

    Uses matrix exponentials throughout; the spectrum shift keeps every
    exponential decaying so the quadrature stays well conditioned.  With
    expm=single_expm it is the per-node loop that _kubo_quadrature replaced.
    """
    h = system.hamiltonian()
    shift = np.linalg.norm(h, 2)
    hs = h - shift * np.eye(h.shape[0])
    x, w = np.polynomial.legendre.leggauss(npts)
    lam = 0.5 * beta * (x + 1.0)
    weights = 0.5 * beta * w
    z = np.trace(expm(-beta * hs)).real
    u = expm(1j * h * t)
    psit = u @ psi @ u.conj().T
    total = 0.0 + 0.0j
    for l, ww in zip(lam, weights):
        total += ww * np.trace(expm(-(beta - l) * hs) @ phi @ expm(-l * hs) @ psit)
    return (total / (beta * z)).real


def random_system(rng):
    n = int(rng.integers(1, 4))
    exchange = {(0, 1): float(rng.uniform(-0.5, 0.5))} if n > 1 else {}
    return SpinSystem(rng.uniform(-1, 1, (n, 3)), rng.uniform(0.5, 1.5, n), exchange)


def random_observable(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Observable((raw + raw.conj().T) / 2)


def two_spin_reference():
    return SpinSystem([[0.7, 0.2, 0.0], [0.7, 0.2, 0.0]], exchange={(0, 1): 0.3})


def test_commuting_observable_gives_unity():
    system = SpinSystem([[0.0, 0.0, 1.0]])
    sz = Observable(pauli("z"))
    for beta in (0.5, 1.0, 4.0):
        for t in (0.0, 0.7, 3.1):
            value = canonical_correlator(system, beta, sz, sz, t)
            assert value.value == pytest.approx(1.0, abs=1e-12)
            assert value.imag_residual <= 1e-12


def test_infinite_temperature_limit():
    system = SpinSystem([[0.0, 0.0, 1.0]])
    sx = Observable(pauli("x"))
    t = 0.9
    value = canonical_correlator(system, 1e-8, sx, sx, t)
    h = system.hamiltonian()
    u = expm(1j * h * t)
    direct = np.trace(pauli("x") @ u @ pauli("x") @ u.conj().T).real / 2
    assert value.value == pytest.approx(direct, abs=1e-7)


def test_single_spin_transverse_matches_quadrature():
    system = SpinSystem([[0.0, 0.0, 1.0]])
    sx = Observable(pauli("x"))
    mine = canonical_correlator(system, 1.0, sx, sx, 0.0)
    oracle = quadrature_oracle(system, 1.0, pauli("x"), pauli("x"), 0.0)
    assert mine.value == pytest.approx(oracle, abs=1e-10)


def test_quadrature_oracle_agreement():
    rng = np.random.default_rng(11)
    for _ in range(15):
        system = random_system(rng)
        dim = system.dim
        phi, psi = random_observable(rng, dim), random_observable(rng, dim)
        beta = float(rng.uniform(0.2, 2.0))
        t = float(rng.uniform(-2.0, 2.0))
        mine = canonical_correlator(system, beta, phi, psi, t)
        oracle = quadrature_oracle(system, beta, phi.matrix, psi.matrix, t)
        assert mine.value == pytest.approx(oracle, abs=1e-8)


def test_expm_matches_scipy():
    # the Taylor exponential behind the verify-suite quadrature oracle, one
    # matrix at a time and as one stack
    rng = np.random.default_rng(14)
    for dim in (2, 4, 8):
        stack = []
        for _ in range(10):
            h = random_observable(rng, dim).matrix
            beta = float(rng.uniform(0.2, 2.0))
            t = float(rng.uniform(-2.0, 2.0))
            for a in (-beta * h, 1j * h * t):
                ref = expm(a)
                assert np.linalg.norm(_expm(a) - ref) <= 1e-12 * np.linalg.norm(ref)
                stack.append(a)
        for a, got in zip(stack, _expm(np.array(stack))):
            ref = expm(a)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def single_expm(a):
    """The one-matrix-at-a-time exponential that the stacked _expm replaced."""
    a = np.asarray(a, dtype=complex)
    norm = np.linalg.norm(a, np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30))))) + 1
    x = a / (2 ** squarings)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 24):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_stacked_expm_bitwise_equals_single(dim):
    # inf-norms from ~1e-6 to ~1e3 need 1 to 8-12 squarings, so the stack mixes counts
    rng = np.random.default_rng(dim)
    raw = rng.normal(size=(60, dim, dim)) + 1j * rng.normal(size=(60, dim, dim))
    stack = raw * np.logspace(-6, 2, 60)[:, None, None]
    counts = {max(0, int(np.ceil(np.log2(np.linalg.norm(a, np.inf))))) + 1 for a in stack}
    assert len(counts) >= 8
    got = _expm(stack)
    assert got.shape == stack.shape
    for a, g in zip(stack, got):
        assert g.tobytes() == single_expm(a).tobytes()
        assert _expm(a).tobytes() == g.tobytes()
    assert _expm(stack.reshape(3, 20, dim, dim)).tobytes() == got.tobytes()


def test_quadrature_bitwise_equals_per_node_loop():
    rng = np.random.default_rng(15)
    for _ in range(12):
        system = random_system(rng)
        phi, psi = random_observable(rng, system.dim), random_observable(rng, system.dim)
        beta = float(rng.uniform(0.2, 2.0))
        t = float(rng.uniform(-2.0, 2.0))
        got = _kubo_quadrature(system, beta, phi.matrix, psi.matrix, t)
        want = quadrature_oracle(system, beta, phi.matrix, psi.matrix, t, expm=single_expm)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_reality_on_random_pairs():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        system = random_system(rng)
        phi = random_observable(rng, system.dim)
        psi = random_observable(rng, system.dim)
        value = canonical_correlator(system, float(rng.uniform(0.3, 2.0)),
                                     phi, psi, float(rng.uniform(-3, 3)))
        worst = max(worst, value.imag_residual)
    assert worst <= 1e-10


def test_stationarity_time_shift():
    rng = np.random.default_rng(13)
    system = two_spin_reference()
    state = ThermalState.of(system, 1.3)
    for _ in range(10):
        phi = random_observable(rng, 4)
        psi = random_observable(rng, 4)
        t = float(rng.uniform(-3, 3))
        a = _correlator_in_basis(state, phi.matrix, psi.matrix, t, "psi")
        b = _correlator_in_basis(state, phi.matrix, psi.matrix, -t, "phi")
        assert a.value == pytest.approx(b.value, abs=1e-10)


def test_thermal_state_weights():
    state = ThermalState.of(two_spin_reference(), 2.0)
    assert state.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(state.weights >= 0)
    with pytest.raises(ValueError):
        ThermalState.of(two_spin_reference(), 0.0)


def test_hamiltonian_built_once_per_system(monkeypatch):
    system = two_spin_reference()
    h = system.hamiltonian()
    assert system.hamiltonian() is h
    assert not h.flags.writeable
    # criterion 5 reads each random system's H for the correlator and again
    # for its quadrature, and the documented system's for the commutation
    # test and the thermal state: one assembly each
    builds = []
    real = kubo.pauli_vector
    monkeypatch.setattr(kubo, "pauli_vector", lambda: builds.append(1) or real())
    check_kubo(42, n_random=5)
    assert len(builds) == 5 + 1


def test_observable_must_be_hermitian():
    with pytest.raises(ValueError):
        Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_tr_commutes_examples():
    # field along z: sigma_x K maps the Zeeman term to its negative
    system_z = SpinSystem([[0.0, 0.0, 0.8]])
    assert not tr_commutes(system_z, SpinTimeReversal((pauli("x"),)))
    # field along x: sigma_x K leaves the Hamiltonian unchanged
    system_x = SpinSystem([[0.8, 0.0, 0.0]])
    assert tr_commutes(system_x, SpinTimeReversal((pauli("x"),)))


def test_tr_commutes_zero_field_catalog():
    system = SpinSystem([[0.0, 0.0, 0.0]])
    for entry in catalog_spin_ops():
        if entry.valid:
            assert tr_commutes(system, SpinTimeReversal((entry.matrix,)))


def test_symmetry_two_spin_reference():
    system = two_spin_reference()
    tr = SpinTimeReversal((pauli("x"), pauli("x")))
    phi = Observable(site_operator(pauli("x"), 0, 2), label="sx@0")
    psi = Observable(site_operator(pauli("x"), 1, 2), label="sx@1")
    report = verify_kubo_symmetry(system, tr, phi, psi,
                                  np.linspace(0.0, 10.0, 16), beta=1.3, tol=1e-8)
    assert report.eta_phi == 1 and report.eta_psi == 1
    assert report.passed
    assert report.max_imag_residual <= 1e-10
    assert np.max(np.abs(report.lhs)) > 0.05     # non-degenerate instance


def test_symmetry_equal_observables_time_even():
    system = two_spin_reference()
    tr = SpinTimeReversal((pauli("x"), pauli("x")))
    phi = Observable(site_operator(pauli("x"), 0, 2))
    report = verify_kubo_symmetry(system, tr, phi, phi,
                                  np.linspace(0.0, 5.0, 8), beta=0.9, tol=1e-10)
    assert report.passed


def test_noncommuting_operator_refused():
    system = two_spin_reference()
    ty = SpinTimeReversal((pauli("y"), pauli("y")))
    assert not tr_commutes(system, ty)
    phi = Observable(site_operator(pauli("x"), 0, 2))
    psi = Observable(site_operator(pauli("x"), 1, 2))
    with pytest.raises(ValueError):
        verify_kubo_symmetry(system, ty, phi, psi, [0.0, 1.0])


def test_indefinite_signature_raises():
    system = SpinSystem([[0.8, 0.0, 0.0]])
    tr = SpinTimeReversal((pauli("x"),))
    mixed = Observable((pauli("x") + pauli("z")) / np.sqrt(2))
    with pytest.raises(SignatureError):
        detect_signature(tr, mixed.matrix)


def test_signature_detection_values():
    tr = SpinTimeReversal((pauli("x"),))
    assert detect_signature(tr, pauli("x")) == 1
    assert detect_signature(tr, pauli("z")) == -1


def test_site_cap_enforced():
    with pytest.raises(ValueError):
        SpinSystem(np.zeros((7, 3)))


def test_parse_system_file():
    system = parse_system_file("""
# two sites in a transverse field
site = 0.7 0.2 0  1.0
site = 0.7 0.2 0  1.0
exchange = 0 1 0.3
""")
    assert system.n == 2
    assert system.exchange == {(0, 1): 0.3}
    reference = two_spin_reference().hamiltonian()
    assert np.allclose(system.hamiltonian(), reference)


def test_parse_system_file_rejects_unknown_key():
    with pytest.raises(ValueError):
        parse_system_file("site = 0 0 1\nbogus = 3\n")
    with pytest.raises(ValueError):
        parse_system_file("site = 0 0 1\nsite = 0 0 1\nexchange = 0 1\n")
