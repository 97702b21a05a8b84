import numpy as np
import pytest

from treverse.phasespace import (
    KIND_ANTISYMMETRIC,
    PhasePoint,
    TimeReversalOp,
    angular_momentum,
    antisymplectic_residual,
    apply,
    is_involution,
    is_orthogonal,
    reverses_angular_momentum,
)


def is_antisymplectic(op, tol=1e-12):
    """True iff the induced map diag(A, -A) satisfies M^T omega M = -omega."""
    return antisymplectic_residual(op.induced()) <= tol


def random_signed_permutation(rng, m):
    perm = rng.permutation(m)
    signs = rng.choice([-1, 1], size=m)
    return TimeReversalOp.from_signed_permutation(perm, signs, kind="general")


def random_orthogonal(rng, m):
    q, r = np.linalg.qr(rng.normal(size=(m, m)))
    return q * np.sign(np.diag(r))


def test_involution_identity():
    assert is_involution(TimeReversalOp(np.eye(3)))


def test_involution_swap_block():
    a = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert is_involution(TimeReversalOp(a))
    assert np.array_equal(a @ a, np.eye(3, dtype=int))


def test_involution_quantum_block():
    a = np.array([[0, -1], [1, 0]])
    assert not is_involution(TimeReversalOp(a))
    assert is_involution(TimeReversalOp(a, kind=KIND_ANTISYMMETRIC))


def test_antisymplectic_identity_block():
    assert is_antisymplectic(TimeReversalOp(np.eye(4)))


def test_antisymplectic_random_signed_permutations():
    rng = np.random.default_rng(0)
    for _ in range(50):
        op = random_signed_permutation(rng, int(rng.integers(1, 7)))
        assert is_antisymplectic(op)


def test_momenta_not_flipped_is_not_antisymplectic():
    assert antisymplectic_residual(np.eye(6)) > 1e-12


def test_antisymplectic_iff_block_constraint():
    # for diag(A, D) with orthogonal blocks the condition reads A^T D = -I
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        a = random_orthogonal(rng, m)
        d = random_orthogonal(rng, m)
        full = np.zeros((2 * m, 2 * m))
        full[:m, :m] = a
        full[m:, m:] = d
        lhs = antisymplectic_residual(full) <= 1e-10
        rhs = np.max(np.abs(a.T @ d + np.eye(m))) <= 1e-10
        assert lhs == rhs


def test_apply_canonical():
    gamma = PhasePoint([1, 2, 3], [4, 5, 6])
    out = apply(TimeReversalOp(np.eye(3)), gamma)
    assert np.array_equal(out.coords, [1, 2, 3])
    assert np.array_equal(out.momenta, [-4, -5, -6])


def test_apply_kawasaki():
    gamma = PhasePoint([1, 2, 3], [4, 5, 6])
    out = apply(TimeReversalOp(np.diag([1.0, -1.0, 1.0])), gamma)
    assert np.array_equal(out.coords, [1, -2, 3])
    assert np.array_equal(out.momenta, [-4, 5, -6])


def test_apply_swap_block():
    a = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]])
    out = apply(TimeReversalOp(a), PhasePoint([1, 2, 3], [4, 5, 6]))
    assert np.array_equal(out.coords, [2, 1, 3])
    assert np.array_equal(out.momenta, [-5, -4, -6])


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(TimeReversalOp(np.eye(2)), PhasePoint([1, 2, 3], [4, 5, 6]))


def test_apply_twice_is_identity_exactly():
    rng = np.random.default_rng(2)
    for _ in range(200):
        op = random_signed_permutation(rng, 6)
        if not is_involution(op):
            continue
        gamma = PhasePoint(rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6))
        back = apply(op, apply(op, gamma))
        assert np.array_equal(back.coords, gamma.coords)
        assert np.array_equal(back.momenta, gamma.momenta)


def test_angular_momentum_unit_cross():
    gamma = PhasePoint([1, 0, 0], [0, 1, 0])
    assert np.array_equal(angular_momentum(gamma), [0, 0, 1])


def test_angular_momentum_parallel_vanishes():
    gamma = PhasePoint([0.3, -0.7, 1.1], [0.6, -1.4, 2.2])
    assert np.max(np.abs(angular_momentum(gamma))) < 1e-15


def test_angular_momentum_additive():
    rng = np.random.default_rng(3)
    x1, p1 = rng.normal(size=3), rng.normal(size=3)
    x2, p2 = rng.normal(size=3), rng.normal(size=3)
    combined = PhasePoint(np.concatenate([x1, x2]), np.concatenate([p1, p2]))
    parts = angular_momentum(PhasePoint(x1, p1)) + angular_momentum(PhasePoint(x2, p2))
    assert np.allclose(angular_momentum(combined), parts, atol=1e-14)


def test_angular_momentum_needs_3n():
    with pytest.raises(ValueError):
        angular_momentum(PhasePoint([1, 2], [3, 4]))


def test_reversal_common_block_rotations():
    # the same O(3) block on each particle reverses L covariantly
    rng = np.random.default_rng(4)
    for _ in range(10):
        r = random_orthogonal(rng, 3)
        op = TimeReversalOp(np.kron(np.eye(2), r))
        verdict = reverses_angular_momentum(op, samples=100, seed=5, tol=1e-10)
        assert verdict.always_reversed


def test_reversal_identity():
    verdict = reverses_angular_momentum(TimeReversalOp(np.eye(6)), samples=100, seed=6)
    assert verdict.always_reversed


def test_reversal_cross_particle_swap_counterexample():
    perm = np.arange(6)
    perm[0], perm[5] = 5, 0
    op = TimeReversalOp.from_signed_permutation(perm, np.ones(6, dtype=int))
    verdict = reverses_angular_momentum(op, samples=200, seed=7)
    assert not verdict.always_reversed
    gamma = verdict.counterexample
    got = angular_momentum(apply(op, gamma))
    assert np.max(np.abs(got + angular_momentum(gamma))) > 1e-6


def test_signed_permutation_storage_roundtrip():
    op = TimeReversalOp.from_signed_permutation([1, 0, 2], [1, 1, -1])
    expected = np.array([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    assert np.array_equal(op.A, expected)
    assert is_orthogonal(op)


def test_per_particle_block_detection():
    r = np.diag([1.0, -1.0, 1.0])
    op = TimeReversalOp(np.kron(np.eye(3), r))
    assert np.array_equal(op.per_particle_block(), r)
    perm = np.arange(6)
    perm[0], perm[5] = 5, 0
    cross = TimeReversalOp.from_signed_permutation(perm, np.ones(6, dtype=int))
    assert cross.per_particle_block() is None


def test_antisymplectic_residual_value():
    assert antisymplectic_residual(np.eye(6)) == 2.0


def per_sample_residuals(op, samples, seed):
    """Each sample and its residual, drawn and computed one at a time."""
    a = op.matrix()
    block = op.per_particle_block()
    ref = -np.linalg.det(block) * block if block is not None else -np.eye(3)

    def ang(x, p):
        return np.cross(x.reshape(-1, 3), p.reshape(-1, 3)).sum(axis=0)

    rng = np.random.default_rng(seed)
    for _ in range(samples):
        x, p = rng.uniform(-1.0, 1.0, op.dim), rng.uniform(-1.0, 1.0, op.dim)
        yield x, p, float(np.max(np.abs(ang(a @ x, -(a @ p)) - ref @ ang(x, p))))


def per_sample_scan(op, samples, seed, tol):
    """The one-sample-at-a-time scan that reverses_angular_momentum replaced."""
    worst = 0.0
    for x, p, resid in per_sample_residuals(op, samples, seed):
        worst = max(worst, resid)
        if resid > tol:
            return False, (x, p), resid
    return True, None, worst


def assert_same_verdict(verdict, want):
    always, counter, resid = want
    assert verdict.always_reversed == always
    assert np.float64(verdict.max_residual).tobytes() == np.float64(resid).tobytes()
    if counter is None:
        assert verdict.counterexample is None
    else:
        assert verdict.counterexample.coords.tobytes() == counter[0].tobytes()
        assert verdict.counterexample.momenta.tobytes() == counter[1].tobytes()


def test_reversal_scan_bitwise_equals_per_sample_loop():
    rng = np.random.default_rng(8)
    perm = np.arange(6)
    perm[0], perm[5] = 5, 0
    ops = [TimeReversalOp(np.kron(np.eye(n), random_orthogonal(rng, 3))) for n in (1, 2, 5)]
    ops += [random_signed_permutation(rng, 3 * n) for n in (1, 2, 4)]
    ops += [TimeReversalOp.from_signed_permutation(perm, np.ones(6, dtype=int))]
    for op in ops:
        for tol in (1e-12, 1e-10):
            assert_same_verdict(reverses_angular_momentum(op, samples=300, seed=9, tol=tol),
                                per_sample_scan(op, 300, 9, tol))


def test_reversal_returns_first_failure_not_worst():
    perm = np.arange(6)
    perm[0], perm[5] = 5, 0
    cross = TimeReversalOp.from_signed_permutation(perm, np.ones(6, dtype=int))
    resid = np.array([r for _, _, r in per_sample_residuals(cross, 40, 10)])
    # sample 0 sits at the tolerance, so the first failure comes later and
    # is not the worst sample
    tol = float(resid[0])
    first = int(np.argmax(resid > tol))
    assert first > 0 and resid[first] < resid.max()
    want = per_sample_scan(cross, 40, 10, tol)
    assert want[2] == resid[first]
    assert_same_verdict(reverses_angular_momentum(cross, samples=40, seed=10, tol=tol), want)


def test_reversal_sample_count_edge_cases():
    op = TimeReversalOp(np.eye(6))
    verdict = reverses_angular_momentum(op, samples=0, seed=1)
    assert (verdict.always_reversed, verdict.counterexample, verdict.max_residual) == \
        (True, None, 0.0)
    with pytest.raises(ValueError, match="samples must be non-negative"):
        reverses_angular_momentum(op, samples=-1, seed=1)
