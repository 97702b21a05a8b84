"""Linear phase-space maps and their defining checks.

A candidate time-reversal operation is stored through its M x M coordinate
block A; the induced map on phase space is (X, P) -> (A X, -A P).  Signed
permutations keep a compressed integer representation so involution and
orthogonality can be checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-12

KIND_BINARY = "binary-signed-permutation"
KIND_ANTISYMMETRIC = "antisymmetric-block"
KIND_CONTINUOUS = "continuous-parametric"
KIND_GENERAL = "general"

_KINDS = (KIND_BINARY, KIND_ANTISYMMETRIC, KIND_CONTINUOUS, KIND_GENERAL)


@dataclass(frozen=True)
class PhasePoint:
    """A point (coords, momenta) of the 2M-dimensional phase space."""

    coords: np.ndarray
    momenta: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        momenta = np.asarray(self.momenta, dtype=float)
        if coords.ndim != 1 or momenta.ndim != 1:
            raise ValueError("coords and momenta must be 1-d vectors")
        if coords.shape != momenta.shape:
            raise ValueError("coords and momenta must have equal length")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "momenta", momenta)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class TimeReversalOp:
    """Coordinate block A of a candidate time-reversal map diag(A, -A).

    Signed permutations additionally carry (perm, signs) with
    A e_i = signs[i] e_perm[i]; those checks run in integer arithmetic.
    """

    A: np.ndarray
    kind: str = KIND_GENERAL
    perm: np.ndarray | None = field(default=None, compare=False)
    signs: np.ndarray | None = field(default=None, compare=False)
    label: str = ""

    def __post_init__(self):
        A = np.asarray(self.A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "A", A)

    @classmethod
    def from_signed_permutation(cls, perm, signs, kind: str = KIND_BINARY,
                                label: str = "") -> "TimeReversalOp":
        perm = np.asarray(perm, dtype=int)
        signs = np.asarray(signs, dtype=int)
        m = perm.shape[0]
        if sorted(perm.tolist()) != list(range(m)):
            raise ValueError("perm must be a permutation of 0..M-1")
        if signs.shape != (m,) or not np.all(np.abs(signs) == 1):
            raise ValueError("signs must be +-1 of length M")
        A = np.zeros((m, m), dtype=int)
        A[perm, np.arange(m)] = signs
        return cls(A=A, kind=kind, perm=perm, signs=signs, label=label)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def is_signed_permutation(self) -> bool:
        return self.perm is not None

    def matrix(self, dtype=float) -> np.ndarray:
        return self.A.astype(dtype)

    def induced(self) -> np.ndarray:
        """Dense 2M x 2M phase-space matrix diag(A, -A)."""
        m = self.dim
        out = np.zeros((2 * m, 2 * m))
        out[:m, :m] = self.A
        out[m:, m:] = -self.A
        return out

    def per_particle_block(self) -> np.ndarray | None:
        """Common 3x3 block R with A = I_N kron R, or None if not of that form."""
        m = self.dim
        if m % 3 != 0:
            return None
        n = m // 3
        r = np.asarray(self.A[:3, :3], dtype=float)
        if np.array_equal(np.kron(np.eye(n), r), self.A.astype(float)):
            return r
        return None

    def __repr__(self):
        tag = self.label or f"{self.kind}[{self.dim}]"
        return f"TimeReversalOp({tag})"


def is_involution(op: TimeReversalOp, tol: float = DEFAULT_TOL) -> bool:
    """True iff A^2 = I (or A^2 = -I for the antisymmetric quantum family)."""
    if op.is_signed_permutation:
        a = op.A.astype(np.int64)
        sq = a @ a
        target = -np.eye(op.dim, dtype=np.int64) if op.kind == KIND_ANTISYMMETRIC \
            else np.eye(op.dim, dtype=np.int64)
        return bool(np.array_equal(sq, target))
    a = op.matrix()
    sq = a @ a
    target = -np.eye(op.dim) if op.kind == KIND_ANTISYMMETRIC else np.eye(op.dim)
    return bool(np.max(np.abs(sq - target)) <= tol)


def is_orthogonal(op: TimeReversalOp, tol: float = DEFAULT_TOL) -> bool:
    if op.is_signed_permutation:
        a = op.A.astype(np.int64)
        return bool(np.array_equal(a @ a.T, np.eye(op.dim, dtype=np.int64)))
    a = op.matrix()
    return bool(np.max(np.abs(a @ a.T - np.eye(op.dim))) <= tol)


def antisymplectic_residual(P: np.ndarray) -> float:
    """Max-norm residual of P^T omega P = -omega for a full 2M x 2M matrix,
    with the standard form omega = [[0, -I], [I, 0]]."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] % 2 != 0:
        raise ValueError("P must be square of even dimension")
    omega = np.kron([[0.0, -1.0], [1.0, 0.0]], np.eye(P.shape[0] // 2))
    return float(np.max(np.abs(P.T @ omega @ P + omega)))


def _apply_rows(op: TimeReversalOp, coords: np.ndarray,
                momenta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A X, -A P) for every row of (..., M) coordinate and momentum arrays.

    Each row goes through the same matrix-vector product as a single point.
    """
    a = op.matrix()
    return (a @ coords[..., None])[..., 0], -(a @ momenta[..., None])[..., 0]


def apply(op: TimeReversalOp, point: PhasePoint) -> PhasePoint:
    """Map (X, P) to (A X, -A P)."""
    if point.dim != op.dim:
        raise ValueError(f"dimension mismatch: op is {op.dim}, point is {point.dim}")
    return PhasePoint(*_apply_rows(op, point.coords, point.momenta))


def _angular_momentum_rows(coords: np.ndarray, momenta: np.ndarray) -> np.ndarray:
    """L = sum_i x_i cross p_i for every row of (..., 3N) arrays, shape (..., 3)."""
    shape = (*coords.shape[:-1], coords.shape[-1] // 3, 3)
    return np.cross(coords.reshape(shape), momenta.reshape(shape)).sum(axis=-2)


def angular_momentum(point: PhasePoint) -> np.ndarray:
    """Total L = sum_i x_i cross p_i over the particles of a 3N-dim state."""
    if point.dim % 3 != 0:
        raise ValueError("phase-space dimension must be divisible by 3")
    return _angular_momentum_rows(point.coords, point.momenta)


@dataclass(frozen=True)
class ReversalVerdict:
    """Outcome of the angular-momentum reversal scan."""

    always_reversed: bool
    counterexample: PhasePoint | None = None
    max_residual: float = 0.0


def reverses_angular_momentum(op: TimeReversalOp, samples: int = 1000,
                              seed: int = 0, tol: float = DEFAULT_TOL) -> ReversalVerdict:
    """Scan random states for violation of angular-momentum reversal.

    Operations acting as one common 3x3 orthogonal block R per particle
    reverse L in the frame-covariant sense L -> -det(R) R L, which reduces
    to L -> -L for R = +-I.  Operations without a common per-particle block
    are tested against the canonical expectation -L and generically fail.
    The first sample whose residual exceeds tol is the counterexample;
    without one, max_residual is the worst residual seen.
    """
    if op.dim % 3 != 0:
        raise ValueError("operation dimension must be divisible by 3")
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    block = op.per_particle_block()
    if block is not None:
        ref = -np.linalg.det(block) * block
    else:
        ref = -np.eye(3)
    # the stream order of drawing coords, then momenta, sample by sample
    draws = np.random.default_rng(seed).uniform(-1.0, 1.0, (samples, 2, op.dim))
    coords, momenta = draws[:, 0], draws[:, 1]
    got = _angular_momentum_rows(*_apply_rows(op, coords, momenta))
    want = (ref @ _angular_momentum_rows(coords, momenta)[..., None])[..., 0]
    resid = np.max(np.abs(got - want), axis=-1)
    over = np.flatnonzero(resid > tol)
    if over.size:
        k = over[0]
        return ReversalVerdict(False, PhasePoint(coords[k], momenta[k]), float(resid[k]))
    return ReversalVerdict(True, None, float(np.max(resid, initial=0.0)))
