"""Pauli algebra: the spin-space time-reversal catalog, the SO(3)-to-SU(2)
pullback, and the constructive lift of spatial operations to spin space.

An antilinear candidate U K acts on spin operators as X -> U conj(X) U^-1.
The lift of a compatible spatial block M sends M to P = det(M) M, pulls P
back through the double cover, and appends the canonical conjugation
partner sigma_y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldSpec, _sample_points, _validated_block, eval_field

UNITARY_TOL = 1e-14
SO3_TOL = 1e-10

THETA = 1.0 / np.sqrt(2.0)

_SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_AXES = ("x", "y", "z")


def pauli(axis: str) -> np.ndarray:
    """The Pauli matrix on the given axis ('x', 'y' or 'z')."""
    try:
        return _SIGMA[axis].copy()
    except KeyError:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}") from None


def pauli_vector() -> np.ndarray:
    """Stacked (3, 2, 2) array of the Pauli matrices."""
    return np.stack([_SIGMA[a] for a in _AXES])


def _require_unitary(U: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    U = np.asarray(U, dtype=complex)
    if U.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if np.max(np.abs(U @ U.conj().T - np.eye(2))) > tol:
        raise ValueError("matrix is not unitary")
    return U


def check_su2_preservation(U) -> bool:
    """Whether X -> U K X K U^-1 maps the Pauli commutators consistently.

    The check is bracket functoriality of the transformed triple:
    [T s_j T^-1, T s_k T^-1] = T [s_j, s_k] T^-1 for all pairs.  Conjugation
    by a unitary preserves every bracket, so this holds for each U that
    _require_unitary accepts: it cannot tell candidates apart, and the
    validity of a catalog entry rests on its t_squared alone.
    """
    U = _require_unitary(U)

    def t(x):
        return U @ x.conj() @ U.conj().T

    for j in range(3):
        for k in range(3):
            sj, sk = pauli(_AXES[j]), pauli(_AXES[k])
            lhs = t(sj) @ t(sk) - t(sk) @ t(sj)
            rhs = t(sj @ sk - sk @ sj)
            if np.max(np.abs(lhs - rhs)) > 1e-12:
                return False
    return True


@dataclass(frozen=True)
class SpinTRVerdict:
    preserves_su2: bool
    t_squared: int | None      # +1, -1, or None when U K U K is not +-I


@dataclass(frozen=True)
class SpinCatalogEntry:
    label: str
    matrix: np.ndarray
    verdict: SpinTRVerdict

    @property
    def valid(self) -> bool:
        return self.verdict.t_squared is not None


def t_squared_sign(U) -> int | None:
    """Sign s with U conj(U) = s I, or None when the square is not +-I."""
    U = np.asarray(U, dtype=complex)
    sq = U @ U.conj()
    for sign in (1, -1):
        if np.max(np.abs(sq - sign * np.eye(2))) <= 1e-12:
            return sign
    return None


def catalog_spin_ops() -> list[SpinCatalogEntry]:
    """The nine candidate spin-space operators, flagged by involution validity.

    Three act diagonally on the Pauli triple; six exchange one pair.  The
    exchange candidates that fail U K U K = +-I are kept, flagged invalid.
    """
    sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
    eye = np.eye(2, dtype=complex)
    raw = [
        ("sigma_x", sx),
        ("sigma_y", sy),
        ("sigma_z", sz),
        ("exchange-xy-fix-z", THETA * (sz - 1j * eye)),
        ("exchange-yz-fix-x", THETA * (sx - 1j * eye)),
        ("exchange-xz-flip-y", THETA * (sx + sz)),
        ("exchange-xy-flip-z", THETA * (sx + sy)),
        ("exchange-yz-flip-x", THETA * (sy + sz)),
        ("exchange-xz-fix-y", THETA * (sy + 1j * eye)),
    ]
    out = []
    for label, mat in raw:
        verdict = SpinTRVerdict(check_su2_preservation(mat), t_squared_sign(mat))
        out.append(SpinCatalogEntry(label, mat, verdict))
    return out


def _quaternion_from_rotation(P: np.ndarray) -> tuple[float, np.ndarray]:
    """(w, v) with P the rotation by angle a about axis v/|v|, w = cos(a/2)."""
    t = np.trace(P)
    if t > 0:
        w = 0.5 * np.sqrt(1.0 + t)
        v = np.array([P[2, 1] - P[1, 2], P[0, 2] - P[2, 0], P[1, 0] - P[0, 1]])
        return w, v / (4.0 * w)
    i = int(np.argmax(np.diag(P)))
    j, k = (i + 1) % 3, (i + 2) % 3
    vi = 0.5 * np.sqrt(max(1.0 + 2.0 * P[i, i] - t, 0.0))
    v = np.zeros(3)
    v[i] = vi
    w = (P[k, j] - P[j, k]) / (4.0 * vi)
    v[j] = (P[j, i] + P[i, j]) / (4.0 * vi)
    v[k] = (P[k, i] + P[i, k]) / (4.0 * vi)
    return w, v


def so3_to_su2(P) -> np.ndarray:
    """A special unitary preimage of a rotation under the double cover.

    The two-valued lift is fixed by requiring Re tr(U) >= 0, ties broken
    toward a nonnegative imaginary part of U[0, 0], then lexicographically.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (3, 3) or np.max(np.abs(P @ P.T - np.eye(3))) > SO3_TOL \
            or np.linalg.det(P) < 0.0:
        raise ValueError("matrix must be special orthogonal")
    w, v = _quaternion_from_rotation(P)
    # U = w I - i v.sigma satisfies U^dag s_j U = P[j, k] s_k
    for component in (w, -v[2], -v[1], -v[0]):
        if abs(component) > 1e-12:
            if component < 0:
                w, v = -w, -v
            break
    return w * np.eye(2, dtype=complex) - 1j * (
        v[0] * pauli("x") + v[1] * pauli("y") + v[2] * pauli("z"))


def spin_lift(block) -> np.ndarray:
    """Spin-space partner U_s = U sigma_y of a spatial orthogonal involution.

    P = det(M) M is proper orthogonal and involutory; U is its SU(2)
    preimage.  Together with complex conjugation, U_s reverses spins
    consistently with how the spatial block transforms the field.
    """
    m, _ = _validated_block(block)
    p = float(np.linalg.det(m)) * m
    return so3_to_su2(p) @ pauli("y")


def spin_coupling_residual(block, U_s, spec: FieldSpec, seed: int = 0) -> float:
    """Max deviation of U_s K (sigma . B)(M x) K U_s^-1 from (sigma . B)(x)
    over 100 random points of spec.box.

    At most 1e-10 for lifts of blocks that satisfy the field compatibility
    condition; of order |B| otherwise, e.g. for the identity block with
    sigma_y against a constant field.
    """
    m, _ = _validated_block(block)
    U_s = _require_unitary(U_s)
    pts = _sample_points(100, spec.box, seed)
    sig = pauli_vector()
    b_here = eval_field(spec, pts)
    b_there = eval_field(spec, pts @ m.T)
    worst = 0.0
    for bh, bt in zip(b_here, b_there):
        s_here = np.tensordot(bh, sig, axes=(0, 0))
        s_there = np.tensordot(bt, sig, axes=(0, 0))
        lhs = U_s @ s_there.conj() @ U_s.conj().T
        worst = max(worst, float(np.max(np.abs(lhs - s_here))))
    return worst
