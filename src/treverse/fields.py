"""Magnetic field families, one vector-potential gauge per family, and
compatibility checks.

A spatial block A of a time-reversal operation is compatible with a field B
when det(A) A B(A x) = -B(x) pointwise; the equivalent statement for the
vector potential is that A*pot(A x) + pot(x) is curl-free (the gauge
gradient absorbed).  Both conditions are decided numerically on random
sample points in the field's box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phasespace import KIND_CONTINUOUS, TimeReversalOp
from .enumeration import single_particle_catalog

ANALYTIC_TOL = 1e-9
CURL_TOL = 1e-6
FD_STEP = 1e-5
DEFAULT_SAMPLES = 256
DEFAULT_BOX = 1.0

FAMILY_CONSTANT = "constant"
FAMILY_AXIAL = "axial"
FAMILY_PLANAR = "planar"


class InvalidOperation(ValueError):
    """The supplied block is not an orthogonal involution."""


@dataclass(frozen=True)
class FieldSpec:
    """One of the built-in analytic magnetic-field families (reduced units).

    constant: uniform vector b.
    axial:    p(x^2 + y^2) along z, p given by polynomial coefficients.
    planar:   q(x^2, y^2) along z with a symmetric coefficient matrix, so the
              profile is even in x and y and symmetric under x <-> y.

    box is the half-side of the sampling region the compatibility and
    spin-coupling checks draw their points from.
    """

    family: str
    b: np.ndarray | None = None
    coeffs: np.ndarray | None = None
    cmat: np.ndarray | None = None
    label: str = ""
    box: float = DEFAULT_BOX

    @classmethod
    def constant(cls, b, label: str = "", box: float = DEFAULT_BOX) -> "FieldSpec":
        b = np.asarray(b, dtype=float)
        if b.shape != (3,):
            raise ValueError("constant field needs a 3-vector")
        return cls(FAMILY_CONSTANT, b=b, label=label or f"constant:{_fmt(b)}", box=box)

    @classmethod
    def axial(cls, coeffs, label: str = "", box: float = DEFAULT_BOX) -> "FieldSpec":
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
        return cls(FAMILY_AXIAL, coeffs=coeffs,
                   label=label or f"axial:{_fmt(coeffs)}", box=box)

    @classmethod
    def planar(cls, cmat, label: str = "", box: float = DEFAULT_BOX) -> "FieldSpec":
        cmat = np.atleast_2d(np.asarray(cmat, dtype=float))
        if cmat.shape[0] != cmat.shape[1] or not np.array_equal(cmat, cmat.T):
            raise ValueError("planar field needs a symmetric coefficient matrix")
        return cls(FAMILY_PLANAR, cmat=cmat,
                   label=label or f"planar:{_fmt(cmat.flatten())}", box=box)


def eval_field(spec: FieldSpec, x) -> np.ndarray:
    """B at points of shape (..., 3)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(np.broadcast_shapes(x.shape, (3,)))
    if spec.family == FAMILY_CONSTANT:
        out[...] = spec.b
        return out
    if spec.family == FAMILY_AXIAL:
        u = x[..., 0] ** 2 + x[..., 1] ** 2
        out[..., 2] = np.polynomial.polynomial.polyval(u, spec.coeffs)
        return out
    xs = x[..., 0] ** 2
    ys = x[..., 1] ** 2
    out[..., 2] = np.polynomial.polynomial.polyval2d(xs, ys, spec.cmat)
    return out


def vector_potential(spec: FieldSpec, x) -> np.ndarray:
    """A with curl A = B at points of shape (..., 3), in the family's gauge.

    constant: A = (1/2) b cross x (symmetric, Coulomb).
    axial:    A = g(rho^2) (-y, x, 0) (azimuthal, Coulomb); the rho = 0
              value is the removable-singularity limit 0.
    planar:   polynomial antiderivative gauge; curl-exact but not
              divergence-free.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(np.broadcast_shapes(x.shape, (3,)))
    if spec.family == FAMILY_CONSTANT:
        out[...] = 0.5 * np.cross(np.broadcast_to(spec.b, out.shape), x)
        return out
    if spec.family == FAMILY_AXIAL:
        # (1/rho) integral of rho' p(rho'^2) equals rho * g(rho^2) with
        # g absorbing each coefficient c_k as c_k u^k / (2k + 2)
        g_coeffs = spec.coeffs / (2.0 * np.arange(spec.coeffs.size) + 2.0)
        g = np.polynomial.polynomial.polyval(
            x[..., 0] ** 2 + x[..., 1] ** 2, g_coeffs)
        out[..., 0] = -x[..., 1] * g
        out[..., 1] = x[..., 0] * g
        return out
    # A_x = -(1/2) int_0^y B(x, t) dt, A_y = (1/2) int_0^x B(t, y) dt
    xs = x[..., 0]
    ys = x[..., 1]
    for j, k in np.ndindex(spec.cmat.shape):
        c = spec.cmat[j, k]
        if c == 0.0:
            continue
        out[..., 0] -= 0.5 * c * xs ** (2 * j) * ys ** (2 * k + 1) / (2 * k + 1)
        out[..., 1] += 0.5 * c * xs ** (2 * j + 1) * ys ** (2 * k) / (2 * j + 1)
    return out


def curl_fd(func, x) -> np.ndarray:
    """Central finite-difference curl of a vector field at points (..., 3)."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros(x.shape[:-1] + (3, 3))  # grad[..., i, j] = d f_i / d x_j
    for j in range(3):
        dx = np.zeros(3)
        dx[j] = FD_STEP
        grad[..., :, j] = (func(x + dx) - func(x - dx)) / (2.0 * FD_STEP)
    curl = np.zeros_like(x)
    curl[..., 0] = grad[..., 2, 1] - grad[..., 1, 2]
    curl[..., 1] = grad[..., 0, 2] - grad[..., 2, 0]
    curl[..., 2] = grad[..., 1, 0] - grad[..., 0, 1]
    return curl


@dataclass(frozen=True)
class CompatReport:
    op_label: str
    field_label: str
    condition: str            # "B-condition" or "A-condition"
    max_residual: float
    tol: float
    samples: int

    @property
    def verdict(self) -> bool:
        return self.max_residual <= self.tol

    def as_dict(self) -> dict:
        return {
            "op": self.op_label,
            "field": self.field_label,
            "condition": self.condition,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "samples": self.samples,
            "compatible": self.verdict,
        }


def _block_of(op) -> tuple[np.ndarray, str]:
    if isinstance(op, TimeReversalOp):
        if op.dim != 3:
            block = op.per_particle_block()
            if block is None:
                raise InvalidOperation("operation has no common 3x3 particle block")
            return block, op.label or "op"
        return op.matrix(), op.label or "op"
    a = np.asarray(op, dtype=float)
    if a.shape != (3, 3):
        raise InvalidOperation("expected a 3x3 block")
    return a, "op"


def _validated_block(op, tol: float = ANALYTIC_TOL) -> tuple[np.ndarray, str]:
    a, label = _block_of(op)
    if np.max(np.abs(a @ a.T - np.eye(3))) > tol:
        raise InvalidOperation("block is not orthogonal")
    if np.max(np.abs(a @ a - np.eye(3))) > tol:
        raise InvalidOperation("block is not an involution")
    return a, label


def _sample_points(samples: int, box: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-box, box, size=(samples, 3))


def check_B_compat(op, spec: FieldSpec, tol: float = ANALYTIC_TOL,
                   seed: int = 0) -> CompatReport:
    """Residual of det(A) A B(A x) = -B(x) over random points of spec.box."""
    a, label = _validated_block(op)
    pts = _sample_points(DEFAULT_SAMPLES, spec.box, seed)
    det = float(np.linalg.det(a))
    lhs = det * (eval_field(spec, pts @ a.T) @ a.T)
    resid = float(np.max(np.abs(lhs + eval_field(spec, pts))))
    return CompatReport(label, spec.label, "B-condition", resid, tol, DEFAULT_SAMPLES)


def check_A_compat(op, spec: FieldSpec, seed: int = 0) -> CompatReport:
    """Curl residual of G(x) = A pot(A x) + pot(x) over random points of
    spec.box.

    G is a pure gauge gradient exactly when the vector-potential
    compatibility condition holds, so compatibility means curl G = 0 to
    within CURL_TOL.
    """
    a, label = _validated_block(op)
    pts = _sample_points(DEFAULT_SAMPLES, spec.box, seed)

    def gauge_field(y):
        return vector_potential(spec, y @ a.T) @ a.T + vector_potential(spec, y)

    resid = float(np.max(np.abs(curl_fd(gauge_field, pts))))
    return CompatReport(label, spec.label, "A-condition", resid, CURL_TOL,
                        DEFAULT_SAMPLES)


@dataclass(frozen=True)
class FieldSymmetries:
    """Catalog operations compatible with a field, plus the continuous family flag."""

    field_label: str
    ops: tuple
    continuous_family_applies: bool


def continuous_family(theta: float) -> TimeReversalOp:
    """Reflection block [[cos, sin, 0], [sin, -cos, 0], [0, 0, 1]] (det -1)."""
    c, s = np.cos(theta), np.sin(theta)
    a = np.array([[c, s, 0.0], [s, -c, 0.0], [0.0, 0.0, 1.0]])
    return TimeReversalOp(A=a, kind=KIND_CONTINUOUS, label=f"theta:{theta:.12g}")


def find_compatible(spec: FieldSpec, seed: int = 0) -> FieldSymmetries:
    """Filter the 20-operation single-particle catalog through the B condition."""
    ops = tuple(op for op in single_particle_catalog()
                if check_B_compat(op, spec, seed=seed).verdict)
    if spec.family == FAMILY_CONSTANT:
        continuous = bool(spec.b[0] == 0.0 and spec.b[1] == 0.0)
    else:
        continuous = spec.family == FAMILY_AXIAL
    return FieldSymmetries(spec.label, ops, continuous)


def field_scale(spec: FieldSpec, box: float = DEFAULT_BOX) -> float:
    """Estimate of max |B| over the box, used for time-step validation."""
    pts = _sample_points(512, box, seed=7)
    pts = np.vstack([pts, np.zeros(3), np.full(3, box), -np.full(3, box)])
    return float(np.max(np.linalg.norm(eval_field(spec, pts), axis=-1)))


def parse_field(text: str) -> FieldSpec:
    """Inline field syntax: constant:bx,by,bz | axial:c0,c1,... | planar:j,k,c;..."""
    name, _, payload = text.partition(":")
    name = name.strip().lower()
    if name == FAMILY_CONSTANT:
        return FieldSpec.constant([float(v) for v in payload.split(",")])
    if name == FAMILY_AXIAL:
        return FieldSpec.axial([float(v) for v in payload.split(",")])
    if name == FAMILY_PLANAR:
        terms = []
        for chunk in payload.split(";"):
            j, k, c = chunk.split(",")
            terms.append((int(j), int(k), float(c)))
        size = max(max(j, k) for j, k, _ in terms) + 1
        cmat = np.zeros((size, size))
        for j, k, c in terms:
            cmat[j, k] = c
            cmat[k, j] = c
        return FieldSpec.planar(cmat)
    raise ValueError(f"unknown field family {name!r}")


def builtin_fields() -> dict[str, FieldSpec]:
    """The three stock fields used across the verification suite."""
    return {
        "constant-z": FieldSpec.constant([0.0, 0.0, 1.0], label="constant-z"),
        "axial-quadratic": FieldSpec.axial([1.0, 0.5], label="axial-quadratic"),
        "planar-quartic": FieldSpec.planar(
            [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            label="planar-quartic"),
    }


def _fmt(values) -> str:
    return ",".join(f"{v:g}" for v in np.asarray(values).flatten())
