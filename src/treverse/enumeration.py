"""Enumeration and counting of the signed-permutation time-reversal catalog.

The classical family consists of all orthogonal involutory signed
permutations; its size per dimension follows from the cycle structure of
involutions (only 1- and 2-cycles) with an independent sign per cycle.
The quantum-only antisymmetric family tiles the index set with signed
2-cycles and squares to -I.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import factorial

import numpy as np

from .phasespace import KIND_ANTISYMMETRIC, KIND_BINARY, TimeReversalOp

ENUMERATION_CAP = 8


class CapExceeded(ValueError):
    """Requested dimension is above the explicit enumeration cap."""


class NoAntisymmetricFamily(ValueError):
    """Antisymmetric orthogonal blocks squaring to -I need even dimension."""


@dataclass(frozen=True)
class ConjClass:
    """Cycle type of an involution of S_M: r1 fixed points, r2 transpositions."""

    r1: int
    r2: int

    def __post_init__(self):
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError("cycle counts must be nonnegative")

    @property
    def M(self) -> int:
        return self.r1 + 2 * self.r2


@dataclass(frozen=True)
class YoungTableau:
    """Non-increasing row lengths encoding a conjugation class.

    Row lengths a_l and cycle counts are paired by r_l = a_l - a_{l+1}
    (with a beyond the last row read as zero).
    """

    rows: tuple

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
        if any(r <= 0 for r in rows):
            raise ValueError("row lengths must be positive")
        if any(rows[i + 1] > rows[i] for i in range(len(rows) - 1)):
            raise ValueError("row lengths must be non-increasing")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return sum(self.rows)

    @classmethod
    def from_class(cls, c: ConjClass) -> "YoungTableau":
        rows = (c.r1 + c.r2, c.r2) if c.r2 > 0 else (c.r1,)
        return cls(rows)

    def to_class(self) -> ConjClass:
        padded = self.rows + (0,)
        r = [padded[i] - padded[i + 1] for i in range(len(self.rows))]
        if any(v != 0 for v in r[2:]):
            raise ValueError("tableau has cycles of order three or more")
        r1 = r[0] if len(r) >= 1 else 0
        r2 = r[1] if len(r) >= 2 else 0
        return ConjClass(r1, r2)


@dataclass(frozen=True)
class EnumerationReport:
    """Count of enumerated operations per class against the closed formula."""

    M: int
    family: str
    class_counts: tuple          # ((r1, r2), signed count) pairs
    total: int
    formula_total: int
    ops: list = field(compare=False, repr=False)   # the enumerated operations

    @property
    def match(self) -> bool:
        return self.total == self.formula_total


def class_size(c: ConjClass) -> int:
    """Number of permutations of S_M in the class (r1, r2)."""
    if c.M <= 0:
        raise ValueError("class must have positive dimension")
    return factorial(c.M) // (factorial(c.r1) * (2 ** c.r2) * factorial(c.r2))


def count_binary(M: int) -> int:
    """Closed-form size of the signed-permutation involution family."""
    if M < 1:
        raise ValueError("dimension must be at least 1")
    total = 0
    for r2 in range(M // 2 + 1):
        total += factorial(M) * 2 ** (M - 2 * r2) // (factorial(M - 2 * r2) * factorial(r2))
    return total


def count_antisymmetric(M: int) -> int:
    """Size of the antisymmetric family (A^2 = -I): M!/(M/2)! for even M."""
    if M % 2 != 0 or M < 2:
        raise NoAntisymmetricFamily(
            f"no real antisymmetric orthogonal block with square -I in dimension {M}")
    return factorial(M) // factorial(M // 2)


def classes_for(M: int):
    """All classes (r2 ascending) with tableau and permutation-class size."""
    if M < 1:
        raise ValueError("dimension must be at least 1")
    out = []
    for r2 in range(M // 2 + 1):
        c = ConjClass(M - 2 * r2, r2)
        out.append((c, YoungTableau.from_class(c), class_size(c)))
    return out


def _pairings(indices):
    """All partitions of the index tuple into unordered pairs."""
    if not indices:
        yield ()
        return
    first, rest = indices[0], indices[1:]
    for k in range(len(rest)):
        pair = (first, rest[k])
        remaining = rest[:k] + rest[k + 1:]
        for tail in _pairings(remaining):
            yield (pair,) + tail


def _involutions_with_cycle_type(M, r2):
    """Involutive permutations of 0..M-1 having exactly r2 transpositions."""
    indices = tuple(range(M))
    for moved in itertools.combinations(indices, 2 * r2):
        for pairs in _pairings(moved):
            perm = np.arange(M)
            for i, j in pairs:
                perm[i], perm[j] = j, i
            yield perm, pairs


def enumerate_binary(M: int):
    """Every orthogonal involutory signed permutation of dimension M.

    Each operation is tagged with its cycle type; cycles carry one shared
    sign, so a class (r1, r2) contributes class_size * 2**(r1 + r2) matrices.
    """
    if M < 1:
        raise ValueError("dimension must be at least 1")
    if M > ENUMERATION_CAP:
        raise CapExceeded(f"dimension {M} above enumeration cap {ENUMERATION_CAP}")
    ops = []
    for r2 in range(M // 2 + 1):
        c = ConjClass(M - 2 * r2, r2)
        for perm, pairs in _involutions_with_cycle_type(M, r2):
            fixed = [i for i in range(M) if perm[i] == i]
            # one sign per cycle: fixed points individually, pairs jointly
            for fixed_signs in itertools.product((1, -1), repeat=len(fixed)):
                for pair_signs in itertools.product((1, -1), repeat=len(pairs)):
                    signs = np.ones(M, dtype=int)
                    for i, s in zip(fixed, fixed_signs):
                        signs[i] = s
                    for (i, j), s in zip(pairs, pair_signs):
                        signs[i] = s
                        signs[j] = s
                    op = TimeReversalOp.from_signed_permutation(
                        perm, signs, kind=KIND_BINARY, label=_op_label(perm, signs))
                    ops.append((c, op))
    ops.sort(key=lambda item: (item[0].r2, item[1].A.flatten().tolist()))
    return [op for _, op in ops]


def enumerate_antisymmetric(M: int):
    """All antisymmetric orthogonal matrices with A^2 = -I (signed 2-cycle tilings)."""
    if M % 2 != 0 or M < 2:
        raise NoAntisymmetricFamily(
            f"no real antisymmetric orthogonal block with square -I in dimension {M}")
    if M > ENUMERATION_CAP:
        raise CapExceeded(f"dimension {M} above enumeration cap {ENUMERATION_CAP}")
    ops = []
    for pairs in _pairings(tuple(range(M))):
        perm = np.arange(M)
        for i, j in pairs:
            perm[i], perm[j] = j, i
        for pair_signs in itertools.product((1, -1), repeat=len(pairs)):
            signs = np.ones(M, dtype=int)
            for (i, j), s in zip(pairs, pair_signs):
                # column i carries s at row j, column j carries -s at row i
                signs[i] = s
                signs[j] = -s
            op = TimeReversalOp.from_signed_permutation(
                perm, signs, kind=KIND_ANTISYMMETRIC, label=_op_label(perm, signs))
            ops.append(op)
    ops.sort(key=lambda op: op.A.flatten().tolist())
    return ops


def class_of(op: TimeReversalOp) -> ConjClass:
    """Cycle type of a signed-permutation operation, read from its block A:
    the moved indices are those with a zero diagonal entry."""
    a = np.abs(op.matrix())
    if not (np.all((a == 0.0) | (a == 1.0)) and np.all(a.sum(axis=0) == 1.0)
            and np.all(a.sum(axis=1) == 1.0)):
        raise ValueError("cycle type is defined for signed permutations only")
    r2 = (op.dim - int(np.count_nonzero(np.diag(a)))) // 2
    return ConjClass(op.dim - 2 * r2, r2)


def enumeration_report(M: int, family: str = "binary") -> EnumerationReport:
    """Enumerate and tally against the closed-form count."""
    if family == "binary":
        ops = enumerate_binary(M)
        formula = count_binary(M)
    elif family == "antisymmetric":
        ops = enumerate_antisymmetric(M)
        formula = count_antisymmetric(M)
    else:
        raise ValueError(f"unknown family {family!r}")
    tally = {}
    for op in ops:
        c = class_of(op)
        key = (c.r1, c.r2)
        tally[key] = tally.get(key, 0) + 1
    counts = tuple(sorted(tally.items(), key=lambda kv: kv[0][1]))
    return EnumerationReport(M=M, family=family, class_counts=counts,
                             total=len(ops), formula_total=formula, ops=ops)


def single_particle_catalog():
    """The 20 signed-permutation operations on one particle (M = 3)."""
    return enumerate_binary(3)


def _op_label(perm, signs) -> str:
    cols = [f"{'+' if s > 0 else '-'}e{p}" for p, s in zip(perm, signs)]
    return "[" + ",".join(cols) + "]"
