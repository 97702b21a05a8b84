import itertools
from math import factorial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from treverse.enumeration import (
    CapExceeded,
    ConjClass,
    NoAntisymmetricFamily,
    YoungTableau,
    class_of,
    class_size,
    classes_for,
    count_antisymmetric,
    count_binary,
    enumerate_antisymmetric,
    enumerate_binary,
    enumeration_report,
    single_particle_catalog,
)
from treverse.fields import continuous_family
from treverse.phasespace import (
    KIND_BINARY,
    TimeReversalOp,
    antisymplectic_residual,
    is_involution,
    is_orthogonal,
)


def all_signed_permutation_matrices(m):
    """Brute-force generator over all m! * 2^m signed permutations."""
    for perm in itertools.permutations(range(m)):
        base = np.zeros((m, m), dtype=int)
        base[list(perm), range(m)] = 1
        for signs in itertools.product((1, -1), repeat=m):
            yield base * np.array(signs)


def brute_force_binary_count(m):
    eye = np.eye(m, dtype=int)
    return sum(1 for a in all_signed_permutation_matrices(m)
               if np.array_equal(a @ a, eye))


def brute_force_antisymmetric_count(m):
    eye = np.eye(m, dtype=int)
    return sum(1 for a in all_signed_permutation_matrices(m)
               if np.array_equal(a @ a, -eye) and np.array_equal(a.T, -a))


# frozen from the brute-force oracle above
BINARY_COUNTS = {1: 2, 2: 6, 3: 20, 4: 76, 5: 312}
ANTISYMMETRIC_COUNTS = {2: 2, 4: 12}


@pytest.mark.parametrize("m,expected", sorted(BINARY_COUNTS.items()))
def test_count_binary_against_brute_force(m, expected):
    assert brute_force_binary_count(m) == expected
    assert count_binary(m) == expected


@pytest.mark.parametrize("m,expected", sorted(ANTISYMMETRIC_COUNTS.items()))
def test_count_antisymmetric_against_brute_force(m, expected):
    assert brute_force_antisymmetric_count(m) == expected
    assert count_antisymmetric(m) == expected


def test_count_binary_formula_values():
    assert count_binary(3) == 20
    assert count_binary(1) == 2
    assert count_binary(2) == 6


def test_count_binary_rejects_zero():
    with pytest.raises(ValueError):
        count_binary(0)


def test_count_antisymmetric_formula():
    assert count_antisymmetric(2) == factorial(2) // factorial(1)
    assert count_antisymmetric(4) == factorial(4) // factorial(2)


def test_count_antisymmetric_odd_dimension_rejected():
    with pytest.raises(NoAntisymmetricFamily):
        count_antisymmetric(3)


def test_class_size_examples():
    assert class_size(ConjClass(3, 0)) == 1
    assert class_size(ConjClass(1, 1)) == 3
    assert class_size(ConjClass(0, 2)) == 3


def test_class_size_against_permutation_brute_force():
    # count involutive permutations of S_4 by number of transpositions
    counts = {0: 0, 1: 0, 2: 0}
    for perm in itertools.permutations(range(4)):
        p = np.array(perm)
        if np.array_equal(p[p], np.arange(4)):
            r2 = int(np.sum(p != np.arange(4))) // 2
            counts[r2] += 1
    assert counts[0] == class_size(ConjClass(4, 0))
    assert counts[1] == class_size(ConjClass(2, 1))
    assert counts[2] == class_size(ConjClass(0, 2))


def test_enumerate_binary_m1():
    ops = enumerate_binary(1)
    mats = sorted(int(op.A[0, 0]) for op in ops)
    assert mats == [-1, 1]


def test_enumerate_binary_m2_classes():
    ops = enumerate_binary(2)
    assert len(ops) == 6
    split = {}
    for op in ops:
        c = class_of(op)
        split[(c.r1, c.r2)] = split.get((c.r1, c.r2), 0) + 1
    assert split == {(2, 0): 4, (0, 1): 2}


def test_class_of_rejects_non_signed_permutations():
    with pytest.raises(ValueError, match="signed permutations only"):
        class_of(continuous_family(0.3))
    with pytest.raises(ValueError, match="signed permutations only"):
        class_of(TimeReversalOp(np.array([[1, 1], [0, 1]])))


def test_enumerate_binary_m3_catalog():
    ops = enumerate_binary(3)
    assert len(ops) == 20
    for op in ops:
        assert is_involution(op)
        assert is_orthogonal(op)
        assert antisymplectic_residual(op.induced()) <= 1e-12
        assert np.array_equal(op.A, op.A.T)


def test_enumerate_matches_formula_up_to_six():
    for m in range(1, 7):
        assert len(enumerate_binary(m)) == count_binary(m)


def test_enumerate_binary_no_duplicates():
    ops = enumerate_binary(4)
    keys = {tuple(op.A.flatten()) for op in ops}
    assert len(keys) == len(ops)


def test_enumerate_binary_cap():
    with pytest.raises(CapExceeded):
        enumerate_binary(9)


def test_enumerate_antisymmetric_m2():
    ops = enumerate_antisymmetric(2)
    mats = sorted(tuple(op.A.flatten()) for op in ops)
    assert mats == [(0, -1, 1, 0), (0, 1, -1, 0)]


def test_enumerate_antisymmetric_counts():
    for m in (2, 4, 6):
        ops = enumerate_antisymmetric(m)
        assert len(ops) == count_antisymmetric(m)
        keys = {tuple(op.A.flatten()) for op in ops}
        assert len(keys) == len(ops)


def test_enumerate_antisymmetric_structure():
    for op in enumerate_antisymmetric(4):
        a = op.A.astype(int)
        assert np.array_equal(a @ a, -np.eye(4, dtype=int))
        assert np.array_equal(a.T, -a)
        assert is_involution(op)          # antisymmetric kind: A^2 = -I
        assert is_orthogonal(op)


def test_antisymmetric_fails_binary_involution():
    for op in enumerate_antisymmetric(2):
        assert not is_involution(TimeReversalOp(op.A, kind=KIND_BINARY))


def test_enumerate_antisymmetric_odd_rejected():
    with pytest.raises(NoAntisymmetricFamily):
        enumerate_antisymmetric(3)


def test_classes_for_m3():
    rows = classes_for(3)
    assert [(c.r1, c.r2) for c, _, _ in rows] == [(3, 0), (1, 1)]
    assert [size for _, _, size in rows] == [1, 3]


def test_classes_for_m2():
    rows = classes_for(2)
    assert [(c.r1, c.r2, size) for c, _, size in rows] == [(2, 0, 1), (0, 1, 1)]


def test_signed_class_sum_matches_count():
    # sum over classes of |class| * 2^(r1+r2) reproduces the closed formula
    for m in range(1, 9):
        total = sum(size * 2 ** (c.r1 + c.r2) for c, _, size in classes_for(m))
        assert total == count_binary(m)
    m3 = [size * 2 ** (c.r1 + c.r2) for c, _, size in classes_for(3)]
    assert m3 == [8, 12]


def test_young_tableau_shape():
    t = YoungTableau.from_class(ConjClass(3, 0))
    assert t.rows == (3,)
    t = YoungTableau.from_class(ConjClass(1, 1))
    assert t.rows == (2, 1)
    assert t.size == 3


def test_young_tableau_rejects_bad_rows():
    with pytest.raises(ValueError):
        YoungTableau((1, 2))
    with pytest.raises(ValueError):
        YoungTableau((2, 0))


def test_young_tableau_rejects_long_cycles():
    with pytest.raises(ValueError):
        YoungTableau((1, 1, 1)).to_class()


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=4))
def test_young_tableau_roundtrip(r1, r2):
    if r1 + 2 * r2 == 0:
        return
    c = ConjClass(r1, r2)
    assert YoungTableau.from_class(c).to_class() == c


def test_roundtrip_all_classes_up_to_eight():
    for m in range(1, 9):
        for c, tableau, _ in classes_for(m):
            assert tableau.to_class() == c


def test_enumeration_report():
    rep = enumeration_report(3)
    assert rep.match and rep.total == 20
    assert rep.class_counts == (((3, 0), 8), ((1, 1), 12))
    rep = enumeration_report(4, "antisymmetric")
    assert rep.match and rep.total == 12


def test_single_particle_catalog_is_m3():
    catalog = single_particle_catalog()
    assert len(catalog) == 20
    assert all(op.dim == 3 for op in catalog)


def test_enumeration_deterministic_order():
    first = [op.A.tolist() for op in enumerate_binary(3)]
    second = [op.A.tolist() for op in enumerate_binary(3)]
    assert first == second
