import numpy as np
import pytest

from treverse.cli import parse_field_file
from treverse.enumeration import single_particle_catalog
from treverse.fields import (
    FieldSpec,
    InvalidOperation,
    builtin_fields,
    check_A_compat,
    check_B_compat,
    continuous_family,
    curl_fd,
    eval_field,
    find_compatible,
    parse_field,
    vector_potential,
)

CONST_Z = FieldSpec.constant([0.0, 0.0, 1.0])
KAWASAKI = np.diag([1.0, -1.0, 1.0])
SWAP_XY = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]])


def test_eval_constant_everywhere():
    pts = np.random.default_rng(0).uniform(-2, 2, (10, 3))
    assert np.array_equal(eval_field(CONST_Z, pts), np.tile([0, 0, 1.0], (10, 1)))


def test_eval_axial_linear_profile():
    spec = FieldSpec.axial([0.0, 1.0])     # profile u at rho^2 = 2
    assert np.allclose(eval_field(spec, [1.0, 1.0, 0.0]), [0, 0, 2.0])


def test_axial_constant_profile_degenerates():
    spec = FieldSpec.axial([1.0])
    pts = np.random.default_rng(1).uniform(-1, 1, (20, 3))
    assert np.allclose(eval_field(spec, pts), eval_field(CONST_Z, pts))


def test_symmetric_gauge_value():
    assert np.allclose(vector_potential(CONST_Z, [1.0, 0, 0]), [0, 0.5, 0])


def test_gauges_vanish_at_origin():
    for spec in builtin_fields().values():
        assert np.allclose(vector_potential(spec, [0.0, 0, 0]), 0.0)


def test_azimuthal_constant_matches_symmetric():
    axial_one = FieldSpec.axial([1.0])
    assert np.allclose(vector_potential(axial_one, [1.0, 0, 0]), [0, 0.5, 0])
    pts = np.random.default_rng(2).uniform(-1, 1, (50, 3))
    azim = vector_potential(axial_one, pts)
    symm = vector_potential(CONST_Z, pts)
    # both are Coulomb-gauge potentials of the same field; z components differ
    assert np.allclose(azim[:, :2], symm[:, :2], atol=1e-14)


def test_gauge_curl_consistency():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, (1000, 3))
    for spec in builtin_fields().values():
        curl = curl_fd(lambda y, s=spec: vector_potential(s, y), pts)
        assert np.max(np.abs(curl - eval_field(spec, pts))) <= 1e-6


def test_coulomb_gauges_divergence_free():
    h = 1e-5
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, (200, 3))
    for name in ("constant-z", "axial-quadratic"):
        spec = builtin_fields()[name]
        div = np.zeros(len(pts))
        for j in range(3):
            dx = np.zeros(3)
            dx[j] = h
            div += (vector_potential(spec, pts + dx)[:, j]
                    - vector_potential(spec, pts - dx)[:, j]) / (2 * h)
        assert np.max(np.abs(div)) < 1e-6


def test_check_b_compat_kawasaki_constant():
    assert check_B_compat(KAWASAKI, CONST_Z).verdict


def test_check_b_compat_identity_incompatible():
    rep = check_B_compat(np.eye(3), CONST_Z)
    assert not rep.verdict
    assert rep.max_residual == pytest.approx(2.0)


def test_check_b_compat_swap_axial():
    spec = FieldSpec.axial([1.0, 0.5])
    assert check_B_compat(SWAP_XY, spec).verdict


def test_check_a_compat_examples():
    assert check_A_compat(KAWASAKI, CONST_Z).max_residual <= 1e-10
    rep = check_A_compat(np.eye(3), CONST_Z)
    assert rep.max_residual == pytest.approx(2.0, rel=1e-3)
    assert not rep.verdict


def test_equivalence_of_conditions_across_catalog():
    for spec in builtin_fields().values():
        for op in single_particle_catalog():
            assert check_A_compat(op, spec).verdict == check_B_compat(op, spec).verdict


def test_invalid_operation_rejected():
    with pytest.raises(InvalidOperation):
        check_B_compat(np.diag([2.0, 1.0, 1.0]), CONST_Z)
    rot = np.array([[0.0, -1, 0], [1, 0, 0], [0, 0, 1]])   # orthogonal, not involutory
    with pytest.raises(InvalidOperation):
        check_B_compat(rot, CONST_Z)


def test_find_compatible_constant_z():
    result = find_compatible(CONST_Z)
    mats = [op.A.tolist() for op in result.ops]
    assert np.diag([1, -1, 1]).tolist() in mats
    assert np.diag([-1, 1, 1]).tolist() in mats
    assert SWAP_XY.astype(int).tolist() in mats
    assert np.eye(3, dtype=int).tolist() not in mats
    assert len(result.ops) == 8
    assert result.continuous_family_applies


def test_find_compatible_zero_field():
    result = find_compatible(FieldSpec.constant([0.0, 0.0, 0.0]))
    assert len(result.ops) == 20


def test_find_compatible_planar_includes_swap():
    spec = builtin_fields()["planar-quartic"]
    result = find_compatible(spec)
    assert SWAP_XY.astype(int).tolist() in [op.A.tolist() for op in result.ops]
    assert not result.continuous_family_applies


def test_continuous_family_endpoints():
    assert np.allclose(continuous_family(0.0).matrix(), np.diag([1.0, -1.0, 1.0]))
    assert np.allclose(continuous_family(np.pi / 2).matrix(), SWAP_XY, atol=1e-15)


def test_continuous_family_closure():
    for theta in np.linspace(0, 2 * np.pi, 64, endpoint=False):
        a = continuous_family(theta).matrix()
        assert np.max(np.abs(a @ a - np.eye(3))) <= 1e-14
        assert np.linalg.det(a) == pytest.approx(-1.0, abs=1e-14)


def test_continuous_family_compatible_with_constant_z():
    for theta in np.linspace(0, 2 * np.pi, 64, endpoint=False):
        rep = check_B_compat(continuous_family(theta), CONST_Z, tol=1e-12)
        assert rep.verdict



def test_planar_requires_symmetric_matrix():
    with pytest.raises(ValueError):
        FieldSpec.planar([[0.0, 1.0], [0.0, 0.0]])


def test_planar_mirror_symmetries_hold():
    spec = builtin_fields()["planar-quartic"]
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, (100, 3))
    swapped = pts[:, [1, 0, 2]]
    mirrored = pts * np.array([1.0, -1.0, 1.0])
    b = eval_field(spec, pts)[:, 2]
    assert np.allclose(eval_field(spec, swapped)[:, 2], b)
    assert np.allclose(eval_field(spec, mirrored)[:, 2], b)


def test_parse_field_inline():
    spec = parse_field("constant:0,0,1")
    assert spec.family == "constant" and np.array_equal(spec.b, [0, 0, 1])
    spec = parse_field("axial:1,0.5")
    assert np.array_equal(spec.coeffs, [1.0, 0.5])
    spec = parse_field("planar:0,0,1;0,2,1")
    assert spec.cmat[0, 2] == spec.cmat[2, 0] == 1.0


def test_parse_field_file():
    spec = parse_field_file("""
# reference field
family = constant
b = 0 0 1
box = 2.5
""")
    assert np.array_equal(spec.b, [0, 0, 1])
    assert spec.box == 2.5
    spec = parse_field_file("family = axial\ncoeffs = 1 0.5\n")
    assert np.array_equal(spec.coeffs, [1.0, 0.5])
    assert spec.box == 1.0
    spec = parse_field_file("family = planar\nterm = 0 0 1\nterm = 1 1 0.5\n")
    assert spec.cmat[1, 1] == 0.5
    with pytest.raises(ValueError):
        parse_field_file("family = constant\nb = 0 0 1\nbox_half = 2.5\n")
    with pytest.raises(ValueError):
        parse_field_file("family = constant\nbox = 2.5\n")


def test_field_box_controls_compat_sampling():
    # the residual of an incompatible op scales with the field over the box
    narrow = FieldSpec.axial([1.0, 0.5], box=0.5)
    wide = FieldSpec.axial([1.0, 0.5], box=3.0)
    r_narrow = check_B_compat(np.eye(3), narrow).max_residual
    r_wide = check_B_compat(np.eye(3), wide).max_residual
    assert 2.0 <= r_narrow <= 2.5
    assert r_wide > 10.0
