import numpy as np
import pytest

from treverse.fields import FieldSpec, builtin_fields, check_B_compat, continuous_family
from treverse.enumeration import single_particle_catalog
from treverse.spin import (
    antiunitary_act,
    catalog_spin_ops,
    pauli,
    pauli_vector,
    so3_to_su2,
    spin_coupling_residual,
    spin_lift,
    t_squared_sign,
    _require_unitary,
)

SX, SY, SZ = pauli("x"), pauli("y"), pauli("z")


def _require_su2(U):
    U = _require_unitary(U)
    if abs(np.linalg.det(U) - 1.0) > 1e-12:
        raise ValueError("matrix must be special unitary (det = 1)")
    return U


def su2_to_so3(U):
    """Rotation L with U^dag s_j U = L[j, k] s_k, for special unitary U."""
    U = _require_su2(U)
    sig = pauli_vector()
    out = np.empty((3, 3))
    for j in range(3):
        rotated = U.conj().T @ sig[j] @ U
        for k in range(3):
            out[j, k] = 0.5 * np.trace(sig[k] @ rotated).real
    return out


def conjugation_identity_check(U, tol=1e-13):
    """sigma_y U sigma_y = conj(U) for special unitary U."""
    U = _require_su2(U)
    return bool(np.max(np.abs(SY @ U @ SY - U.conj())) <= tol)


def random_su2(rng):
    """w I - i v.sigma for a random unit quaternion (w, v)."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return q[0] * np.eye(2) - 1j * np.tensordot(q[1:], pauli_vector(), axes=(0, 0))


def test_pauli_squares():
    for s in (SX, SY, SZ):
        assert np.allclose(s @ s, np.eye(2))
        assert abs(np.trace(s)) == 0.0


def test_pauli_product_rule():
    assert np.allclose(SX @ SY, 1j * SZ)
    assert np.allclose(SY @ SZ, 1j * SX)
    assert np.allclose(SZ @ SX, 1j * SY)


def test_pauli_bad_axis():
    with pytest.raises(ValueError):
        pauli("w")


def test_antiunitary_act_of_sigma_y_reverses_every_spin():
    for s in (SX, SY, SZ):
        assert np.array_equal(antiunitary_act(SY, s), -s)
    assert np.array_equal(antiunitary_act(np.eye(2, dtype=complex), SY), -SY)


def test_catalog_count_and_split():
    entries = catalog_spin_ops()
    assert len(entries) == 9
    valid = [e for e in entries if e.valid]
    invalid = [e for e in entries if not e.valid]
    assert len(valid) == 6 and len(invalid) == 3
    assert sorted(e.t_squared for e in valid) == [-1, 1, 1, 1, 1, 1]
    assert all(e.t_squared is None for e in invalid)


def test_catalog_sign_table():
    signs = {e.label: e.t_squared for e in catalog_spin_ops()}
    assert signs["sigma_x"] == 1
    assert signs["sigma_y"] == -1
    assert signs["sigma_z"] == 1
    assert signs["exchange-xy-fix-z"] == 1
    assert signs["exchange-yz-fix-x"] == 1
    assert signs["exchange-xz-flip-y"] == 1
    assert signs["exchange-xy-flip-z"] is None
    assert signs["exchange-yz-flip-x"] is None
    assert signs["exchange-xz-fix-y"] is None


def test_rejected_candidate_square_is_not_scalar():
    theta = 1.0 / np.sqrt(2.0)
    u = theta * (SX + SY)
    sq = u @ u.conj()
    assert np.allclose(sq, -1j * SZ)


def test_su2_to_so3_identity():
    assert np.allclose(su2_to_so3(np.eye(2)), np.eye(3))


def test_su2_to_so3_iy():
    assert np.allclose(su2_to_so3(1j * SY), np.diag([-1.0, 1.0, -1.0]), atol=1e-14)


def test_su2_to_so3_sign_blind():
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = random_su2(rng)
        assert np.allclose(su2_to_so3(u), su2_to_so3(-u), atol=1e-13)


def test_su2_to_so3_requires_unit_determinant():
    with pytest.raises(ValueError):
        su2_to_so3(SX)          # det = -1


def test_su2_to_so3_homomorphism():
    rng = np.random.default_rng(1)
    for _ in range(100):
        u, v = random_su2(rng), random_su2(rng)
        lhs = su2_to_so3(u @ v)
        rhs = su2_to_so3(u) @ su2_to_so3(v)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_so3_to_su2_identity():
    assert np.allclose(so3_to_su2(np.eye(3)), np.eye(2))


def test_so3_to_su2_pi_rotation_branch():
    u = so3_to_su2(np.diag([-1.0, 1.0, -1.0]))
    assert np.allclose(u, 1j * SY)


def test_so3_to_su2_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = su2_to_so3(random_su2(rng))
        back = su2_to_so3(so3_to_su2(p))
        assert np.max(np.abs(back - p)) <= 1e-10


def test_so3_to_su2_rejects_reflections():
    with pytest.raises(ValueError):
        so3_to_su2(np.diag([1.0, 1.0, -1.0]))


def test_spin_lift_kawasaki_is_scalar():
    us = spin_lift(np.diag([1.0, -1.0, 1.0]))
    assert np.allclose(us, 1j * np.eye(2))


def test_spin_lift_full_inversion_is_sigma_y():
    us = spin_lift(-np.eye(3))
    assert np.allclose(us, SY)


def test_spin_lift_requires_orthogonal_involution():
    with pytest.raises(ValueError):
        spin_lift(np.diag([2.0, 1.0, 1.0]))


def test_all_catalog_lifts_square_to_scalar():
    for op in single_particle_catalog():
        us = spin_lift(op)
        assert t_squared_sign(us) in (1, -1)


def test_spin_coupling_on_compatible_pairs():
    for spec in builtin_fields().values():
        for op in single_particle_catalog():
            if not check_B_compat(op, spec).verdict:
                continue
            us = spin_lift(op)
            assert spin_coupling_residual(op, us, spec) <= 1e-10


def test_spin_coupling_continuous_family():
    const_z = FieldSpec.constant([0.0, 0.0, 1.0])
    for theta in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
        block = continuous_family(theta).matrix()
        us = spin_lift(block)
        assert spin_coupling_residual(block, us, const_z) <= 1e-12


def test_canonical_spin_reversal_fails_without_field_flip():
    const_z = FieldSpec.constant([0.0, 0.0, 1.0])
    assert spin_coupling_residual(np.eye(3), SY, const_z) > 1e-10


def test_spin_coupling_samples_field_box():
    # an incompatible pair's residual grows with the field over spec.box
    narrow = FieldSpec.axial([1.0, 0.5], box=0.5)
    wide = FieldSpec.axial([1.0, 0.5], box=3.0)
    assert spin_coupling_residual(np.eye(3), SY, wide) > \
        spin_coupling_residual(np.eye(3), SY, narrow)


def test_conjugation_identity():
    assert conjugation_identity_check(np.eye(2))
    u = np.cos(np.pi / 6) * np.eye(2) + 1j * np.sin(np.pi / 6) * SX
    assert conjugation_identity_check(u)
    rng = np.random.default_rng(3)
    assert all(conjugation_identity_check(random_su2(rng)) for _ in range(100))


def test_lift_matches_field_transformation_chain():
    # U_s conj(s.B(Mx)) U_s^-1 = s.B(x) pointwise for a compatible pair
    const_z = FieldSpec.constant([0.0, 0.0, 1.0])
    block = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]])
    us = spin_lift(block)
    assert spin_coupling_residual(block, us, const_z) <= 1e-12
