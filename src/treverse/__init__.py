"""Generalized time-reversal operations for magnetized classical and
quantum systems: enumeration, field compatibility, spin lifts, canonical
correlators, and desk-scale molecular-dynamics verification."""

from .phasespace import (
    PhasePoint,
    TimeReversalOp,
    angular_momentum,
    apply,
    is_involution,
    is_orthogonal,
    reverses_angular_momentum,
)
from .enumeration import (
    CapExceeded,
    ConjClass,
    EnumerationReport,
    NoAntisymmetricFamily,
    YoungTableau,
    class_size,
    classes_for,
    count_antisymmetric,
    count_binary,
    enumerate_antisymmetric,
    enumerate_binary,
    single_particle_catalog,
)
from .fields import (
    CompatReport,
    FieldSpec,
    InvalidOperation,
    builtin_fields,
    check_A_compat,
    check_B_compat,
    continuous_family,
    eval_field,
    find_compatible,
    vector_potential,
)
from .spin import (
    catalog_spin_ops,
    pauli,
    so3_to_su2,
    spin_lift,
)
from .kubo import (
    Observable,
    SignatureError,
    SpinSystem,
    SpinTimeReversal,
    ThermalState,
    canonical_correlator,
    tr_commutes,
    verify_kubo_symmetry,
)
from .md import (
    CorrelatorEstimate,
    DiffusionTensor,
    SimConfig,
    antisymmetry_check,
    casimir_check,
    conjugacy_check,
    diffusion_check,
    diffusion_tensor,
    init_state,
    step,
    vanishing_correlator_check,
    velocity_correlator,
)

__version__ = "0.1.0"
