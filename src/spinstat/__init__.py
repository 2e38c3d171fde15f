"""Spin-pair state algebra, permutation statistics, and beam simulation."""

from .beam import (
    BeamConfig,
    BeamResult,
    ChiSquareReport,
    chi_square_discriminate,
    hypothesis_distribution,
    simulate_beam,
)
from .condprob import (
    CgComparison,
    ConditionalTable,
    SpinDistribution,
    compare_with_cg,
    conditional_given_total,
)
from .errors import SpinstatError
from .exact import ExactScalar, format_scalar, parse_scalar
from .kets import (
    Ket,
    Permutation,
    inner_product,
    permute_slots,
    tensor_product,
)
from .measurement import (
    BellEvaluation,
    ProbabilityTable,
    WignerReport,
    bell_inequality,
    joint_distribution,
    parse_pi_angle,
    search_violations,
    wigner_argument,
)
from .permstats import (
    PermutationExpansion,
    SingleParticleState,
    StatisticsClass,
    antisymmetrize,
    classify_statistics,
    ground_state_energy,
    invariance_signature,
    symmetrize,
)
from .rotations import (
    conjugate_spinor_slot,
    decompose_spin_j_singlet,
    is_isc,
    is_rotationally_invariant,
    make_state,
    rotation_matrix,
    spin_j_singlet,
)
from .spin_algebra import (
    AngularMomentumSet,
    CoupledState,
    angular_momentum_matrices,
    cg_decompose,
    ladder_apply,
    photon_pair_table,
    verify_rescaled_algebra,
)

__version__ = "0.1.0"

__all__ = [
    "AngularMomentumSet",
    "BeamConfig",
    "BeamResult",
    "BellEvaluation",
    "CgComparison",
    "ChiSquareReport",
    "ConditionalTable",
    "CoupledState",
    "ExactScalar",
    "Ket",
    "Permutation",
    "PermutationExpansion",
    "ProbabilityTable",
    "SingleParticleState",
    "SpinDistribution",
    "SpinstatError",
    "StatisticsClass",
    "WignerReport",
    "angular_momentum_matrices",
    "antisymmetrize",
    "bell_inequality",
    "cg_decompose",
    "chi_square_discriminate",
    "classify_statistics",
    "compare_with_cg",
    "conditional_given_total",
    "conjugate_spinor_slot",
    "decompose_spin_j_singlet",
    "format_scalar",
    "ground_state_energy",
    "hypothesis_distribution",
    "inner_product",
    "invariance_signature",
    "is_isc",
    "is_rotationally_invariant",
    "joint_distribution",
    "ladder_apply",
    "make_state",
    "parse_pi_angle",
    "parse_scalar",
    "permute_slots",
    "photon_pair_table",
    "rotation_matrix",
    "search_violations",
    "simulate_beam",
    "spin_j_singlet",
    "symmetrize",
    "tensor_product",
    "verify_rescaled_algebra",
    "wigner_argument",
]
