"""Spin-pair state algebra, permutation statistics, and beam simulation.

Importing the package loads none of its modules.  Each public name is
imported from its home module on first use (PEP 562), so a process pays
only for the modules it reaches.
"""

import importlib
from typing import Any

__version__ = "0.1.0"

# home module -> the public names it exports
_EXPORTS = {
    "beam": (
        "BeamConfig",
        "BeamResult",
        "ChiSquareReport",
        "chi_square_discriminate",
        "hypothesis_distribution",
        "simulate_beam",
    ),
    "condprob": (
        "CgComparison",
        "ConditionalTable",
        "SpinDistribution",
        "compare_with_cg",
        "conditional_given_total",
    ),
    "errors": ("SpinstatError",),
    "exact": ("ExactScalar", "format_scalar", "parse_scalar"),
    "kets": ("Ket", "Permutation", "inner_product", "permute_slots", "tensor_product"),
    "measurement": (
        "BellEvaluation",
        "ProbabilityTable",
        "WignerReport",
        "bell_inequality",
        "joint_distribution",
        "parse_pi_angle",
        "search_violations",
        "wigner_argument",
    ),
    "permstats": (
        "PermutationExpansion",
        "StatisticsClass",
        "antisymmetrize",
        "classify_statistics",
        "ground_state_energy",
        "invariance_signature",
        "symmetrize",
    ),
    "rotations": (
        "decompose_spin_j_singlet",
        "is_isc",
        "is_rotationally_invariant",
        "make_state",
        "spin_j_singlet",
    ),
    "spin_algebra": (
        "CoupledState",
        "cg_decompose",
        "ladder_apply",
        "photon_pair_table",
        "verify_rescaled_algebra",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> Any:
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
