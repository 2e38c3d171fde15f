import ast
import importlib
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import spinstat
from spinstat import beam, condprob, measurement, permstats, rotations, spin_algebra
from spinstat.exact import ExactScalar
from spinstat.kets import Ket, Permutation

SUBMODULES = [info.name for info in pkgutil.iter_modules(spinstat.__path__) if not info.ispkg]

# Run in a fresh interpreter: each step prints the spinstat submodules loaded so far.
LAZY_STEPS = """
import sys

def loaded():
    print(','.join(sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('spinstat.'))) or '-')

import spinstat
loaded()
spinstat.cg_decompose
loaded()
from spinstat import beam
print(beam is sys.modules['spinstat.beam'])
loaded()
"""


def test_package_import_loads_modules_only_on_use():
    completed = subprocess.run(
        [sys.executable, "-c", LAZY_STEPS],
        capture_output=True,
        text=True,
        cwd=str(Path(__file__).parent.parent),
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == [
        "-",
        "errors,exact,kets,spin_algebra",
        "True",
        "beam,condprob,errors,exact,kets,spin_algebra",
    ]


def test_public_names_are_pinned():
    assert set(spinstat.__all__) == {
        "BeamConfig", "BeamResult", "BellEvaluation", "CgComparison", "ChiSquareReport",
        "ConditionalTable", "CoupledState", "ExactScalar", "Ket", "Permutation",
        "PermutationExpansion", "ProbabilityTable", "SpinDistribution", "SpinstatError",
        "StatisticsClass", "WignerReport", "antisymmetrize", "bell_inequality", "cg_decompose",
        "chi_square_discriminate", "classify_statistics", "compare_with_cg",
        "conditional_given_total", "conjugate_spinor_slot", "decompose_spin_j_singlet",
        "format_scalar", "ground_state_energy", "hypothesis_distribution", "inner_product",
        "invariance_signature", "is_isc", "is_rotationally_invariant", "joint_distribution",
        "ladder_apply", "make_state", "parse_pi_angle", "parse_scalar", "permute_slots",
        "photon_pair_table", "rotation_matrix", "search_violations", "simulate_beam",
        "spin_j_singlet", "symmetrize", "tensor_product", "verify_rescaled_algebra",
        "wigner_argument",
    }


def test_every_public_name_is_its_home_object():
    modules = [importlib.import_module(f"spinstat.{name}") for name in SUBMODULES]
    for name in spinstat.__all__:
        homes = [module for module in modules if getattr(module, name, None) is not None]
        assert homes, name
        value = getattr(spinstat, name)
        assert all(getattr(module, name) is value for module in homes), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from spinstat import *", namespace)
    for name in spinstat.__all__:
        assert namespace[name] is getattr(spinstat, name)


def test_dir_lists_every_public_name():
    assert set(spinstat.__all__) <= set(dir(spinstat))
    assert "__version__" in dir(spinstat)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        spinstat.no_such_name  # noqa: B018
    assert not hasattr(spinstat, "no_such_name")



def _root(dotted):
    """``x`` for ``spinstat.x...``, otherwise the first part of the dotted name."""
    parts = dotted.split(".")
    return parts[1] if parts[0] == "spinstat" and len(parts) > 1 else parts[0]


def _imported_roots(name, module_scope_only=False):
    """The top-level names module ``name`` imports; ``from .x import``, ``from . import x`` and ``import spinstat.x`` count as ``x``."""
    tree = ast.parse(Path(spinstat.__path__[0], f"{name}.py").read_text())
    nodes = tree.body if module_scope_only else ast.walk(tree)
    roots = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            roots |= {_root(alias.name) for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            roots.add(_root(node.module))
        elif isinstance(node, ast.ImportFrom):
            roots |= {alias.name for alias in node.names}
    return roots


# The array layers; every other module, measurement's float tables included,
# computes in plain Python and never needs numpy.
NUMPY_MODULES = {"kets", "rotations", "beam"}


def test_only_the_float_layers_import_numpy():
    assert {name for name in SUBMODULES if "numpy" in _imported_roots(name)} == NUMPY_MODULES


def test_measurement_depends_on_kets_exact_and_errors_alone():
    assert _imported_roots("measurement") & set(SUBMODULES) == {"kets", "exact", "errors"}


# The spin basis and the ladder live in kets.  rotations holds the named
# states and the float rotations, and spin_algebra the coupling tables; a
# module that loads either at import makes every user of that module pay for it.
def test_rotations_and_spin_algebra_load_only_where_needed():
    module_scope = {name: _imported_roots(name, module_scope_only=True) for name in SUBMODULES}
    assert {name for name, roots in module_scope.items() if "rotations" in roots} == set()
    assert not any("spin_algebra" in roots for roots in module_scope.values())


def _names_from(name, source):
    """The names module ``name`` binds with ``from .source import ...``."""
    tree = ast.parse(Path(spinstat.__path__[0], f"{name}.py").read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == source
        for alias in node.names
    }


# One slot-operator kernel: the ladder and the one-slot operator images live
# in kets, and both rotations and spin_algebra apply them from there.
SLOT_KERNEL = {"ladder_factor", "ladder", "apply_to_slot"}


def test_kets_is_the_single_owner_of_the_slot_kernel():
    for name in SUBMODULES:
        tree = ast.parse(Path(spinstat.__path__[0], f"{name}.py").read_text())
        defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert defined & SLOT_KERNEL == (SLOT_KERNEL if name == "kets" else set()), name
    assert _names_from("spin_algebra", "kets") >= SLOT_KERNEL
    assert _names_from("rotations", "kets") >= {"ladder", "apply_to_slot"}
    assert "spin_algebra" not in _imported_roots("rotations")


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_after():
    pass
"""


def test_a_failing_property_reports_its_example_under_the_repo_config(tmp_path):
    """A failing ``@given`` test is one failure with its falsifying example, not an aborted session."""
    root = Path(__file__).parent.parent
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(root / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_property.py"],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
    )
    assert completed.returncode == 1, completed.stdout + completed.stderr
    assert "Falsifying example" in completed.stdout
    assert "1 failed, 1 passed" in completed.stdout


HALF = Fraction(1, 2)


def _record_cases():
    """Each immutable value class and result record: a builder of one value, and of a different one."""
    up, down = Ket.basis((2,), (0,)), Ket.basis((2,), (1,))
    third = Fraction(1, 3)
    return {
        "ExactScalar": (lambda: ExactScalar(1, 2), lambda: ExactScalar(1, 3)),
        "Permutation": (lambda: Permutation((1, 0)), lambda: Permutation((0, 1))),
        "Ket": (lambda: Ket((2, 2), {(0, 1): 1}), lambda: Ket((2, 2), {(1, 0): 1})),
        "PermutationExpansion": (
            lambda: permstats.PermutationExpansion.fermi_dirac([up, down]),
            lambda: permstats.PermutationExpansion.bose_einstein([up, down]),
        ),
        "PairComponent": (
            lambda: rotations.decompose_spin_j_singlet(1).pairs[0],
            lambda: rotations.decompose_spin_j_singlet(2).pairs[0],
        ),
        "SingletDecomposition": (
            lambda: rotations.decompose_spin_j_singlet(1),
            lambda: rotations.decompose_spin_j_singlet(2),
        ),
        "SpinDistribution": (condprob.SpinDistribution.uniform, condprob.SpinDistribution.half_weighted),
        "ConditionalTable": (
            lambda: condprob.ConditionalTable(0, {(HALF, -HALF): 1}),
            lambda: condprob.ConditionalTable(1, {(HALF, HALF): 1}),
        ),
        "CgComparison": (
            lambda: condprob.compare_with_cg(condprob.SpinDistribution.half_weighted(), 0),
            lambda: condprob.compare_with_cg(condprob.SpinDistribution.uniform(), 0),
        ),
        "BeamConfig": (lambda: beam.BeamConfig(10, "paper", 1), lambda: beam.BeamConfig(10, "paper", 2)),
        "BeamResult": (
            lambda: beam.BeamResult(beam.BeamConfig(2, "paper", 1), {1: 1, 0: 1}),
            lambda: beam.BeamResult(beam.BeamConfig(2, "paper", 1), {1: 1, -1: 1}),
        ),
        "ChiSquareReport": (
            lambda: beam.chi_square_discriminate(beam.simulate_beam(beam.BeamConfig(100, "paper", 1)), "uniform"),
            lambda: beam.chi_square_discriminate(beam.simulate_beam(beam.BeamConfig(100, "paper", 2)), "uniform"),
        ),
        "RescaledAlgebraCheck": (
            lambda: spin_algebra.verify_rescaled_algebra(1, HALF),
            lambda: spin_algebra.verify_rescaled_algebra(2, HALF),
        ),
        "CoupledState": (
            lambda: spin_algebra.cg_decompose(HALF, HALF)[(1, 0)],
            lambda: spin_algebra.cg_decompose(HALF, HALF)[(0, 0)],
        ),
        "ProbabilityTable": (
            lambda: measurement.ProbabilityTable({("+",): 1.0}),
            lambda: measurement.ProbabilityTable({("-",): 1.0}),
        ),
        "BellEvaluation": (
            lambda: measurement.bell_inequality(third, third, 2 * third),
            lambda: measurement.bell_inequality(third, third, third),
        ),
        "GridViolation": (lambda: measurement.search_violations(3)[0], lambda: measurement.search_violations(3)[1]),
        "WignerReport": (
            lambda: measurement.wigner_argument(0, third, 2 * third),
            lambda: measurement.wigner_argument(0, third, third),
        ),
    }


RECORD_CASES = _record_cases()
# Classes holding a dict, directly or in a Ket, which hash by their fields and
# so raise TypeError, as the dataclasses they were did.
UNHASHABLE_RECORDS = {
    "BeamResult", "CgComparison", "ChiSquareReport", "ConditionalTable", "CoupledState", "Ket",
    "PairComponent", "PermutationExpansion", "ProbabilityTable", "SingletDecomposition",
    "SpinDistribution", "WignerReport",
}


@pytest.mark.parametrize("name", RECORD_CASES)
def test_value_classes_are_immutable_and_compare_by_fields(name):
    make, make_other = RECORD_CASES[name]
    value, same, other = make(), make(), make_other()
    assert type(value).__name__ == name and same is not value
    assert value == same and not value != same
    assert value != other and not value == other
    if name in UNHASHABLE_RECORDS:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same)
    assert pickle.loads(pickle.dumps(value)) == value
    if isinstance(value, tuple):  # a NamedTuple result record
        fields = type(value)._fields
        assert value == tuple(getattr(value, field) for field in fields)
    else:
        assert not isinstance(value, tuple)
        fields = [slot for slot in type(value).__slots__ if not slot.startswith("_")]
        with pytest.raises(TypeError):
            value + (1,)  # noqa: B018
        with pytest.raises(TypeError):
            len(value)
    with pytest.raises(AttributeError):
        setattr(value, fields[0], getattr(other, fields[0]))
    with pytest.raises(AttributeError):
        delattr(value, fields[0])
    assert value == same
    if name == "ExactScalar":  # the documented q*sqrt(r) form
        assert repr(value) == "ExactScalar(Fraction(1, 1), 2)"
    else:
        shown = ", ".join(f"{field}={getattr(value, field)!r}" for field in fields)
        assert repr(value) == f"{name}({shown})"
