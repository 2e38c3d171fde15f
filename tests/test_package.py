import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import spinstat

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


# The float layers; every other module computes exactly and never needs numpy.
NUMPY_MODULES = {"kets", "rotations", "measurement", "beam"}


def test_only_the_float_layers_import_numpy():
    assert {name for name in SUBMODULES if "numpy" in _imported_roots(name)} == NUMPY_MODULES


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
