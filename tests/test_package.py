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
        "errors,exact,kets,rotations,spin_algebra",
        "True",
        "beam,condprob,errors,exact,kets,rotations,spin_algebra",
    ]


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



# The float layers; every other module computes exactly and never needs numpy.
NUMPY_MODULES = {"kets", "rotations", "measurement", "beam"}


def test_only_the_float_layers_import_numpy():
    importers = set()
    for name in SUBMODULES:
        tree = ast.parse(Path(spinstat.__path__[0], f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                roots = {(node.module or "").split(".")[0]}
            else:
                continue
            if "numpy" in roots:
                importers.add(name)
    assert importers == NUMPY_MODULES
