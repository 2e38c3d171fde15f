"""Shared helpers: exact random states built from rational rotations, the
spinor conjugation oracle, and the record of the module tests that
acceptance criterion 9 reads."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from spinstat.exact import ExactScalar
from spinstat.kets import Ket

# cos/sin pairs from Pythagorean triples: exactly orthonormal rotations.
PYTHAGOREAN = (
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
    (Fraction(20, 29), Fraction(21, 29)),
)


def random_orthonormal_kets(rng: random.Random, dim: int, twists: int = 3) -> list[Ket]:
    """Columns of an exact rational orthogonal matrix, as single-slot kets."""
    cols = [[Fraction(int(i == k)) for i in range(dim)] for k in range(dim)]
    for _ in range(twists):
        i, j = rng.sample(range(dim), 2)
        c, s = rng.choice(PYTHAGOREAN)
        if rng.random() < 0.5:
            s = -s
        for col in cols:
            vi, vj = col[i], col[j]
            col[i] = c * vi - s * vj
            col[j] = s * vi + c * vj
    return [
        Ket((dim,), {(i,): ExactScalar(v) for i, v in enumerate(col) if v})
        for col in cols
    ]


def random_exact_ket(rng: random.Random, dims: tuple[int, ...], support: int = 3) -> Ket:
    """A nonzero ket with rational amplitudes on a few random labels."""
    amps = {}
    while not amps:
        for _ in range(support):
            label = tuple(rng.randrange(d) for d in dims)
            amps[label] = ExactScalar(Fraction(rng.randint(-5, 5), rng.randint(1, 5)))
        amps = {l: a for l, a in amps.items() if not a.is_zero}
    return Ket(dims, amps)


def random_float_ket(rng: random.Random, dims: tuple[int, ...], support: int = 4) -> Ket:
    amps = {}
    while not amps:
        for _ in range(support):
            label = tuple(rng.randrange(d) for d in dims)
            amps[label] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return Ket(dims, amps)


def dense_amplitudes(ket: Ket):
    """Oracle: the ket's complex amplitudes as a numpy array of shape ``dims``, indexed by label."""
    import numpy as np

    psi = np.zeros(ket.dims, dtype=complex)
    for label, amp in ket.amplitudes.items():
        psi[label] = complex(amp)
    return psi


def conjugate_spinor_slot(ket: Ket, slot: int) -> Ket:
    """Oracle: the conjugation |+> -> |->, |-> -> -|+> (``L- - L+`` at spin 1/2) on one slot.

    It turns the correlated pair state into the anticorrelated one and back,
    up to a global sign, and applied twice it negates the ket.
    """
    amps = {}
    for label, amp in ket.amplitudes.items():
        flipped = label[:slot] + (1 - label[slot],) + label[slot + 1 :]
        amps[flipped] = -amp if label[slot] else amp
    return Ket(ket.dims, amps)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260809)


# ---------------------------------------------------------------------------
# Criterion 9 asks that every module test (each tests/test_*.py but the
# acceptance file) passes within 60 s.  When this session runs all of them,
# criterion 9 is ordered after them and reads their reports from this
# recorder instead of running them a second time.

TESTS_DIR = Path(__file__).parent
CRITERION_9 = "test_criterion_9_full_suite_under_a_minute"


def _is_module_test(item: pytest.Item) -> bool:
    return item.path.parent == TESTS_DIR and item.path.name != "test_acceptance.py"


class ModuleSuite(NamedTuple):
    passed: bool
    seconds: float  # from the session's configuration, collection included


class ModuleTestRecorder:
    """Plugin that records the outcome of each module test in this session."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.deselected = False
        self.reported: set[str] = set()
        self.failed: set[str] = set()

    def pytest_deselected(self, items: list[pytest.Item]) -> None:
        self.deselected = self.deselected or any(map(_is_module_test, items))

    @pytest.hookimpl(trylast=True)  # after -k and -m have deselected
    def pytest_collection_modifyitems(self, items: list[pytest.Item]) -> None:
        criterion = [item for item in items if item.name == CRITERION_9]
        modules = [item for item in items if _is_module_test(item)]
        if criterion and modules:
            items.remove(criterion[0])
            items.insert(items.index(modules[-1]) + 1, criterion[0])

    def pytest_runtest_logreport(self, report: pytest.TestReport) -> None:
        self.reported.add(report.nodeid)
        if report.failed:
            self.failed.add(report.nodeid)

    def suite(self, session: pytest.Session) -> ModuleSuite | None:
        """How the module tests went, or ``None`` if the session does not run them all."""
        items = [item for item in session.items if _is_module_test(item)]
        files = {path.name for path in TESTS_DIR.glob("test_*.py")} - {"test_acceptance.py"}
        if self.deselected or {item.path.name for item in items} != files:
            return None
        passed = all(i.nodeid in self.reported and i.nodeid not in self.failed for i in items)
        return ModuleSuite(passed, time.perf_counter() - self.start)


def pytest_configure(config: pytest.Config) -> None:
    config.pluginmanager.register(ModuleTestRecorder(), "module-test-recorder")


@pytest.fixture
def module_suite(request: pytest.FixtureRequest) -> ModuleSuite | None:
    return request.config.pluginmanager.get_plugin("module-test-recorder").suite(request.session)
