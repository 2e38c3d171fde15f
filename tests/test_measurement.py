import itertools
import math
import os
import random
import site
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_exact_ket, random_float_ket
from spinstat import measurement
from spinstat.errors import InvalidValueError, ShapeError, SizeLimitError
from spinstat.kets import Ket
from spinstat.measurement import (
    MAX_JOINT_PARTICLES,
    MAX_SEARCH_DENOMINATOR,
    ProbabilityTable,
    SLACK,
    GridViolation,
    angle_to_radians,
    bell_inequality,
    format_pi_angle,
    joint_distribution,
    parse_pi_angle,
    search_violations,
    wigner_argument,
)
from spinstat.rotations import make_state

HALF = Fraction(1, 2)


def test_parse_and_format_pi_angles():
    assert parse_pi_angle("pi/3") == Fraction(1, 3)
    assert parse_pi_angle("2pi/3") == Fraction(2, 3)
    assert parse_pi_angle("pi") == 1
    assert parse_pi_angle("0") == 0
    assert parse_pi_angle("-pi/4") == Fraction(-1, 4)
    assert format_pi_angle(Fraction(2, 3)) == "2pi/3"
    assert format_pi_angle(Fraction(0)) == "0"
    with pytest.raises(ValueError):
        parse_pi_angle("1.5")
    with pytest.raises(ValueError):
        parse_pi_angle("pi/0")


def test_rational_cosine_table():
    # A half-mode term is (1 - cos(t*pi))/4 and a full-mode one sin^2(t*pi)/2.
    gap_term = measurement._gap_term
    assert gap_term(Fraction(0), "half") == 0
    assert gap_term(Fraction(1, 3), "half") == Fraction(1, 8)
    assert gap_term(Fraction(1, 2), "half") == Fraction(1, 4)
    assert gap_term(Fraction(7, 3), "half") == Fraction(1, 8)
    assert type(gap_term(Fraction(1, 5), "half")) is float
    assert gap_term(Fraction(1, 3), "full") == Fraction(3, 8)
    assert gap_term(Fraction(1, 6), "full") == Fraction(1, 8)
    assert type(gap_term(Fraction(1, 12), "full")) is float


# The Fraction-keyed lookup the gap kernel used before it worked on integers,
# kept as the oracle: cos(t*pi) for the multiples t in [0, 2) where it is rational.
ORACLE_COS_PI = {
    Fraction(0): Fraction(1),
    Fraction(1, 3): Fraction(1, 2),
    Fraction(1, 2): Fraction(0),
    Fraction(2, 3): Fraction(-1, 2),
    Fraction(1): Fraction(-1),
    Fraction(4, 3): Fraction(-1, 2),
    Fraction(3, 2): Fraction(0),
    Fraction(5, 3): Fraction(1, 2),
}


def oracle_cos_pi(multiple):
    return ORACLE_COS_PI.get(Fraction(multiple) % 2)


def oracle_sin_squared(multiple):
    c = oracle_cos_pi(2 * multiple)
    return None if c is None else (1 - c) / 2


def oracle_gap_term(gap, mode):
    if isinstance(gap, Fraction):
        s2 = oracle_sin_squared(gap / 2 if mode == "half" else gap)
        if s2 is not None:
            return s2 / 2
        gap = float(gap - 2 * int(gap / 2)) * math.pi
    angle = gap / 2 if mode == "half" else gap
    return math.sin(angle) ** 2 / 2


def assert_same(value, expected):
    assert type(value) is type(expected) and value == expected, (value, expected)


def assert_kernel_matches_oracle(multiple):
    for mode in ("half", "full"):
        assert_same(measurement._gap_term(multiple, mode), oracle_gap_term(multiple, mode))


def test_integer_gap_kernel_matches_the_fraction_oracle():
    for d in range(1, 61):
        for k in range(-4 * d, 4 * d + 1):
            assert_kernel_matches_oracle(Fraction(k, d))
    # An int gap is in radians, not a multiple of pi.
    for k in range(-9, 10):
        assert_kernel_matches_oracle(k)


@given(st.fractions())
def test_integer_gap_kernel_matches_the_oracle_on_any_fraction(gap):
    assert_kernel_matches_oracle(gap)


def test_bell_inequality_matches_the_oracle_on_the_twelfths_grid():
    grid = [Fraction(k, 12) for k in range(24)]
    for mode in ("half", "full"):
        terms = {gap: oracle_gap_term(gap, mode) for gap in grid}
        for ij, jk, ki in itertools.product(grid, repeat=3):
            lhs, first, second = terms[ki], terms[jk], terms[ij]
            ev = bell_inequality(ij, jk, ki, mode)
            if all(isinstance(t, Fraction) for t in (lhs, first, second)):
                rhs, violated = first + second, lhs > first + second
            else:
                lhs, rhs = float(lhs), float(first) + float(second)
                violated = lhs > rhs + SLACK
            assert_same(ev.lhs, lhs)
            assert_same(ev.rhs, rhs)
            assert ev.violated == violated


def test_joint_distribution_singlet_equal_angles():
    for theta in (0.0, 0.7, 2.1):
        table = joint_distribution(make_state("singlet"), (theta, theta))
        assert table.entries[("+", "-")] == pytest.approx(0.5)
        assert table.entries[("-", "+")] == pytest.approx(0.5)
        assert table.entries[("+", "+")] == pytest.approx(0.0, abs=1e-15)


def test_joint_distribution_singlet_gap_law():
    # P(+,+) = sin^2(gap/2) / 2 at rate 1/2, checked across the whole grid.
    singlet = make_state("singlet")
    for k in range(360):
        gap = 2 * math.pi * k / 360
        table = joint_distribution(singlet, (0.0, gap))
        same = table.entries[("+", "+")] + table.entries[("-", "-")]
        assert abs(float(same) - math.sin(gap / 2) ** 2) < 1e-12
        assert table.entries[("+", "+")] == pytest.approx(
            table.entries[("-", "-")], abs=1e-12
        )
        disagree = table.entries[("+", "-")] + table.entries[("-", "+")]
        assert abs(float(disagree) - math.cos(gap / 2) ** 2) < 1e-12


def test_joint_distribution_singlet_marginals_uniform():
    singlet = make_state("singlet")
    for theta in [0.1, 1.0, 2.5, 4.0]:
        table = joint_distribution(singlet, (theta, 0.3))
        plus = table.entries[("+", "+")] + table.entries[("+", "-")]
        assert plus == pytest.approx(0.5)


def test_improper_singlet_opposite_readout_deterministic():
    improper = make_state("improper_singlet")
    for theta in (0.0, 0.9, 2.2):
        table = joint_distribution(improper, (theta, theta + math.pi))
        support = sorted(o for o, p in table.items() if p > 1e-12)
        assert support == [("+", "-"), ("-", "+")]
        assert table.entries[("+", "-")] == pytest.approx(0.5)


def test_joint_distribution_shape_guards():
    with pytest.raises(ShapeError):
        joint_distribution(make_state("singlet"), (0.0,))
    with pytest.raises(ShapeError):
        joint_distribution(Ket.basis((3, 3), (0, 0)), (0.0, 0.0))


def test_joint_tables_refuse_more_slots_than_the_limit():
    # One amplitude: the guard must act before any 2**n table is built.
    n = MAX_JOINT_PARTICLES + 1
    with pytest.raises(SizeLimitError):
        joint_distribution(Ket.basis((2,) * n, (0,) * n), (0.0,) * n)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "angles, c",
    [
        ((NAN, 0.0), HALF),
        ((INF, 0.0), HALF),
        ((0.0, -INF), 1),
        ((2.0, 0.0), 1e308),  # c * angle overflows
        ((Fraction(1), 0.0), 1e308),
        ((0.0, 0.0), NAN),
        ((0.0, 0.0), INF),  # inf * 0 is NaN
    ],
)
def test_joint_tables_refuse_a_non_finite_rotation(angles, c):
    with pytest.raises(InvalidValueError, match="not finite"):
        joint_distribution(make_state("singlet"), angles, c=c)


def test_a_huge_rate_at_angle_zero_is_the_identity():
    table = joint_distribution(make_state("singlet"), (0.0, 0.0), c=1e308)
    assert table.entries[("+", "-")] == pytest.approx(0.5)


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_probability_tables_refuse_non_finite_entries(bad):
    with pytest.raises(InvalidValueError):
        ProbabilityTable({("+",): bad})
    with pytest.raises(InvalidValueError):
        ProbabilityTable({("+",): 1.0, ("-",): bad})


@pytest.mark.parametrize(
    "call",
    [
        lambda: bell_inequality(NAN, 0.5, 0.5),
        lambda: bell_inequality(0.5, INF, 0.5),
        lambda: bell_inequality(0.5, 0.5, -INF, mode="full"),
        lambda: wigner_argument(0.0, NAN, 1.0),
        lambda: wigner_argument(INF, 0.0, 1.0),
        lambda: wigner_argument(1e308, -1e308, 0.0),  # the gap overflows
        lambda: wigner_argument(Fraction(0), Fraction(1, 3), NAN, variant="singlet-inclusive"),
    ],
)
def test_bell_and_wigner_refuse_non_finite_gaps(call):
    with pytest.raises(InvalidValueError, match="not finite"):
        call()


JOINT_MODULES = """
import sys
from fractions import Fraction
from spinstat.kets import Ket
from spinstat.measurement import joint_distribution
table = joint_distribution(Ket((2, 2), {(0, 1): 0.6, (1, 0): -0.8}), (Fraction(1, 3), 0.4))
print(round(sum(table.entries.values()), 12), "numpy" in sys.modules, "spinstat.rotations" in sys.modules)
"""


# The child runs with -S, so that a site .pth file cannot load numpy first;
# numpy stays importable from the site directories on PYTHONPATH.
def test_joint_tables_load_neither_numpy_nor_rotations():
    root = Path(__file__).parent.parent
    completed = subprocess.run(
        [sys.executable, "-S", "-c", JOINT_MODULES],
        capture_output=True,
        text=True,
        cwd=str(root),
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), *site.getsitepackages()])},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["1.0", "False", "False"]


def kron_probabilities(ket, angles, c):
    """Outcome probabilities in ``itertools.product("+-")`` order, from the Kronecker product of the slot rotations."""
    matrix = np.eye(1)
    for angle in angles:
        a = float(c) * (float(angle) * math.pi if isinstance(angle, Fraction) else angle)
        matrix = np.kron(matrix, np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]]))
    labels = itertools.product(range(2), repeat=len(angles))
    return np.abs(matrix @ np.array([complex(ket.amplitude(label)) for label in labels])) ** 2


def assert_matches_kron_oracle(ket, angles, c):
    table = joint_distribution(ket, angles, c=c)
    n = len(angles)
    assert list(table.entries) == list(itertools.product("+-", repeat=n))
    for outcome, p in zip(itertools.product("+-", repeat=n), kron_probabilities(ket, angles, c)):
        assert table.entries[outcome] == pytest.approx(p, abs=1e-13)


def test_three_particle_tables_match_a_kron_oracle(rng):
    for _ in range(50):
        ket = random_float_ket(rng, (2, 2, 2), support=5).normalized()
        angles = [Fraction(rng.randrange(24), 12), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)]
        rng.shuffle(angles)
        assert_matches_kron_oracle(ket, angles, rng.choice([HALF, 1]))


@st.composite
def joint_cases(draw):
    """A normalized exact or float ket on 1-6 slots, an angle per slot, and a rate."""
    n = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    make = random_exact_ket if draw(st.booleans()) else random_float_ket
    ket = make(rng, (2,) * n, support=draw(st.integers(1, 2**n))).normalized()
    pi_multiple = st.builds(Fraction, st.integers(-48, 48), st.integers(1, 12))
    angles = draw(st.lists(st.one_of(pi_multiple, st.floats(-10, 10)), min_size=n, max_size=n))
    c = draw(st.sampled_from([HALF, 1, Fraction(3, 2)]) | st.floats(-3, 3))
    return ket, angles, c


@settings(deadline=None)
@given(joint_cases())
def test_tables_match_the_kron_oracle_for_any_slot_count(case):
    assert_matches_kron_oracle(*case)


def test_tables_sum_to_one_on_random_states(rng):
    for i in range(1000):
        n = 2 if i % 2 else 3
        ket = random_float_ket(rng, (2,) * n).normalized()
        angles = [rng.uniform(0, 2 * math.pi) for _ in range(n)]
        table = joint_distribution(ket, angles, c=rng.choice([HALF, 1]))
        assert abs(sum(float(p) for _, p in table.items()) - 1.0) < 1e-12


def test_bell_violation_at_reference_gaps():
    ev = bell_inequality(Fraction(1, 3), Fraction(1, 3), Fraction(2, 3))
    assert isinstance(ev.lhs, Fraction) and isinstance(ev.rhs, Fraction)
    assert ev.lhs == Fraction(3, 8)
    assert ev.rhs == Fraction(1, 4)
    assert ev.lhs - ev.rhs == Fraction(1, 8)
    assert ev.violated
    assert ev.doubled_lhs == Fraction(3, 4)
    assert ev.doubled_rhs == Fraction(1, 2)


def test_bell_degenerate_angles_hold():
    ev = bell_inequality(Fraction(0), Fraction(0), Fraction(0))
    assert (ev.lhs, ev.rhs, ev.violated) == (0, 0, False)


def test_bell_full_angle_mode():
    ev = bell_inequality(Fraction(1, 6), Fraction(1, 6), Fraction(1, 3), mode="full")
    assert ev.lhs == Fraction(3, 8)
    assert ev.rhs == Fraction(1, 4)
    assert ev.violated


def test_bell_symmetric_in_first_two_gaps():
    rng = random.Random(3)
    for _ in range(50):
        a, b, c = (rng.uniform(0, 2 * math.pi) for _ in range(3))
        ev1 = bell_inequality(a, b, c)
        ev2 = bell_inequality(b, a, c)
        assert ev1.lhs == pytest.approx(ev2.lhs)
        assert ev1.rhs == pytest.approx(ev2.rhs)
        assert ev1.violated == ev2.violated


def test_bell_float_fallback():
    ev = bell_inequality(0.1, 0.1, 0.2)
    assert isinstance(ev.lhs, float) and isinstance(ev.rhs, float)
    assert ev.lhs == pytest.approx(math.sin(0.1) ** 2 / 2)


def test_search_recovers_reference_triple():
    violations = search_violations()
    assert violations
    reference = (Fraction(1, 3), Fraction(1, 3), Fraction(2, 3))
    assert any(v.gaps == reference for v in violations)
    assert all(v.evaluation.violated for v in violations)


def test_gaps_beyond_a_turn_reduce_before_the_float_fallback():
    # (2*10**400 + 1/7)*pi is 10**400 whole turns past pi/7; float(gap) would overflow.
    for mode in ("half", "full"):
        huge = bell_inequality(Fraction(14 * 10**400 + 1, 7), 1, 1, mode=mode)
        small = bell_inequality(Fraction(1, 7), 1, 1, mode=mode)
        assert (huge.lhs, huge.rhs, huge.violated) == (small.lhs, small.rhs, small.violated)
    report = wigner_argument(Fraction(0), Fraction(1, 3), Fraction(14 * 10**400 + 1, 7))
    assert report.subset_probability == wigner_argument(
        Fraction(0), Fraction(1, 3), Fraction(1, 7)
    ).subset_probability


def naive_search(denominator, mode):
    """The search as one Bell evaluation per angle triple."""
    steps = [Fraction(k, denominator) for k in range(2 * denominator)]
    found = []
    for ti, tj, tk in itertools.combinations(steps, 3):
        gaps = (tj - ti, tk - tj, tk - ti)
        ev = bell_inequality(*gaps, mode=mode)
        if ev.violated:
            found.append(GridViolation((ti, tj, tk), gaps, ev))
    return found


@pytest.mark.parametrize("mode", ["half", "full"])
def test_search_decides_each_gap_pair_once(monkeypatch, mode):
    # A gap term depends only on its step, so the search needs at most one
    # term per step of the 2d-step grid.
    calls = 0
    gap_term = measurement._gap_term

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return gap_term(*args, **kwargs)

    monkeypatch.setattr(measurement, "_gap_term", counting)
    for d in range(1, 13):
        expected = repr(naive_search(d, mode))
        calls = 0
        found = search_violations(d, mode)
        assert 0 < calls <= 2 * d
        assert repr(found) == expected


@pytest.mark.parametrize("mode", ["half", "full"])
def test_search_equals_the_naive_scan(mode):
    # The naive scan evaluates bell_inequality on every itertools.combinations
    # triple.  A triple's gaps (tj - ti, tk - tj, tk - ti) are the steps
    # (j - i, k - j, k - i), so its evaluation is taken once per step pair.
    # The angle the search returned for each step, and the gaps and
    # evaluation for each step pair, are compared by repr once, and every
    # record by equality with those objects.  Every denominator up to 24 and
    # the limit are checked: all 48 would take 5 s, mostly in the d**3 triples
    # of the largest.
    for d in [*range(1, 25), MAX_SEARCH_DENOMINATOR]:
        n = 2 * d
        steps = [Fraction(k, d) for k in range(n)]
        evaluations = [[bell_inequality(steps[a], steps[b], steps[a + b], mode) for b in range(n - a)] for a in range(n)]
        expected = [t for t in itertools.combinations(range(n), 3) if evaluations[t[1] - t[0]][t[2] - t[1]].violated]
        found = search_violations(d, mode)
        assert all(type(v) is GridViolation for v in found)
        angle = dict(zip(itertools.chain.from_iterable(expected), itertools.chain.from_iterable(v.angles for v in found)))
        pair = {(j - i, k - j): v[1:] for v, (i, j, k) in zip(found, expected)}
        assert repr(angle) == repr({k: steps[k] for k in angle})
        assert repr(pair) == repr({(a, b): ((steps[a], steps[b], steps[a + b]), evaluations[a][b]) for a, b in pair})
        assert found == [((angle[i], angle[j], angle[k]), *pair[j - i, k - j]) for i, j, k in expected]


def test_search_at_its_size_limit():
    assert len(search_violations(24)) == 8096
    assert len(search_violations(MAX_SEARCH_DENOMINATOR)) == 69184


def test_search_refuses_a_grid_beyond_the_limit():
    with pytest.raises(SizeLimitError):
        search_violations(MAX_SEARCH_DENOMINATOR + 1)


def test_wigner_same_state_contradiction():
    report = wigner_argument(Fraction(0), Fraction(1, 3), Fraction(2, 3))
    assert not report.consistent
    assert report.subset_probability == Fraction(3, 8)
    assert report.superset_probability == Fraction(1, 4)
    assert set(report.subset) <= set(report.superset)


def _wigner_gaps(ti, tj, tk):
    """The (ij, jk, ki) gaps as wigner_argument takes them: exact between pi multiples."""

    def gap(a, b):
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return abs(b - a)
        return abs(angle_to_radians(b) - angle_to_radians(a))

    return gap(ti, tj), gap(tj, tk), gap(ti, tk)


def test_wigner_verdict_is_the_bell_verdict_on_its_gaps():
    # The gaps depend only on angle differences, so triples (0, b, c) with b
    # and c between -2pi and 2pi give the gaps of every triple on the grid.
    offsets = [Fraction(k, 12) for k in range(-23, 24)]
    on_grid = [(Fraction(0), b, c) for b, c in itertools.product(offsets, repeat=2)]
    rng = random.Random(12)
    floats = [tuple(rng.uniform(0, 2 * math.pi) for _ in range(3)) for _ in range(200)]
    mixed = [
        tuple(rng.choice((Fraction(rng.randrange(24), 12), rng.uniform(0, 2 * math.pi))) for _ in range(3))
        for _ in range(400)
    ]
    for angles in [*on_grid, *floats, *mixed]:
        ij, jk, ki = _wigner_gaps(*angles)
        for mode in ("half", "full"):
            bell = bell_inequality(ij, jk, ki, mode)
            cos = oracle_cos_pi(ki if mode == "half" else 2 * ki) if isinstance(ki, Fraction) else None
            for variant in ("same-state", "singlet-inclusive"):
                report = wigner_argument(*angles, variant=variant, mode=mode)
                assert report.consistent == (not bell.violated), (angles, mode, variant)
                assert float(report.subset_probability) == bell.lhs
                assert isinstance(report.subset_probability, Fraction) == (cos is not None)
                if cos is not None:
                    assert report.subset_probability == (1 - cos) / 4
    for variant in ("same-state", "singlet-inclusive"):
        report = wigner_argument(Fraction(0), Fraction(1, 12), Fraction(1, 3), variant=variant)
        assert type(report.subset_probability) is Fraction
        assert report.subset_probability == Fraction(1, 8)


def test_wigner_equal_angles_consistent():
    report = wigner_argument(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
    assert report.consistent
    assert report.subset_probability == 0


def test_wigner_singlet_inclusive_events():
    report = wigner_argument(
        Fraction(0), Fraction(1, 3), Fraction(2, 3), variant="singlet-inclusive"
    )
    assert report.subset == (("+", "+", "-"), ("+", "-", "-"))
    assert report.superset == (
        ("+", "+", "-"),
        ("+", "-", "-"),
        ("-", "-", "-"),
        ("+", "+", "+"),
    )
    assert set(report.subset) <= set(report.superset)
    assert not report.consistent
