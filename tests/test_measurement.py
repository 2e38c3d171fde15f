import gc
import itertools
import math
import operator
import os
import pickle
import random
import re
import site
import subprocess
import sys
from collections.abc import Sequence
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import joint_parity
from conftest import random_exact_ket, random_float_ket
from spinstat import measurement
from spinstat.errors import InvalidValueError, ShapeError, SizeLimitError
from spinstat.exact import ExactScalar
from spinstat.kets import Ket
from spinstat.measurement import (
    MAX_JOINT_PARTICLES,
    MAX_SEARCH_DENOMINATOR,
    ProbabilityTable,
    SLACK,
    BellEvaluation,
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
    assert parse_pi_angle("-0") == parse_pi_angle("+0") == parse_pi_angle("-0pi") == 0
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


@given(st.builds(Fraction, st.integers(), st.integers(min_value=1)))
def test_integer_gap_kernel_matches_the_oracle_on_any_fraction(gap):
    assert_kernel_matches_oracle(gap)


HARD_FRACTIONS = [
    # Denominators above 2**53, where float(p) / float(q) would round twice.
    Fraction(1, 2**53 + 1),
    Fraction(3**100, 2**60 + 1),
    Fraction(-(2**64) - 5, 3 * 2**54 + 1),
    # Negative numerators, at an irrational and at a rational term.
    Fraction(-1, 7),
    Fraction(-29, 12),
    Fraction(-13, 6),
    # Thousands of whole turns past 2pi.
    Fraction(2 * 5003 * 7 + 3, 7),
    Fraction(-(2 * 7919 * 12) - 5, 12),
    Fraction(2 * 3001 * 6 + 1, 6),
    Fraction(2 * 4099 * (2**60 + 1) + 5, 2**60 + 1),
]


@pytest.mark.parametrize("gap", HARD_FRACTIONS)
def test_integer_gap_kernel_matches_the_oracle_on_hard_fractions(gap):
    assert_kernel_matches_oracle(gap)


@pytest.mark.parametrize("gap", HARD_FRACTIONS)
def test_integer_gap_kernel_ignores_the_sign_of_the_gap(gap):
    p, q = gap.as_integer_ratio()
    for mode in ("half", "full"):
        assert repr(measurement._pi_term(-p, q, mode)) == repr(measurement._pi_term(p, q, mode))


@pytest.mark.parametrize("angle", HARD_FRACTIONS)
def test_angle_to_radians_is_float_times_pi_on_hard_fractions(angle):
    # One int division, as float(Fraction) does it, then one product: equal
    # bit for bit, for a Fraction subclass too.
    for a in (angle, -angle, joint_parity.PiMultiple(angle)):
        assert repr(angle_to_radians(a)) == repr(float(a) * math.pi)


def oracle_sides(lhs, first, second):
    """``lhs > first + second`` as bell_inequality decides it, from the three terms."""
    if all(isinstance(t, Fraction) for t in (lhs, first, second)):
        return lhs, first + second, lhs > first + second
    lhs, rhs = float(lhs), float(first) + float(second)
    return lhs, rhs, lhs > rhs + SLACK


def test_bell_inequality_matches_the_oracle_on_the_twelfths_grid():
    grid = [Fraction(k, 12) for k in range(24)]
    for mode in ("half", "full"):
        terms = {gap: oracle_gap_term(gap, mode) for gap in grid}
        for ij, jk, ki in itertools.product(grid, repeat=3):
            lhs, rhs, violated = oracle_sides(terms[ki], terms[jk], terms[ij])
            ev = bell_inequality(ij, jk, ki, mode)
            assert_same(ev.lhs, lhs)
            assert_same(ev.rhs, rhs)
            assert ev.violated == violated


#: The tiny gap of the Bell and Wigner calls whose margin is below SLACK.
TINY = Fraction(1, 10**7)


def pi_multiples(limit):
    """Fractions p/q with 1 <= q <= limit and |p/q| <= 3: within a turn and a half of 0."""
    return st.integers(1, limit).flatmap(lambda q: st.builds(Fraction, st.integers(-3 * q, 3 * q), st.just(q)))


@st.composite
def consistent_triples(draw):
    """Gaps (ij, jk, ki) with ki = ±ij ± jk plus whole periods, a formula, and three angles with those gaps.

    Some draws put a factor of the sign rule on zero: ij a whole period
    (sin A = 0), or jk such that A + B is a right angle (cos(A + B) = 0).
    Others take both gaps below 10**-6 pi, where the margin is below SLACK.
    """
    mode = draw(st.sampled_from(["half", "full"]))
    period = 2 if mode == "half" else 1
    ij, jk, start = draw(pi_multiples(10**9)), draw(pi_multiples(10**9)), draw(pi_multiples(10**9))
    kind = draw(st.sampled_from([None, "tiny", "sin", "cos"]))
    if kind == "tiny":
        q = draw(st.integers(10**6, 10**9))
        ij = Fraction(draw(st.integers(1, 3)), q)
        jk = Fraction(draw(st.integers(-3, 3)), q) + draw(st.sampled_from([0, period]))
    elif kind == "sin":
        ij = Fraction(period * draw(st.integers(-1, 1)))
    elif kind == "cos":
        jk = Fraction(period, 2) - ij + period * draw(st.integers(-1, 1))
    a, b = draw(st.sampled_from([ij, -ij])), draw(st.sampled_from([jk, -jk]))
    ki = a + b + period * draw(st.integers(-1, 1))
    return (ij, jk, ki), mode, (start, start + a, start + a + b)


def mpmath_margin_sign(ij, jk, ki, mode):
    """The sign of lhs - rhs at 50 digits, and whether a factor of sin A * sin B * cos(A + B) is zero.

    With gap denominators up to about 10**9 a nonzero sin A or sin B is at
    least about 10**-9 and a nonzero cos(A + B) about 10**-18, so a nonzero
    margin exceeds 1e-36, far above the 1e-45 below which the 50-digit
    evaluation reads zero.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        def angle(gap):
            x = mpmath.mpf(gap.numerator) / gap.denominator * mpmath.pi
            return x / 2 if mode == "half" else x

        def term(gap):
            return mpmath.sin(angle(gap)) ** 2 / 2

        margin = term(ki) - term(jk) - term(ij)
        # A + B is ±angle(ki) plus whole turns of pi.
        factors = (mpmath.sin(angle(ij)), mpmath.sin(angle(jk)), mpmath.cos(angle(ki)))
        tiny = mpmath.mpf(10) ** -45
        return (margin > tiny) - (margin < -tiny), any(abs(f) < tiny for f in factors)


@settings(deadline=None)
@given(consistent_triples())
@example(((TINY, TINY, 2 * TINY), "half", (Fraction(0), TINY, 2 * TINY)))
@example(((TINY, TINY, 2 * TINY), "full", (Fraction(0), TINY, 2 * TINY)))
@example(((TINY, -TINY, Fraction(0)), "half", (Fraction(0), TINY, Fraction(0))))
@example(((TINY, 2 - TINY, 2 * TINY), "half", (Fraction(0), TINY, 2 * TINY - 2)))
@example(((HALF, HALF, Fraction(1)), "half", (Fraction(0), HALF, Fraction(1))))
@example(((Fraction(1, 4), Fraction(1, 4), HALF), "full", (Fraction(1, 3), Fraction(7, 12), Fraction(5, 6))))
def test_pi_multiple_verdicts_match_a_50_digit_oracle(case):
    (ij, jk, ki), mode, points = case
    sign, factor_is_zero = mpmath_margin_sign(ij, jk, ki, mode)
    # A tie is exactly a zero factor, and neither violates nor is inconsistent.
    assert (sign == 0) == factor_is_zero
    assert bell_inequality(ij, jk, ki, mode).violated == (sign > 0)
    # Angles whose gaps are ±ij and ±jk have the same verdict.
    for variant in ("same-state", "singlet-inclusive"):
        assert wigner_argument(*points, variant, mode).consistent == (sign <= 0)


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


@pytest.mark.parametrize(
    "tables, expected",
    [
        pytest.param(({("+",): NAN}, {("+",): 1.0, ("-",): NAN}), "probabilities sum to nan, not 1", id="nan"),
        pytest.param(({("+",): INF}, {("+",): 1.0, ("-",): INF}), "probabilities sum to inf, not 1", id="inf"),
        pytest.param(({("+",): -INF}, {("+",): 1.0, ("-",): -INF}), "negative probability -inf for", id="-inf"),
        # Entries are read in order, so the negative one is refused before
        # the NaN total is.
        pytest.param(({("+",): NAN, ("-",): -5.0},), "negative probability -5.0 for", id="nan-then-negative"),
        pytest.param(({("+",): 1.0, ("-",): -1e-13},), {("+",): 1.0, ("-",): 0.0}, id="residue-clamped"),
        pytest.param(({("+",): 1.0, ("-",): -0.0},), {("+",): 1.0, ("-",): -0.0}, id="negative-zero-kept"),
    ],
)
def test_probability_tables_refuse_non_finite_entries(tables, expected):
    for entries in tables:
        if isinstance(expected, str):
            with pytest.raises(InvalidValueError, match=re.escape(expected)):
                ProbabilityTable(entries)
        else:
            assert repr(ProbabilityTable(entries).entries) == repr(expected)


@pytest.mark.parametrize(
    "amplitudes, total",
    [
        ((ExactScalar(1), ExactScalar(Fraction(1, 2), 2)), "1.5"),
        ((0.6 + 0.8j, -0.5), "1.25"),
    ],
    ids=["exact", "float"],
)
def test_joint_tables_refuse_an_unnormalized_ket(amplitudes, total):
    # Squared norm 3/2 or 5/4: the table sums to it, whatever the angles.
    ket = Ket((2, 2, 2), dict(zip([(0, 1, 0), (1, 0, 1)], amplitudes)))
    with pytest.raises(InvalidValueError, match=rf"^probabilities sum to {re.escape(total)}\d*, not 1$"):
        joint_distribution(ket, (Fraction(1, 3), 0.4, 2))


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


@st.composite
def parity_cases(draw):
    """A ket on 1-10 slots, exact or float and maybe unnormalized, angles of every kind, and a rate."""
    n = draw(st.integers(1, 10))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ket = joint_parity.random_ket(rng, n, exact=draw(st.booleans()), normalized=draw(st.booleans()))
    pi_multiple = st.builds(Fraction, st.integers(-48, 48), st.integers(1, 12))
    angle = st.one_of(
        pi_multiple,
        pi_multiple.map(joint_parity.PiMultiple),
        st.builds(Fraction, st.integers(), st.integers(min_value=1)),
        st.floats(-10, 10),
        st.floats(),
        st.integers(-7, 7),
    )
    angles = draw(st.lists(angle, min_size=n, max_size=n))
    c = draw(st.sampled_from(joint_parity.RATES) | st.floats(-3, 3) | st.integers(-3, 3))
    return ket, angles, c


@settings(deadline=None)
@given(parity_cases())
def test_tables_equal_the_per_pair_reference_by_repr(case):
    assert joint_parity.outcome(joint_distribution, *case) == joint_parity.outcome(
        joint_parity.reference_joint_distribution, *case
    )


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
    # term per step of the 2d-step grid, and reading its records needs none.
    calls = 0
    pi_term = measurement._pi_term

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return pi_term(*args, **kwargs)

    monkeypatch.setattr(measurement, "_pi_term", counting)
    for d in range(1, 13):
        expected = repr(naive_search(d, mode))
        calls = 0
        found = search_violations(d, mode)
        assert repr(list(found)) == expected
        assert 0 < calls <= 2 * d


def oracle_step_pairs(denominator, mode):
    """The grid's steps, and each violating step pair (a, b) with its gaps and evaluation.

    Every pair is decided once from oracle_gap_term, as bell_inequality
    decides the gap triple (steps[a], steps[b], steps[a + b]); the dict
    holds the violating pairs in (a, b) order.
    """
    n = 2 * denominator
    steps = [Fraction(k, denominator) for k in range(n)]
    terms = [oracle_gap_term(step, mode) for step in steps]
    pairs = {}
    for a in range(1, n):
        for b in range(1, n - a):
            lhs, rhs, violated = oracle_sides(terms[a + b], terms[b], terms[a])
            if violated:
                gaps = (steps[a], steps[b], steps[a + b])
                pairs[a, b] = (gaps, BellEvaluation(*gaps, lhs, rhs, True, mode))
    return steps, pairs


@pytest.mark.parametrize("mode", ["half", "full"])
def test_search_matches_the_oracle_on_every_grid(mode):
    # A triple (i, i + a, i + a + b) violates exactly when its step pair
    # (a, b) does, and (i, a, b) order is the lexicographic order of
    # itertools.combinations.  So the records from start 0 hold each
    # violating pair once, in (a, b) order, and start i repeats those with
    # a + b < n - i, moved on by i steps.  The start-0 gaps and evaluations
    # are compared by repr with the oracle's, which bell_inequality must also
    # give; the whole list then column by column, with those objects and by
    # the step index of each angle's object.  A repr of every record, found
    # and expected, would take about 15 s per mode.  The records are read
    # once, into a list, since each read of the sequence builds them anew.
    # Each d holds up to 69 184 records and their columns alive, none of them
    # in a reference cycle, so the cyclic collector only rescans them.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for d in range(1, MAX_SEARCH_DENOMINATOR + 1):
            n = 2 * d
            steps, pairs = oracle_step_pairs(d, mode)
            violations = search_violations(d, mode)
            assert len(violations) == sum(n - a - b for a, b in pairs)
            found = list(violations)
            assert len(found) == len(violations)
            assert set(map(type, found)) <= {GridViolation}
            head = found[: len(pairs)]
            assert repr(list(map(itemgetter(1, 2), head))) == repr(list(pairs.values()))
            assert repr([bell_inequality(*gaps, mode) for gaps, _ in pairs.values()]) == repr([ev for _, ev in pairs.values()])
            # kept[i][p]: pair p fits on the grid from start i.
            kept = [[a + b < n - i for a, b in pairs] for i in range(n)]

            def expand(per_pair):
                """One value per record: start by start, each kept pair's value."""
                return list(itertools.chain.from_iterable(map(itertools.compress, itertools.repeat(per_pair), kept)))

            assert list(map(itemgetter(1), found)) == expand([v.gaps for v in head])
            assert list(map(itemgetter(2), found)) == expand([v.evaluation for v in head])
            columns = [list(map(itemgetter(c), map(itemgetter(0), found))) for c in range(3)]
            distinct = {}
            for column in columns:
                distinct.update(zip(map(id, column), column))
            index = {key: steps.index(angle) for key, angle in distinct.items()}
            assert repr(list(distinct.values())) == repr([steps[k] for k in index.values()])
            start = list(itertools.chain.from_iterable(map(itertools.repeat, range(n), map(sum, kept))))
            for column, offsets in zip(columns, ([0] * len(pairs), [a for a, _ in pairs], [a + b for a, b in pairs])):
                assert list(map(index.__getitem__, map(id, column))) == list(map(operator.add, start, expand(offsets)))
    finally:
        if collecting:
            gc.enable()


@pytest.mark.parametrize("d, mode", [(1, "half"), (4, "full"), (6, "half"), (6, "full"), (7, "half")])
def test_search_results_are_a_sized_iterable_value(d, mode):
    violations = search_violations(d, mode)
    records = list(violations)
    # Only len and iteration: no indexing, slicing, index or reversed.
    assert not isinstance(violations, Sequence)
    assert not any(hasattr(violations, name) for name in ("__getitem__", "index", "__reversed__"))
    assert len(violations) == len(records) == sum(2 * d - a - b for a, b, _, _ in violations.pairs)
    assert list(violations) == records
    # One iteration's records share each pair's evaluation object.
    shared = {}
    for r in violations:
        assert shared.setdefault(r.gaps, r.evaluation) is r.evaluation

    again = search_violations(d, mode)
    assert again == violations and not again != violations and again is not violations
    assert hash(again) == hash(violations)
    # Equal by (denominator, mode, pairs) and nothing else.
    assert measurement.GridViolations(d, mode, violations.pairs) == violations
    if violations.pairs:
        assert measurement.GridViolations(d, mode, violations.pairs[:-1]) != violations
    for other in (search_violations(d + 1, mode), search_violations(d, "full" if mode == "half" else "half")):
        assert other != violations and not other == violations
    assert violations != records
    for name in ("denominator", "mode", "pairs", "other"):
        with pytest.raises(AttributeError):
            setattr(violations, name, None)
    assert pickle.loads(pickle.dumps(violations)) == violations
    assert list(pickle.loads(pickle.dumps(violations))) == records
    assert repr(violations) == f"GridViolations(denominator={d}, mode={mode!r}, count={len(records)})"


def test_search_at_its_size_limit():
    assert len(search_violations(24)) == 8096
    assert len(search_violations(MAX_SEARCH_DENOMINATOR)) == 69184


def test_search_refuses_a_grid_beyond_the_limit():
    with pytest.raises(SizeLimitError):
        search_violations(MAX_SEARCH_DENOMINATOR + 1)


REFERENCE = (Fraction(1, 3), Fraction(1, 3), Fraction(2, 3))


@pytest.mark.parametrize(
    "call",
    [
        lambda: search_violations(0),
        lambda: search_violations(-6),
        lambda: search_violations(2.5),
        lambda: search_violations(Fraction(6)),
        lambda: search_violations("6"),
        lambda: search_violations(6, mode="bogus"),
        lambda: search_violations(MAX_SEARCH_DENOMINATOR + 1, mode="bogus"),
        lambda: bell_inequality(*REFERENCE, mode="bogus"),
        lambda: bell_inequality(0.1, 0.1, 0.2, mode="Half"),
        lambda: wigner_argument(*REFERENCE, mode="bogus"),
        lambda: wigner_argument(0.0, 0.5, 1.0, variant="bogus"),
        lambda: wigner_argument(*REFERENCE, variant="singlet"),
    ],
)
def test_bell_search_and_wigner_refuse_bad_arguments(call):
    # Before, a bad denominator returned [] or raised TypeError, a bad mode
    # ran the full formula and a bad variant raised KeyError.
    with pytest.raises(InvalidValueError):
        call()


def test_search_takes_any_integral_denominator():
    assert repr(search_violations(np.int64(6), "full")) == repr(search_violations(6, "full"))


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


def assert_wigner_terms(report, ij, jk, ki):
    """The report's subset term is ki and its pair events' terms are ij and jk, by type and value."""
    got = (report.subset_probability, *[p for _, p in report.pair_events.values()])
    want = (ki, jk, ij) if report.variant == "same-state" else (ki, ij, jk)
    assert got == want and tuple(map(type, got)) == tuple(map(type, want)), (got, want)


def test_wigner_terms_match_the_oracle_on_every_twelfths_triple():
    # Every triple of k*pi/12 with -24 <= k < 24: gaps of either sign, beyond
    # a turn, and between angles of unequal denominators.  The four
    # (variant, mode) pairs take turns from triple to triple, so each runs on
    # a quarter of the 110 592 triples; all four on every triple would add
    # 3 s to the suite.  A term's gap in twelfths is the difference of two k,
    # so the oracle is tabled on it.
    angles = {k: Fraction(k, 12) for k in range(-24, 24)}
    oracle = {mode: [oracle_gap_term(Fraction(m, 12), mode) for m in range(48)] for mode in ("half", "full")}
    combos = list(itertools.product(("same-state", "singlet-inclusive"), ("half", "full")))
    for (i, ti), (j, tj), (k, tk) in itertools.product(angles.items(), repeat=3):
        variant, mode = combos[(i + 2 * j + k) % 4]
        terms = oracle[mode]
        report = wigner_argument(ti, tj, tk, variant, mode)
        assert_wigner_terms(report, terms[abs(j - i)], terms[abs(k - j)], terms[abs(k - i)])
    # A triple with a float angle takes its gaps in radians.
    rng = random.Random(23)
    for _ in range(400):
        triple = tuple(rng.choice((Fraction(rng.randrange(-48, 48), 12), rng.uniform(-7, 7))) for _ in range(3))
        for mode in ("half", "full"):
            ij, jk, ki = (oracle_gap_term(gap, mode) for gap in _wigner_gaps(*triple))
            for variant in ("same-state", "singlet-inclusive"):
                assert_wigner_terms(wigner_argument(*triple, variant, mode), ij, jk, ki)


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
