import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_float_ket
from spinstat import measurement
from spinstat.errors import ShapeError, SizeLimitError
from spinstat.kets import Ket
from spinstat.measurement import (
    MAX_SEARCH_DENOMINATOR,
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


def test_three_particle_tables_match_a_kron_oracle(rng):
    for _ in range(50):
        ket = random_float_ket(rng, (2, 2, 2), support=5).normalized()
        angles = [Fraction(rng.randrange(24), 12), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)]
        rng.shuffle(angles)
        c = rng.choice([HALF, 1])
        rotations = []
        for angle in angles:
            a = float(c) * (float(angle) * math.pi if isinstance(angle, Fraction) else angle)
            rotations.append(np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]]))
        labels = itertools.product(range(2), repeat=3)
        vec = np.array([complex(ket.amplitude(label)) for label in labels])
        probs = np.abs(np.kron(np.kron(rotations[0], rotations[1]), rotations[2]) @ vec) ** 2
        table = joint_distribution(ket, angles, c=c)
        for outcome, p in zip(itertools.product("+-", repeat=3), probs):
            assert table.entries[outcome] == pytest.approx(p, abs=1e-13)


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
