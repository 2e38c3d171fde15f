import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinstat.errors import IncompatibleRadicandsError, SizeLimitError
from spinstat.exact import (
    MAX_TRIAL_DIVISOR,
    ZERO,
    ExactScalar,
    format_scalar,
    parse_scalar,
    squarefree_decompose,
)

# Sums of up to four q*sqrt(r) terms; most draws have several radicands.
single_terms = st.builds(
    ExactScalar,
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.integers(min_value=0, max_value=40),
)
scalars = st.lists(single_terms, max_size=4).map(lambda terms: sum(terms, ZERO))


def size(x: ExactScalar) -> float:
    """Sum of the absolute values of the terms: the scale of float rounding."""
    return sum(abs(float(q)) * math.sqrt(r) for r, q in x.terms)


@pytest.mark.parametrize(
    "n, square, rest",
    [(0, 1, 0), (1, 1, 1), (2, 1, 2), (4, 2, 1), (12, 2, 3), (360, 6, 10), (49, 7, 1)],
)
def test_squarefree_decompose(n, square, rest):
    assert squarefree_decompose(n) == (square, rest)
    assert square * square * rest == n


def test_trial_division_is_bounded():
    # 10**24 + 7 is prime: after trial division it stays above MAX_TRIAL_DIVISOR**2.
    start = time.perf_counter()
    with pytest.raises(SizeLimitError):
        ExactScalar(1, 10**24 + 7)
    assert time.perf_counter() - start < 1
    assert squarefree_decompose(2**400 * 3) == (2**200, 3)
    # A cofactor below the bound's square is prime, so the split stays exact.
    prime = 10**9 + 7
    assert prime < MAX_TRIAL_DIVISOR**2
    assert squarefree_decompose(4 * prime) == (2, prime)


def test_constructor_normalizes():
    s = ExactScalar(Fraction(1, 2), 8)
    assert (s.coefficient, s.radicand) == (Fraction(1), 2)
    assert ExactScalar(Fraction(3), 1).radicand == 1
    zero = ExactScalar(0, 7)
    assert (zero.coefficient, zero.radicand) == (0, 1)
    assert (ExactScalar(5, 0).coefficient, ExactScalar(5, 0).radicand) == (0, 1)


def test_sqrt_of_rationals():
    assert ExactScalar.sqrt(Fraction(1, 2)) == ExactScalar(Fraction(1, 2), 2)
    assert ExactScalar.sqrt(4) == ExactScalar(2)
    assert ExactScalar.sqrt(Fraction(2, 3)) == ExactScalar(Fraction(1, 3), 6)
    assert float(ExactScalar.sqrt(Fraction(7, 11))) == pytest.approx(math.sqrt(7 / 11))
    with pytest.raises(ValueError):
        ExactScalar.sqrt(-1)


def test_addition_across_radicands_is_exact():
    a = ExactScalar(Fraction(1, 2), 2)
    b = ExactScalar(Fraction(1, 3), 2)
    assert a + b == ExactScalar(Fraction(5, 6), 2)
    assert a - a == ExactScalar(0)
    assert a + ExactScalar(0) == a
    mixed = a + ExactScalar(1, 3)
    assert mixed.terms == ((2, Fraction(1, 2)), (3, Fraction(1)))
    assert mixed == ExactScalar(1, 3) + a
    assert mixed - a == ExactScalar(1, 3)
    assert float(mixed) == pytest.approx(math.sqrt(2) / 2 + math.sqrt(3))
    # sqrt(2)*sqrt(3) = sqrt(6), and the cross terms of a square stay exact.
    assert mixed * mixed == ExactScalar(Fraction(7, 2)) + ExactScalar(1, 6)
    assert len({mixed, ExactScalar(1, 3) + a}) == 1


def test_single_term_operations_refuse_several_terms():
    mixed = ExactScalar(1, 2) - ExactScalar(1, 3)
    for op in (
        lambda: mixed.coefficient,
        lambda: mixed.radicand,
        mixed.squared,
        mixed.inverse,
        lambda: abs(mixed),
        lambda: ExactScalar(1) / mixed,
    ):
        with pytest.raises(IncompatibleRadicandsError):
            op()
    assert mixed / 2 == ExactScalar(Fraction(1, 2), 2) - ExactScalar(Fraction(1, 2), 3)
    assert mixed / ExactScalar(1, 6) == ExactScalar(Fraction(1, 3), 3) - ExactScalar(Fraction(1, 2), 2)
    assert abs(ExactScalar(-2, 3)) == ExactScalar(2, 3)


def test_multiplication_merges_radicands():
    a = ExactScalar(Fraction(1, 2), 6)
    b = ExactScalar(Fraction(2, 3), 10)
    prod = a * b
    # sqrt(6)*sqrt(10) = 2*sqrt(15)
    assert prod == ExactScalar(Fraction(2, 3), 15)
    assert (a * a).radicand == 1
    assert a * 2 == ExactScalar(1, 6)


def test_division_and_inverse():
    a = ExactScalar(Fraction(3, 4), 2)
    assert a / a == ExactScalar(1)
    inv = ExactScalar.sqrt(2).inverse()
    assert inv == ExactScalar(Fraction(1, 2), 2)
    assert float(a / ExactScalar(2, 3)) == pytest.approx(float(a) / float(ExactScalar(2, 3)))
    with pytest.raises(ZeroDivisionError):
        ExactScalar(0).inverse()


def test_product_squares_match_rational_arithmetic():
    # (a*b)^2 as a fraction must equal a^2 * b^2 computed purely rationally.
    rng = random.Random(7)
    for _ in range(1000):
        a = ExactScalar(
            Fraction(rng.randint(-50, 50), rng.randint(1, 30)), rng.randint(0, 40)
        )
        b = ExactScalar(
            Fraction(rng.randint(-50, 50), rng.randint(1, 30)), rng.randint(0, 40)
        )
        assert (a * b).squared() == a.squared() * b.squared()


def test_float_conversion_accuracy():
    rng = random.Random(11)
    for _ in range(200):
        a = ExactScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(1, 30))
        expected = float(a.coefficient) * math.sqrt(a.radicand)
        assert float(a) == pytest.approx(expected, abs=1e-15)


BIG = Fraction(3, 2) * 10**308


@pytest.mark.parametrize(
    "value",
    [
        ExactScalar(10**400),  # the coefficient alone is beyond the float range
        ExactScalar(BIG, 3),  # the coefficient fits, its product with sqrt(3) does not
        ExactScalar(10**308, 3) + ExactScalar(10**308, 2),  # each term fits, the sum does not
    ],
    ids=["coefficient", "term", "sum"],
)
def test_float_beyond_the_range_raises_overflow_error(value):
    with pytest.raises(OverflowError):
        float(value)


def test_float_of_a_finite_difference_of_terms_beyond_the_range():
    value = ExactScalar(BIG, 3) - ExactScalar(BIG, 2)
    assert float(value) == pytest.approx(1.5e308 * (math.sqrt(3) - math.sqrt(2)), rel=1e-15)


@pytest.mark.parametrize(
    "text",
    [
        "0", "1", "-1", "2/3", "-5/7", "sqrt(2)", "-sqrt(3)", "1/2*sqrt(2)", "-3/4*sqrt(30)",
        "1/6*sqrt(3) - 1/6*sqrt(6)", "-1/2 + sqrt(2) - 2*sqrt(5)",
    ],
)
def test_format_parse_round_trip(text):
    value = parse_scalar(text)
    assert format_scalar(value) == text
    assert parse_scalar(format_scalar(value)) == value


def test_parse_rejects_garbage():
    for bad in ["", "sqrt()", "two", "1/2*sqrt(-3)", "1//2", "1/0", "--1", "1 +", "sqrt(2) sqrt(3)"]:
        with pytest.raises(ValueError):
            parse_scalar(bad)


@settings(deadline=None)
@given(scalars, scalars, scalars)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ExactScalar(1) == a and a * ZERO == ZERO
    assert a + (-a) == ZERO
    assert hash(a * b) == hash(b * a)


@settings(deadline=None)
@given(scalars)
def test_subtraction_cancels_and_form_is_canonical(a):
    assert a - a == ZERO
    assert not (a - a)
    radicands = [r for r, _ in a.terms]
    assert radicands == sorted(set(radicands))
    assert all(q != 0 and squarefree_decompose(r) == (1, r) for r, q in a.terms)


@settings(deadline=None)
@given(scalars, scalars)
def test_products_agree_with_floats(a, b):
    assert abs(float(a * b) - float(a) * float(b)) <= 1e-12 * (1 + size(a) * size(b))


@settings(deadline=None)
@given(scalars)
def test_text_form_round_trips(a):
    text = format_scalar(a)
    assert parse_scalar(text) == a
    assert "+ -" not in text and "- -" not in text
