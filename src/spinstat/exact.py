"""Exact real numbers ``q1*sqrt(r1) + q2*sqrt(r2) + ...``, closed under +, - and *.

Each ``q`` is rational and the ``r`` are distinct squarefree positive
integers, whose square roots are linearly independent over the rationals
(Besicovitch, J. London Math. Soc. 1940): the sorted terms are a canonical
form and ``==`` is exact.  This covers every coefficient of the states,
Clebsch-Gordan tables, and probability identities in the rest of the package.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import IncompatibleRadicandsError, SizeLimitError

Rational = int | Fraction
Terms = tuple[tuple[int, Fraction], ...]


#: Largest trial divisor :func:`squarefree_decompose` tries.  Refusing a
#: radicand takes about 10 ms at 25 digits, 30 ms at 400 and 0.19 s at 4000
#: (Python parses at most 4300 digits from text); the package's own
#: radicands have no prime factor above 67.
MAX_TRIAL_DIVISOR = 100_000


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Split ``n >= 0`` as ``s*s*r`` with ``r`` squarefree; return ``(s, r)``.

    Trial division up to :data:`MAX_TRIAL_DIVISOR`.  What is left has no
    smaller prime factor, so it is prime when it is below the square of the
    next candidate; otherwise it may hide a square factor and
    :class:`SizeLimitError` is raised.
    """
    if n < 0:
        raise ValueError("radicand must be nonnegative")
    if n in (0, 1):
        return 1, n
    square, rest, m = 1, 1, n
    p = 2
    while p * p <= m and p <= MAX_TRIAL_DIVISOR:
        if m % p == 0:
            exp = 0
            while m % p == 0:
                m //= p
                exp += 1
            square *= p ** (exp // 2)
            if exp % 2:
                rest *= p
        p += 1 if p == 2 else 2
    if p * p <= m:
        raise SizeLimitError(
            f"radicand too large to factor: a part above {MAX_TRIAL_DIVISOR}**2 has no prime factor up to it"
        )
    return square, rest * m


@dataclass(frozen=True, slots=True, init=False, repr=False)
class ExactScalar:
    """A real number ``sum(q * sqrt(r) for r, q in terms)`` in canonical form.

    ``ExactScalar(q, r)`` is the single term ``q*sqrt(r)``, with the square
    factors of ``r`` pulled into ``q``.  ``terms`` holds the nonzero
    coefficients by ascending squarefree radicand; zero has no terms.
    Instances are immutable and hashable.  ``coefficient``, ``radicand``,
    ``squared``, ``inverse`` and ``abs`` raise on a sum of several terms.
    """

    terms: Terms

    def __init__(self, coefficient: Rational, radicand: int = 1) -> None:
        coef = Fraction(coefficient)
        rad = int(radicand)
        if rad < 0:
            raise ValueError("radicand must be nonnegative")
        terms: Terms = ()
        if coef != 0 and rad != 0:
            square, rad = squarefree_decompose(rad)
            terms = ((rad, coef * square),)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def _of(cls, coefficients: dict[int, Fraction]) -> "ExactScalar":
        """The sum of ``q*sqrt(r)`` over ``{r: q}`` with ``r`` squarefree."""
        new = object.__new__(cls)
        object.__setattr__(new, "terms", tuple(sorted((r, q) for r, q in coefficients.items() if q)))
        return new

    @classmethod
    def sqrt(cls, value: Rational) -> "ExactScalar":
        """Exact square root of a nonnegative rational."""
        v = Fraction(value)
        if v < 0:
            raise ValueError("cannot take a real square root of a negative")
        return cls(Fraction(1, v.denominator), v.numerator * v.denominator)

    def _single(self, what: str) -> tuple[int, Fraction]:
        if len(self.terms) > 1:
            raise IncompatibleRadicandsError(f"{what} needs a single q*sqrt(r) term, got {self}")
        return self.terms[0] if self.terms else (1, Fraction(0))

    @property
    def coefficient(self) -> Fraction:
        """``q`` of a single term ``q*sqrt(r)``."""
        return self._single("coefficient")[1]

    @property
    def radicand(self) -> int:
        """``r`` of a single term ``q*sqrt(r)``."""
        return self._single("radicand")[0]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_rational(self) -> bool:
        return all(r == 1 for r, _ in self.terms)

    def squared(self) -> Fraction:
        """``q*q*r`` for a single term ``q*sqrt(r)``."""
        rad, coef = self._single("squared()")
        return coef * coef * rad

    def conjugate(self) -> "ExactScalar":
        return self

    def inverse(self) -> "ExactScalar":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        rad, coef = self._single("inverse()")
        return ExactScalar._of({rad: 1 / (coef * rad)})

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if not other.terms:
            return self
        total = dict(self.terms)
        for r, q in other.terms:
            total[r] = total.get(r, 0) + q
        return ExactScalar._of(total)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return self + (-other)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar._of({r: -q for r, q in self.terms})

    def __abs__(self) -> "ExactScalar":
        rad, coef = self._single("abs()")
        return ExactScalar._of({rad: abs(coef)})

    def __mul__(self, other: "ExactScalar | Rational") -> "ExactScalar":
        if isinstance(other, (int, Fraction)):
            return ExactScalar._of({r: q * other for r, q in self.terms})
        if not isinstance(other, ExactScalar):
            return NotImplemented
        product: dict[int, Fraction] = {}
        for r1, q1 in self.terms:
            for r2, q2 in other.terms:
                # sqrt(r1)*sqrt(r2) = g*sqrt((r1/g)*(r2/g)), squarefree again.
                g = math.gcd(r1, r2)
                r = (r1 // g) * (r2 // g)
                q = q1 * q2 if g == 1 else q1 * q2 * g
                product[r] = product[r] + q if r in product else q
        return ExactScalar._of(product)

    __rmul__ = __mul__

    def __truediv__(self, other: "ExactScalar | Rational") -> "ExactScalar":
        if isinstance(other, ExactScalar):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __float__(self) -> float:
        try:
            value = math.fsum(float(q) * math.sqrt(r) for r, q in self.terms)
        except (OverflowError, ValueError):  # ValueError: inf - inf inside fsum
            value = math.inf
        if math.isfinite(value):
            return value
        # A term is beyond the float range.  Round each term q*sqrt(r) =
        # ±sqrt(q*q*r) to 64 bits in exact arithmetic; float() of the sum then
        # raises OverflowError if the value itself is beyond the range, as
        # float(Fraction) does.
        total = Fraction(0)
        for r, q in self.terms:
            square = q * q * r
            bits = max(0, 64 - (square.numerator.bit_length() - square.denominator.bit_length()) // 2)
            root = Fraction(math.isqrt(square.numerator * 4**bits // square.denominator), 2**bits)
            total += root if q > 0 else -root
        return float(total)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        terms = self.terms or ((1, Fraction(0)),)
        return " + ".join(f"ExactScalar({q!r}, {r})" for r, q in terms)


ZERO = ExactScalar(0)
ONE = ExactScalar(1)


def format_scalar(s: ExactScalar) -> str:
    """Canonical text form: ``-1/2*sqrt(2)``, ``2/3``, ``sqrt(5)``, ``0``.

    Several terms are written in ascending radicand order, joined by `` + ``
    or `` - ``: ``1/6*sqrt(3) - 1/6*sqrt(6)``.
    """
    terms = []
    for r, q in s.terms:
        size = abs(q)
        body = str(size) if r == 1 else f"sqrt({r})" if size == 1 else f"{size}*sqrt({r})"
        terms.append(f"-{body}" if q < 0 else body)
    return " + ".join(terms).replace(" + -", " - ") or "0"


_TERM_RE = re.compile(r"(?:(?P<coef>\d+(?:/0*[1-9]\d*)?)\s*\*?\s*)?(?:sqrt\(\s*(?P<rad>\d+)\s*\))?")
_SIGN_RE = re.compile(r"\s*([+-])\s*")


def parse_scalar(text: str) -> ExactScalar:
    """Parse the text form of :func:`format_scalar` back into an :class:`ExactScalar`.

    Terms ``q``, ``q*sqrt(r)`` or ``sqrt(r)`` are joined by ``+`` or ``-``,
    and the first may carry a sign.
    """
    pieces = _SIGN_RE.split(text.strip())
    pieces = pieces[1:] if pieces[0] == "" else ["+", *pieces]
    if not pieces:
        raise ValueError(f"cannot parse exact scalar: {text!r}")
    total = ZERO
    for sign, body in zip(pieces[::2], pieces[1::2]):
        m = _TERM_RE.fullmatch(body)
        if not m or (m["coef"] is None and m["rad"] is None):
            raise ValueError(f"cannot parse exact scalar: {text!r}")
        coef = Fraction(m["coef"] or 1)
        total = total + ExactScalar(-coef if sign == "-" else coef, int(m["rad"] or 1))
    return total
