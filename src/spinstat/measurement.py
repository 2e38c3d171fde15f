"""Projective spin measurements, joint outcome tables, and Bell's inequality.

Angles can be given either as floats (radians) or as :class:`~fractions.Fraction`
multiples of pi.  Terms at angles with a rational cosine are exact fractions,
and a verdict on pi multiples whose third gap is ±(first ± second), as on
search grids and in Wigner triples, is a sign rule on integers.
"""

from __future__ import annotations

import itertools
import math
import numbers
import re
from collections.abc import Iterator, Sequence
from fractions import Fraction
from typing import Literal, Mapping, NamedTuple

from .errors import InvalidValueError, ShapeError, SizeLimitError
from .exact import Frozen, Rational
from .kets import Ket

#: Finest angle grid ``search_violations`` scans.  Its verdicts are exact at
#: any size; its time grows as ``denominator**2``, one verdict per step pair
#: (under 1 ms warm at 48), and its records as ``denominator**3`` (69 184 at
#: 48), which are built when iterated.
MAX_SEARCH_DENOMINATOR = 48

#: Most slots ``joint_distribution`` reads.  Its table holds ``2**n``
#: outcomes, and each slot more doubles its time and memory: the first table
#: of a dense 16-slot ket, its uncached layout included, takes 0.49-0.55 s
#: (0.38-0.40 s for a repeat), and a process that builds the ket and one
#: table peaks near 154 MB, 64 MB of it the ket (Python 3.11, a shared
#: 2-core x86 machine).
MAX_JOINT_PARTICLES = 16

Angle = Fraction | float  # Fraction means a rational multiple of pi
Outcome = tuple[str, ...]

_PI_RE = re.compile(r"^([+-]?)(?:(\d+)\*?)?pi(?:/(\d+))?$")


def parse_pi_angle(text: str) -> Fraction:
    """Parse ``"2pi/3"``-style text into a rational multiple of pi."""
    text = text.strip().replace(" ", "")
    if text in ("0", "-0", "+0"):
        return Fraction(0)
    m = _PI_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse angle {text!r}; use forms like pi/3, 2pi/3, 0")
    sign, num, den = m.groups()
    if den is not None and int(den) == 0:
        raise ValueError(f"angle {text!r} divides by zero")
    value = Fraction(int(num) if num else 1, int(den) if den else 1)
    return -value if sign == "-" else value


def format_pi_angle(angle: Angle) -> str:
    if isinstance(angle, Fraction):
        if angle == 0:
            return "0"
        num = "" if abs(angle.numerator) == 1 else str(abs(angle.numerator))
        den = "" if angle.denominator == 1 else f"/{angle.denominator}"
        return f"{'-' if angle < 0 else ''}{num}pi{den}"
    return repr(angle)


def angle_to_radians(angle: Angle) -> float:
    # Fraction's isinstance runs ABCMeta.__instancecheck__, about 0.2 us for
    # a float; a float itself needs no check.
    if angle.__class__ is float:
        return angle
    if isinstance(angle, Fraction):
        # float(angle) would run numbers.Rational.__float__, this same int
        # division, as a Python-level call.
        return angle.numerator / angle.denominator * math.pi
    return float(angle)


#: cos(k*pi/6) for k = 0..11, or ``None`` where it is irrational.  By
#: Niven's theorem (Irrational Numbers, 1956) cos(t*pi) at a rational t is
#: rational only when it is 0, ±1/2 or ±1, so only at these angles.
_COS_SIXTHS = (1, None, "1/2", 0, "-1/2", None, -1, None, "-1/2", 0, "1/2", None)
#: (1 - cos(k*pi/6))/4, the Bell gap term: k/8 for an integer 0 <= k <= 4.
_GAP_TERM_SIXTHS = tuple(None if c is None else (1 - Fraction(c)) / 4 for c in _COS_SIXTHS)
#: The term's period in pi multiples of gap, per Bell mode: its angle x is 2*pi*gap/period.
_PERIOD = {"half": 2, "full": 1}

#: Margin a float left side must clear where no sign rule decides.
SLACK = 1e-12


class ProbabilityTable(Frozen):
    """A finite outcome distribution; probabilities sum to one."""

    __slots__ = ("entries",)
    entries: Mapping[Outcome, float]

    def __init__(self, entries: Mapping[Outcome, float]) -> None:
        cleaned: dict[Outcome, float] = {}
        # A loop, not sum(): from Python 3.12 sum() adds floats with
        # compensation (sum([0.1] * 10) is 1.0, where adding left to right
        # gives 0.9999999999999999), so the total would depend on the version.
        total = 0.0
        for outcome, p in entries.items():
            p = float(p)
            # A rounding residue below zero reads as 0.0; -0.0 and NaN are kept.
            if p < 0.0:
                if p < -1e-12:
                    raise InvalidValueError(f"negative probability {p} for {outcome}")
                p = 0.0
            total += p
            cleaned[tuple(outcome)] = p
        # Written so that a NaN or infinite entry, which makes the total
        # NaN or infinite, fails it too.
        if not abs(total - 1.0) <= 1e-12:
            raise InvalidValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "entries", cleaned)

    def items(self):
        return self.entries.items()


# Outcome keys, the dense index of each label, and each slot's index pairs.
_Layout = tuple[list[Outcome], dict[tuple[int, ...], int], list[list[tuple[int, int]]]]
_LAYOUTS: dict[int, _Layout] = {}
#: Layouts up to this many slots stay cached; a larger one, up to half a
#: million index pairs at ``MAX_JOINT_PARTICLES``, is rebuilt per call.
_CACHED_LAYOUT_PARTICLES = 8


def _layout(n: int) -> _Layout:
    """The dense layout of ``n`` spin-1/2 slots.

    Index ``i`` holds the label whose slots are the bits of ``i``, slot 0
    the highest, so the keys follow ``itertools.product("+-")``.  A slot's
    pairs are the indices that differ only in that slot's bit.
    """
    layout = _LAYOUTS.get(n)
    if layout is None:
        size = 1 << n
        layout = (
            list(itertools.product("+-", repeat=n)),
            {label: i for i, label in enumerate(itertools.product((0, 1), repeat=n))},
            [[(i, i | bit) for i in range(size) if not i & bit] for bit in (size >> (s + 1) for s in range(n))],
        )
        if n <= _CACHED_LAYOUT_PARTICLES:
            _LAYOUTS[n] = layout
    return layout


def joint_distribution(
    ket: Ket,
    angles: Sequence[Angle],
    c: Rational | float = Fraction(1, 2),
) -> ProbabilityTable:
    """Joint outcome distribution when slot ``i`` is read along ``angles[i]``.

    Slot ``i`` is rotated by ``[[cos t, sin t], [-sin t, cos t]]`` with
    ``t = c * angles[i]``, one slot at a time on the dense amplitudes, and
    each outcome's probability is its squared modulus.  A ``Fraction`` rate
    or angle (a subclass too) is converted by one int division, as
    ``float()`` would; a float angle is used as it is.  Everything runs in
    plain Python, and the result is a :class:`ProbabilityTable`, whose
    checks refuse an unnormalized ket.
    """
    dims = ket.dims
    n = len(dims)
    if dims != (2,) * n:
        raise ShapeError(f"measurement needs spin-1/2 slots, got dims {dims}")
    if len(angles) != n:
        raise ShapeError(f"{len(angles)} angles for {n} particles")
    if n > MAX_JOINT_PARTICLES:
        raise SizeLimitError(f"joint tables support up to {MAX_JOINT_PARTICLES} particles")
    keys, index, slot_pairs = _layout(n)
    # The int division float(c) would run in Python, as in angle_to_radians.
    rate = c.numerator / c.denominator if isinstance(c, Fraction) else float(c)
    amp = [0j] * len(keys)
    for label, a in ket.amplitudes.items():
        amp[index[label]] = complex(a)
    for pairs, angle in zip(slot_pairs, angles):
        t = rate * angle_to_radians(angle)
        if not math.isfinite(t):
            raise InvalidValueError(f"rotation angle {c} * {angle!r} is not finite")
        cos, sin = math.cos(t), math.sin(t)
        for i, j in pairs:
            x, y = amp[i], amp[j]
            amp[i] = cos * x + sin * y
            amp[j] = cos * y - sin * x
    return ProbabilityTable(dict(zip(keys, [abs(z) ** 2 for z in amp])))


BellMode = Literal["half", "full"]


def _check_mode(mode: BellMode) -> None:
    if mode not in _PERIOD:
        raise InvalidValueError(f"unknown Bell mode {mode!r}; use one of {', '.join(_PERIOD)}")


class BellEvaluation(NamedTuple):
    """One evaluation of the angle-gap inequality lhs <= rhs."""

    theta_ij: Angle
    theta_jk: Angle
    theta_ki: Angle
    lhs: Fraction | float
    rhs: Fraction | float
    violated: bool
    mode: BellMode

    @property
    def doubled_lhs(self) -> Fraction | float:
        """Both sides scaled by 2, the form quoted as '1/2 >= 3/4'."""
        return 2 * self.lhs

    @property
    def doubled_rhs(self) -> Fraction | float:
        return 2 * self.rhs


def _pi_term(p: int, q: int, mode: BellMode) -> Fraction | float:
    """The gap term of the angle ``(p/q)*pi``, for integers ``p`` and ``q > 0``.

    The pair need not be in lowest terms: the sixths test and the quotient
    below depend only on the rational ``p/q``.
    """
    # 1/2 * sin^2(x/2) = (1 - cos(x))/4, with x = gap (half) or 2*gap (full).
    # The term is rational only where x is k*pi/6 for an integer k.
    sixths, rest = divmod(12 * p, _PERIOD[mode] * q)
    term = None if rest else _GAP_TERM_SIXTHS[sixths % 12]
    if term is not None:
        return term
    # sin^2 is even and whole turns leave it unchanged; dropping both from the
    # integers keeps the quotient in range, and int / int rounds it correctly.
    gap = abs(p) % (2 * q) / q * math.pi
    angle = gap / 2 if mode == "half" else gap
    return math.sin(angle) ** 2 / 2


def _gap_term(gap: Angle, mode: BellMode) -> Fraction | float:
    """1/2 * sin^2(gap/2) (half mode) or 1/2 * sin^2(gap) (full mode)."""
    if isinstance(gap, Fraction):
        return _pi_term(gap.numerator, gap.denominator, mode)
    if not math.isfinite(gap):
        raise InvalidValueError(f"angle gap {gap!r} is not finite")
    angle = gap / 2 if mode == "half" else gap
    return math.sin(angle) ** 2 / 2


def _sin_sign(p: int, q: int) -> int:
    """The sign of sin(p*pi/q), for integers ``p`` and ``q > 0``."""
    r = p % (2 * q)
    return 0 if r == 0 or r == q else 1 if r < q else -1


def _evaluate(
    terms: Sequence[Fraction | float], angles: Sequence[Angle], mode: BellMode, points: bool = False
) -> tuple[Fraction | float, Fraction | float, bool]:
    """``lhs``, ``rhs = first + second`` (fractions where all three terms are) and ``lhs > rhs``.

    The terms are those of the gaps ``angles`` (ij, jk, ki), or of the ``points`` (i, j, k).  At
    pi multiples with ki = ±(ij ± jk) modulo the period, lhs - rhs has the sign of sin A * sin B
    * cos(A + B), A and B being ij and jk (full) or their halves; else lhs must clear :data:`SLACK`.
    """
    lhs, first, second = terms
    exact = lhs.__class__ is first.__class__ is second.__class__ is Fraction
    lhs, rhs = (lhs, first + second) if exact else (float(lhs), float(first) + float(second))
    i, j, k = angles
    if isinstance(i, Fraction) and isinstance(j, Fraction) and isinstance(k, Fraction):
        (x, qx), (y, qy), (z, qz) = i.as_integer_ratio(), j.as_integer_ratio(), k.as_integer_ratio()
        x, y, z, q = x * qy * qz, y * qx * qz, z * qx * qy, qx * qy * qz * _PERIOD[mode]
        if points:
            x, y, z = y - x, z - y, z - x
        for a, b in ((x, y), (x, -y), (-x, y), (-x, -y)):
            if (z - a - b) % q == 0:
                return lhs, rhs, _sin_sign(a, q) * _sin_sign(b, q) * _sin_sign(2 * (a + b) + q, 2 * q) > 0
    # Exact sides are multiples of 1/8, so SLACK decides them exactly too.
    return lhs, rhs, lhs > rhs + SLACK


def bell_inequality(
    theta_ij: Angle,
    theta_jk: Angle,
    theta_ki: Angle,
    mode: BellMode = "half",
) -> BellEvaluation:
    """Evaluate the pairwise-gap inequality.

    The left side is the (i,k) gap's disagreement term and the right side the
    sum for the (i,j) and (j,k) gaps: fractions at pi multiples with rational
    cosine, else floats.  The verdict is an integer sign rule where theta_ki =
    ±(theta_ij ± theta_jk) modulo the period, else a comparison with :data:`SLACK`.
    """
    _check_mode(mode)
    gaps = (theta_ij, theta_jk, theta_ki)
    lhs, rhs, violated = _evaluate([_gap_term(g, mode) for g in (theta_ki, theta_jk, theta_ij)], gaps, mode)
    return BellEvaluation(theta_ij, theta_jk, theta_ki, lhs, rhs, violated, mode)


class GridViolation(NamedTuple):
    angles: tuple[Fraction, Fraction, Fraction]
    gaps: tuple[Fraction, Fraction, Fraction]
    evaluation: BellEvaluation


#: One violating step pair ``(a, b, lhs, rhs)``: the triples
#: ``(i, i + a, i + a + b)`` violate with these two sides.
StepPair = tuple[int, int, Fraction | float, Fraction | float]


class GridViolations(Frozen):
    """The violating triples of one grid search: the :class:`GridViolation` records, with their count.

    A triple ``(i, i + a, i + a + b)`` of the ``2d`` grid steps violates
    exactly when its step pair ``(a, b)`` does, so a search holds only the
    violating pairs, in ``(a, b)`` order, and ``len`` is the sum of
    ``2d - a - b`` over them.  Iteration builds the records start by start,
    each start keeping the pairs with ``a + b < 2d - i`` in pair order,
    which is the order of ``itertools.combinations``; so the first
    ``len(pairs)`` records, from start 0, hold each pair once.  Each
    iteration builds the steps and each pair's gaps and evaluation once, and
    its records share them.  Two searches are equal when their
    denominator, mode and pairs are.
    """

    __slots__ = ("denominator", "mode", "pairs")
    denominator: int
    mode: BellMode
    pairs: tuple[StepPair, ...]

    def __init__(self, denominator: int, mode: BellMode, pairs: tuple[StepPair, ...]) -> None:
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "pairs", pairs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(denominator={self.denominator}, mode={self.mode!r}, count={len(self)})"

    def __len__(self) -> int:
        n = 2 * self.denominator
        return sum([n - a - b for a, b, _, _ in self.pairs])

    def __iter__(self) -> Iterator[GridViolation]:
        d, mode = self.denominator, self.mode
        steps = [Fraction(k, d) for k in range(2 * d)]
        # tuple.__new__ builds a record in C; BellEvaluation(...) would run
        # namedtuple's Python-level __new__.
        new = tuple.__new__
        kept = []
        for a, b, lhs, rhs in self.pairs:
            gaps = (steps[a], steps[b], steps[a + b])
            kept.append((a, a + b, gaps, new(BellEvaluation, (*gaps, lhs, rhs, True, mode))))
        n = len(steps)
        for i in range(n):
            # A later start keeps a subset of what an earlier one keeps.
            limit = n - i
            kept = [pair for pair in kept if pair[1] < limit]
            ahead = steps[i:]
            start = ahead[0]
            for a, span, gaps, ev in kept:
                yield new(GridViolation, ((start, ahead[a], ahead[span]), gaps, ev))


def search_violations(
    denominator: int = 12,
    mode: BellMode = "half",
) -> GridViolations:
    """Scan measurement angle triples on the ``k*pi/denominator`` grid.

    Returns every ordered triple (theta_i < theta_j < theta_k in [0, 2pi))
    whose gap triple violates the inequality, as a :class:`GridViolations`
    whose ``len`` counts them and whose iteration builds their records in
    the order of ``itertools.combinations``.  A denominator that
    is not a positive integer raises :class:`InvalidValueError`, and one
    above :data:`MAX_SEARCH_DENOMINATOR` raises :class:`SizeLimitError`.
    """
    if not isinstance(denominator, numbers.Integral) or denominator < 1:
        raise InvalidValueError(f"the search denominator must be a positive integer, not {denominator!r}")
    denominator = int(denominator)
    _check_mode(mode)
    if denominator > MAX_SEARCH_DENOMINATOR:
        raise SizeLimitError(f"the angle search supports denominators up to {MAX_SEARCH_DENOMINATOR}")
    n = 2 * denominator
    # A term depends only on its step, and a triple's gaps only on its two
    # steps, so each step pair is decided once, as bell_inequality(*gaps)
    # would: by _evaluate's sign rule on per-step sign tables, and its sides.
    terms = [_pi_term(k, denominator, mode) for k in range(n)]
    floats = [t if t.__class__ is float else t.numerator / t.denominator for t in terms]
    q = denominator * _PERIOD[mode]
    sin = [_sin_sign(k, q) for k in range(n)]
    cos = [_sin_sign(2 * k + q, 2 * q) for k in range(n)]
    pairs = []
    for a in range(1, n):
        sa, fa = sin[a], floats[a]
        for b in range(1, n - a):
            span = a + b
            if sa * sin[b] * cos[span] > 0:
                lhs, first, second = terms[span], terms[b], terms[a]
                exact = lhs.__class__ is first.__class__ is second.__class__ is Fraction
                pairs.append((a, b, lhs, first + second) if exact else (a, b, floats[span], floats[b] + fa))
    return GridViolations(denominator, mode, tuple(pairs))


WignerVariant = Literal["same-state", "singlet-inclusive"]

_SUBSET = (("+", "+", "-"), ("+", "-", "-"))

# Each variant's superset event and the two pair events it splits into.
# Each pair event is assigned the perfect-correlation disagreement (or, for
# the middle particle of the singlet-inclusive variant, agreement) weight
# 1/2*sin^2 of half the gap it names.
_VARIANTS: dict[str, tuple[tuple[Outcome, ...], tuple[tuple[str, str, tuple[Outcome, Outcome]], ...]]] = {
    "same-state": (
        (("+", "+", "-"), ("+", "-", "-"), ("-", "+", "-"), ("+", "-", "+")),
        (
            ("s2=+,s3=-", "jk", (("+", "+", "-"), ("-", "+", "-"))),
            ("s1=+,s2=-", "ij", (("+", "-", "-"), ("+", "-", "+"))),
        ),
    ),
    "singlet-inclusive": (
        (("+", "+", "-"), ("+", "-", "-"), ("-", "-", "-"), ("+", "+", "+")),
        (
            ("s1=+,s2=+", "ij", (("+", "+", "-"), ("+", "+", "+"))),
            ("s2=-,s3=-", "jk", (("+", "-", "-"), ("-", "-", "-"))),
        ),
    ),
}


def _pair_term(a: Angle, b: Angle, mode: BellMode) -> Fraction | float:
    """The gap term of ``b - a``, whose sign the even term ignores.

    Between two pi multiples the gap is ``(nb*qa - na*qb) / (qa*qb)``, a pair
    that _pi_term takes without reducing it; otherwise it is in radians.
    """
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        na, qa = a.as_integer_ratio()
        nb, qb = b.as_integer_ratio()
        return _pi_term(nb * qa - na * qb, qa * qb, mode)
    return _gap_term(angle_to_radians(b) - angle_to_radians(a), mode)


class WignerReport(NamedTuple):
    """Event sets and probability assignments of the three-angle argument."""

    variant: WignerVariant
    subset: tuple[Outcome, ...]
    superset: tuple[Outcome, ...]
    subset_probability: Fraction | float
    pair_events: dict[str, tuple[tuple[Outcome, Outcome], Fraction | float]]
    consistent: bool

    @property
    def superset_probability(self) -> Fraction | float:
        return sum(p for _, p in self.pair_events.values())


def wigner_argument(
    theta_i: Angle,
    theta_j: Angle,
    theta_k: Angle,
    variant: WignerVariant = "same-state",
    mode: BellMode = "half",
) -> WignerReport:
    """Run the set-inclusion argument over the 8 outcome triples.

    The subset event (first particle ``+`` along theta_i, third ``-`` along
    theta_k) is contained in the union of two pair events, so its
    probability can be at most their sum; the report states whether the
    perfect-correlation probability assignments respect that bound.  For
    three pi multiples an integer sign rule decides it, as in :func:`_evaluate`.
    """
    if variant not in _VARIANTS:
        raise InvalidValueError(f"unknown Wigner variant {variant!r}; use one of {', '.join(_VARIANTS)}")
    _check_mode(mode)
    terms = {
        "ij": _pair_term(theta_i, theta_j, mode),
        "jk": _pair_term(theta_j, theta_k, mode),
        "ki": _pair_term(theta_i, theta_k, mode),
    }
    superset, events = _VARIANTS[variant]
    pair_events = {name: (pair, terms[key]) for name, key, pair in events}
    subset_probability = terms["ki"]
    triple = (subset_probability, terms["ij"], terms["jk"])
    _, _, exceeds = _evaluate(triple, (theta_i, theta_j, theta_k), mode, points=True)
    return WignerReport(variant, _SUBSET, superset, subset_probability, pair_events, not exceeds)
