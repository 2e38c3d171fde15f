"""Projective spin measurements, joint outcome tables, and Bell's inequality.

Angles can be given either as floats (radians) or as :class:`~fractions.Fraction`
multiples of pi.  Fractional angles whose cosine is rational are evaluated
exactly, which covers the pi/3-style angles where the inequality's violation
is an identity between fractions.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Literal, Mapping, NamedTuple, Sequence

from .errors import InvalidValueError, ShapeError, SizeLimitError
from .exact import Frozen, Rational
from .kets import Ket

#: Finest angle grid ``search_violations`` scans.  The list it returns grows
#: as ``denominator**3``: 48 finds 69 184 violating triples in 60-80 ms in a
#: warm process, and a cold ``bell --search --denominator 48`` takes
#: 0.12-0.15 s (Python 3.11, a shared 2-core x86 machine).
MAX_SEARCH_DENOMINATOR = 48

#: Most slots ``joint_distribution`` reads.  Its table holds ``2**n``
#: outcomes, and each slot more doubles its time and memory: one table of
#: a dense 16-slot ket takes 0.5-0.6 s, and the process, ket included,
#: peaks near 140 MB (Python 3.11, a shared 2-core x86 machine).
MAX_JOINT_PARTICLES = 16

Angle = Fraction | float  # Fraction means a rational multiple of pi
Outcome = tuple[str, ...]

_PI_RE = re.compile(r"^([+-]?)(?:(\d+)\*?)?pi(?:/(\d+))?$")


def parse_pi_angle(text: str) -> Fraction:
    """Parse ``"2pi/3"``-style text into a rational multiple of pi."""
    text = text.strip().replace(" ", "")
    if text == "0":
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
    if isinstance(angle, Fraction):
        return float(angle) * math.pi
    return float(angle)


#: cos(k*pi/6) for k = 0..11, or ``None`` where it is irrational.  By
#: Niven's theorem (Irrational Numbers, 1956) cos(t*pi) at a rational t is
#: rational only when it is 0, ±1/2 or ±1, so only at these angles.
_COS_SIXTHS = (1, None, "1/2", 0, "-1/2", None, -1, None, "-1/2", 0, "1/2", None)
#: (1 - cos(k*pi/6))/4, the Bell gap term: k/8 for an integer 0 <= k <= 4.
_GAP_TERM_SIXTHS = tuple(None if c is None else (1 - Fraction(c)) / 4 for c in _COS_SIXTHS)

#: Margin a float left side must clear to count as larger than the right.
SLACK = 1e-12


class ProbabilityTable(Frozen):
    """A finite outcome distribution; probabilities sum to one."""

    __slots__ = ("entries",)
    entries: Mapping[Outcome, float]

    def __init__(self, entries: Mapping[Outcome, float]) -> None:
        cleaned: dict[Outcome, float] = {}
        total = 0.0
        for outcome, p in entries.items():
            p = float(p)
            if p < -1e-12:
                raise InvalidValueError(f"negative probability {p} for {outcome}")
            p = max(p, 0.0)
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
    each outcome's probability is its squared modulus.
    """
    if any(d != 2 for d in ket.dims):
        raise ShapeError(f"measurement needs spin-1/2 slots, got dims {ket.dims}")
    n = ket.n_particles
    if len(angles) != n:
        raise ShapeError(f"{len(angles)} angles for {n} particles")
    if n > MAX_JOINT_PARTICLES:
        raise SizeLimitError(f"joint tables support up to {MAX_JOINT_PARTICLES} particles")
    keys, index, slot_pairs = _layout(n)
    rate = float(c)
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


def _gap_term(gap: Angle, mode: BellMode) -> Fraction | float:
    """1/2 * sin^2(gap/2) (half mode) or 1/2 * sin^2(gap) (full mode)."""
    if isinstance(gap, Fraction):
        # 1/2 * sin^2(x/2) = (1 - cos(x))/4, with x = gap (half) or 2*gap (full).
        # The term is rational only where x is k*pi/6 for an integer k.
        sixths, rest = divmod((6 if mode == "half" else 12) * gap.numerator, gap.denominator)
        term = None if rest else _GAP_TERM_SIXTHS[sixths % 12]
        if term is not None:
            return term
        # Whole turns leave sin^2 unchanged; dropping them keeps float() in range.
        gap = float(gap - 2 * int(gap / 2)) * math.pi
    elif not math.isfinite(gap):
        raise InvalidValueError(f"angle gap {gap!r} is not finite")
    angle = gap / 2 if mode == "half" else gap
    return math.sin(angle) ** 2 / 2


def _exceeds(
    lhs: Fraction | float, first: Fraction | float, second: Fraction | float
) -> tuple[Fraction | float, Fraction | float, bool]:
    """Decide ``lhs > first + second``; return both sides and the verdict.

    Exact between fractions; otherwise in floats, where the left side must
    clear the right by :data:`SLACK`.
    """
    if isinstance(lhs, Fraction) and isinstance(first, Fraction) and isinstance(second, Fraction):
        rhs = first + second
        return lhs, rhs, lhs > rhs
    lhs, rhs = float(lhs), float(first) + float(second)
    return lhs, rhs, lhs > rhs + SLACK


def bell_inequality(
    theta_ij: Angle,
    theta_jk: Angle,
    theta_ki: Angle,
    mode: BellMode = "half",
) -> BellEvaluation:
    """Evaluate the pairwise-gap inequality.

    The left side is the disagreement term for the (i,k) gap and the right
    side the sum for the (i,j) and (j,k) gaps.  Exact fractions are used
    when all three gaps are rational multiples of pi with rational cosine;
    otherwise floats with the fixed margin :data:`SLACK` on the verdict.
    """
    lhs, rhs, violated = _exceeds(*(_gap_term(g, mode) for g in (theta_ki, theta_jk, theta_ij)))
    return BellEvaluation(theta_ij, theta_jk, theta_ki, lhs, rhs, violated, mode)


class GridViolation(NamedTuple):
    angles: tuple[Fraction, Fraction, Fraction]
    gaps: tuple[Fraction, Fraction, Fraction]
    evaluation: BellEvaluation


def search_violations(
    denominator: int = 12,
    mode: BellMode = "half",
) -> list[GridViolation]:
    """Scan measurement angle triples on the ``k*pi/denominator`` grid.

    Returns every ordered triple (theta_i < theta_j < theta_k in [0, 2pi))
    whose gap triple violates the inequality.  A denominator above
    :data:`MAX_SEARCH_DENOMINATOR` raises :class:`SizeLimitError`.
    """
    if denominator > MAX_SEARCH_DENOMINATOR:
        raise SizeLimitError(f"the angle search supports denominators up to {MAX_SEARCH_DENOMINATOR}")
    n = 2 * denominator
    steps = [Fraction(k, denominator) for k in range(n)]
    # A gap term depends only on its step, and a triple's gaps only on its
    # two steps (j - i, k - j), so each term is computed once and each step
    # pair decided once, as bell_inequality(*gaps) would decide it.
    terms = [_gap_term(step, mode) for step in steps]
    # A rational term is k/8 with 0 <= k <= 4.  Such terms and the sum of two
    # are exact in binary floating point, and a true gap between them is at
    # least 1/8, so the float test with SLACK decides them exactly as well.
    floats = [float(t) for t in terms]
    violating = []
    for a in range(1, n):
        fa = floats[a]
        for b in range(1, n - a):
            violated = floats[a + b] > floats[b] + fa + SLACK
            if violated:
                lhs, rhs, _ = _exceeds(terms[a + b], terms[b], terms[a])
                gaps = (steps[a], steps[b], steps[a + b])
                violating.append((a, a + b, gaps, BellEvaluation(*gaps, lhs, rhs, True, mode)))
    # For each i, the pairs in (a, b) order give (i, i + a, i + a + b) in the
    # lexicographic order of itertools.combinations.  tuple.__new__ builds
    # each record in C; GridViolation(...) would run namedtuple's Python-level
    # __new__, which took half the search's time.
    new = tuple.__new__
    return [
        new(GridViolation, ((steps[i], steps[i + a], steps[i + span]), gaps, ev))
        for i, limit in zip(range(n), range(n, 0, -1))
        for a, span, gaps, ev in violating
        if span < limit
    ]


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


def _angle_gap(a: Angle, b: Angle) -> Angle:
    """``|b - a|``: exact between two pi multiples, otherwise in radians."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return abs(b - a)
    return abs(angle_to_radians(b) - angle_to_radians(a))


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
    perfect-correlation probability assignments respect that bound.
    """
    gaps = {
        "ij": _angle_gap(theta_i, theta_j),
        "jk": _angle_gap(theta_j, theta_k),
        "ki": _angle_gap(theta_i, theta_k),
    }
    superset, events = _VARIANTS[variant]
    pair_events = {name: (pair, _gap_term(gaps[key], mode)) for name, key, pair in events}
    subset_probability = _gap_term(gaps["ki"], mode)
    _, _, exceeds = _exceeds(subset_probability, *(p for _, p in pair_events.values()))
    return WignerReport(
        variant=variant,
        subset=_SUBSET,
        superset=superset,
        subset_probability=subset_probability,
        pair_events=pair_events,
        consistent=not exceeds,
    )
