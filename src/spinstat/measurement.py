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
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Mapping, Sequence

from .errors import ShapeError, SizeLimitError
from .exact import Rational
from .kets import Ket
from .rotations import HALF, rotation_matrix

#: Finest angle grid ``search_violations`` scans.  Its time and the list it
#: returns grow as ``denominator**3``: 48 takes about 11 s and finds 69 184
#: violating triples.
MAX_SEARCH_DENOMINATOR = 48

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


#: cos(t*pi) for the multiples t in [0, 2) where it is rational.
_RATIONAL_COS_PI = {
    Fraction(0): Fraction(1),
    Fraction(1, 3): Fraction(1, 2),
    Fraction(1, 2): Fraction(0),
    Fraction(2, 3): Fraction(-1, 2),
    Fraction(1): Fraction(-1),
    Fraction(4, 3): Fraction(-1, 2),
    Fraction(3, 2): Fraction(0),
    Fraction(5, 3): Fraction(1, 2),
}

#: Margin a float left side must clear to count as larger than the right.
SLACK = 1e-12


def rational_cos_pi(multiple: Fraction) -> Fraction | None:
    """cos(multiple*pi) when rational (0, ±1/2, ±1); otherwise ``None``."""
    return _RATIONAL_COS_PI.get(Fraction(multiple) % 2)


def exact_sin_squared(multiple: Fraction) -> Fraction | None:
    """sin^2(multiple*pi) as an exact fraction when representable."""
    c = rational_cos_pi(2 * multiple)
    return None if c is None else (1 - c) / 2


@dataclass(frozen=True)
class ProbabilityTable:
    """A finite outcome distribution; probabilities sum to one."""

    entries: Mapping[Outcome, float]

    def __post_init__(self) -> None:
        cleaned: dict[Outcome, float] = {}
        total = 0.0
        for outcome, p in self.entries.items():
            p = float(p)
            if p < -1e-12:
                raise ValueError(f"negative probability {p} for {outcome}")
            p = max(p, 0.0)
            total += p
            cleaned[tuple(outcome)] = p
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "entries", cleaned)

    def probability(self, outcome: Sequence[str]) -> float:
        return self.entries.get(tuple(outcome), 0.0)

    def support(self, tol: float = 1e-15) -> list[Outcome]:
        return sorted(o for o, p in self.entries.items() if p > tol)

    def items(self):
        return self.entries.items()


def joint_distribution(
    ket: Ket,
    angles: Sequence[Angle],
    c: Rational | float = HALF,
) -> ProbabilityTable:
    """Joint outcome distribution when slot ``i`` is read along ``angles[i]``."""
    import numpy as np

    if any(d != 2 for d in ket.dims):
        raise ShapeError(f"measurement needs spin-1/2 slots, got dims {ket.dims}")
    if len(angles) != ket.n_particles:
        raise ShapeError(
            f"{len(angles)} angles for {ket.n_particles} particles"
        )
    n = ket.n_particles
    r = rotation_matrix([angle_to_radians(a) for a in angles], c)
    # Slot s is contracted with its own matrix: amp[o...] = Σ Π_s r[s, o_s, l_s] psi[l...].
    operands = [x for s in range(n) for x in (r[s], [n + s, s])]
    amp = np.einsum(*operands, ket.to_array(), list(range(n)), list(range(n, 2 * n)))
    probs = (np.abs(amp) ** 2).ravel().tolist()
    return ProbabilityTable(dict(zip(itertools.product("+-", repeat=n), probs)))


BellMode = Literal["half", "full"]


@dataclass(frozen=True)
class BellEvaluation:
    """One evaluation of the angle-gap inequality lhs <= rhs."""

    theta_ij: Angle
    theta_jk: Angle
    theta_ki: Angle
    lhs: Fraction | float
    rhs: Fraction | float
    violated: bool
    mode: BellMode

    @property
    def exact(self) -> bool:
        return isinstance(self.lhs, Fraction) and isinstance(self.rhs, Fraction)

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
        s2 = exact_sin_squared(gap / 2 if mode == "half" else gap)
        if s2 is not None:
            return s2 / 2
        # Whole turns leave sin^2 unchanged; dropping them keeps float() in range.
        gap = float(gap - 2 * int(gap / 2)) * math.pi
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


@dataclass(frozen=True)
class GridViolation:
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
    steps = [Fraction(k, denominator) for k in range(2 * denominator)]
    found = []
    for ti, tj, tk in itertools.combinations(steps, 3):
        gaps = (tj - ti, tk - tj, tk - ti)
        ev = bell_inequality(*gaps, mode=mode)
        if ev.violated:
            found.append(GridViolation((ti, tj, tk), gaps, ev))
    return found


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


@dataclass(frozen=True)
class WignerReport:
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
