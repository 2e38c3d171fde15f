"""Paired planar rotations, named two-particle states, and their tests.

The rotation acting on one spin-1/2 slot is the real orthogonal matrix

    R(theta) = [[cos(c*theta),  sin(c*theta)],
                [-sin(c*theta), cos(c*theta)]]

with a rate constant ``c`` (1/2 for half-angle spinor behavior, 1 for
full-angle photon behavior).  A two-particle state is rotationally
invariant when ``(R ⊗ R)|psi> = |psi>`` for every angle; it is perfectly
spin-correlated ("isotropic" correlation) when in every rotated basis the
joint outcome distribution sits on two complementary cells of weight 1/2.
Both checks read the pair's doublet split ``(s, u, d, t)``: the paired
rotation fixes ``s`` and ``u`` and turns only ``(d, t)``, so an exact pair
is decided by equalities on the four, and a float one by closed forms over
an angle grid.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidSpinError, InvalidValueError, ShapeError, SizeLimitError, UnknownTagError
from .exact import ExactScalar, Rational
from .kets import FLOAT, Ket, Scalar, check_spin

# Functions that compute with arrays import numpy themselves, so exact
# callers, and most CLI subcommands, never load it.
if TYPE_CHECKING:
    import numpy as np

HALF = Fraction(1, 2)

#: Extra probe angles appended to every evenly spaced grid; these catch
#: period mismatches that a uniform grid can step over.
EXTRA_GRID_ANGLES = (math.pi / 4, math.pi / 3, math.pi / 2, 2 * math.pi / 3)

#: Largest spin :func:`spin_j_singlet` builds; the state has ``2j + 1``
#: terms.  A cold ``state spin_j_singlet --j 100 --decompose`` takes
#: 0.09-0.13 s, against 0.08-0.11 s at spin 1/2; about 17 ms of it builds
#: and decomposes the state (shared 2-core x86 machine, 9 runs each).
MAX_SINGLET_SPIN = Fraction(100)

#: Most evenly spaced angles either rotation check accepts.  At this grid a
#: cold ``state triplet_zero``, which fails and so builds the grid, takes
#: about 0.08-0.11 s and 20 MB with ``--check-invariance``, which loads no
#: numpy and spends 15-20 ms on its 100 004 sines in plain Python; about
#: 0.15-0.18 s and 42 MB with ``--check-isc``; and 0.17-0.20 s with both,
#: since each check computes its own sines (shared 2-core x86 machine,
#: min-median of 15).  The grid part of each check is kept for the last
#: :data:`_GRID_MEMO_SIZE` ``(c, grid)`` keys, which at this grid holds at
#: worst 4.8 MB: one float per invariance key, and 2.4 MB of angles and
#: doublet turns per ISC key.
MAX_GRID = 100_000

#: ``(c, grid)`` keys each grid memo keeps: one for each of the package's two
#: physical rates, c = 1/2 for spinors and c = 1 for photons, so a process
#: that checks states at both builds each table once.  The invariance memo
#: (:func:`_max_sin`) and the ISC memo (:func:`_isc_table`) are built apart.
_GRID_MEMO_SIZE = 2

#: Above this rate the float angle ``c * theta`` overflows within one turn.
_MAX_FLOAT_RATE = sys.float_info.max / (2 * math.pi)

#: :data:`_MAX_FLOAT_RATE` as a fraction, built once, so an exact rate is
#: compared with it on integers alone.
_MAX_EXACT_RATE = Fraction(_MAX_FLOAT_RATE)

#: Largest float deviation over the grid at which either rotation check
#: passes a float ket.
TOL = 1e-12

_ROOT_HALF, _ONE_HALF = ExactScalar.sqrt(HALF), ExactScalar(HALF)

#: The catalog's spin-1/2 pairs: each tag's amplitudes over the labels
#: ``++`` (0, 0), ``+-`` (0, 1), ``-+`` (1, 0) and ``--`` (1, 1).
_PAIRS: dict[str, dict[tuple[int, int], ExactScalar]] = {
    # (|+-> - |-+>)/sqrt(2): anticorrelated and rotationally invariant.
    "singlet": {(0, 1): _ROOT_HALF, (1, 0): -_ROOT_HALF},
    # (|++> + |-->)/sqrt(2): correlated under oppositely directed readings.
    "improper_singlet": {(0, 0): _ROOT_HALF, (1, 1): _ROOT_HALF},
    # (|++> + |--> + |+-> - |-+>)/2: invariant yet not perfectly correlated.
    "excluded_combination": {(0, 0): _ONE_HALF, (1, 1): _ONE_HALF, (0, 1): _ONE_HALF, (1, 0): -_ONE_HALF},
    # The triplet at m = 1, 0 and -1: |++>, (|+-> + |-+>)/sqrt(2) and |-->.
    "triplet_plus": {(0, 0): ExactScalar(1)},
    "triplet_zero": {(0, 1): _ROOT_HALF, (1, 0): _ROOT_HALF},
    "triplet_minus": {(1, 1): ExactScalar(1)},
}


def spin_j_singlet(j: Rational) -> Ket:
    """Total-spin-zero pair of two spin-j particles.

    Coefficient of |m,-m> is (-1)**(j-m) / sqrt(2j+1), the alternating-sign
    expansion whose j=1/2 case is the ordinary singlet.  A spin above
    :data:`MAX_SINGLET_SPIN` raises :class:`SizeLimitError`.
    """
    j = check_spin(j)
    if j == 0:
        raise InvalidSpinError("spin-0 pair has no nontrivial singlet")
    if j > MAX_SINGLET_SPIN:
        raise SizeLimitError(f"the spin-j singlet supports spins up to {MAX_SINGLET_SPIN}")
    dim = int(2 * j + 1)
    weight = ExactScalar.sqrt(Fraction(1, dim))
    amps: dict[tuple[int, int], ExactScalar] = {}
    # Label k holds projection j - k, so |m,-m> is (k, dim - 1 - k) with sign (-1)**k.
    for k in range(dim):
        sign = -1 if k % 2 else 1
        amps[(k, dim - 1 - k)] = sign * weight
    return Ket((dim, dim), amps)


STATE_TAGS = (*_PAIRS, "spin_j_singlet")


def make_state(tag: str, j: Rational | None = None) -> Ket:
    """Build a cataloged state by tag; ``spin_j_singlet`` needs ``j``, and no other tag takes one."""
    if tag in _PAIRS:
        if j is not None:
            raise InvalidValueError(f"{tag} takes no spin value j")
        return Ket((2, 2), _PAIRS[tag])
    if tag == "spin_j_singlet":
        if j is None:
            raise InvalidValueError("spin_j_singlet requires a spin value j")
        return spin_j_singlet(j)
    raise UnknownTagError(f"unknown state tag {tag!r}")


def _check_rotation(ket: Ket, c: Rational | float, grid: int) -> None:
    """Refuse what either rotation check refuses, before it picks the exact or the float path.

    The float grid needs a positive integer ``grid <= MAX_GRID`` and a
    finite ``c * theta``; checking both here keeps an exact answer from
    accepting what the grid would refuse.
    """
    if ket.dims != (2, 2):
        raise ShapeError(f"expected a two-particle spin-1/2 state, got dims {ket.dims}")
    if c == 0:
        raise InvalidValueError("rotation rate c must be nonzero; at 0 every rotation is the identity")
    # int first: it answers before the slower abstract-class check.
    if not isinstance(grid, (int, numbers.Integral)) or grid < 1:
        raise InvalidValueError(f"the angle grid must be a positive integer, not {grid!r}")
    if grid > MAX_GRID:
        raise SizeLimitError(f"the angle grid supports up to {MAX_GRID} points")
    # Exact either way: an int or Fraction p/q against the bound's P/Q as
    # |p| * Q > P * q, on integers alone, and a float against the float bound.
    if isinstance(c, (int, Fraction)):
        too_large = abs(c.numerator) * _MAX_EXACT_RATE.denominator > _MAX_EXACT_RATE.numerator * c.denominator
    else:
        if not math.isfinite(c):
            raise InvalidValueError(f"rotation rate c must be finite, not {c!r}")
        too_large = abs(c) > _MAX_FLOAT_RATE
    if too_large:
        raise InvalidValueError("rotation rate c is too large for float angles")


def _grid_angles(grid: int) -> np.ndarray:
    """``grid`` evenly spaced angles in ``[0, 2*pi)`` and the extra probes.

    Angle ``k`` is ``2 * pi * k / grid``, rounded in that order.
    """
    import numpy as np

    return np.concatenate((2 * math.pi * np.arange(grid) / grid, EXTRA_GRID_ANGLES))


@functools.lru_cache(maxsize=_GRID_MEMO_SIZE)
def _max_sin(c: float, grid: int) -> float:
    """The largest ``|sin(c * theta)|`` over :func:`_grid_angles`, in plain floats.

    The angles come from the scalar formula that :func:`_grid_angles` is
    tested against, so the value is the array form's without numpy.
    """
    # tau * k rounds as 2 * math.pi * k does, since doubling pi is exact.
    tau, sin = 2 * math.pi, math.sin
    sines = [abs(sin(c * (tau * k / grid))) for k in range(grid)]
    return max(sines + [abs(sin(c * a)) for a in EXTRA_GRID_ANGLES])


@functools.lru_cache(maxsize=_GRID_MEMO_SIZE)
def _isc_table(c: float, grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only :func:`_grid_angles` and the doublet turn ``(cos 2a, sin 2a)`` at each ``a = c * theta``."""
    import numpy as np

    angles = _grid_angles(grid)
    a = c * angles
    sin, cos = np.sin(a), np.cos(a)
    # The double angle from a itself: 2 * c * theta overflows for |c| above
    # _MAX_FLOAT_RATE / 2.
    cos2, sin2 = (cos - sin) * (cos + sin), 2 * sin * cos
    angles.flags.writeable = cos2.flags.writeable = sin2.flags.writeable = False
    return angles, cos2, sin2


class InvarianceResult(NamedTuple):
    invariant: bool
    max_deviation: float


#: The pair labels ``++, +-, -+, --``.
_PAIR_LABELS = ((0, 0), (0, 1), (1, 0), (1, 1))

#: The two values of ``s`` or ``u`` that a perfectly correlated exact pair holds.
_ROOT_TWO = (ExactScalar.sqrt(2), -ExactScalar.sqrt(2))


def _doublet_split(pp: Scalar, pm: Scalar, mp: Scalar, mm: Scalar) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """The pair's ``(s, u, d, t)``: ``++ + --``, ``+- - -+``, ``++ - --`` and ``+- + -+``, in the amplitudes' type.

    R(a) ⊗ R(a) fixes ``s`` and ``u`` and turns the doublet ``(d, t)`` by
    the angle 2a: ``d -> d*cos 2a + t*sin 2a`` and ``t -> t*cos 2a - d*sin 2a``.
    """
    return pp + mm, pm - mp, pp - mm, pm + mp


def _float_split(ket: Ket) -> tuple[complex, complex, complex, complex]:
    """:func:`_doublet_split` of the ket's amplitudes as ``complex`` values."""
    amps = ket.amplitudes
    return _doublet_split(*(complex(amps.get(label, 0)) for label in _PAIR_LABELS))


def _exact_verdicts(ket: Ket) -> tuple[bool, bool]:
    """Whether an exact pair is invariant at every angle, and whether it is perfectly correlated.

    Exact amplitudes are real, so as the angle runs the turned doublet runs
    round a circle of radius ``sqrt(d^2 + t^2)``: the pair is invariant iff
    ``d = t = 0``.  Both readings the same needs ``t' = u = 0`` at every
    angle, both opposite ``d' = s = 0``, and the two patterns differ by 1/2
    in every cell, so a continuous table cannot switch between them.  So
    the pair is perfectly correlated iff it is invariant, one of ``s`` and
    ``u`` is 0 and the other is ``±sqrt(2)``: ± the singlet or ± the
    improper singlet.
    """
    s, u, d, t = _doublet_split(*(ket.amplitude(label) for label in _PAIR_LABELS))
    invariant = d.is_zero and t.is_zero
    return invariant, invariant and ((s.is_zero and u in _ROOT_TWO) or (u.is_zero and s in _ROOT_TWO))


def is_rotationally_invariant(ket: Ket, c: Rational | float = HALF, grid: int = 360) -> InvarianceResult:
    """Check ``(R ⊗ R)|psi> = |psi>`` over a grid of angles.

    An exact ket whose doublet ``(d, t)`` of :func:`_doublet_split` is zero
    is invariant and reports a deviation of exactly 0; any other exact ket
    is not invariant, whatever its deviation.  A float ket is invariant when
    the maximum deviation over the angle grid, measured in floats, is below
    :data:`TOL`; a failing exact ket reports that deviation too.  The paired
    rotation turns only the doublet, by ``2*c*theta``, so the deviation at
    ``theta`` is ``|sin(c*theta)| * sqrt(2*(|d|^2 + |t|^2))``.  The largest
    ``|sin(c*theta)|`` depends on ``(c, grid)`` alone; it is computed in
    plain Python, with no numpy, once per ``(float(c), grid)`` in a process
    (see :data:`_GRID_MEMO_SIZE`).  The bounds on ``c`` and ``grid`` hold on
    both paths.
    """
    _check_rotation(ket, c, grid)
    exact = ket.mode != FLOAT
    if exact and _exact_verdicts(ket)[0]:
        return InvarianceResult(True, 0.0)

    _, _, d, t = _float_split(ket)
    scale = math.sqrt(2 * (abs(d) ** 2 + abs(t) ** 2))
    worst = _max_sin(float(c), grid) * scale
    # An exact "no" is final: a tiny scale must not overturn it.
    return InvarianceResult(not exact and worst < TOL, worst)


def _isc_deviation(p: np.ndarray) -> np.ndarray:
    """Per angle g, the largest cell distance of ``p[g]`` to the nearer valid pattern.

    A perfectly correlated pair has two: both readings the same (``++`` and
    ``--`` at 1/2 each) or both opposite (``+-`` and ``-+`` at 1/2 each).

    Probabilities are nonnegative, so a cell that a pattern holds at 0 is its
    own distance.  Past the subtractions of 1/2 only max, min and abs act,
    and they round nothing.
    """
    import numpy as np

    pp, pm, mp, mm = p.reshape(-1, 4).T
    same = np.maximum(np.maximum(np.abs(pp - 0.5), pm), np.maximum(mp, np.abs(mm - 0.5)))
    opposite = np.maximum(np.maximum(pp, np.abs(pm - 0.5)), np.maximum(np.abs(mp - 0.5), mm))
    return np.minimum(same, opposite)


class IscResult(NamedTuple):
    isc: bool
    witness_angle: float | None
    max_deviation: float


def is_isc(ket: Ket, c: Rational | float = HALF, grid: int = 360) -> IscResult:
    """Perfect-correlation test in every rotated measurement basis.

    At each angle the four joint outcome probabilities must be two
    complementary cells of 1/2 each (either both-same or both-opposite).
    An exact ket is decided exactly from its doublet split (see
    :func:`_exact_verdicts`), so a correlated one passes with a deviation of
    exactly 0, and any other fails, at any allowed ``grid``.  A float ket,
    and a failing exact one for its deviation and witness, is measured in
    floats over the angle grid, from the ``(s, u, d, t)`` of
    :func:`_doublet_split`: with ``(d', t')`` the doublet turned by
    ``2*c*theta``, the cells ``++, --, +-, -+`` hold ``|s + d'|^2/4``,
    ``|s - d'|^2/4``, ``|u + t'|^2/4`` and ``|t' - u|^2/4``.  A float ket
    passes when its largest deviation is below :data:`TOL`.  The turn
    ``(cos 2a, sin 2a)`` depends on ``(c, grid)`` alone and is computed once
    per ``(float(c), grid)`` in a process (see :data:`_GRID_MEMO_SIZE`).
    On failure the earliest angle whose deviation from the nearer valid
    pattern is within a relative 1e-9 of the largest is reported as a
    witness.
    """
    _check_rotation(ket, c, grid)
    exact = ket.mode != FLOAT
    if exact and _exact_verdicts(ket)[1]:
        return IscResult(True, None, 0.0)

    import numpy as np

    angles, cos2, sin2 = _isc_table(float(c), grid)
    s, u, d, t = _float_split(ket)
    d2, t2 = d * cos2 + t * sin2, t * cos2 - d * sin2
    # One row per cell, ++, +-, -+, --, each filled from one complex
    # temporary; the transpose is the (angle, cell) view.
    p = np.empty((4, len(angles)))
    np.abs(s + d2, out=p[0])
    np.abs(u + t2, out=p[1])
    np.abs(t2 - u, out=p[2])
    np.abs(s - d2, out=p[3])
    p **= 2
    p /= 4
    deviation = _isc_deviation(p.T)
    worst = float(deviation.max())
    if not exact and worst < TOL:
        return IscResult(True, None, worst)
    # Earliest angle within rounding of the maximum makes the witness stable;
    # the window scales with the maximum, since the cells of an unnormalized
    # ket, and so their rounding, do.
    witness = float(angles[int(np.argmax(deviation >= worst - 1e-9 * max(1.0, worst)))])
    return IscResult(False, witness, worst)


class PairComponent(NamedTuple):
    """The |m,-m>, |-m,m> portion of a spin-j pair singlet, at unit weight."""

    m: Fraction
    ket: Ket


class SingletDecomposition(NamedTuple):
    j: Fraction
    pairs: tuple[PairComponent, ...]
    center: Ket | None

    def recombine(self) -> Ket:
        """Re-sum all components with weight 1/sqrt(2j+1)."""
        weight = ExactScalar.sqrt(Fraction(1, int(2 * self.j + 1)))
        total = Ket.zero(self.pairs[0].ket.dims) if self.pairs else self.center
        for pair in self.pairs:
            total = total + pair.ket.scale(weight)
        if self.center is not None:
            total = total + self.center.scale(weight)
        return total


def decompose_spin_j_singlet(j: Rational) -> SingletDecomposition:
    """Split the spin-j pair singlet into its two-level components.

    Each component collects the |m,-m> and |-m,m> terms (with the signs
    they carry in the alternating-sign expansion) scaled to unit
    coefficients; integer j leaves a single |0,0> center term.
    """
    j = check_spin(j)
    state = spin_j_singlet(j)
    dim = int(2 * j + 1)
    scale = ExactScalar.sqrt(Fraction(dim))
    pairs = []
    # Label k holds projection m = j - k, and m > 0 for k < dim // 2.
    for k in range(dim // 2):
        labels = {(k, dim - 1 - k), (dim - 1 - k, k)}
        amps = {l: state.amplitudes[l] * scale for l in labels}
        pairs.append(PairComponent(j - k, Ket(state.dims, amps)))
    center = None
    if dim % 2:
        zero_label = (dim // 2, dim // 2)
        center = Ket(state.dims, {zero_label: state.amplitudes[zero_label] * scale})
    return SingletDecomposition(j, tuple(pairs), center)
