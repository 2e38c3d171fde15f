"""Paired planar rotations, named two-particle states, and their tests.

The rotation acting on one spin-1/2 slot is the real orthogonal matrix

    R(theta) = [[cos(c*theta),  sin(c*theta)],
                [-sin(c*theta), cos(c*theta)]]

with a rate constant ``c`` (1/2 for half-angle spinor behavior, 1 for
full-angle photon behavior).  A two-particle state is rotationally
invariant when ``(R ⊗ R)|psi> = |psi>`` for every angle; it is perfectly
spin-correlated ("isotropic" correlation) when in every rotated basis the
joint outcome distribution sits on two complementary cells of weight 1/2.
Spinor conjugation (``L- - L+`` at spin 1/2) and the exact rotations apply
one-slot images through :func:`~spinstat.kets.apply_to_slot`.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidSpinError, InvalidValueError, ShapeError, SizeLimitError, UnknownTagError
from .exact import ExactScalar, Rational
from .kets import FLOAT, Ket, apply_to_slot, check_spin, ladder

# Functions that compute with arrays import numpy themselves, so exact
# callers, and most CLI subcommands, never load it.
if TYPE_CHECKING:
    import numpy as np

HALF = Fraction(1, 2)

#: Extra probe angles appended to every evenly spaced grid; these catch
#: period mismatches that a uniform grid can step over.
EXTRA_GRID_ANGLES = (math.pi / 4, math.pi / 3, math.pi / 2, 2 * math.pi / 3)

#: Largest spin :func:`spin_j_singlet` builds; the state has ``2j + 1``
#: terms, and ``--decompose`` at spin 100 already takes about half a second.
MAX_SINGLET_SPIN = Fraction(100)

#: Most evenly spaced angles either rotation check accepts.  A cold
#: ``state triplet_zero --check-isc``, which fails and so builds the grid,
#: takes about 0.3 s and 40 MB at this grid, and about 0.7 s and 130 MB at
#: ten times it.
MAX_GRID = 100_000

#: Above this rate the float angle ``c * theta`` overflows within one turn.
_MAX_FLOAT_RATE = sys.float_info.max / (2 * math.pi)


def rotation_matrix(theta: float | np.ndarray, c: Rational | float = HALF) -> np.ndarray:
    """Single-slot rotation matrix at polar angle ``theta``.

    An array of angles gives a stack of matrices of shape ``(..., 2, 2)``.
    """
    import numpy as np

    a = float(c) * np.asarray(theta, dtype=float)
    cos, sin = np.cos(a), np.sin(a)
    # Filling one array is a few times faster than nested np.stack.
    r = np.empty(a.shape + (2, 2))
    r[..., 0, 0] = cos
    r[..., 0, 1] = sin
    r[..., 1, 0] = -sin
    r[..., 1, 1] = cos
    return r


def _two_spin_ket(entries: dict[tuple[int, int], ExactScalar]) -> Ket:
    return Ket((2, 2), entries)


def singlet() -> Ket:
    """(|+->-|-+>)/sqrt(2): anticorrelated and rotationally invariant."""
    r = ExactScalar.sqrt(HALF)
    return _two_spin_ket({(0, 1): r, (1, 0): -r})


def improper_singlet() -> Ket:
    """(|++>+|-->)/sqrt(2): correlated under oppositely directed readings."""
    r = ExactScalar.sqrt(HALF)
    return _two_spin_ket({(0, 0): r, (1, 1): r})


def excluded_combination() -> Ket:
    """(|++>+|-->+|+->-|-+>)/2: invariant yet not perfectly correlated."""
    h = ExactScalar(HALF)
    return _two_spin_ket({(0, 0): h, (1, 1): h, (0, 1): h, (1, 0): -h})


def triplet(m: int) -> Ket:
    if m == 1:
        return _two_spin_ket({(0, 0): ExactScalar(1)})
    if m == -1:
        return _two_spin_ket({(1, 1): ExactScalar(1)})
    if m == 0:
        r = ExactScalar.sqrt(HALF)
        return _two_spin_ket({(0, 1): r, (1, 0): r})
    raise UnknownTagError(f"triplet projection must be -1, 0, or 1, got {m}")


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


_BUILDERS = {
    "singlet": singlet,
    "improper_singlet": improper_singlet,
    "excluded_combination": excluded_combination,
    "triplet_plus": lambda: triplet(1),
    "triplet_zero": lambda: triplet(0),
    "triplet_minus": lambda: triplet(-1),
}

STATE_TAGS = (*_BUILDERS, "spin_j_singlet")


def make_state(tag: str, j: Rational | None = None) -> Ket:
    """Build a cataloged state by tag; ``spin_j_singlet`` needs ``j``, and no other tag takes one."""
    if tag in _BUILDERS:
        if j is not None:
            raise InvalidValueError(f"{tag} takes no spin value j")
        return _BUILDERS[tag]()
    if tag == "spin_j_singlet":
        if j is None:
            raise UnknownTagError("spin_j_singlet requires a spin value j")
        return spin_j_singlet(j)
    raise UnknownTagError(f"unknown state tag {tag!r}")


def _check_rotation(ket: Ket, c: Rational | float, grid: int) -> None:
    """Refuse what either rotation check refuses, before it picks the exact or the float path.

    The float grid needs ``grid <= MAX_GRID`` and a finite ``c * theta``;
    checking both here keeps an exact answer from accepting what the grid
    would refuse.
    """
    if ket.dims != (2, 2):
        raise ShapeError(f"expected a two-particle spin-1/2 state, got dims {ket.dims}")
    if c == 0:
        raise InvalidValueError("rotation rate c must be nonzero; at 0 every rotation is the identity")
    if grid > MAX_GRID:
        raise SizeLimitError(f"the angle grid supports up to {MAX_GRID} points")
    if abs(c) > _MAX_FLOAT_RATE:
        raise InvalidValueError("rotation rate c is too large for float angles")


def grid_angles(grid: int) -> np.ndarray:
    """``grid`` evenly spaced angles in ``[0, 2*pi)`` and the extra probes.

    Angle ``k`` is ``2 * pi * k / grid``, rounded in that order.
    """
    import numpy as np

    return np.concatenate((2 * math.pi * np.arange(grid) / grid, EXTRA_GRID_ANGLES))


class InvarianceResult(NamedTuple):
    invariant: bool
    max_deviation: float


def _generator_annihilates(ket: Ket) -> bool:
    """Exact test that the paired rotation generator sends the ket to zero.

    The generator of R(c*theta) ⊗ R(c*theta) in theta is c*(J⊗I + I⊗J) with
    J|+> = -|->, J|-> = |+>; a state is invariant at every angle iff the
    generator annihilates it.  Spinor conjugation of one slot is -J on that
    slot, so the test is an exact ket sum.
    """
    return (conjugate_spinor_slot(ket, 0) + conjugate_spinor_slot(ket, 1)).is_zero


def _paired_rotation(ket: Ket, c: Rational | float, angles: np.ndarray) -> np.ndarray:
    """``(R ⊗ R)|psi>`` at every angle, as an array of shape ``(len(angles), 2, 2)``."""
    import numpy as np

    r = rotation_matrix(angles, c)
    return np.einsum("gij,gkl,jl->gik", r, r, ket.to_array())


def is_rotationally_invariant(
    ket: Ket,
    c: Rational | float = HALF,
    grid: int = 360,
    tol: float = 1e-12,
) -> InvarianceResult:
    """Check ``(R ⊗ R)|psi> = |psi>`` over a grid of angles.

    Exact kets are decided through the rotation generator, so an invariant
    state reports a deviation of exactly 0; otherwise the maximum deviation
    over the angle grid is measured in floats.  The bounds on ``c`` and
    ``grid`` hold on both paths.
    """
    _check_rotation(ket, c, grid)
    if ket.mode != FLOAT and _generator_annihilates(ket):
        return InvarianceResult(True, 0.0)

    import numpy as np

    rotated = _paired_rotation(ket, c, grid_angles(grid))
    worst = float(np.linalg.norm(rotated - ket.to_array(), axis=(1, 2)).max())
    return InvarianceResult(worst < tol, worst)


#: The two valid outcome patterns of a perfectly correlated pair: both
#: readings the same, or both opposite, each with probability 1/2.
_ISC_PATTERNS = (((0.5, 0.0), (0.0, 0.5)), ((0.0, 0.5), (0.5, 0.0)))

#: Exact ``(cos a, sin a)`` at the rotation angles ``a = k*pi/6``, k = 0..4,
#: whose doubles ``2a`` are distinct mod 2*pi.
_EXACT_ISC_ANGLES = (
    (ExactScalar(1), ExactScalar(0)),
    (ExactScalar(HALF, 3), ExactScalar(HALF)),
    (ExactScalar(HALF), ExactScalar(HALF, 3)),
    (ExactScalar(0), ExactScalar(1)),
    (ExactScalar(-HALF), ExactScalar(HALF, 3)),
)

#: :data:`_ISC_PATTERNS` as exact cells, in the order ``++, +-, -+, --``.
_EXACT_ISC_PATTERNS = {tuple(ExactScalar(Fraction(p)) for row in pattern for p in row) for pattern in _ISC_PATTERNS}


def _exactly_isc(ket: Ket) -> bool:
    """Exact test that an exact pair is perfectly correlated at every angle.

    Under R(a) ⊗ R(a) each amplitude is a quadratic form in (cos a, sin a),
    a trigonometric polynomial of degree 1 in 2a, so each joint probability
    has degree 2 in 2a and is fixed by its values at 5 angles whose 2a are
    distinct mod 2*pi.  The two valid patterns differ by 1/2 in every cell,
    so a continuous table cannot switch between them: the pair is perfectly
    correlated iff its table is one and the same pattern at those 5 angles.
    """
    tables = set()
    for cos, sin in _EXACT_ISC_ANGLES:
        # Label j goes to column j of R(a).
        r = [Ket((2,), {(0,): cos, (1,): -sin}), Ket((2,), {(0,): sin, (1,): cos})]
        rotated = apply_to_slot(r, apply_to_slot(r, ket, 0), 1)
        amps = [rotated.amplitude(label) for label in ((0, 0), (0, 1), (1, 0), (1, 1))]
        tables.add(tuple(a * a for a in amps))
    return len(tables) == 1 and tables <= _EXACT_ISC_PATTERNS


def _isc_deviation(p: np.ndarray) -> np.ndarray:
    """Per angle g, the largest cell distance of ``p[g]`` to the nearer of :data:`_ISC_PATTERNS`.

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


def is_isc(
    ket: Ket,
    c: Rational | float = HALF,
    grid: int = 360,
    tol: float = 1e-12,
) -> IscResult:
    """Perfect-correlation test in every rotated measurement basis.

    At each angle the four joint outcome probabilities must be two
    complementary cells of 1/2 each (either both-same or both-opposite).
    An exact ket is decided exactly at 5 angles, so a correlated one passes
    with a deviation of exactly 0 under any ``tol`` and any allowed ``grid``.
    Any other ket is measured in floats over the angle grid; on failure the
    angle with the largest deviation from the nearer valid pattern is
    reported as a witness.
    """
    _check_rotation(ket, c, grid)
    if ket.mode != FLOAT and _exactly_isc(ket):
        return IscResult(True, None, 0.0)

    import numpy as np

    angles = grid_angles(grid)
    deviation = _isc_deviation(np.abs(_paired_rotation(ket, c, angles)) ** 2)
    worst = float(deviation.max())
    if worst < tol:
        return IscResult(True, None, worst)
    # Earliest angle within rounding of the maximum makes the witness stable.
    witness = float(angles[int(np.argmax(deviation >= worst - 1e-9))])
    return IscResult(False, witness, worst)


def conjugate_spinor_slot(ket: Ket, slot: int) -> Ket:
    """Apply the antisymmetric conjugation |+> -> |->, |-> -> -|+>, ``L- - L+`` at spin 1/2, to a slot.

    Turns the correlated pair state into the anticorrelated one (and back,
    up to a global sign); applying it twice negates the ket.
    """
    if not 0 <= slot < ket.n_particles:
        raise ShapeError(f"slot {slot} out of range for {ket.n_particles} particles")
    if ket.dims[slot] != 2:
        raise ShapeError(f"spinor conjugation needs a 2-dimensional slot, got {ket.dims[slot]}")
    images = [lower - upper for upper, lower in zip(ladder(HALF, "+"), ladder(HALF, "-"))]
    return apply_to_slot(images, ket, slot)


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
