"""Paired planar rotations, named two-particle states, and their tests.

The rotation acting on one spin-1/2 slot is the real orthogonal matrix

    R(theta) = [[cos(c*theta),  sin(c*theta)],
                [-sin(c*theta), cos(c*theta)]]

with a rate constant ``c`` (1/2 for half-angle spinor behavior, 1 for
full-angle photon behavior).  A two-particle state is rotationally
invariant when ``(R ⊗ R)|psi> = |psi>`` for every angle; it is perfectly
spin-correlated ("isotropic" correlation) when in every rotated basis the
joint outcome distribution sits on two complementary cells of weight 1/2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidSpinError, InvalidValueError, ShapeError, SizeLimitError, UnknownTagError
from .exact import ExactScalar, Rational
from .kets import FLOAT, Ket, index_of_m

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

#: Above this rate the float angle ``c * theta`` overflows within one turn.
_MAX_FLOAT_RATE = sys.float_info.max / (2 * math.pi)


def rotation_matrix(theta: float | np.ndarray, c: Rational | float = HALF) -> np.ndarray:
    """Single-slot rotation matrix at polar angle ``theta``.

    An array of angles gives a stack of matrices of shape ``(..., 2, 2)``.
    """
    import numpy as np

    a = float(c) * np.asarray(theta, dtype=float)
    cos, sin = np.cos(a), np.sin(a)
    # Filling one array is a few times faster than nested np.stack, which
    # matters for the small joint tables that call this once per table.
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


def check_spin(j: Rational) -> Fraction:
    j = Fraction(j)
    if j < 0 or (2 * j).denominator != 1:
        raise InvalidSpinError(f"spin must be a nonnegative half-integer, got {j}")
    return j


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
    for k in range(dim):
        m = j - k
        sign = -1 if int(j - m) % 2 else 1
        amps[(index_of_m(dim, m), index_of_m(dim, -m))] = sign * weight
    return Ket((dim, dim), amps)


STATE_TAGS = (
    "singlet",
    "improper_singlet",
    "excluded_combination",
    "triplet_plus",
    "triplet_zero",
    "triplet_minus",
    "spin_j_singlet",
)


def make_state(tag: str, j: Rational | None = None) -> Ket:
    """Build a cataloged state by tag; ``spin_j_singlet`` needs ``j``."""
    builders = {
        "singlet": singlet,
        "improper_singlet": improper_singlet,
        "excluded_combination": excluded_combination,
        "triplet_plus": lambda: triplet(1),
        "triplet_zero": lambda: triplet(0),
        "triplet_minus": lambda: triplet(-1),
    }
    if tag in builders:
        return builders[tag]()
    if tag == "spin_j_singlet":
        if j is None:
            raise UnknownTagError("spin_j_singlet requires a spin value j")
        return spin_j_singlet(j)
    raise UnknownTagError(f"unknown state tag {tag!r}")


def _check_pair_and_rate(ket: Ket, c: Rational | float) -> None:
    if ket.dims != (2, 2):
        raise ShapeError(f"expected a two-particle spin-1/2 state, got dims {ket.dims}")
    if c == 0:
        raise InvalidValueError("rotation rate c must be nonzero; at 0 every rotation is the identity")


def grid_angles(grid: int) -> list[float]:
    return [2 * math.pi * k / grid for k in range(grid)] + list(EXTRA_GRID_ANGLES)


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


def _paired_rotation(ket: Ket, c: Rational | float, angles: list[float]) -> np.ndarray:
    """``(R ⊗ R)|psi>`` at every angle, as an array of shape ``(len(angles), 2, 2)``."""
    import numpy as np

    if abs(c) > _MAX_FLOAT_RATE:
        raise InvalidValueError("rotation rate c is too large for float angles")
    r = rotation_matrix(angles, c)
    return np.einsum("gij,gkl,jl->gik", r, r, ket.to_array())


def _max_grid_deviation(ket: Ket, c: Rational | float, angles: list[float]) -> float:
    import numpy as np

    rotated = _paired_rotation(ket, c, angles)
    return float(np.linalg.norm(rotated - ket.to_array(), axis=(1, 2)).max())


def is_rotationally_invariant(
    ket: Ket,
    c: Rational | float = HALF,
    grid: int = 360,
    tol: float = 1e-12,
) -> InvarianceResult:
    """Check ``(R ⊗ R)|psi> = |psi>`` over a grid of angles.

    Exact kets are decided through the rotation generator, so an invariant
    state reports a deviation of exactly 0; otherwise the maximum deviation
    over the angle grid is measured in floats.
    """
    _check_pair_and_rate(ket, c)
    if ket.mode != FLOAT and _generator_annihilates(ket):
        return InvarianceResult(True, 0.0)
    worst = _max_grid_deviation(ket, c, grid_angles(grid))
    return InvarianceResult(worst < tol, worst)


#: The two valid outcome patterns of a perfectly correlated pair: both
#: readings the same, or both opposite, each with probability 1/2.
_ISC_PATTERNS = (((0.5, 0.0), (0.0, 0.5)), ((0.0, 0.5), (0.5, 0.0)))


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

    At each grid angle the four joint outcome probabilities must be two
    complementary cells of 1/2 each (either both-same or both-opposite).
    On failure the angle with the largest deviation from the nearer valid
    pattern is reported as a witness.
    """
    import numpy as np

    _check_pair_and_rate(ket, c)
    angles = grid_angles(grid)
    p = np.abs(_paired_rotation(ket, c, angles)) ** 2
    deviation = np.abs(p[:, None] - np.array(_ISC_PATTERNS)).max(axis=(2, 3)).min(axis=1)
    worst = float(deviation.max())
    if worst < tol:
        return IscResult(True, None, worst)
    # Earliest angle within rounding of the maximum makes the witness stable.
    witness = angles[int(np.argmax(deviation >= worst - 1e-9))]
    return IscResult(False, witness, worst)


def conjugate_spinor_slot(ket: Ket, slot: int) -> Ket:
    """Apply the antisymmetric conjugation |+> -> |->, |-> -> -|+> to a slot.

    Turns the correlated pair state into the anticorrelated one (and back,
    up to a global sign); applying it twice negates the ket.
    """
    if not 0 <= slot < ket.n_particles:
        raise ShapeError(f"slot {slot} out of range for {ket.n_particles} particles")
    if ket.dims[slot] != 2:
        raise ShapeError(f"spinor conjugation needs a 2-dimensional slot, got {ket.dims[slot]}")
    amps = {}
    for label, amp in ket.amplitudes.items():
        if label[slot] == 0:
            amps[label[:slot] + (1,) + label[slot + 1 :]] = amp
        else:
            amps[label[:slot] + (0,) + label[slot + 1 :]] = -amp
    return Ket(ket.dims, amps)


@dataclass(frozen=True)
class PairComponent:
    """The |m,-m>, |-m,m> portion of a spin-j pair singlet, at unit weight."""

    m: Fraction
    ket: Ket


@dataclass(frozen=True)
class SingletDecomposition:
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
    m = j
    while m > 0:
        labels = {
            (index_of_m(dim, m), index_of_m(dim, -m)),
            (index_of_m(dim, -m), index_of_m(dim, m)),
        }
        amps = {l: state.amplitudes[l] * scale for l in labels}
        pairs.append(PairComponent(m, Ket(state.dims, amps)))
        m -= 1
    center = None
    if (2 * j) % 2 == 0:
        zero_label = (index_of_m(dim, 0), index_of_m(dim, 0))
        center = Ket(state.dims, {zero_label: state.amplitudes[zero_label] * scale})
    return SingletDecomposition(j, tuple(pairs), center)
