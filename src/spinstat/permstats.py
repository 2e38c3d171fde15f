"""Antisymmetrization, symmetrization, and permutation-statistics tools.

States built from a signed sum over all slot permutations flip sign under
every transposition (the exclusion-principle form); uniform sums are
invariant under every permutation; everything else is classified as
neither.  Sizes are factorial-guarded since expansions carry n! terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import CapacityError, InvalidValueError, ShapeError, SizeLimitError
from .exact import ExactScalar
from .kets import EXACT, FLOAT, Ket, Label, Permutation, Scalar, join_modes, permute_slots

MAX_PARTICLES = 6
MAX_SIGNATURE_PARTICLES = 5


@dataclass(frozen=True)
class SingleParticleState:
    """A particle state split into an orbital token and a spin part."""

    q_label: str
    spinor: Ket

    def __post_init__(self) -> None:
        if self.spinor.n_particles != 1:
            raise ShapeError("spinor must be a single-slot ket")

    def as_ket(self, orbitals: Sequence[str]) -> Ket:
        """Realize as one slot of dimension ``len(orbitals) * spin dim``.

        The orbital index and the spin index are flattened into a single
        local basis so that particle permutations stay slot permutations.
        """
        try:
            q = list(orbitals).index(self.q_label)
        except ValueError:
            raise ShapeError(f"orbital {self.q_label!r} not in {orbitals}") from None
        d = self.spinor.dims[0]
        dim = len(orbitals) * d
        return Ket((dim,), {(q * d + l[0],): a for l, a in self.spinor.amplitudes.items()})


def _check_states(states: Sequence[Ket]) -> str:
    if not 2 <= len(states) <= MAX_PARTICLES:
        raise SizeLimitError(f"need between 2 and {MAX_PARTICLES} states, got {len(states)}")
    dims = {s.dims for s in states}
    if len(dims) != 1 or len(next(iter(dims))) != 1:
        raise ShapeError("states must be single-slot kets of one common dimension")
    mode = None
    for s in states:
        mode = join_modes(mode, s.mode)
    return mode or EXACT


def _permutation_sum(
    states: Sequence[Ket],
    coefficient: Mapping[Permutation, Scalar],
) -> Ket:
    """Sum of ``c_sigma * |psi_sigma(0)> ⊗ ... ⊗ |psi_sigma(n-1)>`` terms.

    Exact coefficients multiply float states as complex numbers.
    """
    n = len(states)
    dims = states[0].dims * n
    exact = _check_states(states) == EXACT
    amps: dict[Label, Scalar] = {}
    for perm, coef in coefficient.items():
        if not exact:
            coef = complex(coef)
        if not coef:
            continue
        chosen = [states[perm(i)] for i in range(n)]
        for combo in itertools.product(*(s.amplitudes.items() for s in chosen)):
            label = tuple(l[0] for l, _ in combo)
            amp = coef
            for _, v in combo:
                amp = amp * v
            amps[label] = amps[label] + amp if label in amps else amp
    return Ket(dims, amps)


def _uniform_weight(states: Sequence[Ket]) -> ExactScalar:
    """1/sqrt(n!), the weight of each term of a pure expansion.

    The states are checked first, so a count beyond the limit fails before
    anything enumerates the n! permutations.
    """
    _check_states(states)
    return ExactScalar.sqrt(Fraction(1, math.factorial(len(states))))


def antisymmetrize(states: Sequence[Ket]) -> Ket:
    """Signed permutation sum with weight 1/sqrt(n!).

    Yields the zero ket when two input states coincide, and a unit-norm
    state when the inputs are orthonormal.
    """
    return PermutationExpansion.fermi_dirac(states).realize()


def symmetrize(states: Sequence[Ket]) -> Ket:
    """Uniform permutation sum, renormalized.

    Duplicate inputs merge onto common labels before renormalization, the
    usual occupancy convention for repeated states.
    """
    out = PermutationExpansion.bose_einstein(states).realize()
    if out.is_zero:
        raise InvalidValueError("symmetrization collapsed to the zero ket")
    return out.normalized()


class StatisticsClass(Enum):
    """Transposition behavior of a permutation expansion."""

    FERMI_DIRAC = "FermiDirac"      # every transposition flips the sign
    BOSE_EINSTEIN = "BoseEinstein"  # every transposition preserves the ket
    NEITHER = "Neither"


@dataclass(frozen=True)
class PermutationExpansion:
    """Coefficients ``c_sigma`` over all n! slot permutations of n states.

    The coefficients are constants (independent of which concrete states
    are plugged in) and normalized so their squares sum to one.
    """

    states: tuple[Ket, ...]
    coefficients: Mapping[Permutation, ExactScalar]

    def __post_init__(self) -> None:
        states = tuple(self.states)
        _check_states(states)
        n = len(states)
        coeffs = dict(self.coefficients)
        if set(coeffs) != set(Permutation.all_of(n)):
            raise ShapeError(f"need one coefficient per permutation of {n} slots")
        total = sum(c.squared() for c in coeffs.values())
        if total != 1:
            raise InvalidValueError(f"squared coefficients sum to {total}, not 1")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def n_particles(self) -> int:
        return len(self.states)

    @classmethod
    def from_ordered_coefficients(
        cls, states: Sequence[Ket], coefficients: Sequence[ExactScalar]
    ) -> "PermutationExpansion":
        """Coefficients aligned with lexicographic permutation order."""
        _check_states(states)
        perms = list(Permutation.all_of(len(states)))
        if len(coefficients) != len(perms):
            raise ShapeError(f"need {len(perms)} coefficients")
        return cls(tuple(states), dict(zip(perms, coefficients)))

    @classmethod
    def fermi_dirac(cls, states: Sequence[Ket]) -> "PermutationExpansion":
        w = _uniform_weight(states)
        return cls(tuple(states), {p: p.sign * w for p in Permutation.all_of(len(states))})

    @classmethod
    def bose_einstein(cls, states: Sequence[Ket]) -> "PermutationExpansion":
        w = _uniform_weight(states)
        return cls(tuple(states), {p: w for p in Permutation.all_of(len(states))})

    @classmethod
    def mixed(cls, states: Sequence[Ket]) -> "PermutationExpansion":
        """An expansion that is neither fully signed nor fully uniform.

        For n >= 3: cycle each state into the first slot with the remaining
        block symmetrized, except the last block, which is antisymmetrized.
        For n == 2 every equal-magnitude choice is already one of the two
        pure classes, so the degenerate single-term expansion is used.
        """
        w = _uniform_weight(states)
        n = len(states)
        if n == 2:
            coeffs = {
                Permutation((0, 1)): ExactScalar(1),
                Permutation((1, 0)): ExactScalar(0),
            }
            return cls(tuple(states), coeffs)
        coeffs: dict[Permutation, ExactScalar] = {}
        for first in range(n):
            rest = [(first + k) % n for k in range(1, n)]
            for tail in itertools.permutations(rest):
                perm = Permutation((first,) + tail)
                if first == n - 1:
                    sign = Permutation(tuple(rest.index(t) for t in tail)).sign
                    coeffs[perm] = sign * w
                else:
                    coeffs[perm] = w
        return cls(tuple(states), coeffs)

    def realize(self) -> Ket:
        """Expand into an n-slot ket."""
        return _permutation_sum(self.states, self.coefficients)


def _permutation_sign(ket: Ket, p: Permutation) -> int | None:
    """+1 if permuting the slots by ``p`` keeps ``ket``, -1 if it negates it, else ``None``.

    Exact kets compare with ``==``, float kets with ``isclose``.
    """
    permuted = permute_slots(ket, p)
    exact = ket.mode != FLOAT
    if (permuted == ket) if exact else permuted.isclose(ket):
        return 1
    if (permuted == -ket) if exact else permuted.isclose(-ket):
        return -1
    return None


def classify_statistics(expansion: PermutationExpansion) -> StatisticsClass:
    """Classify by the action of all transpositions on the realized ket.

    Transpositions generate the full permutation group, so checking them
    alone decides invariance.
    """
    ket = expansion.realize()
    if ket.is_zero:
        raise InvalidValueError("expansion realizes the zero ket; statistics undefined")
    signs = {_permutation_sign(ket, t) for t in Permutation.transpositions(expansion.n_particles)}
    if signs == {-1}:
        return StatisticsClass.FERMI_DIRAC
    if signs == {1}:
        return StatisticsClass.BOSE_EINSTEIN
    return StatisticsClass.NEITHER


def invariance_signature(ket: Ket) -> dict[Permutation, int | None]:
    """Map each slot permutation to +1, -1, or ``None``.

    +1 when the permuted ket equals the original, -1 when it equals the
    negation, ``None`` otherwise.  The non-``None`` entries always form a
    subgroup carrying a sign character.
    """
    n = ket.n_particles
    if n > MAX_SIGNATURE_PARTICLES:
        raise SizeLimitError(f"signature supports up to {MAX_SIGNATURE_PARTICLES} slots")
    return {p: _permutation_sign(ket, p) for p in Permutation.all_of(n)}


def ground_state_energy(
    levels: Sequence[Fraction | float | int], particle_count: int
) -> Fraction | float | int:
    """Fill doubly degenerate levels from the bottom and total the energy."""
    if particle_count < 0:
        raise InvalidValueError("particle count must be nonnegative")
    levels = list(levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise InvalidValueError("levels must be strictly ascending")
    if particle_count > 2 * len(levels):
        raise CapacityError(
            f"{particle_count} particles exceed capacity {2 * len(levels)}"
        )
    full, rest = divmod(particle_count, 2)
    energy = 2 * sum(levels[:full])
    if rest:
        energy += levels[full]
    return energy
