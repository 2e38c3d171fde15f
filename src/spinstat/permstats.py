"""Antisymmetrization, symmetrization, and permutation-statistics tools.

States built from a signed sum over all slot permutations flip sign under
every transposition (the exclusion-principle form); uniform sums are
invariant under every permutation; everything else is classified as
neither.  Sizes are factorial-guarded since expansions carry n! terms.

Every permutation is applied by relabeling an amplitude map through
:func:`~spinstat.kets.relabel_slots`.  An expansion adds the n-ary
:func:`~spinstat.kets.tensor_product` of its states once per permutation,
relabeled; float terms are ``c_sigma * (v_0 * ... * v_(n-1))`` and may
differ in the last bits from another order.  A sign test compares a ket's
relabeled map with the map and its negation, building no ket per permutation.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import CapacityError, InvalidValueError, NotPermutableError, ShapeError, SizeLimitError
from .exact import ExactScalar, Frozen
from .kets import (
    FLOAT, Ket, Label, Permutation, Scalar, amplitudes_close, join_modes, relabel_slots, tensor_product
)

MAX_PARTICLES = 6
MAX_SIGNATURE_PARTICLES = 5


def _check_states(states: Sequence[Ket]) -> None:
    if not 2 <= len(states) <= MAX_PARTICLES:
        raise SizeLimitError(f"need between 2 and {MAX_PARTICLES} states, got {len(states)}")
    dims = {s.dims for s in states}
    if len(dims) != 1 or len(next(iter(dims))) != 1:
        raise ShapeError("states must be single-slot kets of one common dimension")
    mode = None
    for s in states:
        mode = join_modes(mode, s.mode)


def _permutation_sum(
    states: Sequence[Ket],
    coefficient: Mapping[Permutation, Scalar],
) -> Ket:
    """Sum of ``c_sigma * |psi_sigma(0)> ⊗ ... ⊗ |psi_sigma(n-1)>`` terms.

    Term sigma is the product ``|psi_0> ⊗ ... ⊗ |psi_(n-1)>`` with its slots
    relabeled by ``sigma.image``, so the product is built once.  Exact
    coefficients multiply float states as complex numbers.  The states were
    checked when the expansion was built.
    """
    product = tensor_product(*states)
    exact = product.mode != FLOAT
    amps: dict[Label, Scalar] = {}
    for perm, coef in coefficient.items():
        if not exact:
            coef = complex(coef)
        if not coef:
            continue
        for label, amp in relabel_slots(product.amplitudes, perm.image).items():
            amp = coef * amp
            amps[label] = amps[label] + amp if label in amps else amp
    return Ket(product.dims, amps)


def _uniform_weight(states: Sequence[Ket]) -> ExactScalar:
    """1/sqrt(n!), the weight of each term of a pure expansion.

    The states are checked first, so a count beyond the limit fails before
    anything enumerates the n! permutations.
    """
    _check_states(states)
    return ExactScalar.sqrt(Fraction(1, math.factorial(len(states))))


def antisymmetrize(states: Sequence[Ket]) -> Ket:
    """Signed permutation sum with weight 1/sqrt(n!).

    Yields a unit-norm state when the inputs are orthonormal.  When two
    input states coincide, exact states cancel exactly to the zero ket;
    float states cancel only up to rounding, so large amplitudes can leave
    a residue above the 1e-15 floor below which a ``Ket`` drops entries.
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


class PermutationExpansion(Frozen):
    """Coefficients ``c_sigma`` over all n! slot permutations of n states.

    The coefficients are constants (independent of which concrete states
    are plugged in) and normalized so their squares sum to one.
    """

    __slots__ = ("states", "coefficients")
    states: tuple[Ket, ...]
    coefficients: Mapping[Permutation, ExactScalar]

    def __init__(self, states: Sequence[Ket], coefficients: Mapping[Permutation, ExactScalar]) -> None:
        states = tuple(states)
        _check_states(states)
        n = len(states)
        coeffs = dict(coefficients)
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

        For n >= 3: uniform weights, except that the permutations putting
        the last state first carry the sign of their remaining slots.
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
        coeffs = {p: Permutation(p.image[1:]).sign * w if p.image[0] == n - 1 else w for p in Permutation.all_of(n)}
        return cls(tuple(states), coeffs)

    def realize(self) -> Ket:
        """Expand into an n-slot ket."""
        return _permutation_sum(self.states, self.coefficients)


def _permutation_signs(ket: Ket, perms: Iterable[Permutation]) -> dict[Permutation, int | None]:
    """Map each ``p`` to +1 if relabeling by ``p.image`` keeps ``ket``, -1 if it negates it, else ``None``.

    Exact maps compare with ``==``, float ones with ``amplitudes_close``.  The relabeling is the
    inverse P^-1 of ``permute_slots``; the verdict is the same at any tolerance, since Pψ = sψ iff
    P^-1ψ = sψ for s = ±1, and a relabeling only permutes the labels' gaps to sψ.
    """
    amps = ket.amplitudes
    negated = {label: -amp for label, amp in amps.items()}
    same = operator.eq if ket.mode != FLOAT else amplitudes_close
    signs: dict[Permutation, int | None] = {}
    for p in perms:
        relabeled = relabel_slots(amps, p.image)
        signs[p] = 1 if same(relabeled, amps) else -1 if same(relabeled, negated) else None
    return signs


def classify_statistics(expansion: PermutationExpansion) -> StatisticsClass:
    """Classify by the action of all transpositions on the realized ket.

    Transpositions generate the full permutation group, so checking them
    alone decides invariance.
    """
    ket = expansion.realize()
    if ket.is_zero:
        raise InvalidValueError("expansion realizes the zero ket; statistics undefined")
    signs = set(_permutation_signs(ket, Permutation.transpositions(expansion.n_particles)).values())
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
    if len(set(ket.dims)) > 1:
        raise NotPermutableError(f"slots of unequal dimension {ket.dims} are not permutable")
    return _permutation_signs(ket, Permutation.all_of(n))


def ground_state_energy(
    levels: Sequence[Fraction | float | int], particle_count: int
) -> Fraction | float:
    """Fill doubly degenerate levels from the bottom and total the energy.

    The total starts at an exact ``Fraction(0)``, so no particles give an
    exact zero whatever the levels; a filled float level makes it a float.
    """
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
    energy = 2 * sum(levels[:full], Fraction(0))
    if rest:
        energy += levels[full]
    return energy
