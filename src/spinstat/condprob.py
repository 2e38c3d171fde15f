"""Conditional spin-sum distributions against squared coupling coefficients.

Two independent particles with a known single-particle projection law are
conditioned on their total projection; the resulting table can be compared
cell by cell with the squared coefficients of the corresponding coupled
state.  All probability arithmetic is exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import InvalidValueError, ShapeError, UndefinedConditionalError
from .exact import Rational
from .rotations import check_spin
from .spin_algebra import CoupledState, cg_decompose


@dataclass(frozen=True)
class SpinDistribution:
    """Law of a single particle's projection, P(M = m) for m = j ... -j."""

    j: Fraction
    probabilities: Mapping[Fraction, Fraction]

    def __post_init__(self) -> None:
        j = check_spin(self.j)
        values = [j - k for k in range(int(2 * j + 1))]
        probs = {Fraction(m): Fraction(p) for m, p in self.probabilities.items()}
        if set(probs) != set(values):
            raise ShapeError(f"need one probability for each of {values}")
        if any(p < 0 for p in probs.values()):
            raise InvalidValueError("probabilities must be nonnegative")
        if sum(probs.values()) != 1:
            raise InvalidValueError(f"probabilities sum to {sum(probs.values())}, not 1")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "probabilities", probs)

    @classmethod
    def uniform(cls, j: Rational = 1) -> "SpinDistribution":
        j = check_spin(j)
        dim = int(2 * j + 1)
        return cls(j, {j - k: Fraction(1, dim) for k in range(dim)})

    @classmethod
    def half_weighted(cls) -> "SpinDistribution":
        """The spin-1 law (1/4, 1/2, 1/4) of two independent half-spins."""
        quarter = Fraction(1, 4)
        return cls(Fraction(1), {Fraction(1): quarter, Fraction(0): 2 * quarter, Fraction(-1): quarter})

    def probability(self, m: Rational) -> Fraction:
        return self.probabilities.get(Fraction(m), Fraction(0))

    def values(self) -> list[Fraction]:
        return sorted(self.probabilities, reverse=True)


@dataclass(frozen=True)
class ConditionalTable:
    """P(M1 = m1, M2 = m2 | M1 + M2 = total), exact and normalized."""

    total: Fraction
    cells: Mapping[tuple[Fraction, Fraction], Fraction]

    def __post_init__(self) -> None:
        cells = {
            (Fraction(m1), Fraction(m2)): Fraction(p)
            for (m1, m2), p in self.cells.items()
        }
        for (m1, m2), p in cells.items():
            if m1 + m2 != self.total:
                raise ShapeError(f"cell ({m1},{m2}) does not sum to {self.total}")
            if p < 0:
                raise ValueError("probabilities must be nonnegative")
        if sum(cells.values()) != 1:
            raise ValueError(f"cells sum to {sum(cells.values())}, not 1")
        object.__setattr__(self, "total", Fraction(self.total))
        object.__setattr__(self, "cells", cells)

    def probability(self, m1: Rational, m2: Rational) -> Fraction:
        return self.cells.get((Fraction(m1), Fraction(m2)), Fraction(0))

    def items(self):
        return self.cells.items()


def conditional_given_total(
    d1: SpinDistribution, d2: SpinDistribution, total: Rational
) -> ConditionalTable:
    """Condition the independent product law on ``M1 + M2 = total``."""
    total = Fraction(total)
    joint: dict[tuple[Fraction, Fraction], Fraction] = {}
    event = Fraction(0)
    for m1, p1 in d1.probabilities.items():
        m2 = total - m1
        p2 = d2.probability(m2)
        p = p1 * p2
        if p > 0:
            joint[(m1, m2)] = p
            event += p
    if event == 0:
        raise UndefinedConditionalError(
            f"total projection {total} has probability zero"
        )
    return ConditionalTable(total, {k: p / event for k, p in joint.items()})


@dataclass(frozen=True)
class CgComparison:
    """Cell-by-cell gap between a conditional table and squared coefficients."""

    total: Fraction
    s: Fraction
    conditional: ConditionalTable
    cg_squares: Mapping[tuple[Fraction, Fraction], Fraction]
    deviations: Mapping[tuple[Fraction, Fraction], Fraction]

    @property
    def max_deviation(self) -> Fraction:
        return max(self.deviations.values(), default=Fraction(0))

    @property
    def matches(self) -> bool:
        return self.max_deviation == 0


def compare_with_cg(
    d: SpinDistribution, total: Rational, s: Rational = 2
) -> CgComparison:
    """Compare the conditional law of a spin-1 pair with a coupled state.

    The conditional table for ``M1 + M2 = total`` is set against the
    squared coefficients of the ``|s, total>`` row of the (1, 1) coupling
    table (the stretched s = 2 block by default).
    """
    if d.j != 1:
        raise ShapeError("comparison is defined for spin-1 single-particle laws")
    total = Fraction(total)
    s = Fraction(s)
    table = cg_decompose(1, 1)
    if (s, total) not in table:
        raise ShapeError(f"no coupled state with (s, m) = ({s}, {total})")
    row: CoupledState = table[(s, total)]
    conditional = conditional_given_total(d, d, total)
    squares = {pair: amp.squared() for pair, amp in row.amplitudes.items()}
    cells = set(squares) | set(conditional.cells)
    deviations = {
        pair: abs(conditional.probability(*pair) - squares.get(pair, Fraction(0)))
        for pair in cells
    }
    return CgComparison(total, s, conditional, squares, deviations)
