"""The rescaled ladder algebra and the coupling tables.

The spin operators have one form: the ladder
``L± |j,m> = sqrt((j∓m)(j±m+1)) |j,m±1>`` of :func:`~spinstat.kets.ladder`,
applied to one slot at a time by :func:`~spinstat.kets.apply_to_slot`.
:func:`ladder_apply` and the coupling tables apply it to both slots of a
pair, and :func:`verify_rescaled_algebra` to each basis ket ``|j,m>``.  The
y-component is purely imaginary, so the check writes ``L_y = i*Y`` with the
real ``Y = (L- - L+)/2``; every commutator identity then reduces to an
identity between real exact kets, and residuals come out exactly zero
rather than at rounding level.

The rescaled operators ``S_i = n * L_i`` obey ``[S_i, S_j] = i*n*e_ijk*S_k``
and their ladder steps move the projection by ``n`` at a time, which is
what lets a two-valued spin-1 pair (photon-style, no m=0 reading) be
laddered without ever stepping onto the missing projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Mapping

from .errors import InvalidValueError, ShapeError, SizeLimitError
from .exact import ExactScalar, Rational
from .kets import Ket, apply_to_slot, check_spin, ladder, ladder_factor, spin_values

MAX_COUPLED_SPIN = Fraction(9)


def _spin_operators(j: Fraction) -> tuple[list[Ket], ...]:
    """Each basis ket's image under ``L_z``, ``L+``, ``L-``, ``L_x`` and ``Y``, on one spin-j slot.

    ``L_x = (L+ + L-)/2``, and the real ``Y = (L- - L+)/2`` gives ``L_y = i*Y``.
    """
    dims = (int(2 * j) + 1,)
    lz = [Ket(dims, {(k,): m}) for k, m in enumerate(spin_values(j))]
    lplus, lminus = ladder(j, "+"), ladder(j, "-")
    half = Fraction(1, 2)
    lx = [(p + q).scale(half) for p, q in zip(lplus, lminus)]
    y = [(q - p).scale(half) for p, q in zip(lplus, lminus)]
    return lz, lplus, lminus, lx, y


@dataclass(frozen=True)
class RescaledAlgebraCheck:
    """Residuals of ``[S_i, S_j] = i*n*e_ijk*S_k`` for ``S = n*L``."""

    n: int
    j: Fraction
    max_residual: float
    ladder_product_identity: bool  # S∓S± == n^2 * L∓L±, both orders

    @property
    def holds(self) -> bool:
        return self.max_residual == 0.0 and self.ladder_product_identity


def verify_rescaled_algebra(n: int, j: Rational) -> RescaledAlgebraCheck:
    """Check the rescaled commutators exactly and the ladder products.

    Each identity is applied to every basis ket ``|j,m>``.  All three cyclic
    commutators reduce to real identities via ``L_y = i*Y``: the x-y
    commutator must equal ``n*S_z`` after dividing out ``i``, and so on
    around the cycle.  ``max_residual`` is the largest residual amplitude.
    """
    if n < 1:
        raise InvalidValueError("scale n must be a positive integer")
    j = check_spin(j)
    if j > MAX_COUPLED_SPIN:
        raise SizeLimitError(f"the algebra check supports spins up to {MAX_COUPLED_SPIN}")
    lz, lplus, lminus, lx, y = _spin_operators(j)
    sz, splus, sminus, sx, sy_imag = (
        [image.scale(n) for image in op] for op in (lz, lplus, lminus, lx, y)
    )
    residuals = []
    for k in range(len(lz)):
        # [Sx, Sy] = i(Sx Y' - Y' Sx) with Y' = n*Y must equal i*n*Sz.
        residuals.append(apply_to_slot(sx, sy_imag[k], 0) - apply_to_slot(sy_imag, sx[k], 0) - sz[k].scale(n))
        # [Sy, Sz] = i(Y' Sz - Sz Y') must equal i*n*Sx.
        residuals.append(apply_to_slot(sy_imag, sz[k], 0) - apply_to_slot(sz, sy_imag[k], 0) - sx[k].scale(n))
        # [Sz, Sx] is real and must equal i*n*Sy = -n*Y'.
        residuals.append(apply_to_slot(sz, sx[k], 0) - apply_to_slot(sx, sz[k], 0) + sy_imag[k].scale(n))
    max_residual = max(
        (abs(float(a)) for r in residuals for a in r.amplitudes.values()), default=0.0
    )
    n2 = n * n
    ladder_ok = all(
        apply_to_slot(sminus, splus[k], 0) == apply_to_slot(lminus, lplus[k], 0).scale(n2)
        and apply_to_slot(splus, sminus[k], 0) == apply_to_slot(lplus, lminus[k], 0).scale(n2)
        for k in range(len(lz))
    )
    return RescaledAlgebraCheck(n, j, max_residual, ladder_ok)


@dataclass(frozen=True)
class CoupledState:
    """A total-spin eigenstate expanded over the product basis |m1,m2>.

    ``step`` is the ladder step size: 1 for the full basis, ``n`` for a
    rescaled pair whose constituents skip intermediate projections.
    """

    s: Fraction
    m: Fraction
    j1: Fraction
    j2: Fraction
    amplitudes: Mapping[tuple[Fraction, Fraction], ExactScalar]
    step: int = 1

    def __post_init__(self) -> None:
        values1 = set(spin_values(self.j1, self.step))
        values2 = set(spin_values(self.j2, self.step))
        amps = {}
        for (m1, m2), amp in self.amplitudes.items():
            m1, m2 = Fraction(m1), Fraction(m2)
            if m1 not in values1 or m2 not in values2:
                raise ShapeError(f"projection ({m1},{m2}) outside the basis")
            if m1 + m2 != self.m:
                raise ShapeError(f"projections ({m1},{m2}) do not sum to m={self.m}")
            if not amp.is_zero:
                amps[(m1, m2)] = amp
        object.__setattr__(self, "amplitudes", amps)

    def norm_squared(self) -> Fraction:
        return sum((a.squared() for a in self.amplitudes.values()), Fraction(0))

    def norm(self) -> ExactScalar:
        return ExactScalar.sqrt(self.norm_squared())

    def normalized(self) -> "CoupledState":
        n2 = self.norm_squared()
        if n2 == 0:
            raise InvalidValueError("cannot normalize an empty state")
        scale = ExactScalar.sqrt(Fraction(1) / n2)
        return CoupledState(
            self.s,
            self.m,
            self.j1,
            self.j2,
            {k: a * scale for k, a in self.amplitudes.items()},
            self.step,
        )

    def to_ket(self) -> Ket:
        """Render over index labels ordered by descending projection."""
        values1 = spin_values(self.j1, self.step)
        values2 = spin_values(self.j2, self.step)
        amps = {
            (values1.index(m1), values2.index(m2)): a
            for (m1, m2), a in self.amplitudes.items()
        }
        return Ket((len(values1), len(values2)), amps)


def _coupled_row(s: Fraction, m: Fraction, j1: Fraction, j2: Fraction, ket: Ket, step: int) -> CoupledState:
    """The coupled state ``|s, m>`` whose product expansion is ``ket``."""
    values1, values2 = spin_values(j1, step), spin_values(j2, step)
    amps = {(values1[a], values2[b]): amp for (a, b), amp in ket.amplitudes.items()}
    return CoupledState(s, m, j1, j2, amps, step)


def ladder_apply(
    direction: Literal["+", "-"],
    state: CoupledState,
) -> CoupledState:
    """Apply ``S± = S1± + S2±`` on the product expansion, unnormalized.

    Each slot steps through :func:`~spinstat.kets.ladder` at the state's
    ``step``; the empty result at the end of a ladder is a zero state.
    """
    if direction not in ("+", "-"):
        raise ValueError("direction must be '+' or '-'")
    n, ket = state.step, state.to_ket()
    moved = apply_to_slot(ladder(state.j1, direction, n), ket, 0) + apply_to_slot(
        ladder(state.j2, direction, n), ket, 1
    )
    m = state.m + (n if direction == "+" else -n)
    return _coupled_row(state.s, m, state.j1, state.j2, moved, n)


def _highest_weight(j1: Fraction, j2: Fraction, s: Fraction, step: int) -> CoupledState:
    """The unique unit state at m = s annihilated by the raising operator.

    Raising couples consecutive labels of the m = s level pairwise, so the
    kernel direction follows from a two-term recursion whose ratios stay
    single-radical; the sign convention fixes the highest-m1 coefficient
    positive.  At s = j1 + j2 the level holds the single label (j1, j2).
    """
    labels = [(m1, s - m1) for m1 in spin_values(j1, step) if abs(s - m1) <= j2]
    amps = {labels[0]: ExactScalar(1)}
    for (x, y), nxt in zip(labels, labels[1:]):
        ratio = ladder_factor(j2, y, "+") / ladder_factor(j1, x - step, "+")
        amps[nxt] = -amps[(x, y)] * ratio
    return CoupledState(s, s, j1, j2, amps, step).normalized()


def _couple(j1: Fraction, j2: Fraction, step: int) -> dict[tuple[Fraction, Fraction], CoupledState]:
    """Every block s = j1 + j2, j1 + j2 - step, ... down to |j1 - j2|, keyed by (s, m).

    Each block starts from its highest-weight state and is laddered down
    ``step`` at a time to m = -s.
    """
    lower1, lower2 = ladder(j1, "-", step), ladder(j2, "-", step)
    table: dict[tuple[Fraction, Fraction], CoupledState] = {}
    for s in spin_values(j1 + j2, step):
        if s < abs(j1 - j2):
            break
        table[(s, s)] = _highest_weight(j1, j2, s, step)
        ket = table[(s, s)].to_ket()
        for m in spin_values(s, step)[1:]:
            ket = (apply_to_slot(lower1, ket, 0) + apply_to_slot(lower2, ket, 1)).normalized()
            table[(s, m)] = _coupled_row(s, m, j1, j2, ket, step)
    return table


def cg_decompose(
    j1: Rational, j2: Rational
) -> dict[tuple[Fraction, Fraction], CoupledState]:
    """All coupled states for a (j1, j2) pair, keyed by (s, m).

    Each block starts from its highest-weight state and is laddered down;
    coefficients are exact with the highest-m1 entry of each row positive.
    """
    j1, j2 = check_spin(j1), check_spin(j2)
    if j1 > MAX_COUPLED_SPIN or j2 > MAX_COUPLED_SPIN:
        raise SizeLimitError(f"coupling supports spins up to {MAX_COUPLED_SPIN}")
    return _couple(j1, j2, 1)


def photon_pair_table() -> dict[tuple[Fraction, Fraction], CoupledState]:
    """Coupled states of a two-valued spin-1 pair via n = 2 ladders.

    The constituents carry only the ±1 projections, so this is the (1, 1)
    coupling laddered two steps at a time: the blocks are s = 2 (m = 2, 0,
    -2) and s = 0, and the rescaled lowering operator never steps onto the
    missing m = 0 projection.
    """
    return _couple(Fraction(1), Fraction(1), 2)
