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

A row of a coupling table, :class:`CoupledState`, is a two-slot
:class:`~spinstat.kets.Ket` over the product basis together with its
quantum numbers ``s, m, j1, j2`` and ladder step; its ``amplitudes`` are
the read-only view of that ket keyed by projection pair ``(m1, m2)``.

The rescaled operators ``S_i = n * L_i`` obey ``[S_i, S_j] = i*n*e_ijk*S_k``
and their ladder steps move the projection by ``n`` at a time, which is
what lets a two-valued spin-1 pair (photon-style, no m=0 reading) be
laddered without ever stepping onto the missing projection.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Literal, Mapping, NamedTuple

from .errors import IncompatibleRadicandsError, InvalidValueError, ShapeError, SizeLimitError
from .exact import ExactScalar, Frozen, Rational
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


class RescaledAlgebraCheck(NamedTuple):
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


class CoupledState(Frozen):
    """A total-spin eigenstate ``|s, m>`` and its expansion over the product basis.

    ``ket`` is a two-slot :class:`~spinstat.kets.Ket` indexed like every
    ket: slot label ``k`` holds projection ``spin_values(j, step)[k]``.
    ``step`` is the ladder step size: 1 for the full basis, ``n`` for a
    rescaled pair whose constituents skip intermediate projections.
    """

    __slots__ = ("s", "m", "j1", "j2", "ket", "step", "_amplitudes")
    s: Fraction
    m: Fraction
    j1: Fraction
    j2: Fraction
    ket: Ket
    step: int

    def __init__(self, s: Fraction, m: Fraction, j1: Fraction, j2: Fraction, ket: Ket, step: int = 1) -> None:
        values1, values2 = spin_values(j1, step), spin_values(j2, step)
        if ket.dims != (len(values1), len(values2)):
            raise ShapeError(f"ket dims {ket.dims} do not fit spins ({j1}, {j2}) at step {step}")
        # Label (a, b) holds m1 + m2 = j1 + j2 - step*(a + b).
        level = (j1 + j2 - m) / step
        for a, b in ket.amplitudes:
            if a + b != level:
                raise ShapeError(f"projections ({values1[a]},{values2[b]}) do not sum to m={m}")
        for name, value in zip(self.__slots__, (s, m, j1, j2, ket, step)):
            object.__setattr__(self, name, value)

    @property
    def amplitudes(self) -> Mapping[tuple[Fraction, Fraction], ExactScalar]:
        """The nonzero amplitudes keyed by projection pair ``(m1, m2)``: a read-only view of ``ket``."""
        try:
            return self._amplitudes
        except AttributeError:  # built on first use
            values1, values2 = spin_values(self.j1, self.step), spin_values(self.j2, self.step)
            view = MappingProxyType({(values1[a], values2[b]): amp for (a, b), amp in self.ket.amplitudes.items()})
            object.__setattr__(self, "_amplitudes", view)
            return view

    def norm_squared(self) -> Fraction | ExactScalar:
        return self.ket.norm_squared()

    def norm(self) -> ExactScalar:
        n2 = self.norm_squared()
        if isinstance(n2, ExactScalar):
            raise IncompatibleRadicandsError(f"squared norm {n2} is irrational; no exact norm")
        return ExactScalar.sqrt(n2)

    def normalized(self) -> "CoupledState":
        return CoupledState(self.s, self.m, self.j1, self.j2, self.ket.normalized(), self.step)


def _pair_ladder(images1: list[Ket], images2: list[Ket], ket: Ket) -> Ket:
    """``S± = S1± + S2±`` on a pair's product expansion, given each slot's ladder images."""
    return apply_to_slot(images1, ket, 0) + apply_to_slot(images2, ket, 1)


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
    n = state.step
    moved = _pair_ladder(ladder(state.j1, direction, n), ladder(state.j2, direction, n), state.ket)
    m = state.m + (n if direction == "+" else -n)
    return CoupledState(state.s, m, state.j1, state.j2, moved, n)


def _highest_weight(j1: Fraction, j2: Fraction, s: Fraction, step: int) -> CoupledState:
    """The unique unit state at m = s annihilated by the raising operator.

    Raising couples consecutive labels of the m = s level pairwise, so the
    kernel direction follows from a two-term recursion whose ratios stay
    single-radical; the sign convention fixes the highest-m1 coefficient
    positive.  At s = j1 + j2 the level holds the single label (0, 0).
    """
    values1, values2 = spin_values(j1, step), spin_values(j2, step)
    level = int((j1 + j2 - s) / step)  # a + b on the m = s level
    labels = [(a, level - a) for a in range(len(values1)) if 0 <= level - a < len(values2)]
    amps = {labels[0]: ExactScalar(1)}
    for (a, b), nxt in zip(labels, labels[1:]):
        ratio = ladder_factor(j2, values2[b], "+") / ladder_factor(j1, values1[a + 1], "+")
        amps[nxt] = -amps[(a, b)] * ratio
    return CoupledState(s, s, j1, j2, Ket((len(values1), len(values2)), amps).normalized(), step)


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
        row = table[(s, s)] = _highest_weight(j1, j2, s, step)
        for m in spin_values(s, step)[1:]:
            ket = _pair_ladder(lower1, lower2, row.ket).normalized()
            row = table[(s, m)] = CoupledState(s, m, j1, j2, ket, step)
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
