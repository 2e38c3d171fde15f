"""The spin-j ladder, the rescaled ladder algebra, and coupling tables.

The spin operators have one form: the ladder
``L± |j,m> = sqrt((j∓m)(j±m+1)) |j,m±1>`` of :func:`ladder_factor`, applied
sparsely and exactly.  :func:`ladder_apply` applies it to the product
expansion of a coupled pair, and :func:`verify_rescaled_algebra` applies
``L+``, ``L-`` and ``L_z`` to each basis ket ``|j,m>`` of one slot.  The
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
from typing import Literal, Mapping, Sequence

from .errors import InvalidValueError, ShapeError, SizeLimitError
from .exact import ExactScalar, Rational
from .kets import Ket, check_spin, spin_values

MAX_COUPLED_SPIN = Fraction(9)


def ladder_factor(j: Fraction, m: Fraction, direction: Literal["+", "-"]) -> ExactScalar:
    """sqrt((j-m)(j+m+1)) for raising, sqrt((j+m)(j-m+1)) for lowering."""
    if direction == "+":
        return ExactScalar.sqrt((j - m) * (j + m + 1))
    return ExactScalar.sqrt((j + m) * (j - m + 1))


def _spin_operators(j: Fraction) -> tuple[list[Ket], ...]:
    """Each basis ket's image under ``L_z``, ``L+``, ``L-``, ``L_x`` and ``Y``, on one spin-j slot.

    Label ``k`` holds ``m = j - k``, the order of :func:`spin_values`, so
    ``L+`` moves label ``k`` to ``k - 1`` and ``L-`` moves it to ``k + 1``.
    ``L_x = (L+ + L-)/2``, and the real ``Y = (L- - L+)/2`` gives
    ``L_y = i*Y``.
    """
    dims = (int(2 * j) + 1,)
    lz, lplus, lminus = [], [], []
    for k, m in enumerate(spin_values(j)):
        lz.append(Ket(dims, {(k,): m}))
        lplus.append(Ket(dims, {(k - 1,): ladder_factor(j, m, "+")} if m < j else {}))
        lminus.append(Ket(dims, {(k + 1,): ladder_factor(j, m, "-")} if m > -j else {}))
    half = Fraction(1, 2)
    lx = [(p + q).scale(half) for p, q in zip(lplus, lminus)]
    y = [(q - p).scale(half) for p, q in zip(lplus, lminus)]
    return lz, lplus, lminus, lx, y


def _apply(images: Sequence[Ket], ket: Ket) -> Ket:
    """Apply to a one-slot ket the operator that sends basis label ``k`` to ``images[k]``."""
    out = Ket.zero(ket.dims)
    for (k,), amp in ket.amplitudes.items():
        out = out + images[k].scale(amp)
    return out


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
        residuals.append(_apply(sx, sy_imag[k]) - _apply(sy_imag, sx[k]) - sz[k].scale(n))
        # [Sy, Sz] = i(Y' Sz - Sz Y') must equal i*n*Sx.
        residuals.append(_apply(sy_imag, sz[k]) - _apply(sz, sy_imag[k]) - sx[k].scale(n))
        # [Sz, Sx] is real and must equal i*n*Sy = -n*Y'.
        residuals.append(_apply(sz, sx[k]) - _apply(sx, sz[k]) + sy_imag[k].scale(n))
    max_residual = max(
        (abs(float(a)) for r in residuals for a in r.amplitudes.values()), default=0.0
    )
    n2 = n * n
    ladder_ok = all(
        _apply(sminus, splus[k]) == _apply(lminus, lplus[k]).scale(n2)
        and _apply(splus, sminus[k]) == _apply(lplus, lminus[k]).scale(n2)
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


def ladder_apply(
    direction: Literal["+", "-"],
    state: CoupledState,
) -> CoupledState:
    """Apply ``S± = S1± + S2±`` on the product expansion, unnormalized.

    Each constituent term picks up ``n * sqrt((j∓m)(j±m+1))`` and moves its
    projection by ``n``, the state's ``step``; terms stepping outside the
    basis vanish, and the empty result at the end of a ladder is returned as
    a zero state.
    """
    if direction not in ("+", "-"):
        raise ValueError("direction must be '+' or '-'")
    n = state.step
    delta = n if direction == "+" else -n
    spins = (state.j1, state.j2)
    amps: dict[tuple[Fraction, Fraction], ExactScalar] = {}
    for (m1, m2), amp in state.amplitudes.items():
        for slot, m_slot in ((0, m1), (1, m2)):
            new_m = m_slot + delta
            if not -spins[slot] <= new_m <= spins[slot]:
                continue
            factor = ladder_factor(spins[slot], m_slot, direction) * n
            target = (new_m, m2) if slot == 0 else (m1, new_m)
            contribution = amp * factor
            if target in amps:
                amps[target] = amps[target] + contribution
            else:
                amps[target] = contribution
    return CoupledState(state.s, state.m + delta, state.j1, state.j2, amps, state.step)


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
    table: dict[tuple[Fraction, Fraction], CoupledState] = {}
    for s in spin_values(j1 + j2, step):
        if s < abs(j1 - j2):
            break
        state = table[(s, s)] = _highest_weight(j1, j2, s, step)
        while state.m > -s:
            state = ladder_apply("-", state).normalized()
            table[(s, state.m)] = state
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
