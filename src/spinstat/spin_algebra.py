"""Angular momentum matrices, the rescaled ladder algebra, and coupling tables.

Matrices are kept in exact form.  The y-component is purely imaginary, so
it is stored through its imaginary part ``Y`` with ``L_y = i*Y``; every
commutator identity then reduces to an identity between real exact
matrices and residuals come out exactly zero rather than at rounding
level.

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


@dataclass(frozen=True)
class ExactMatrix:
    """A small dense matrix of :class:`ExactScalar` entries."""

    rows: tuple[tuple[ExactScalar, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ShapeError("ragged matrix")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(
            tuple(
                tuple(ExactScalar(1 if i == j else 0) for j in range(n))
                for i in range(n)
            )
        )

    @classmethod
    def diagonal(cls, values: Sequence[Rational]) -> "ExactMatrix":
        n = len(values)
        return cls(
            tuple(
                tuple(ExactScalar(values[i] if i == j else 0) for j in range(n))
                for i in range(n)
            )
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        out = []
        for i in range(n):
            row = []
            for j in range(m):
                acc = ExactScalar(0)
                for t in range(k):
                    acc = acc + self.rows[i][t] * other.rows[t][j]
                row.append(acc)
            out.append(tuple(row))
        return ExactMatrix(tuple(out))

    def scale(self, factor: ExactScalar | Rational) -> "ExactMatrix":
        return ExactMatrix(
            tuple(tuple(e * factor for e in row) for row in self.rows)
        )

    def max_abs(self) -> float:
        return max((abs(float(e)) for row in self.rows for e in row), default=0.0)


@dataclass(frozen=True)
class AngularMomentumSet:
    """Exact spin-j matrices over the basis ``|j,j>, |j,j-1>, ..., |j,-j>``.

    ``ly_imag`` is the real matrix ``Y`` with ``L_y = i*Y``; ``lx``,
    ``lplus``, ``lminus``, and ``lz`` are real as stored.
    """

    j: Fraction
    lz: ExactMatrix
    lplus: ExactMatrix
    lminus: ExactMatrix
    lx: ExactMatrix
    ly_imag: ExactMatrix

    @property
    def dim(self) -> int:
        return int(2 * self.j + 1)

    def casimir(self) -> ExactMatrix:
        """L^2 = L_x^2 + L_y^2 + L_z^2 (with L_y^2 = -Y @ Y)."""
        return self.lx @ self.lx - self.ly_imag @ self.ly_imag + self.lz @ self.lz


def ladder_factor(j: Fraction, m: Fraction, direction: Literal["+", "-"]) -> ExactScalar:
    """sqrt((j-m)(j+m+1)) for raising, sqrt((j+m)(j-m+1)) for lowering."""
    if direction == "+":
        return ExactScalar.sqrt((j - m) * (j + m + 1))
    return ExactScalar.sqrt((j + m) * (j - m + 1))


def angular_momentum_matrices(j: Rational) -> AngularMomentumSet:
    """Standard matrices with L±|j,m> = sqrt((j∓m)(j±m+1)) |j,m±1>."""
    j = check_spin(j)
    ms = spin_values(j)
    dim = len(ms)
    lz = ExactMatrix.diagonal(ms)
    zero = ExactScalar(0)
    plus_rows = [[zero] * dim for _ in range(dim)]
    minus_rows = [[zero] * dim for _ in range(dim)]
    for col, m in enumerate(ms):
        if m < j:
            plus_rows[col - 1][col] = ladder_factor(j, m, "+")
        if m > -j:
            minus_rows[col + 1][col] = ladder_factor(j, m, "-")
    lplus = ExactMatrix(tuple(tuple(r) for r in plus_rows))
    lminus = ExactMatrix(tuple(tuple(r) for r in minus_rows))
    half = Fraction(1, 2)
    lx = (lplus + lminus).scale(half)
    ly_imag = (lminus - lplus).scale(half)
    return AngularMomentumSet(j, lz, lplus, lminus, lx, ly_imag)


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

    All three cyclic commutators reduce to real matrix identities via
    ``L_y = i*Y``: the x-y commutator must equal ``n*S_z`` after dividing
    out ``i``, and so on around the cycle.
    """
    if n < 1:
        raise InvalidValueError("scale n must be a positive integer")
    j = check_spin(j)
    if j > MAX_COUPLED_SPIN:
        raise SizeLimitError(f"the algebra check supports spins up to {MAX_COUPLED_SPIN}")
    ops = angular_momentum_matrices(j)
    sx = ops.lx.scale(n)
    sy_imag = ops.ly_imag.scale(n)
    sz = ops.lz.scale(n)
    # [Sx, Sy] = i(Sx@Y' - Y'@Sx) with Y' = n*Y must equal i*n*Sz.
    r1 = (sx @ sy_imag - sy_imag @ sx) - sz.scale(n)
    # [Sy, Sz] = i(Y'@Sz - Sz@Y') must equal i*n*Sx.
    r2 = (sy_imag @ sz - sz @ sy_imag) - sx.scale(n)
    # [Sz, Sx] is real and must equal i*n*Sy = -n*Y'.
    r3 = (sz @ sx - sx @ sz) + sy_imag.scale(n)
    max_residual = max(r.max_abs() for r in (r1, r2, r3))
    n2 = n * n
    splus = ops.lplus.scale(n)
    sminus = ops.lminus.scale(n)
    ladder_ok = (
        sminus @ splus == (ops.lminus @ ops.lplus).scale(n2)
        and splus @ sminus == (ops.lplus @ ops.lminus).scale(n2)
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

    @property
    def is_zero(self) -> bool:
        return not self.amplitudes

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
