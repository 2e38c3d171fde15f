import itertools
from fractions import Fraction

import pytest

from spinstat.errors import SizeLimitError
from spinstat.exact import ExactScalar
from spinstat.kets import inner_product
from spinstat.rotations import spin_j_singlet
from spinstat.spin_algebra import (
    MAX_COUPLED_SPIN,
    CoupledState,
    ExactMatrix,
    angular_momentum_matrices,
    cg_decompose,
    ladder_apply,
    photon_pair_table,
    verify_rescaled_algebra,
)

HALF = Fraction(1, 2)
ONE = ExactScalar(1)


def sq(value) -> ExactScalar:
    return ExactScalar.sqrt(Fraction(value))


def test_lz_is_diagonal_projection_ladder():
    half = angular_momentum_matrices(HALF)
    assert half.lz == ExactMatrix.diagonal([HALF, -HALF])
    one = angular_momentum_matrices(1)
    assert one.lz == ExactMatrix.diagonal([1, 0, -1])
    assert one.lplus.rows[0][1] == sq(2)
    assert one.lminus.rows[1][0] == sq(2)


def test_casimir_is_j_j_plus_one():
    for j in (HALF, 1, Fraction(3, 2), 2):
        ops = angular_momentum_matrices(j)
        expected = ExactMatrix.identity(ops.dim).scale(j * (j + 1))
        assert ops.casimir() == expected


def test_ladder_commutators_exact():
    for j in (HALF, 1, Fraction(3, 2), 2):
        ops = angular_momentum_matrices(j)
        assert ops.lz @ ops.lplus - ops.lplus @ ops.lz == ops.lplus
        assert ops.lminus @ ops.lz - ops.lz @ ops.lminus == ops.lminus
        two_lz = ops.lz.scale(2)
        assert ops.lplus @ ops.lminus - ops.lminus @ ops.lplus == two_lz


def test_numpy_matrices_satisfy_xy_commutator():
    # Once a float check on numpy copies; now exact on the ExactMatrix set.
    for j in (HALF, 1, Fraction(3, 2), 2):
        ops = angular_momentum_matrices(j)
        # [L_x, L_y] = i*L_z with L_y = i*Y is the real identity [L_x, Y] = L_z.
        assert ops.lx @ ops.ly_imag - ops.ly_imag @ ops.lx == ops.lz


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("j", [HALF, 1, Fraction(3, 2), 2])
def test_rescaled_algebra_exactly_zero(n, j):
    check = verify_rescaled_algebra(n, j)
    assert check.max_residual == 0.0
    assert check.ladder_product_identity
    assert check.holds


def test_rescaled_algebra_named_cases():
    for n, j in ((1, HALF), (2, Fraction(1)), (4, Fraction(2))):
        assert verify_rescaled_algebra(n, j).holds


def coupled(s, m, j1, j2, amps, step=1):
    return CoupledState(
        Fraction(s), Fraction(m), Fraction(j1), Fraction(j2),
        {(Fraction(a), Fraction(b)): v for (a, b), v in amps.items()},
        step,
    )


def test_photon_ladder_reproduces_printed_steps():
    table = photon_pair_table()
    top = table[(Fraction(2), Fraction(2))]
    assert top.amplitudes == {(Fraction(1), Fraction(1)): ONE}
    lowered = ladder_apply("-", top)
    assert lowered.norm() == ExactScalar(4)
    middle = table[(Fraction(2), Fraction(0))]
    assert lowered.normalized() == middle
    assert middle == coupled(2, 0, 1, 1, {(1, -1): sq(HALF), (-1, 1): sq(HALF)}, step=2)
    assert table[(Fraction(2), Fraction(-2))].amplitudes == {
        (Fraction(-1), Fraction(-1)): ONE
    }
    singlet = table[(Fraction(0), Fraction(0))]
    assert singlet == coupled(0, 0, 1, 1, {(1, -1): sq(HALF), (-1, 1): -sq(HALF)}, step=2)


def test_photon_ladder_ends_in_zero_state():
    bottom = photon_pair_table()[(Fraction(2), Fraction(-2))]
    assert ladder_apply("-", bottom).is_zero


def test_unrescaled_ladder_on_two_half_spins():
    top = coupled(1, 1, HALF, HALF, {(HALF, HALF): ONE})
    lowered = ladder_apply("-", top)
    assert lowered.norm() == sq(2)
    expected = cg_decompose(HALF, HALF)[(Fraction(1), Fraction(0))]
    assert lowered.normalized() == expected


def test_half_half_table():
    table = cg_decompose(HALF, HALF)
    w = sq(HALF)
    assert table[(Fraction(1), Fraction(1))].amplitudes == {(HALF, HALF): ONE}
    assert table[(Fraction(1), Fraction(0))] == coupled(
        1, 0, HALF, HALF, {(HALF, -HALF): w, (-HALF, HALF): w}
    )
    assert table[(Fraction(0), Fraction(0))] == coupled(
        0, 0, HALF, HALF, {(HALF, -HALF): w, (-HALF, HALF): -w}
    )


def test_one_one_table_frozen_values():
    table = cg_decompose(1, 1)
    w2, w3, w6 = sq(HALF), sq(Fraction(1, 3)), sq(Fraction(1, 6))
    expected = {
        (2, 2): {(1, 1): ONE},
        (2, 1): {(1, 0): w2, (0, 1): w2},
        (2, 0): {(0, 0): sq(Fraction(2, 3)), (1, -1): w6, (-1, 1): w6},
        (2, -1): {(0, -1): w2, (-1, 0): w2},
        (2, -2): {(-1, -1): ONE},
        (1, 1): {(1, 0): w2, (0, 1): -w2},
        (1, 0): {(1, -1): w2, (-1, 1): -w2},
        (1, -1): {(0, -1): w2, (-1, 0): -w2},
        (0, 0): {(1, -1): w3, (0, 0): -w3, (-1, 1): w3},
    }
    assert set(table) == {(Fraction(s), Fraction(m)) for s, m in expected}
    for (s, m), amps in expected.items():
        assert table[(Fraction(s), Fraction(m))] == coupled(s, m, 1, 1, amps)


def test_one_half_table_has_exact_mixed_radicals():
    table = cg_decompose(1, HALF)
    top_block = table[(Fraction(3, 2), HALF)]
    assert top_block == coupled(
        Fraction(3, 2), HALF, 1, HALF,
        {(1, -HALF): sq(Fraction(1, 3)), (0, HALF): sq(Fraction(2, 3))},
    )
    low_block = table[(HALF, HALF)]
    assert low_block == coupled(
        HALF, HALF, 1, HALF,
        {(1, -HALF): sq(Fraction(2, 3)), (0, HALF): -sq(Fraction(1, 3))},
    )


@pytest.mark.parametrize(
    "j1, j2",
    [(HALF, HALF), (1, 1), (1, HALF), (Fraction(3, 2), 1), (2, 2), (3, HALF)],
)
def test_table_rows_are_exactly_orthonormal(j1, j2):
    table = cg_decompose(j1, j2)
    kets = {key: state.to_ket() for key, state in table.items()}
    for a, b in itertools.combinations_with_replacement(sorted(kets), 2):
        value = inner_product(kets[a], kets[b])
        assert value == (ExactScalar(1) if a == b else ExactScalar(0))


# The first four pairs keep their test ids; the last sits at the size limit.
@pytest.mark.parametrize(
    "j1, j2",
    [
        (HALF, HALF), (1, 1), (1, HALF), (Fraction(3, 2), 1),
        (2, 2), (3, HALF), (3, 3), (MAX_COUPLED_SPIN, MAX_COUPLED_SPIN),
    ],
)
def test_rows_are_total_spin_eigenvectors(j1, j2):
    """S^2 = S-S+ + Sz^2 + Sz, so each row obeys S-S+ psi + m(m+1) psi = s(s+1) psi.

    S_z needs no check: a CoupledState only holds terms with m1 + m2 = m.
    """
    for (s, m), state in cg_decompose(j1, j2).items():
        ket = state.to_ket()
        lowered_raised = ladder_apply("-", ladder_apply("+", state)).to_ket()
        assert lowered_raised + m * (m + 1) * ket == s * (s + 1) * ket, (s, m)
        assert state.norm_squared() == 1


def test_photon_table_matches_restricted_pair_block():
    table = cg_decompose(1, 1)
    photon = photon_pair_table()
    stretched = table[(Fraction(2), Fraction(0))]
    restricted = {
        pair: amp
        for pair, amp in stretched.amplitudes.items()
        if 0 not in (pair[0], pair[1])
    }
    renormalized = coupled(2, 0, 1, 1, restricted, step=2).normalized()
    assert renormalized == photon[(Fraction(2), Fraction(0))]


def test_pair_singlets_agree_across_modules():
    for j in (HALF, 1, Fraction(3, 2), 2):
        row = cg_decompose(j, j)[(Fraction(0), Fraction(0))]
        assert row.to_ket().equals_up_to_sign(spin_j_singlet(j))


def cg_cells(j1, j2):
    """(state, m1, m2) for every cell of the (j1, j2) table, rows in table order."""
    for (s, m), state in cg_decompose(j1, j2).items():
        m1 = j1
        while m1 >= -j1:
            if abs(m - m1) <= j2:
                yield state, m1, m - m1
            m1 -= 1


def assert_matches_racah_formula(cells):
    sympy = pytest.importorskip("sympy")
    wigner = pytest.importorskip("sympy.physics.wigner")

    def rational(x):
        return sympy.Rational(x.numerator, x.denominator)

    for state, m1, m2 in cells:
        j1, j2, s, m = state.j1, state.j2, state.s, state.m
        expected = wigner.clebsch_gordan(*map(rational, (j1, j2, s, m1, m2, m)))
        square = Fraction(str(expected**2))
        sign = -1 if expected < 0 else 1
        assert state.coefficient(m1, m2) == sign * sq(square), (s, m, m1, m2)


@pytest.mark.parametrize("j1", [Fraction(k, 2) for k in range(7)])
@pytest.mark.parametrize("j2", [Fraction(k, 2) for k in range(7)])
def test_cg_tables_match_sympy_racah_formula(j1, j2):
    assert_matches_racah_formula(cg_cells(j1, j2))


@pytest.mark.parametrize(
    "j1, j2", [(MAX_COUPLED_SPIN, MAX_COUPLED_SPIN), (MAX_COUPLED_SPIN - HALF, MAX_COUPLED_SPIN)]
)
def test_cg_tables_at_the_size_limit_match_sympy_on_a_sample(j1, j2):
    # Every 11th of the 4579 and 4218 cells: about 400 cells that still
    # visit every total spin s and every m1 column.
    assert_matches_racah_formula(itertools.islice(cg_cells(j1, j2), 0, None, 11))


def test_size_guard():
    above = MAX_COUPLED_SPIN + HALF
    with pytest.raises(SizeLimitError):
        cg_decompose(above, 1)
    with pytest.raises(SizeLimitError):
        cg_decompose(HALF, above)
    assert verify_rescaled_algebra(1, MAX_COUPLED_SPIN).holds
    with pytest.raises(SizeLimitError):
        verify_rescaled_algebra(1, above)
