import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from spinstat import kets
from spinstat.errors import IncompatibleRadicandsError, InvalidValueError, ShapeError, SizeLimitError
from spinstat.exact import ExactScalar
from spinstat.kets import Ket, apply_to_slot, inner_product, ladder, ladder_factor, spin_values
from spinstat.rotations import spin_j_singlet
from spinstat.spin_algebra import (
    MAX_COUPLED_SPIN,
    CoupledState,
    _spin_operators,
    cg_decompose,
    ladder_apply,
    photon_pair_table,
    verify_rescaled_algebra,
)

HALF = Fraction(1, 2)
UNIT = ExactScalar(1)


def sq(value) -> ExactScalar:
    return ExactScalar.sqrt(Fraction(value))


SPINS = (HALF, Fraction(1), Fraction(3, 2), Fraction(2))


def basis(j):
    dim = int(2 * j) + 1
    return [Ket.basis((dim,), (k,)) for k in range(dim)]


def act(images, ket):
    return apply_to_slot(images, ket, 0)


def commutator(a, b, ket):
    return act(a, act(b, ket)) - act(b, act(a, ket))


def test_lz_is_diagonal_projection_ladder():
    for j in SPINS:
        lz, lplus, lminus, _, _ = _spin_operators(j)
        kets = basis(j)
        for k, m in enumerate(spin_values(j)):
            assert lz[k] == kets[k].scale(m)
            # L+ and L- move one label each way, and vanish at the ends of the ladder.
            assert set(lplus[k].amplitudes) == ({(k - 1,)} if m < j else set())
            assert set(lminus[k].amplitudes) == ({(k + 1,)} if m > -j else set())
    half_lz = [ket.amplitudes for ket in _spin_operators(HALF)[0]]
    assert half_lz == [{(0,): ExactScalar(HALF)}, {(1,): ExactScalar(-HALF)}]
    _, lplus, lminus, _, _ = _spin_operators(Fraction(1))
    assert lplus[1].amplitudes == {(0,): sq(2)}
    assert lminus[0].amplitudes == {(1,): sq(2)}
    _, lplus, lminus, _, _ = _spin_operators(Fraction(3, 2))
    assert lplus[2].amplitudes == {(1,): ExactScalar(2)}
    assert lminus[0].amplitudes == {(1,): sq(3)}


def test_casimir_is_j_j_plus_one():
    for j in SPINS:
        lz, _, _, lx, y = _spin_operators(j)
        for k, ket in enumerate(basis(j)):
            casimir = act(lx, lx[k]) - act(y, y[k]) + act(lz, lz[k])
            assert casimir == ket.scale(j * (j + 1))


def test_ladder_commutators_exact():
    for j in SPINS:
        lz, lplus, lminus, _, _ = _spin_operators(j)
        for ket in basis(j):
            assert commutator(lz, lplus, ket) == act(lplus, ket)
            assert commutator(lminus, lz, ket) == act(lminus, ket)
            assert commutator(lplus, lminus, ket) == act(lz, ket).scale(2)


def test_xy_commutator_is_lz():
    for j in SPINS:
        lz, _, _, lx, y = _spin_operators(j)
        for ket in basis(j):
            # [L_x, L_y] = i*L_z with L_y = i*Y is the real identity [L_x, Y] = L_z.
            assert commutator(lx, y, ket) == act(lz, ket)


@pytest.mark.parametrize("j", [Fraction(k, 2) for k in range(2 * int(MAX_COUPLED_SPIN) + 1)])
def test_ladder_factor_matches_sympy_spin_operators(j):
    sympy = pytest.importorskip("sympy")
    spin = pytest.importorskip("sympy.physics.quantum.spin")
    from sympy.physics.quantum.constants import hbar
    from sympy.physics.quantum.represent import represent

    ms = spin_values(j)
    for operator, direction, shift in ((spin.Jplus, "+", -1), (spin.Jminus, "-", 1)):
        # sympy orders the Jz basis m = j, j-1, ..., -j, as spin_values does.
        matrix = represent(operator, basis=spin.Jz, j=sympy.Rational(j.numerator, j.denominator))
        matrix = matrix.subs(hbar, 1)
        for col, m in enumerate(ms):
            factor = ladder_factor(j, m, direction)
            for row in range(len(ms)):
                expected = matrix[row, col]
                assert expected >= 0
                ours = factor if row == col + shift else ExactScalar(0)
                assert ours == sq(Fraction(str(expected**2))), (direction, row, col)
        assert ladder_factor(j, j if direction == "+" else -j, direction) == ExactScalar(0)


def test_algebra_check_fails_on_a_wrong_ladder(monkeypatch):
    # The +1 dropped, in both directions: L+|j,-j> and L-|j,j> vanish.
    def wrong(j, m, direction):
        return ExactScalar.sqrt((j - m) * (j + m))

    monkeypatch.setattr(kets, "ladder_factor", wrong)
    check = verify_rescaled_algebra(1, 1)
    assert check.max_residual > 0
    assert not check.holds
    # The coupling tables lower through the same ladder: L-|1,1> now
    # vanishes, so the s = 2 block cannot be normalized below its top.
    with pytest.raises(InvalidValueError, match="zero ket"):
        cg_decompose(1, 1)


def test_photon_constituents_lower_two_steps_at_once():
    # The constituents carry m = 1, -1 only: 2*L- sends |1> to 2*sqrt(2)|-1>, and |-1> to 0.
    lower = ladder(Fraction(1), "-", 2)
    assert lower == [Ket((2,), {(1,): sq(8)}), Ket.zero((2,))]
    table = photon_pair_table()
    top = table[(Fraction(2), Fraction(2))].ket
    lowered = apply_to_slot(lower, top, 0) + apply_to_slot(lower, top, 1)
    assert lowered == ladder_apply("-", table[(Fraction(2), Fraction(2))]).ket
    assert lowered.normalized() == table[(Fraction(2), Fraction(0))].ket


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
    """The row ``|s, m>`` with amplitude ``amps[(m1, m2)]`` on each product state."""
    values1, values2 = spin_values(Fraction(j1), step), spin_values(Fraction(j2), step)
    ket = Ket(
        (len(values1), len(values2)),
        {(values1.index(Fraction(a)), values2.index(Fraction(b))): v for (a, b), v in amps.items()},
    )
    return CoupledState(Fraction(s), Fraction(m), Fraction(j1), Fraction(j2), ket, step)


def test_coupled_state_refuses_a_ket_of_the_wrong_dims():
    # A (1/2, 1/2) pair has 2 x 2 product states; at step 2 a spin-1 slot has 2, not 3.
    with pytest.raises(ShapeError, match="dims"):
        CoupledState(Fraction(1), Fraction(1), HALF, HALF, Ket((3, 2), {(0, 0): UNIT}))
    with pytest.raises(ShapeError, match="dims"):
        CoupledState(Fraction(2), Fraction(2), Fraction(1), Fraction(1), Ket((3, 3), {(0, 0): UNIT}), 2)


def test_coupled_state_refuses_projections_off_its_m():
    # Label (0, 0) is (m1, m2) = (1/2, 1/2), which sums to 1, not 0.
    with pytest.raises(ShapeError, match="do not sum to m=0"):
        CoupledState(Fraction(1), Fraction(0), HALF, HALF, Ket((2, 2), {(0, 1): UNIT, (0, 0): UNIT}))
    with pytest.raises(ShapeError, match="do not sum"):
        coupled(1, 0, 1, 1, {(1, -1): UNIT, (0, 1): UNIT})


def test_photon_ladder_reproduces_printed_steps():
    table = photon_pair_table()
    top = table[(Fraction(2), Fraction(2))]
    assert top.amplitudes == {(Fraction(1), Fraction(1)): UNIT}
    lowered = ladder_apply("-", top)
    assert lowered.norm() == ExactScalar(4)
    middle = table[(Fraction(2), Fraction(0))]
    assert lowered.normalized() == middle
    assert middle == coupled(2, 0, 1, 1, {(1, -1): sq(HALF), (-1, 1): sq(HALF)}, step=2)
    assert table[(Fraction(2), Fraction(-2))].amplitudes == {
        (Fraction(-1), Fraction(-1)): UNIT
    }
    singlet = table[(Fraction(0), Fraction(0))]
    assert singlet == coupled(0, 0, 1, 1, {(1, -1): sq(HALF), (-1, 1): -sq(HALF)}, step=2)


def test_photon_ladder_ends_in_zero_state():
    bottom = photon_pair_table()[(Fraction(2), Fraction(-2))]
    assert ladder_apply("-", bottom).amplitudes == {}


def test_unrescaled_ladder_on_two_half_spins():
    top = coupled(1, 1, HALF, HALF, {(HALF, HALF): UNIT})
    lowered = ladder_apply("-", top)
    assert lowered.norm() == sq(2)
    expected = cg_decompose(HALF, HALF)[(Fraction(1), Fraction(0))]
    assert lowered.normalized() == expected


def test_irrational_squared_norm_has_no_exact_norm():
    row = coupled(1, 0, HALF, HALF, {(HALF, -HALF): UNIT, (-HALF, HALF): sq(2)})
    lowered = ladder_apply("-", row)
    assert lowered.amplitudes == {(-HALF, -HALF): UNIT + sq(2)}
    with pytest.raises(IncompatibleRadicandsError):
        lowered.norm()
    with pytest.raises(IncompatibleRadicandsError):
        lowered.normalized()


def test_half_half_table():
    table = cg_decompose(HALF, HALF)
    w = sq(HALF)
    assert table[(Fraction(1), Fraction(1))].amplitudes == {(HALF, HALF): UNIT}
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
        (2, 2): {(1, 1): UNIT},
        (2, 1): {(1, 0): w2, (0, 1): w2},
        (2, 0): {(0, 0): sq(Fraction(2, 3)), (1, -1): w6, (-1, 1): w6},
        (2, -1): {(0, -1): w2, (-1, 0): w2},
        (2, -2): {(-1, -1): UNIT},
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
    kets = {key: state.ket for key, state in table.items()}
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
        ket = state.ket
        lowered_raised = ladder_apply("-", ladder_apply("+", state)).ket
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


# perfbench's workloads import their inputs module and numpy; running them in
# a child without bytecode leaves nothing written under perfbench/.
BENCHMARK_TABLE_CHECKS = """
from spinstat.spin_algebra import cg_decompose, photon_pair_table
from workloads import REFERENCE, SPINS, check_row_orthonormality, table_digest

tables = {f"{j1},{j2}": (cg_decompose(j1, j2), REFERENCE["cg"][f"{j1},{j2}"]) for j1 in SPINS for j2 in SPINS}
tables["photon"] = (photon_pair_table(), REFERENCE["photon"])
for name, (table, expected) in tables.items():
    assert table_digest(table) == expected, name
    check_row_orthonormality(table)
print(len(tables))
"""


def test_tables_match_the_benchmark_reference():
    """The benchmark reads rows through ``amplitudes``; its seed digests and orthonormality check must hold."""
    root = Path(__file__).parent.parent
    completed = subprocess.run(
        [sys.executable, "-c", BENCHMARK_TABLE_CHECKS],
        capture_output=True,
        text=True,
        cwd=str(root),
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")]),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["37"]


def test_pair_singlets_agree_across_modules():
    # The same sign too: each has its highest-m1 entry, (-1)**0 / sqrt(2j+1), positive.
    for two_j in range(1, 9):
        j = Fraction(two_j, 2)
        assert cg_decompose(j, j)[(Fraction(0), Fraction(0))].ket == spin_j_singlet(j)


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
        assert state.amplitudes.get((Fraction(m1), Fraction(m2)), ExactScalar(0)) == sign * sq(square), (s, m, m1, m2)


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
