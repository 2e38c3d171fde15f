import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_float_ket
from spinstat.errors import InvalidSpinError, InvalidValueError, ShapeError, SizeLimitError, UnknownTagError
from spinstat.exact import ExactScalar
from spinstat.kets import Ket, Permutation, index_of_m, inner_product, permute_slots
from spinstat.rotations import (
    MAX_GRID,
    MAX_SINGLET_SPIN,
    STATE_TAGS,
    conjugate_spinor_slot,
    decompose_spin_j_singlet,
    grid_angles,
    is_isc,
    is_rotationally_invariant,
    make_state,
    rotation_matrix,
    spin_j_singlet,
)

HALF = Fraction(1, 2)
SQ2 = ExactScalar.sqrt(HALF)


def catalog_two_particle_states():
    return {
        tag: make_state(tag)
        for tag in STATE_TAGS
        if tag != "spin_j_singlet"
    }


def test_named_state_amplitudes():
    h = ExactScalar(HALF)
    assert make_state("singlet").amplitudes == {(0, 1): SQ2, (1, 0): -SQ2}
    assert make_state("improper_singlet").amplitudes == {(0, 0): SQ2, (1, 1): SQ2}
    assert make_state("excluded_combination").amplitudes == {
        (0, 0): h,
        (1, 1): h,
        (0, 1): h,
        (1, 0): -h,
    }
    assert make_state("triplet_plus").amplitudes == {(0, 0): ExactScalar(1)}


def test_spin_two_singlet_alternates_signs():
    state = spin_j_singlet(2)
    w = ExactScalar.sqrt(Fraction(1, 5))
    expected = {}
    for m, sign in [(2, 1), (1, -1), (0, 1), (-1, -1), (-2, 1)]:
        expected[(index_of_m(5, m), index_of_m(5, -m))] = sign * w
    assert state.amplitudes == expected


def test_named_states_exactly_normalized():
    for tag, ket in catalog_two_particle_states().items():
        assert ket.norm_squared() == 1, tag
    for j in (HALF, 1, Fraction(3, 2), 2, 3):
        assert spin_j_singlet(j).norm_squared() == 1


def test_unknown_tag_and_bad_spin():
    with pytest.raises(UnknownTagError):
        make_state("nonsense")
    with pytest.raises(UnknownTagError):
        make_state("spin_j_singlet")
    with pytest.raises(InvalidSpinError):
        spin_j_singlet(Fraction(1, 3))
    with pytest.raises(InvalidSpinError):
        spin_j_singlet(0)


def test_spin_j_singlet_size_guard():
    assert spin_j_singlet(MAX_SINGLET_SPIN).dims == (201, 201)
    with pytest.raises(SizeLimitError):
        spin_j_singlet(MAX_SINGLET_SPIN + HALF)
    with pytest.raises(SizeLimitError):
        decompose_spin_j_singlet(Fraction(10) ** 400)


def test_grid_size_guard():
    assert len(grid_angles(MAX_GRID)) == MAX_GRID + 4
    improper = make_state("improper_singlet")
    # The bound holds before either check picks a path, so a ket that the
    # exact path would decide is refused like one that needs the float grid.
    for ket in (improper, make_state("singlet"), make_state("triplet_plus")):
        for check in (is_isc, is_rotationally_invariant):
            with pytest.raises(SizeLimitError):
                check(ket, grid=MAX_GRID + 1)
    with pytest.raises(SizeLimitError):
        is_rotationally_invariant(make_state("singlet"), grid=10**9)
    assert is_rotationally_invariant(improper, grid=MAX_GRID) == (True, 0.0)
    assert is_isc(improper, grid=MAX_GRID) == (True, None, 0.0)


def test_rotation_matrix_examples():
    assert np.allclose(rotation_matrix(0.0, 1), np.eye(2))
    assert np.allclose(
        rotation_matrix(math.pi, HALF), np.array([[0, 1], [-1, 0]]), atol=1e-15
    )
    assert np.allclose(rotation_matrix(math.pi, 1), -np.eye(2), atol=1e-15)


@pytest.mark.parametrize("c", [HALF, 1, 2, Fraction(3, 2)])
def test_rotation_matrix_orthogonal_unit_determinant(c):
    for theta in grid_angles(36):
        r = rotation_matrix(theta, c)
        assert np.max(np.abs(r.T @ r - np.eye(2))) < 1e-14
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-14)
    angles = np.array(grid_angles(36)).reshape(8, 5)
    stack = rotation_matrix(angles, c)
    assert stack.shape == (8, 5, 2, 2)
    for index in np.ndindex(angles.shape):
        assert np.array_equal(stack[index], rotation_matrix(angles[index], c))


def test_invariance_of_catalog():
    assert is_rotationally_invariant(make_state("singlet")) == (True, 0.0)
    assert is_rotationally_invariant(make_state("excluded_combination")) == (True, 0.0)
    product = Ket.basis((2, 2), (0, 0))
    verdict = is_rotationally_invariant(product)
    assert not verdict.invariant
    assert verdict.max_deviation >= 1.0


def test_invariance_in_float_mode():
    ok = is_rotationally_invariant(make_state("singlet").to_float())
    assert ok.invariant and ok.max_deviation < 1e-12
    bad = is_rotationally_invariant(make_state("triplet_zero").to_float())
    assert not bad.invariant


def _kron_rotated(ket, c, angles):
    """Oracle: the flat amplitudes, and np.kron(R, R) @ vec at each angle in turn."""
    vec = np.array([complex(ket.amplitude(label)) for label in [(0, 0), (0, 1), (1, 0), (1, 1)]])
    out = []
    for theta in angles:
        a = float(c) * theta
        r = np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]])
        out.append(np.kron(r, r) @ vec)
    return vec, out


@pytest.mark.parametrize("c", [HALF, 1])
def test_grid_checks_match_a_kron_oracle(rng, c):
    angles = grid_angles(90)
    kets = [random_float_ket(rng, (2, 2)).normalized() for _ in range(8)]
    for ket in kets + [make_state("singlet").to_float(), make_state("improper_singlet").to_float()]:
        vec, rotated = _kron_rotated(ket, c, angles)
        worst = max(np.linalg.norm(v - vec) for v in rotated)
        invariance = is_rotationally_invariant(ket, c=c, grid=90)
        assert invariance.max_deviation == pytest.approx(worst, abs=1e-13)

        deviations = []
        for v in rotated:
            pp, pm, mp, mm = np.abs(v) ** 2
            same = max(abs(pp - 0.5), abs(mm - 0.5), pm, mp)
            opposite = max(abs(pm - 0.5), abs(mp - 0.5), pp, mm)
            deviations.append(min(same, opposite))
        worst = max(deviations)
        result = is_isc(ket, c=c, grid=90)
        assert result.max_deviation == pytest.approx(worst, abs=1e-13)
        if worst < 1e-12:
            assert result.isc and result.witness_angle is None
        else:
            assert not result.isc
            first = next(t for t, d in zip(angles, deviations) if d >= worst - 1e-9)
            assert result.witness_angle == first


def test_zero_rate_is_rejected():
    # At c = 0 every rotation is the identity, so any state would pass.
    for check in (is_rotationally_invariant, is_isc):
        with pytest.raises(InvalidValueError):
            check(make_state("improper_singlet"), c=0)


def test_invariance_shape_guard():
    with pytest.raises(ShapeError):
        is_rotationally_invariant(Ket.basis((2, 2, 2), (0, 0, 0)))
    with pytest.raises(ShapeError):
        is_isc(Ket.basis((3, 3), (0, 0)))


def test_isc_catalog():
    assert is_isc(make_state("singlet")).isc
    assert is_isc(make_state("improper_singlet")).isc
    # Exact kets are decided exactly, so no rounding is left for tol to absorb.
    assert is_isc(make_state("singlet"), tol=1e-20) == (True, None, 0.0)
    excluded = is_isc(make_state("excluded_combination"))
    assert not excluded.isc
    triplet = is_isc(make_state("triplet_zero"))
    assert not triplet.isc
    assert triplet.witness_angle == pytest.approx(math.pi / 4)


# cos(k*pi/6) for k = 0..11; sin(k*pi/6) is cos((k - 3)*pi/6).
_COS_SIXTHS = [
    ExactScalar(q, r)
    for q, r in [(1, 1), (HALF, 3), (HALF, 1), (0, 1), (-HALF, 1), (-HALF, 3),
                 (-1, 1), (-HALF, 3), (-HALF, 1), (0, 1), (HALF, 1), (HALF, 3)]
]


def _rotate_slot(ket, slot, k):
    """Exact R(k*pi/6) on one slot of a pair, with R = [[cos, sin], [-sin, cos]]."""
    cos, sin = _COS_SIXTHS[k % 12], _COS_SIXTHS[(k - 3) % 12]
    r = ((cos, sin), (-sin, cos))
    total = Ket.zero((2, 2))
    for label, amp in ket.amplitudes.items():
        for i in range(2):
            total = total + Ket((2, 2), {label[:slot] + (i,) + label[slot + 1 :]: r[i][label[slot]] * amp})
    return total


@st.composite
def _correlated_pairs(draw):
    """The two correlated pair states under moves that keep them correlated."""
    ket = make_state(draw(st.sampled_from(["singlet", "improper_singlet"])))
    for move, k, slot in draw(st.lists(st.tuples(st.sampled_from("prsnc"), st.integers(0, 11), st.integers(0, 1)))):
        if move == "p":  # paired rotation
            ket = _rotate_slot(_rotate_slot(ket, 0, k), 1, k)
        elif move == "r":  # quarter turns of one slot
            ket = _rotate_slot(ket, slot, 3 * k)
        elif move == "s":
            ket = permute_slots(ket, Permutation.swap(2, 0, 1))
        elif move == "n":
            ket = -ket
        else:
            ket = conjugate_spinor_slot(ket, slot)
    return ket


_AMPLITUDES = st.builds(
    lambda q1, q2, r: ExactScalar(Fraction(q1, 2)) + ExactScalar(Fraction(q2, 2), r),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.sampled_from([2, 3, 6]),
)


@st.composite
def _other_pairs(draw):
    """The uncorrelated catalog states, or random exact amplitudes, turned on one slot."""
    tag = draw(st.sampled_from(["excluded_combination", "triplet_plus", "triplet_zero", "triplet_minus", "random"]))
    if tag == "random":
        amplitudes = draw(st.lists(_AMPLITUDES, min_size=4, max_size=4))
        ket = Ket((2, 2), dict(zip([(0, 0), (0, 1), (1, 0), (1, 1)], amplitudes)))
    else:
        ket = make_state(tag)
    return _rotate_slot(ket, draw(st.integers(0, 1)), draw(st.integers(0, 11)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_correlated_pairs(), _other_pairs()))
def test_exact_isc_verdict_matches_the_float_grid(ket):
    on_floats = is_isc(ket.to_float(), grid=360)
    assert is_isc(ket) == ((True, None, 0.0) if on_floats.isc else on_floats)


def test_isc_implies_invariant():
    for tag, ket in catalog_two_particle_states().items():
        if is_isc(ket).isc:
            assert is_rotationally_invariant(ket).invariant, tag


def test_conjugate_spinor_maps_between_pair_states():
    improper = make_state("improper_singlet")
    singlet = make_state("singlet")
    assert conjugate_spinor_slot(improper, 1) in (singlet, -singlet)
    assert conjugate_spinor_slot(singlet, 1) in (improper, -improper)


def test_conjugate_spinor_twice_negates(rng):
    for _ in range(20):
        ket = random_float_ket(rng, (2, 2))
        twice = conjugate_spinor_slot(conjugate_spinor_slot(ket, 0), 0)
        assert twice.isclose(-ket)


def test_conjugate_spinor_is_unitary(rng):
    for _ in range(100):
        a = random_float_ket(rng, (2, 2))
        b = random_float_ket(rng, (2, 2))
        ca = conjugate_spinor_slot(a, 1)
        cb = conjugate_spinor_slot(b, 1)
        assert ca.norm_squared() == pytest.approx(a.norm_squared())
        assert abs(inner_product(ca, cb)) == pytest.approx(abs(inner_product(a, b)))


def test_conjugate_spinor_slot_guards():
    with pytest.raises(ShapeError):
        conjugate_spinor_slot(make_state("singlet"), 2)
    with pytest.raises(ShapeError):
        conjugate_spinor_slot(Ket.basis((2, 3), (0, 0)), 1)


def test_decomposition_structure():
    d2 = decompose_spin_j_singlet(2)
    assert [p.m for p in d2.pairs] == [2, 1]
    assert d2.center is not None
    assert sorted(d2.pairs[0].ket.support()) == [
        (index_of_m(5, 2), index_of_m(5, -2)),
        (index_of_m(5, -2), index_of_m(5, 2)),
    ]

    dhalf = decompose_spin_j_singlet(HALF)
    assert [p.m for p in dhalf.pairs] == [HALF]
    assert dhalf.center is None
    assert dhalf.pairs[0].ket.amplitudes == {(0, 1): ExactScalar(1), (1, 0): -ExactScalar(1)}

    d1 = decompose_spin_j_singlet(1)
    assert [p.m for p in d1.pairs] == [1]
    assert d1.center is not None


@pytest.mark.parametrize("j", [HALF, 1, Fraction(3, 2), 2, Fraction(5, 2), 3])
def test_decomposition_recombines_exactly(j):
    decomposition = decompose_spin_j_singlet(j)
    assert decomposition.recombine() == spin_j_singlet(j)
