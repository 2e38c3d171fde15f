import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conjugate_spinor_slot, random_float_ket
from spinstat.errors import InvalidSpinError, InvalidValueError, ShapeError, SizeLimitError, UnknownTagError
from spinstat.exact import ExactScalar
from spinstat.kets import Ket, Permutation, index_of_m, inner_product, permute_slots
from spinstat.rotations import (
    EXTRA_GRID_ANGLES,
    MAX_GRID,
    MAX_SINGLET_SPIN,
    STATE_TAGS,
    TOL,
    _GRID_MEMO_SIZE,
    _exact_verdicts,
    _grid_angles,
    _isc_deviation,
    _isc_table,
    _max_sin,
    decompose_spin_j_singlet,
    is_isc,
    is_rotationally_invariant,
    make_state,
    spin_j_singlet,
)

HALF = Fraction(1, 2)
SQ2 = ExactScalar.sqrt(HALF)
#: The two valid outcome patterns of a perfectly correlated pair: both
#: readings the same, or both opposite, each with probability 1/2.
_ISC_PATTERNS = (((0.5, 0.0), (0.0, 0.5)), ((0.0, 0.5), (0.5, 0.0)))


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
    # The tag exists; what is missing is its spin value.
    with pytest.raises(InvalidValueError):
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
    assert len(_grid_angles(MAX_GRID)) == MAX_GRID + 4
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
    # A grid below 1 would check only EXTRA_GRID_ANGLES; the rule is
    # search_violations' denominator rule, on both paths.
    for grid in (0, -3, 2.5, 360.0, "360", None):
        for ket in (improper, improper.to_float()):
            for check in (is_isc, is_rotationally_invariant):
                with pytest.raises(InvalidValueError, match="positive integer"):
                    check(ket, grid=grid)
    assert is_isc(improper.to_float(), grid=np.int64(7)).isc


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


@pytest.mark.parametrize("grid", [1, 7, 90, 360, 1200, MAX_GRID])
def test_grid_angles_are_the_scalar_formula(grid):
    expected = [2 * math.pi * k / grid for k in range(grid)] + list(EXTRA_GRID_ANGLES)
    assert _grid_angles(grid).tolist() == expected


def _kron_rotated(ket, c, angles):
    """Oracle: the flat amplitudes, and np.kron(R, R) @ vec at each angle, one row per angle."""
    vec = np.array([complex(ket.amplitude(label)) for label in [(0, 0), (0, 1), (1, 0), (1, 1)]])
    a = [float(c) * theta for theta in angles]
    cos, sin = np.array([math.cos(x) for x in a]), np.array([math.sin(x) for x in a])
    r = np.stack([np.stack([cos, sin], -1), np.stack([-sin, cos], -1)], -2)
    # kron[g, 2i + k, 2j + l] = r[g, i, j] * r[g, k, l], which is np.kron(r[g], r[g]).
    kron = np.einsum("gij,gkl->gikjl", r, r).reshape(-1, 4, 4)
    assert np.array_equal(kron[-1], np.kron(r[-1], r[-1]))
    return vec, kron @ vec


def _kron_checks(ket, c, grid):
    """Oracle: both grid checks on the kron-rotated amplitudes, as ``(invariance, isc)`` tuples."""
    angles = _grid_angles(grid)
    vec, rotated = _kron_rotated(ket, c, angles)
    worst = float(np.linalg.norm(rotated - vec, axis=1).max())
    invariance = (worst < TOL, worst)
    p = np.abs(rotated.reshape(-1, 2, 2)) ** 2
    deviation = np.abs(p[:, None] - np.array(_ISC_PATTERNS)).max(axis=(2, 3)).min(axis=1)
    worst = float(deviation.max())
    if worst < TOL:
        return invariance, (True, None, worst)
    return invariance, (False, float(angles[np.argmax(deviation >= worst - 1e-9 * max(1.0, worst))]), worst)


@pytest.mark.parametrize("c", [HALF, 1])
def test_grid_checks_match_a_kron_oracle(rng, c):
    angles = _grid_angles(90)
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
        # The cell-by-cell deviation is exactly the broadcast over both patterns.
        p = np.abs(rotated.reshape(-1, 2, 2)) ** 2
        broadcast = np.abs(p[:, None] - np.array(_ISC_PATTERNS)).max(axis=(2, 3)).min(axis=1)
        assert np.array_equal(_isc_deviation(p), broadcast)
        if worst < 1e-12:
            assert result.isc and result.witness_angle is None
        else:
            assert not result.isc
            first = next(t for t, d in zip(angles, deviations) if d >= worst - 1e-9 * max(1.0, worst))
            assert result.witness_angle == first
            assert type(result.witness_angle) is float


_PARTS = st.floats(-1, 1)
_RATES = st.one_of(
    st.fractions(-12, 12, max_denominator=12),
    st.floats(-2.8e307, 2.8e307),
).filter(bool)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.builds(complex, _PARTS, _PARTS), min_size=4, max_size=4), _RATES, st.integers(1, 1200))
def test_closed_form_grid_checks_match_the_kron_oracle(parts, c, grid):
    # Unnormalized pair kets, rates up to near the float limit, any grid size.
    ket = Ket((2, 2), {label: z for label, z in zip([(0, 0), (0, 1), (1, 0), (1, 1)], parts) if z})
    (invariant, worst), (isc, witness, deviation) = _kron_checks(ket, c, grid)
    invariance = is_rotationally_invariant(ket, c=c, grid=grid)
    assert invariance.invariant == invariant
    # Both sides round at the scale of the squared norm, which reaches 8 here.
    close = 1e-15 * max(1.0, ket.norm_squared())
    assert invariance.max_deviation == pytest.approx(worst, rel=0, abs=close)
    result = is_isc(ket, c=c, grid=grid)
    assert (result.isc, result.witness_angle) == (isc, witness)
    assert result.max_deviation == pytest.approx(deviation, rel=0, abs=close)


def test_closed_form_values_that_are_exact():
    # The excluded combination's cells are (1/4, 1/4, 1/4, 1/4) at every
    # angle, and the m = 0 triplet turns fully away at c*theta = pi/2.
    excluded = is_isc(make_state("excluded_combination"))
    assert excluded.max_deviation == 0.25 and excluded.witness_angle == 0.0
    assert is_rotationally_invariant(make_state("triplet_zero"), c=HALF, grid=360) == (False, 2.0)


def test_isc_witness_is_the_earliest_tie_at_any_scale():
    # The cells have period pi/c in theta, so at c = 5 the largest deviation
    # ties at ten angles of the 90-point grid.  Scaled by 1e4 it is about 1e8,
    # whose rounding (about 1.5e-8) an absolute 1e-9 window falls under.
    ket = random_float_ket(random.Random(2), (2, 2)).scale(1e4)
    angles = _grid_angles(90)
    _, rotated = _kron_rotated(ket, 5, angles)
    p = np.abs(rotated.reshape(-1, 2, 2)) ** 2
    deviation = _isc_deviation(p)
    worst = deviation.max()
    tied = angles[deviation >= worst * (1 - 1e-9)]
    assert worst > 1e8 and len(tied) == 10
    assert np.allclose(np.diff(tied), math.pi / 5)
    assert angles[np.argmax(deviation >= worst - 1e-9)] != tied[0]
    result = is_isc(ket, c=5, grid=90)
    assert result.witness_angle == tied[0]
    assert result.max_deviation == pytest.approx(worst, rel=1e-15)


def test_zero_rate_is_rejected():
    # At c = 0 every rotation is the identity, so any state would pass.
    for check in (is_rotationally_invariant, is_isc):
        with pytest.raises(InvalidValueError):
            check(make_state("improper_singlet"), c=0)
    # A NaN rate fails every comparison, so it needs a test of its own; it
    # would give NaN deviations, and a NaN key in the grid memo.
    misses = _max_sin.cache_info().misses, _isc_table.cache_info().misses
    for c in (math.nan, -math.inf, math.inf, np.float64("nan")):
        for ket in (make_state("improper_singlet"), make_state("triplet_zero").to_float()):
            for check in (is_rotationally_invariant, is_isc):
                with pytest.raises(InvalidValueError, match="finite"):
                    check(ket, c=c)
    assert (_max_sin.cache_info().misses, _isc_table.cache_info().misses) == misses


def test_rate_bound_is_exact():
    ket = make_state("triplet_zero")
    bound = Fraction(sys.float_info.max / (2 * math.pi))
    for c in (bound, -bound, float(bound), int(bound)):
        assert not is_rotationally_invariant(ket, c=c, grid=1).invariant
    for c in (bound + Fraction(1, 10**400), -bound - 1, math.nextafter(float(bound), math.inf), int(bound) + 1):
        with pytest.raises(InvalidValueError, match="too large"):
            is_rotationally_invariant(ket, c=c, grid=1)


def test_grid_memo_arrays_refuse_writes():
    # Only the ISC memo holds arrays; the invariance memo holds one float.
    _isc_table.cache_clear()
    is_isc(make_state("triplet_zero").to_float(), c=HALF, grid=90)
    turn = _isc_table(0.5, 90)
    assert _isc_table.cache_info()[:2] == (1, 1)  # hits, misses
    for array in turn:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    fresh = _grid_angles(90)
    fresh[0] = 1.0
    assert fresh is not turn[0] and turn[0][0] == 0.0
    assert type(_max_sin(0.5, 90)) is float


def _clear_grid_memos():
    _max_sin.cache_clear()
    _isc_table.cache_clear()


def test_grid_memo_stays_at_its_bound():
    _clear_grid_memos()
    ket = make_state("triplet_zero").to_float()
    for c in range(1, _GRID_MEMO_SIZE + 3):
        is_rotationally_invariant(ket, c=c, grid=7)
        is_isc(ket, c=c, grid=7)
    for memo in (_max_sin, _isc_table):
        info = memo.cache_info()
        assert info.misses == _GRID_MEMO_SIZE + 2
        assert info.currsize == info.maxsize == _GRID_MEMO_SIZE


def test_invariance_leaves_the_isc_table_unbuilt():
    _clear_grid_memos()
    ket = make_state("triplet_zero").to_float()
    is_rotationally_invariant(ket, c=HALF, grid=90)
    is_rotationally_invariant(ket, c=0.5, grid=90)
    assert _max_sin.cache_info()[:2] == (1, 1)  # hits, misses
    assert _isc_table.cache_info().currsize == 0
    # The two memos build their grids apart, so neither reads the other.
    is_isc(ket, c=HALF, grid=90)
    assert _max_sin.cache_info()[:2] == (1, 1)
    assert _isc_table.cache_info()[:2] == (0, 1)


@pytest.mark.parametrize("grid", [1, 7, 90, 1200, MAX_GRID])
def test_max_sin_is_the_array_maximum(grid):
    for c in map(float, (HALF, 1, Fraction(1, 3), Fraction(-7, 3), 0.37, 5, 1e6, 2.8e307)):
        assert _max_sin(c, grid) == float(np.abs(np.sin(c * _grid_angles(grid))).max()), c


def test_checks_agree_on_a_cleared_and_a_warm_memo():
    rng = random.Random(2028)
    kets = [ket for tag in STATE_TAGS[:-1] for ket in (make_state(tag), make_state(tag).to_float())]
    kets += [random_float_ket(rng, (2, 2)).normalized() for _ in range(6)]
    kets += [random_float_ket(rng, (2, 2)).scale(10 ** rng.uniform(-3, 3)) for _ in range(4)]
    # Fraction(1, 3) and 1/3 differ as numbers but share a float, and so a memo key.
    rates = (HALF, 1, Fraction(1, 3), 1 / 3, Fraction(-7, 3), 0.37)
    cases = [(check, ket, c, grid) for grid in (7, 90) for c in rates for ket in kets
             for check in (is_rotationally_invariant, is_isc)]
    cold = []
    for check, ket, c, grid in cases:
        _clear_grid_memos()
        cold.append(repr(check(ket, c=c, grid=grid)))
    warm = [repr(check(ket, c=c, grid=grid)) for check, ket, c, grid in cases]
    assert warm == cold
    # The cases of Fraction(1, 3) and of 1/3 sit next to each other.
    block = 2 * len(kets)
    for start in range(2 * block, len(cases), len(rates) * block):
        assert cold[start : start + block] == cold[start + block : start + 2 * block]


def test_invariance_shape_guard():
    with pytest.raises(ShapeError):
        is_rotationally_invariant(Ket.basis((2, 2, 2), (0, 0, 0)))
    with pytest.raises(ShapeError):
        is_isc(Ket.basis((3, 3), (0, 0)))


def test_isc_catalog():
    assert is_isc(make_state("singlet")).isc
    assert is_isc(make_state("improper_singlet")).isc
    # Exact kets are decided exactly, so no rounding is left for TOL to absorb.
    assert is_isc(make_state("singlet")) == (True, None, 0.0)
    excluded = is_isc(make_state("excluded_combination"))
    assert not excluded.isc
    triplet = is_isc(make_state("triplet_zero"))
    assert not triplet.isc
    assert triplet.witness_angle == pytest.approx(math.pi / 4)


def test_an_exact_no_is_final_at_any_scale():
    # The doublet split decides an exact ket; the grid gives only the
    # deviation and witness of one that fails, which a deviation below TOL
    # must not turn into a pass.
    tiny = Ket((2, 2), {(0, 0): ExactScalar(Fraction(1, 10**13))})
    invariance = is_rotationally_invariant(tiny)
    assert not invariance.invariant
    assert invariance.max_deviation == pytest.approx(math.sqrt(2) * 1e-13)
    # A float ket has no exact verdict, so TOL decides it.
    assert is_rotationally_invariant(tiny.to_float()) == (True, invariance.max_deviation)


@pytest.mark.parametrize("check", [is_rotationally_invariant, is_isc])
def test_the_rotation_checks_take_no_tol(check):
    # Every caller used one tolerance, so it is the constant TOL.
    assert TOL == 1e-12
    with pytest.raises(TypeError):
        check(make_state("singlet"), tol=1e-12)


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


_ROOT2 = ExactScalar.sqrt(2)
_ZERO = ExactScalar(0)


def _from_split(s, u):
    """The pair ket whose doublet split is ``(s, u, 0, 0)``."""
    return Ket((2, 2), {(0, 0): s / 2, (0, 1): u / 2, (1, 0): -u / 2, (1, 1): s / 2})


# Invariant kets (d = t = 0) on either side of the perfect-correlation rule.
_BOUNDARY_KETS = [
    _from_split(_ROOT2, _ZERO),
    _from_split(-_ROOT2, _ZERO),
    _from_split(_ZERO, _ROOT2),
    _from_split(_ZERO, -_ROOT2),
    _from_split(ExactScalar(2), _ZERO),  # norm 2
    _from_split(_ROOT2, _ROOT2),  # both nonzero
    Ket.zero((2, 2)),
]

_EXACT_PAIRS = st.one_of(_correlated_pairs(), _other_pairs(), st.sampled_from(_BOUNDARY_KETS))

# Cells ++, +-, -+, -- of both readings the same, and of both opposite.
_EXACT_PATTERNS = {
    tuple(ExactScalar(Fraction(p)) for p in pattern) for pattern in [(HALF, 0, 0, HALF), (0, HALF, HALF, 0)]
}


def _one_pattern_at_five_angles(ket):
    """Oracle: one valid table at a = k*pi/6, k = 0..4, whose 2a are distinct mod 2*pi.

    Each cell is a trigonometric polynomial of degree 2 in 2a, so five such
    angles fix it at every angle.
    """
    tables = set()
    for k in range(5):
        rotated = _rotate_slot(_rotate_slot(ket, 0, k), 1, k)
        amplitudes = [rotated.amplitude(label) for label in [(0, 0), (0, 1), (1, 0), (1, 1)]]
        tables.add(tuple(a * a for a in amplitudes))
    return len(tables) == 1 and tables <= _EXACT_PATTERNS


def test_boundary_kets_have_their_split():
    assert _BOUNDARY_KETS[0] == make_state("improper_singlet")
    assert _BOUNDARY_KETS[2] == make_state("singlet")
    assert [_exact_verdicts(ket) for ket in _BOUNDARY_KETS] == [(True, True)] * 4 + [(True, False)] * 3


@settings(max_examples=300, deadline=None)
@given(_EXACT_PAIRS)
def test_exact_verdicts_match_the_generator_and_five_angles(ket):
    annihilated = (conjugate_spinor_slot(ket, 0) + conjugate_spinor_slot(ket, 1)).is_zero
    correlated = _one_pattern_at_five_angles(ket)
    assert _exact_verdicts(ket) == (annihilated, correlated)
    assert (is_rotationally_invariant(ket) == (True, 0.0)) == annihilated
    assert (is_isc(ket) == (True, None, 0.0)) == correlated
    if correlated:
        pairs = [make_state("singlet"), make_state("improper_singlet")]
        assert ket in pairs + [-pair for pair in pairs]


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(list(catalog_two_particle_states().values())), _EXACT_PAIRS))
def test_isc_implies_invariant(ket):
    if is_isc(ket).isc:
        assert is_rotationally_invariant(ket).invariant


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
