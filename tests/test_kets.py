import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_amplitudes, random_exact_ket, random_float_ket
from spinstat.errors import (
    IncompatibleRadicandsError,
    ModeMismatchError,
    NotPermutableError,
    ShapeError,
)
from spinstat.exact import ExactScalar, parse_scalar
from spinstat.kets import (
    Ket,
    Permutation,
    apply_to_slot,
    index_of_m,
    inner_product,
    permute_slots,
    spin_values,
    tensor_product,
)
from spinstat.rotations import make_state

SQ2 = ExactScalar.sqrt(Fraction(1, 2))


def test_tensor_of_basis_states():
    plus = Ket.basis((2,), (0,))
    minus = Ket.basis((2,), (1,))
    prod = tensor_product(plus, minus)
    assert prod.dims == (2, 2)
    assert prod.amplitudes == {(0, 1): ExactScalar(1)}


def test_tensor_with_singlet_keeps_coefficients():
    prod = tensor_product(make_state("singlet"), Ket.basis((2,), (0,)))
    assert prod.dims == (2, 2, 2)
    assert prod.amplitudes == {(0, 1, 0): SQ2, (1, 0, 0): -SQ2}


def test_tensor_with_zero_is_zero():
    zero = Ket.zero((2,))
    assert tensor_product(zero, make_state("singlet")).is_zero
    assert tensor_product(make_state("singlet"), zero).dims == (2, 2, 2)


def test_tensor_is_bilinear(rng):
    a = random_exact_ket(rng, (2,))
    b = random_exact_ket(rng, (3,))
    c = random_exact_ket(rng, (3,))
    left = tensor_product(a, b + c)
    right = tensor_product(a, b) + tensor_product(a, c)
    assert left == right


def test_tensor_of_several_kets_equals_nested_products(rng):
    a, b, c = (random_exact_ket(rng, (d,)) for d in (2, 3, 2))
    assert tensor_product(a, b, c) == tensor_product(tensor_product(a, b), c)


def test_tensor_mode_mismatch():
    with pytest.raises(ModeMismatchError):
        tensor_product(make_state("singlet"), make_state("singlet").to_float())


def test_inner_product_examples():
    singlet = make_state("singlet")
    assert inner_product(singlet, singlet) == ExactScalar(1)
    assert inner_product(Ket.basis((2, 2), (0, 0)), singlet) == ExactScalar(0)
    assert inner_product(make_state("triplet_zero"), singlet) == ExactScalar(0)


def test_inner_product_shape_error():
    with pytest.raises(ShapeError):
        inner_product(Ket.basis((2,), (0,)), make_state("singlet"))


def test_inner_product_across_radicands_is_exact():
    a = Ket((2,), {(0,): ExactScalar(1, 2), (1,): ExactScalar(1, 3)})
    b = Ket((2,), {(0,): ExactScalar(1), (1,): ExactScalar(1)})
    assert inner_product(a, b) == ExactScalar(1, 2) + ExactScalar(1, 3)
    # (|+>+|->)/sqrt(2) against |+>/sqrt(3) + sqrt(2)|->/sqrt(3)
    even = Ket((2,), {(0,): SQ2, (1,): SQ2})
    tilted = Ket((2,), {(0,): ExactScalar.sqrt(Fraction(1, 3)), (1,): ExactScalar.sqrt(Fraction(2, 3))})
    value = inner_product(even, tilted)
    assert value == parse_scalar("1/3*sqrt(3) + 1/6*sqrt(6)")
    assert str(value) == "1/3*sqrt(3) + 1/6*sqrt(6)"
    assert float(value) == pytest.approx(math.sqrt(1 / 6) + math.sqrt(1 / 3))
    total = even + tilted
    assert total.amplitude((0,)) == SQ2 + ExactScalar.sqrt(Fraction(1, 3))
    assert total.amplitude((1,)) == SQ2 + ExactScalar.sqrt(Fraction(2, 3))
    assert total - tilted == even
    assert str(total) == "(1/2*sqrt(2) + 1/3*sqrt(3))|0> + (1/2*sqrt(2) + 1/3*sqrt(6))|1>"
    # |total|^2 = 2 + 2<even|tilted> is irrational: no exact normalization.
    assert total.norm_squared() == ExactScalar(2) + value * 2
    assert total.norm_squared() != 1
    with pytest.raises(IncompatibleRadicandsError):
        total.normalized()


def test_inner_product_conjugate_symmetry(rng):
    for _ in range(100):
        a = random_float_ket(rng, (2, 2))
        b = random_float_ket(rng, (2, 2))
        lhs = inner_product(a, b)
        rhs = inner_product(b, a)
        assert lhs == pytest.approx(rhs.conjugate())


def test_inner_product_positive_norm(rng):
    for _ in range(20):
        a = random_float_ket(rng, (2, 3))
        value = inner_product(a, a)
        assert value.imag == pytest.approx(0.0)
        assert value.real >= 0


def test_permutation_sign_and_inverse():
    assert Permutation((0, 1, 2)).sign == 1
    assert Permutation((1, 0, 2)).sign == -1
    assert Permutation((1, 2, 0)).sign == 1
    p = Permutation((2, 0, 3, 1))
    assert p.after(p.inverse()) == Permutation(tuple(range(4)))
    assert p.inverse().after(p) == Permutation(tuple(range(4)))
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_permute_slots_examples():
    singlet = make_state("singlet")
    swap = Permutation.swap(2, 0, 1)
    assert permute_slots(singlet, swap) == -singlet
    assert permute_slots(make_state("triplet_zero"), swap) == make_state("triplet_zero")
    assert permute_slots(singlet, Permutation(tuple(range(2)))) == singlet


def test_permute_slots_not_permutable():
    ket = Ket.basis((2, 3), (0, 0))
    with pytest.raises(NotPermutableError):
        permute_slots(ket, Permutation.swap(2, 0, 1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_permute_slots_group_action(rng, n):
    ket = random_exact_ket(rng, (2,) * n, support=5)
    perms = list(Permutation.all_of(n))
    for p, q in itertools.product(perms, perms):
        assert permute_slots(permute_slots(ket, p), q) == permute_slots(ket, q.after(p))


def test_float_and_exact_agree(rng):
    # The same pipeline run exactly and in floats matches to 1e-14.
    for _ in range(30):
        a = random_exact_ket(rng, (2, 2))
        b = random_exact_ket(rng, (2, 2))
        exact = tensor_product(a + b, a - b)
        floats = tensor_product(a.to_float() + b.to_float(), a.to_float() - b.to_float())
        assert exact.to_float().isclose(floats, tol=1e-14)


def test_isclose_with_the_zero_ket():
    zero, small = Ket.zero((2,)), Ket((2,), {(0,): 1e-13 + 0j})
    assert zero.isclose(small) and small.isclose(zero)
    assert not zero.isclose(small, tol=1e-14)
    assert not zero.isclose(Ket((2,), {(0,): 0.5 + 0j}))


def test_normalization_exact_and_float(rng):
    ket = random_exact_ket(rng, (2, 2), support=4)
    unit = ket.normalized()
    assert unit.norm_squared() == 1
    funit = ket.to_float().normalized()
    assert funit.norm_squared() == pytest.approx(1, abs=1e-12)
    with pytest.raises(ValueError):
        Ket.zero((2,)).normalized()


def test_float_norm_squared_adds_left_to_right():
    # sum() compensates from Python 3.12 on and would give 1.0 there; the
    # left-to-right total is the same on every supported version.
    ket = Ket((10,), {(i,): 0.1**0.5 for i in range(10)})
    assert repr(ket.norm_squared()) == "0.9999999999999999"


def test_scaling_follows_the_ket_mode():
    exact = make_state("singlet").scale(Fraction(1, 2))
    assert exact.mode == "exact"
    floaty = make_state("singlet").to_float().scale(2)
    assert floaty.mode == "float"
    assert floaty.amplitude((0, 1)) == pytest.approx(math.sqrt(2))



@given(st.integers(0, 18).map(lambda twice: Fraction(twice, 2)), st.sampled_from([1, 2]))
def test_spin_values_descend_by_the_step_from_j(j, step):
    values = spin_values(j, step)
    assert values[0] == j
    assert all(a - b == step for a, b in zip(values, values[1:]))
    assert values[-1] >= -j and values[-1] - step < -j
    if step == 1:
        dim = int(2 * j + 1)
        assert len(values) == dim
        assert [index_of_m(dim, m) for m in values] == list(range(dim))


# Exact amplitudes q*sqrt(r) over a few radicands, so sums mix radicals.
exact_amplitudes = st.builds(
    ExactScalar, st.fractions(min_value=-3, max_value=3, max_denominator=4), st.sampled_from([1, 2, 3])
)


@st.composite
def kets_with_slot_images(draw):
    """A ket of 1-3 slots of mixed dimension, exact or float, and exact images for every slot."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    labels = st.tuples(*(st.integers(0, d - 1) for d in dims))
    ket = Ket(dims, draw(st.dictionaries(labels, exact_amplitudes, max_size=6)))
    if draw(st.booleans()):
        ket = ket.to_float().scale(complex(0.6, 0.8))
    one_slot = lambda d: st.dictionaries(st.tuples(st.integers(0, d - 1)), exact_amplitudes, max_size=d)
    images = [[Ket((d,), draw(one_slot(d))) for _ in range(d)] for d in dims]
    return ket, images


@settings(deadline=None)
@given(kets_with_slot_images())
def test_apply_to_slot_matches_a_dense_contraction(case):
    ket, images = case
    for slot, slot_images in enumerate(images):
        out = apply_to_slot(slot_images, ket, slot)
        assert out.dims == ket.dims
        assert out.mode in (ket.mode, None)
        # Column k of the image matrix is images[k]; contract it with the slot's axis.
        matrix = np.array([dense_amplitudes(image) for image in slot_images]).T
        expected = np.moveaxis(np.tensordot(matrix, dense_amplitudes(ket), axes=([1], [slot])), 0, slot)
        np.testing.assert_allclose(dense_amplitudes(out), expected, atol=1e-12)
