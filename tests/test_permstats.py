import itertools
import math
from fractions import Fraction

import pytest

from conftest import random_exact_ket, random_orthonormal_kets
from spinstat.errors import CapacityError, ShapeError, SizeLimitError
from spinstat.exact import ExactScalar
from spinstat.kets import Ket, Permutation, inner_product, permute_slots, tensor_product
from spinstat.permstats import (
    PermutationExpansion,
    StatisticsClass,
    antisymmetrize,
    classify_statistics,
    ground_state_energy,
    invariance_signature,
    symmetrize,
)
from spinstat.rotations import make_state


def cycle_sign(image: tuple[int, ...]) -> int:
    """Permutation parity via cycle decomposition (independent of the library)."""
    seen = [False] * len(image)
    sign = 1
    for start in range(len(image)):
        if seen[start]:
            continue
        length = 0
        node = start
        while not seen[node]:
            seen[node] = True
            node = image[node]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def naive_signed_sum(states):
    """Brute-force oracle built only from tensor products and ket sums."""
    n = len(states)
    total = None
    for image in itertools.permutations(range(n)):
        term = states[image[0]]
        for i in image[1:]:
            term = tensor_product(term, states[i])
        term = term.scale(ExactScalar(cycle_sign(image)))
        total = term if total is None else total + term
    return total.scale(ExactScalar.sqrt(Fraction(1, math.factorial(n))))


def naive_uniform_sum(states):
    n = len(states)
    total = None
    for image in itertools.permutations(range(n)):
        term = states[image[0]]
        for i in image[1:]:
            term = tensor_product(term, states[i])
        total = term if total is None else total + term
    return total.normalized()


def test_two_spinors_antisymmetrize_to_singlet():
    plus = Ket.basis((2,), (0,))
    minus = Ket.basis((2,), (1,))
    assert antisymmetrize([plus, minus]) == make_state("singlet")
    assert symmetrize([plus, minus]) == make_state("triplet_zero")


def test_three_orthonormal_states_signed_sum():
    states = [Ket.basis((3,), (i,)) for i in range(3)]
    out = antisymmetrize(states)
    w = ExactScalar.sqrt(Fraction(1, 6))
    assert len(out.amplitudes) == 6
    assert out.amplitudes[(0, 1, 2)] == w
    assert out.amplitudes[(1, 0, 2)] == -w
    assert set(a.squared() for a in out.amplitudes.values()) == {Fraction(1, 6)}


def test_duplicate_input_gives_zero():
    psi = Ket.basis((3,), (0,))
    phi = Ket.basis((3,), (1,))
    assert antisymmetrize([psi, psi, phi]).is_zero


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_antisymmetrize_matches_naive_oracle(rng, n):
    for _ in range(3):
        states = random_orthonormal_kets(rng, n)
        assert antisymmetrize(states) == naive_signed_sum(states)
        assert antisymmetrize(states).norm_squared() == 1


def test_pauli_exclusion_both_directions(rng):
    for n in (2, 3, 4):
        for _ in range(10):
            # Forward: a repeated state forces the zero ket.
            distinct = random_orthonormal_kets(rng, 4)[: n - 1]
            position = rng.randrange(n - 1)
            with_duplicate = distinct + [distinct[position]]
            assert antisymmetrize(with_duplicate).is_zero
            # Reverse: independent states (orthonormal, hence pairwise
            # distinct) never collapse.
            ortho = random_orthonormal_kets(rng, 4)[:n]
            assert not antisymmetrize(ortho).is_zero


def test_symmetrize_examples():
    psi = Ket.basis((2,), (0,))
    assert symmetrize([psi, psi, psi]) == tensor_product(tensor_product(psi, psi), psi)
    minus = Ket.basis((2,), (1,))
    out = symmetrize([psi, psi, minus])
    oracle = naive_uniform_sum([psi, psi, minus])
    assert out == oracle
    assert out.norm_squared() == 1
    assert len(out.amplitudes) == 3


def test_symmetrize_invariant_under_all_permutations(rng):
    states = random_orthonormal_kets(rng, 3)
    out = symmetrize(states)
    for p in Permutation.all_of(3):
        assert permute_slots(out, p) == out


def test_symmetric_orthogonal_to_antisymmetric(rng):
    for n in (2, 3):
        states = random_orthonormal_kets(rng, n)
        sym = symmetrize(states)
        anti = antisymmetrize(states)
        assert inner_product(sym, anti) == ExactScalar(0)


def test_size_and_shape_guards():
    basis = [Ket.basis((2,), (i % 2,)) for i in range(7)]
    with pytest.raises(SizeLimitError):
        antisymmetrize(basis)
    with pytest.raises(ShapeError):
        antisymmetrize([Ket.basis((2,), (0,)), Ket.basis((3,), (0,))])


@pytest.mark.parametrize(
    "build",
    [
        PermutationExpansion.fermi_dirac,
        PermutationExpansion.bose_einstein,
        PermutationExpansion.mixed,
        antisymmetrize,
        symmetrize,
    ],
    ids=["fermi_dirac", "bose_einstein", "mixed", "antisymmetrize", "symmetrize"],
)
def test_builders_check_the_state_count_before_enumerating(monkeypatch, build):
    # 12 states have 12! orderings: enumerating them first would never return.
    def refuse(*args):
        raise AssertionError("permutations enumerated before the size check")

    monkeypatch.setattr(itertools, "permutations", refuse)
    with pytest.raises(SizeLimitError):
        build([Ket.basis((2,), (i % 2,)) for i in range(12)])


def test_expansion_constructors_and_validation():
    states = [Ket.basis((2,), (0,)), Ket.basis((2,), (1,))]
    fd = PermutationExpansion.fermi_dirac(states)
    assert fd.realize() == make_state("singlet")
    be = PermutationExpansion.bose_einstein(states)
    assert be.realize() == make_state("triplet_zero")
    with pytest.raises(ValueError):
        PermutationExpansion(states, {p: ExactScalar(1) for p in Permutation.all_of(2)})


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_classification_of_pure_constructions(rng, n):
    states = random_orthonormal_kets(rng, n)
    assert classify_statistics(PermutationExpansion.fermi_dirac(states)) is StatisticsClass.FERMI_DIRAC
    assert classify_statistics(PermutationExpansion.bose_einstein(states)) is StatisticsClass.BOSE_EINSTEIN


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classification_of_mixed_constructions(n):
    states = [Ket.basis((n,), (i,)) for i in range(n)]
    mixed = PermutationExpansion.mixed(states)
    assert classify_statistics(mixed) is StatisticsClass.NEITHER


def test_mixed_three_particle_coefficients():
    # Five uniform-sign terms and one flipped: the positive brackets cycle
    # each state to the front, the last bracket is the signed pair.
    states = [Ket.basis((3,), (i,)) for i in range(3)]
    mixed = PermutationExpansion.mixed(states)
    w = ExactScalar.sqrt(Fraction(1, 6))
    signs = {p.image: c / w for p, c in mixed.coefficients.items()}
    assert signs == {
        (0, 1, 2): ExactScalar(1),
        (0, 2, 1): ExactScalar(1),
        (1, 2, 0): ExactScalar(1),
        (1, 0, 2): ExactScalar(1),
        (2, 0, 1): ExactScalar(1),
        (2, 1, 0): ExactScalar(-1),
    }


def test_equal_states_keep_bose_einstein_invariance(rng):
    states = random_orthonormal_kets(rng, 3)
    states[1] = states[0]
    be = PermutationExpansion.bose_einstein(states)
    assert classify_statistics(be) is StatisticsClass.BOSE_EINSTEIN


def test_equal_states_break_mixed_invariance():
    e = [Ket.basis((3,), (i,)) for i in range(3)]
    mixed = PermutationExpansion.mixed([e[0], e[0], e[2]])
    realized = mixed.realize()
    signature = invariance_signature(realized)
    assert None in signature.values()
    with pytest.raises(ValueError):
        classify_statistics(PermutationExpansion.fermi_dirac([e[0], e[0], e[2]]))


def test_invariance_signature_of_pure_states(rng):
    states = random_orthonormal_kets(rng, 3)
    anti = antisymmetrize(states)
    for p, value in invariance_signature(anti).items():
        assert value == p.sign
    sym = symmetrize(states)
    assert set(invariance_signature(sym).values()) == {1}


def test_invariance_signature_of_paired_singlets():
    pair = tensor_product(make_state("singlet"), make_state("singlet"))
    signature = invariance_signature(pair)
    assert signature[Permutation.swap(4, 0, 1)] == -1
    assert signature[Permutation.swap(4, 2, 3)] == -1
    assert signature[Permutation((2, 3, 0, 1))] == 1
    assert signature[Permutation.swap(4, 1, 2)] is None


def test_invariance_signature_support_is_subgroup(rng):
    kets = [
        tensor_product(make_state("singlet"), make_state("singlet")),
        antisymmetrize(random_orthonormal_kets(rng, 4)),
        random_exact_ket(rng, (2, 2, 2), support=4),
    ]
    for ket in kets:
        signature = invariance_signature(ket)
        support = {p: v for p, v in signature.items() if v is not None}
        for p, q in itertools.product(support, support):
            composed = p.after(q)
            assert composed in support
            assert support[composed] == support[p] * support[q]
        for p in support:
            assert support[p.inverse()] == support[p]


def test_paired_orbitals_antisymmetrize_to_singlet_pattern():
    # Two particles sharing an orbital with opposite spins reduce to the
    # anticorrelated pair on the spin part.
    up, down = Ket.basis((2,), (0,)), Ket.basis((2,), (1,))
    assert antisymmetrize([up, down]) == make_state("singlet")


def test_ground_state_energy():
    levels = [Fraction(1), Fraction(2), Fraction(3)]
    assert ground_state_energy(levels, 6) == 12
    assert ground_state_energy(levels, 1) == 1
    assert ground_state_energy([1, 2], 3) == 4
    assert ground_state_energy(levels, 0) == 0
    with pytest.raises(CapacityError):
        ground_state_energy([1, 2], 5)
    with pytest.raises(ValueError):
        ground_state_energy([2, 1], 1)
