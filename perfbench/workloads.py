"""The op lists of the workloads and the layer sweep, and the checks on their outputs.

An op is one closed-loop request: the runner calls ``op.run(tracer)``,
times it, and later checks the result.  Inside ``run`` every call into a
spinstat layer goes through ``tracer.call(span_name, fn, ...)``, so the
traced run records a span at each layer boundary while the untraced run
calls the functions directly.

Outputs are checked three ways: against the seed commit's values stored
in ``reference.json`` (seed-independent ops), against oracles written here
without spinstat (determinants, numpy rotations), and against invariants
(unit norm, sign flip under every transposition, counts summing to the
number of atoms).
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import inputs
from spinstat import beam, condprob, measurement, permstats, rotations, spin_algebra
from spinstat.exact import ExactScalar
from spinstat.kets import Ket, Permutation, inner_product, permute_slots

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"
REFERENCE = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}

SPINS = tuple(Fraction(k, 2) for k in range(1, 7))  # 1/2 .. 3, the coupling limit
SPIN_HALF_TAGS = rotations.STATE_TAGS[:-1]  # spin_j_singlet needs --j
FLOAT_REL = 1e-9
# Bell-search denominators of float_kernels; reference.json holds their counts.
SEARCH_DENOMINATORS = (6, 9, 12)


class Wrong(Exception):
    """An op returned an output that fails its check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Wrong(message)


def close(a: float, b: float, what: str) -> None:
    expect(abs(a - b) <= FLOAT_REL * max(abs(a), abs(b)) + 1e-12, f"{what}: {a!r} != {b!r}")


@dataclass
class Op:
    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any], None]
    split: str = ""  # size class for the per-layer split (n6, d12, ...)


# ---------------------------------------------------------------------------
# canonical forms for the stored seed values


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def scalar_key(s: ExactScalar) -> str:
    return f"{s.coefficient}:{s.radicand}"


def ket_lines(ket: Ket) -> list[str]:
    return [f"{label} {scalar_key(a)}" for label, a in sorted(ket.amplitudes.items())]


def table_digest(table: dict) -> str:
    lines = []
    for (s, m), state in sorted(table.items()):
        for (m1, m2), a in sorted(state.amplitudes.items()):
            lines.append(f"{s} {m} {m1} {m2} {scalar_key(a)}")
    return digest(lines)


def decomposition_digest(dec: rotations.SingletDecomposition) -> str:
    lines = []
    for pair in dec.pairs:
        lines += [f"m={pair.m}"] + ket_lines(pair.ket)
    if dec.center is not None:
        lines += ["center"] + ket_lines(dec.center)
    return digest(lines)


# ---------------------------------------------------------------------------
# exact oracles


def det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    out = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return sign * out


def permanent(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    return sum(
        (math.prod((rows[i][p[i]] for i in range(n)), start=Fraction(1)) for p in itertools.permutations(range(n))),
        Fraction(0),
    )


def perm_sign(image: tuple[int, ...]) -> int:
    sign, seen = 1, set()
    for start in range(len(image)):
        if start in seen:
            continue
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = image[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def check_expansion(s: inputs.ExactSet, out: Ket, signed: bool) -> None:
    """Every amplitude of the (anti)symmetrized ket against a Fraction oracle.

    The amplitude at label L is det (or permanent) of the rows L of the
    input matrix, times sqrt(prod radicands / n!); the symmetrizer then
    renormalizes.  Squares and signs are compared, so the oracle needs no
    exact square roots.  A permanent depends only on the multiset of L, so
    it is computed once per multiset.
    """
    n, dim = s.n, s.dim
    expected = {}
    for chosen in itertools.combinations(range(dim), n) if signed else itertools.combinations_with_replacement(range(dim), n):
        rows = [[s.columns[k][i] for k in range(n)] for i in chosen]
        value = det(rows) if signed else permanent(rows)
        if value:
            for order in set(itertools.permutations(range(n))):
                label = tuple(chosen[i] for i in order)
                expected[label] = value * perm_sign(order) if signed else value
    radicals = Fraction(math.prod(s.radicands))
    if signed:
        scale = radicals / math.factorial(n)
    else:
        scale = 1 / sum(v * v for v in expected.values())
    expect(set(out.amplitudes) == set(expected), f"{s.name}: support differs from the oracle")
    for label, value in expected.items():
        amp = out.amplitudes[label]
        expect(amp.squared() == value * value * scale, f"{s.name}: |amplitude| at {label}")
        expect((amp.coefficient > 0) == (value > 0), f"{s.name}: sign at {label}")


def check_row_orthonormality(table: dict) -> None:
    """Coupled rows of one m are orthonormal, summed exactly per radicand."""
    for (s, m), state in table.items():
        expect(state.norm_squared() == 1, f"row ({s},{m}) is not unit norm")
        for (s2, m2), other in table.items():
            if m2 != m or s2 <= s:
                continue
            buckets: dict[int, Fraction] = {}
            for key, a in state.amplitudes.items():
                b = other.amplitudes.get(key)
                if b is not None:
                    t = a * b
                    buckets[t.radicand] = buckets.get(t.radicand, Fraction(0)) + t.coefficient
            expect(not any(buckets.values()), f"rows ({s},{m}) and ({s2},{m2}) overlap")


# ---------------------------------------------------------------------------
# exact ops


def _antisymmetrize_op(s: inputs.ExactSet, signature: bool) -> Op:
    n = s.n
    swap = Permutation.swap(n, 0, n - 1)

    def run(t):
        out = t.call("permstats.antisymmetrize", permstats.antisymmetrize, s.kets)
        t.count("permstats.terms", s.terms)
        t.count("permstats.expanded", s.terms)
        t.count("permstats.nonzero", len(out.amplitudes))
        norm = t.call("kets.inner_product", inner_product, out, out)
        flipped = t.call("kets.permute_slots", permute_slots, out, swap)
        overlap = t.call("kets.inner_product", inner_product, out, flipped)
        sig = t.call("permstats.invariance_signature", permstats.invariance_signature, out) if signature else None
        return out, norm, flipped, overlap, sig

    def check(result):
        out, norm, flipped, overlap, sig = result
        expect(norm == ExactScalar(1), "antisymmetrized ket is not unit norm")
        expect(overlap == ExactScalar(-1) and flipped == -out, "swap does not flip the sign")
        for t in Permutation.transpositions(n):
            expect(permute_slots(out, t) == -out, f"transposition {t} does not flip the sign")
        if sig is not None:
            expect(all(v == p.sign for p, v in sig.items()), "signature is not the sign character")
        check_expansion(s, out, signed=True)

    return Op(f"antisymmetrize/{s.name}", run, check, f"n{n}")


def _symmetrize_op(s: inputs.ExactSet) -> Op:
    n = s.n

    def run(t):
        out = t.call("permstats.symmetrize", permstats.symmetrize, s.kets)
        t.count("permstats.terms", s.terms)
        t.count("permstats.expanded", s.terms)
        t.count("permstats.nonzero", len(out.amplitudes))
        norm = t.call("kets.inner_product", inner_product, out, out)
        sig = t.call("permstats.invariance_signature", permstats.invariance_signature, out)
        return out, norm, sig

    def check(result):
        out, norm, sig = result
        expect(norm == ExactScalar(1), "symmetrized ket is not unit norm")
        expect(all(v == 1 for v in sig.values()), "symmetrized ket is not permutation invariant")
        check_expansion(s, out, signed=False)

    return Op(f"symmetrize/{s.name}", run, check, f"n{n}")


CLASSES = {
    "fd": (permstats.PermutationExpansion.fermi_dirac, permstats.StatisticsClass.FERMI_DIRAC),
    "be": (permstats.PermutationExpansion.bose_einstein, permstats.StatisticsClass.BOSE_EINSTEIN),
    "mixed": (permstats.PermutationExpansion.mixed, permstats.StatisticsClass.NEITHER),
}


def _classify_op(s: inputs.ExactSet, construction: str) -> Op:
    builder, expected = CLASSES[construction]

    def run(t):
        expansion = t.call("permstats.expansion", builder, s.kets)
        t.count("permstats.terms", s.terms)
        return t.call("permstats.classify_statistics", permstats.classify_statistics, expansion)

    def check(result):
        expect(result == expected, f"{construction} classified as {result}")

    return Op(f"classify/{construction}/{s.name}", run, check, f"n{s.n}")


def _scalar_op(pairs: list[tuple[ExactScalar, ExactScalar]]) -> Op:
    def run(t):
        products = t.call("exact.mul", lambda: [a * b for a, b in pairs])
        sums = t.call("exact.add", lambda: [a + b for a, b in pairs])
        t.count("exact.mul_ops", len(pairs))
        t.count("exact.add_ops", len(pairs))
        return products, sums

    def check(result):
        for (a, b), p, s in zip(pairs, *result):
            expect(p.squared() == a.squared() * b.squared(), f"|{a} * {b}|")
            expect((p.coefficient > 0) == ((a.coefficient > 0) == (b.coefficient > 0)), f"sign of {a} * {b}")
            expect(s.squared() == (a.coefficient + b.coefficient) ** 2 * a.radicand, f"{a} + {b}")

    return Op("exact/mul+add", run, check)


def _cg_op(j1: Fraction, j2: Fraction) -> Op:
    def run(t):
        table = t.call("spin_algebra.cg_decompose", spin_algebra.cg_decompose, j1, j2)
        t.count("spin_algebra.cg_cells", sum(len(s.amplitudes) for s in table.values()))
        return table

    def check(table):
        expect(table_digest(table) == REFERENCE["cg"][f"{j1},{j2}"], f"cg({j1},{j2}) differs from the seed")
        check_row_orthonormality(table)

    return Op(f"cg/{j1},{j2}", run, check)


def _photon_op() -> Op:
    def check(table):
        expect(table_digest(table) == REFERENCE["photon"], "photon table differs from the seed")
        check_row_orthonormality(table)

    return Op("cg/photon", lambda t: t.call("spin_algebra.photon_pair_table", spin_algebra.photon_pair_table), check)


def _algebra_op(n: int, j: Fraction) -> Op:
    def check(result):
        expect(result.holds and result.max_residual == 0.0, f"rescaled algebra fails at n={n}, j={j}")

    return Op(
        f"algebra/n{n},j{j}",
        lambda t: t.call("spin_algebra.verify_rescaled_algebra", spin_algebra.verify_rescaled_algebra, n, j),
        check,
    )


def _decompose_op(j: Fraction) -> Op:
    def check(dec):
        expect(decomposition_digest(dec) == REFERENCE["decompose"][str(j)], f"decomposition j={j} differs from the seed")
        expect(dec.recombine() == rotations.spin_j_singlet(j), f"decomposition j={j} does not recombine")

    return Op(
        f"decompose/j{j}",
        lambda t: t.call("rotations.decompose_spin_j_singlet", rotations.decompose_spin_j_singlet, j),
        check,
    )


def _invariance_exact_op(tag: str, c: Fraction) -> Op:
    ket = rotations.make_state(tag)

    def check(result):
        invariant, deviation = REFERENCE["invariance"][f"{tag}/c{c}"]
        expect(result.invariant == invariant, f"{tag}: invariant={result.invariant}")
        close(result.max_deviation, deviation, f"{tag} deviation")

    return Op(
        f"invariance_exact/{tag}/c{c}",
        lambda t: t.call("rotations.invariance_exact", rotations.is_rotationally_invariant, ket, c=c),
        check,
    )


def _compare_op(law: str, total: int) -> Op:
    dist = {"half": condprob.SpinDistribution.half_weighted, "uniform": condprob.SpinDistribution.uniform}[law]()

    def check(result):
        matches, deviation = REFERENCE["compare_with_cg"][f"{law}/{total}"]
        expect(result.matches == matches, f"{law}/{total}: matches={result.matches}")
        expect(str(result.max_deviation) == deviation, f"{law}/{total}: deviation {result.max_deviation}")

    return Op(
        f"compare_with_cg/{law}/{total}",
        lambda t: t.call("condprob.compare_with_cg", condprob.compare_with_cg, dist, total),
        check,
    )


def exact_ops(rng: random.Random, tiny: bool = False) -> list[Op]:
    """The exact op list, run by the layer sweep (see ``sweep``).

    Term counts n! * prod(|support|) per set, the same for every seed:
    pythagorean n4 1944, n5 1920, n6 2880; hadamard n5 1920, n6 2880.  The
    list takes about 1.6 s and still includes n = 6.
    """
    if tiny:
        p3 = inputs.pythagorean_set(rng, 3, ((0, 1), (1, 2)))
        return [
            _antisymmetrize_op(p3, signature=True),
            _symmetrize_op(p3),
            _classify_op(p3, "fd"),
            _scalar_op(inputs.scalar_pairs(rng, [p3], 50)),
            _cg_op(Fraction(1), Fraction(1)),
            _photon_op(),
            _algebra_op(2, Fraction(1)),
            _decompose_op(Fraction(1)),
            _invariance_exact_op("singlet", Fraction(1, 2)),
            _compare_op("half", 0),
        ]
    p4 = inputs.pythagorean_set(rng, 4, ((0, 1), (2, 3), (1, 2)))
    p5 = inputs.pythagorean_set(rng, 5, ((0, 1), (2, 3)))
    p6 = inputs.pythagorean_set(rng, 6, ((0, 1),))
    h5 = inputs.hadamard_set(rng, 5, 2)
    h6 = inputs.hadamard_set(rng, 6, 1)
    sets = [p4, p5, p6, h5, h6]
    ops = [
        _antisymmetrize_op(p4, signature=True),
        _antisymmetrize_op(p5, signature=False),
        _antisymmetrize_op(p6, signature=False),
        _antisymmetrize_op(h5, signature=True),
        _antisymmetrize_op(h6, signature=False),
        _symmetrize_op(p4),
        _symmetrize_op(h5),
    ]
    ops += [_classify_op(p4, c) for c in CLASSES] + [_classify_op(h5, c) for c in CLASSES]
    ops.append(_scalar_op(inputs.scalar_pairs(rng, sets, 2000)))
    ops += [_cg_op(j1, j2) for j1 in SPINS for j2 in SPINS]
    ops.append(_photon_op())
    ops += [_algebra_op(n, j) for n in (1, 2, 3) for j in SPINS]
    ops += [_decompose_op(j) for j in SPINS]
    ops += [_invariance_exact_op(tag, c) for tag in SPIN_HALF_TAGS for c in (Fraction(1, 2), Fraction(1))]
    ops += [_compare_op(law, total) for law in ("half", "uniform") for total in range(-2, 3)]
    return ops


# ---------------------------------------------------------------------------
# float oracles


def _rotation(a: float) -> np.ndarray:
    return np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]])


def _grid(grid: int) -> np.ndarray:
    extra = [math.pi / 4, math.pi / 3, math.pi / 2, 2 * math.pi / 3]
    return np.array([2 * math.pi * k / grid for k in range(grid)] + extra)


def _dense(ket: Ket) -> np.ndarray:
    psi = np.zeros(ket.dims, dtype=complex)
    for label, amp in ket.amplitudes.items():
        psi[label] = complex(amp)
    return psi


def _rotated(psi: np.ndarray, a: np.ndarray) -> np.ndarray:
    """R(a) ⊗ R(a) applied to a 2x2 amplitude array, for every angle in ``a``."""
    r = np.stack([np.stack([np.cos(a), np.sin(a)], -1), np.stack([-np.sin(a), np.cos(a)], -1)], -2)
    return np.einsum("gij,gkl,jl->gik", r, r, psi)


# ---------------------------------------------------------------------------
# float_kernels


def _search_op(d: int) -> Op:
    reference_gaps = (Fraction(1, 3), Fraction(1, 3), Fraction(2, 3))

    def run(t):
        found = t.call("measurement.search_violations", measurement.search_violations, d)
        t.count("measurement.triples", math.comb(2 * d, 3))
        t.count("measurement.violations", len(found))
        return found

    def check(found):
        expect(len(found) == REFERENCE["search"][str(d)], f"d={d}: {len(found)} violations")
        for v in found:
            ev = v.evaluation
            expect(ev.violated and ev.lhs > ev.rhs, f"d={d}: {v.angles} is not a violation")
        if d % 3 == 0:
            expect(any(v.gaps == reference_gaps for v in found), f"d={d}: reference gaps missing")

    return Op(f"search/d{d}", run, check, f"d{d}")


def _invariance_grid_op(ket: Ket, c: Fraction, grid: int, index: int) -> Op:
    def run(t):
        t.count("rotations.grid_points", grid + 4)
        return t.call("rotations.invariance_grid", rotations.is_rotationally_invariant, ket, c=c, grid=grid)

    def check(result):
        psi = _dense(ket)
        worst = float(np.max(np.linalg.norm(_rotated(psi, float(c) * _grid(grid)) - psi, axis=(1, 2))))
        close(result.max_deviation, worst, "grid deviation")
        expect(result.invariant == (worst < 1e-12), "grid invariance verdict")

    return Op(f"invariance_grid/{index}", run, check)


def _isc_op(kets: list[tuple[Ket, Fraction]], grid: int) -> Op:
    """``is_isc`` on every (ket, c) of ``kets``, in one op."""

    def run(t):
        out = []
        for ket, c in kets:
            t.count("rotations.grid_points", grid + 4)
            out.append(t.call("rotations.is_isc", rotations.is_isc, ket, c=c, grid=grid))
        return out

    def check(results):
        angles = _grid(grid)
        for (ket, c), result in zip(kets, results, strict=True):
            p = np.abs(_rotated(_dense(ket), float(c) * angles)) ** 2
            correlated = np.max([abs(p[:, 0, 0] - 0.5), abs(p[:, 1, 1] - 0.5), p[:, 0, 1], p[:, 1, 0]], axis=0)
            anti = np.max([abs(p[:, 0, 1] - 0.5), abs(p[:, 1, 0] - 0.5), p[:, 0, 0], p[:, 1, 1]], axis=0)
            dev = np.minimum(correlated, anti)
            worst = float(dev.max())
            close(result.max_deviation, worst, "isc deviation")
            expect(not result.isc, "random ket reported perfectly correlated")
            witness = float(angles[np.argmax(dev >= worst - 1e-9)])
            close(result.witness_angle, witness, "isc witness angle")

    return Op("isc", run, check)


def _joint_op(ket: Ket, angles: tuple, index: int) -> Op:
    def check(table):
        psi = _dense(ket)
        bases = [_rotation(0.5 * (float(a) * math.pi if isinstance(a, Fraction) else a)) for a in angles]
        amp = np.einsum("ai,bj,ck,ijk->abc", *bases, psi)
        probs = np.abs(amp) ** 2
        for outcome, p in table.items():
            close(p, float(probs[tuple("+-".index(o) for o in outcome)]), f"P{outcome}")
        close(sum(table.entries.values()), 1.0, "total probability")

    return Op(
        f"joint/{index}",
        lambda t: t.call("measurement.joint_distribution", measurement.joint_distribution, ket, angles),
        check,
    )


RATIONAL_COS = {Fraction(0): 1, Fraction(1, 3): Fraction(1, 2), Fraction(1, 2): 0, Fraction(2, 3): Fraction(-1, 2), Fraction(1): -1}


def _gap_term(gap: Fraction) -> Fraction | float:
    """(1 - cos gap) / 4 = sin^2(gap/2) / 2, exact where cos is rational."""
    folded = gap % 2
    folded = min(folded, 2 - folded)
    if folded in RATIONAL_COS:
        return (1 - Fraction(RATIONAL_COS[folded])) / 4
    return math.sin(float(gap) * math.pi / 2) ** 2 / 2


def _wigner_op(angles: tuple[Fraction, Fraction, Fraction], variant: str, index: int) -> Op:
    def check(report):
        ti, tj, tk = angles
        lhs = _gap_term(abs(tk - ti))
        ij, jk = _gap_term(abs(tj - ti)), _gap_term(abs(tk - tj))
        for got, want in ((report.subset_probability, lhs), (report.superset_probability, ij + jk)):
            if isinstance(want, Fraction):
                expect(got == want, f"wigner {angles}: {got} != {want}")
            else:
                close(float(got), want, f"wigner {angles}")
        expect(report.consistent == (float(lhs) <= float(ij + jk) + 1e-12), f"wigner {angles} verdict")

    return Op(
        f"wigner/{index}",
        lambda t: t.call("measurement.wigner_argument", measurement.wigner_argument, *angles, variant=variant),
        check,
    )


def _beam_op(atoms: int, hypothesis: str, seed: int) -> Op:
    null = "uniform" if hypothesis == "paper" else "paper"

    def run(t):
        config = beam.BeamConfig(atoms, hypothesis, seed)
        result = t.call("beam.simulate_beam", beam.simulate_beam, config)
        t.count("beam.draws", atoms)
        report = t.call("beam.chi_square_discriminate", beam.chi_square_discriminate, result, null)
        return result, report

    def check(outcome):
        result, report = outcome
        counts = result.counts
        expect(sum(counts.values()) == atoms, "beam counts do not sum to the atom count")
        law = beam.hypothesis_distribution(hypothesis)
        for v, c in counts.items():
            p = float(law.probability(v))
            expect(abs(c - atoms * p) <= 6 * math.sqrt(atoms * p * (1 - p)), f"count {c} for {v} is implausible")
        expected = {v: atoms * float(beam.hypothesis_distribution(null).probability(v)) for v in counts}
        statistic = sum((counts[v] - expected[v]) ** 2 / expected[v] for v in counts)
        close(report.statistic, statistic, "chi-square statistic")
        close(report.p_value, math.exp(-statistic / 2), "chi-square p-value (df = 2)")
        expect(report.reject == (statistic > report.critical), "chi-square verdict")

    return Op(f"beam/{atoms}", run, check)


def float_ops(rng: random.Random, tiny: bool = False) -> list[Op]:
    """The float_kernels op list; ``tiny`` is the layer-sweep version.

    Sizes: Bell search at ``SEARCH_DENOMINATORS`` (220, 816 and 2 024
    triples); grid-1200 invariance on six float pair kets, and correlation
    on the same six as one op; 96 joint distributions on 3-particle kets
    and 32 Wigner triples, so the median op is a joint distribution; one
    10^7-atom beam.  Only the beam takes more than 0.2 s, so a run has over
    a dozen passes in which to find each op's best time.  Eleven ops are
    heavier than any joint distribution, and the lightest of them, the
    d = 6 search at about 18 ms, is the tail (11th-largest op): half the
    next op up, a hundred times the next op down.
    """
    grid, denominators, atoms, n_joint, n_wigner, n_kets = 1200, SEARCH_DENOMINATORS, 10**7, 96, 32, 6
    if tiny:
        grid, denominators, atoms, n_joint, n_wigner, n_kets = 360, (6,), 10**5, 4, 4, 1
    big = [_search_op(d) for d in denominators]
    pairs = [inputs.float_ket(rng, 2, 4) for _ in range(n_kets)]
    with_c = [(ket, (Fraction(1, 2), Fraction(1))[i % 2]) for i, ket in enumerate(pairs)]
    big += [_invariance_grid_op(ket, c, grid, i) for i, (ket, c) in enumerate(with_c)]
    big.append(_isc_op(with_c, grid))
    big.append(_beam_op(atoms, rng.choice(("paper", "uniform")), rng.randrange(2**32)))
    # Supports, angle kinds and denominators cycle with the op index rather
    # than being drawn, so every seed asks for the same amount of work.
    small = []
    triples = [inputs.float_ket(rng, 3, 4 + i % 5) for i in range(8)]
    for i in range(n_joint):
        angles = tuple(
            inputs.pi_multiple(rng, 12) if (i + k) % 2 else rng.uniform(0, 2 * math.pi) for k in range(3)
        )
        small.append(_joint_op(triples[i % len(triples)], angles, i))
    for i in range(n_wigner):
        d = (3, 4, 6, 12)[i % 4]
        angles = tuple(inputs.pi_multiple(rng, d) for _ in range(3))
        small.append(_wigner_op(angles, ("same-state", "singlet-inclusive")[i % 2], i))
    # Small ops sit between the big ones, so each is timed at a different
    # moment of the pass rather than all within a few milliseconds.
    ops = []
    for i, op in enumerate(big):
        ops.append(op)
        ops += small[i :: len(big)]
    return ops


# ---------------------------------------------------------------------------
# cli_cold

GOLDEN_COMMANDS = {
    "state_singlet": ["state", "singlet", "--check-invariance", "--check-isc"],
    "bell_reference": ["bell", "--gaps", "pi/3,pi/3,2pi/3"],
    "wigner_same_state": ["wigner", "--angles", "0,pi/3,2pi/3"],
    "perm_antisymmetrize": ["perm", "antisymmetrize", "--states", "{two_spinors}"],
    "cg_one_one": ["cg", "--j1", "1", "--j2", "1"],
    "algebra_n2_j1": ["algebra", "--n", "2", "--j", "1"],
    "condprob_compare": ["condprob", "--prior", "1/4,1/2,1/4", "--total", "0", "--compare-cg"],
    "beam_seeded": ["beam", "--atoms", "100", "--hypothesis", "paper", "--seed", "7", "--test-null", "uniform"],
}


SPANS_MARKER = "PERFBENCH_SPANS "
CLI_TIMEOUT_S = 120


def cli_env() -> dict[str, str]:
    """The environment of every CLI child: spinstat from this checkout only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("SPINSTAT_SEED", None)
    return env


@dataclass
class CliOutput:
    code: int
    stdout: bytes
    peak_rss_kb: int = field(default=0, compare=False)  # the child's ru_maxrss


def run_cli(argv: list[str], t: Any, workdir: Path) -> CliOutput:
    """One cold process; the traced run drives it through ``cli_probe.py``.

    The child is reaped with ``os.wait4`` so that its own peak RSS is
    known; its output goes to files in ``workdir``, which no pipe buffer
    can fill.  The probe writes its spans as the last line of stderr,
    which the parent attaches under the current op span.
    """
    if t.traced:
        cmd = [sys.executable, str(HERE / "cli_probe.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "spinstat", *argv]
    with open(workdir / "cli.out", "w+b") as out, open(workdir / "cli.err", "w+b") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=cli_env(), stdout=out, stderr=err)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read().decode()
    if t.traced:
        marked = [l for l in stderr.splitlines() if l.startswith(SPANS_MARKER)]
        expect(bool(marked), f"probe wrote no spans: {stderr[-500:]}")
        t.add_child_spans(json.loads(marked[-1][len(SPANS_MARKER):]))
        t.count("cli.emit_bytes", len(stdout))
    return CliOutput(proc.returncode, stdout, usage.ru_maxrss)


def _cli_op(name: str, argv: list[str], check: Callable[[CliOutput], None], workdir: Path) -> Op:
    return Op(f"cli/{name}", lambda t: run_cli(argv, t, workdir), check)


def cli_ops(rng: random.Random, workdir: Path) -> list[Op]:
    """The ten cold CLI calls, in a seeded round-robin order.

    The 8 golden commands must reproduce ``tests/golden`` byte for byte;
    the 7x7 coupling table in CSV must match the seed's digest; the
    over-capacity ``perm energy`` must exit 1 with code ``capacity``.
    """
    spinors = workdir / "two_spinors.txt"
    spinors.write_text(inputs.state_file_text([Ket((2,), {(0,): ExactScalar(1)}), Ket((2,), {(1,): ExactScalar(1)})]))
    ops = []
    for name, argv in GOLDEN_COMMANDS.items():
        golden = (ROOT / "tests" / "golden" / f"{name}.json").read_bytes()
        argv = [a.format(two_spinors=spinors) for a in argv]

        def check(out: CliOutput, golden: bytes = golden, name: str = name) -> None:
            expect(out.code == 0, f"{name}: exit {out.code}")
            expect(out.stdout == golden, f"{name}: stdout differs from tests/golden")

        ops.append(_cli_op(name, argv, check, workdir))

    def check_csv(out: CliOutput) -> None:
        expect(out.code == 0, f"cg csv: exit {out.code}")
        expect(hashlib.sha256(out.stdout).hexdigest() == REFERENCE["cli"]["cg_j3_j3_csv"], "cg csv differs from the seed")

    def check_error(out: CliOutput) -> None:
        expect(out.code == 1, f"capacity error: exit {out.code}")
        expect(json.loads(out.stdout)["error"]["code"] == "capacity", "capacity error: wrong code")

    ops.append(_cli_op("cg_j3_j3_csv", ["cg", "--j1", "3", "--j2", "3", "--format", "csv"], check_csv, workdir))
    capacity = ["perm", "energy", "--levels", "1,2", "--count", "5"]
    ops.append(_cli_op("perm_energy_capacity", capacity, check_error, workdir))
    start = rng.randrange(len(ops))
    return ops[start:] + ops[:start]


def cli_sweep_ops(workdir: Path) -> list[Op]:
    """In-process CLI calls for the sweep of float_kernels."""
    import cli_probe

    spinors = workdir / "sweep_spinors.txt"
    spinors.write_text(inputs.state_file_text([Ket((2,), {(0,): ExactScalar(1)}), Ket((2,), {(1,): ExactScalar(1)})]))
    ops = []
    for name in ("state_singlet", "perm_antisymmetrize"):
        argv = [a.format(two_spinors=spinors) for a in GOLDEN_COMMANDS[name]]
        golden = (ROOT / "tests" / "golden" / f"{name}.json").read_bytes()

        def run(t, argv=argv):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = cli_probe.instrumented_main(t, argv)
            t.count("cli.emit_bytes", len(buffer.getvalue().encode()))
            return CliOutput(code, buffer.getvalue().encode())

        def check(out, golden=golden, name=name):
            expect(out.code == 0 and out.stdout == golden, f"{name}: in-process output differs from tests/golden")

        ops.append(Op(f"cli-inprocess/{name}", run, check))
    return ops


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli_cold":
        return cli_ops(rng, workdir)
    return float_ops(rng)


def sweep(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Calls into every layer the workload's own ops do not reach.

    Every traced run reports every per-layer metric; a layer a workload
    never calls is measured here instead, once.  The traced run of
    float_kernels runs the full exact op list, so that the exact layers
    are measured at their real sizes; cli_cold's runs small versions.
    """
    rng = random.Random(f"sweep:{workload}:{seed}")
    if workload == "float_kernels":
        return exact_ops(rng) + cli_sweep_ops(workdir)
    return exact_ops(rng, tiny=True) + float_ops(rng, tiny=True)
