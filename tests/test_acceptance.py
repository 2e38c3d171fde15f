"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from conftest import random_orthonormal_kets
from test_permstats import naive_signed_sum

from spinstat.beam import BeamConfig, chi_square_discriminate, simulate_beam
from spinstat.condprob import SpinDistribution, compare_with_cg, conditional_given_total
from spinstat.exact import ExactScalar
from spinstat.kets import Ket
from spinstat.measurement import bell_inequality, search_violations
from spinstat.permstats import (
    PermutationExpansion,
    StatisticsClass,
    antisymmetrize,
    classify_statistics,
    invariance_signature,
)
from spinstat.rotations import conjugate_spinor_slot, is_isc, is_rotationally_invariant, make_state
from spinstat.spin_algebra import (
    cg_decompose,
    ladder_apply,
    photon_pair_table,
    verify_rescaled_algebra,
)

HALF = Fraction(1, 2)


def report(number: int, description: str, passed: bool) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {description}")
    assert passed, f"criterion {number}: {description}"


def test_criterion_1_singlet_invariance():
    start = time.perf_counter()
    singlet = make_state("singlet")
    exact = is_rotationally_invariant(singlet, c=HALF, grid=360)
    float_check = is_rotationally_invariant(singlet.to_float(), c=HALF, grid=360)
    excluded = make_state("excluded_combination")
    excluded_invariant = is_rotationally_invariant(excluded, c=HALF, grid=360)
    excluded_isc = is_isc(excluded, c=HALF, grid=360)
    elapsed = time.perf_counter() - start
    report(
        1,
        "singlet invariant (deviation exactly 0 exact, <1e-12 float); "
        "excluded combination invariant but not perfectly correlated; <1s",
        exact == (True, 0.0)
        and float_check.invariant
        and float_check.max_deviation < 1e-12
        and excluded_invariant == (True, 0.0)
        and not excluded_isc.isc
        and elapsed < 1.0,
    )


def test_criterion_2_bell_contradiction():
    start = time.perf_counter()
    ev = bell_inequality(Fraction(1, 3), Fraction(1, 3), Fraction(2, 3))
    violations = search_violations(denominator=12)
    reference = (Fraction(1, 3), Fraction(1, 3), Fraction(2, 3))
    elapsed = time.perf_counter() - start
    report(
        2,
        "gap inequality gives lhs=3/8 > rhs=1/4 exactly (doubled: 3/4 vs 1/2) "
        "and the pi/12 grid search finds the violating triple; <1s",
        ev.lhs == Fraction(3, 8)
        and ev.rhs == Fraction(1, 4)
        and ev.doubled_lhs == Fraction(3, 4)
        and ev.doubled_rhs == Fraction(1, 2)
        and ev.violated
        and any(v.gaps == reference for v in violations)
        and elapsed < 1.0,
    )


def test_criterion_3_signed_sum_oracle():
    start = time.perf_counter()
    rng = random.Random(31415)
    oracle_ok = True
    for n in (2, 3, 4, 5):
        states = random_orthonormal_kets(rng, n)
        oracle_ok = oracle_ok and antisymmetrize(states) == naive_signed_sum(states)
    duplicates_ok = True
    for _ in range(100):
        n = rng.choice((2, 3, 4))
        states = random_orthonormal_kets(rng, 4)[: n - 1]
        states.append(states[rng.randrange(n - 1)])
        duplicates_ok = duplicates_ok and antisymmetrize(states).is_zero
    elapsed = time.perf_counter() - start
    report(
        3,
        "antisymmetrizer equals the brute-force signed-sum oracle exactly for "
        "n<=5 and duplicates collapse to zero in 100/100 trials; <5s",
        oracle_ok and duplicates_ok and elapsed < 5.0,
    )


def test_criterion_4_statistics_trichotomy():
    rng = random.Random(999)
    ok = True
    for n in (2, 3, 4):
        states = random_orthonormal_kets(rng, n)
        ok = ok and classify_statistics(PermutationExpansion.fermi_dirac(states)) is StatisticsClass.FERMI_DIRAC
        ok = ok and classify_statistics(PermutationExpansion.bose_einstein(states)) is StatisticsClass.BOSE_EINSTEIN
        ok = ok and classify_statistics(PermutationExpansion.mixed(states)) is StatisticsClass.NEITHER
    basis = [Ket.basis((3,), (i,)) for i in range(3)]
    collapsed = PermutationExpansion.mixed([basis[0], basis[0], basis[2]]).realize()
    ok = ok and None in invariance_signature(collapsed).values()
    report(
        4,
        "signed/uniform/mixed expansions classify as the three statistics for "
        "n=2,3,4 and equal states break the mixed expansion's invariance",
        ok,
    )


def test_criterion_5_coupling_tables():
    start = time.perf_counter()
    one = ExactScalar(1)
    w2 = ExactScalar.sqrt(HALF)
    w23 = ExactScalar.sqrt(Fraction(2, 3))
    w6 = ExactScalar.sqrt(Fraction(1, 6))
    table = cg_decompose(1, 1)
    s2 = Fraction(2)
    stretched_ok = (
        table[(s2, Fraction(2))].amplitudes == {(Fraction(1), Fraction(1)): one}
        and table[(s2, Fraction(1))].amplitudes.get((Fraction(1), Fraction(0)), ExactScalar(0)) == w2
        and table[(s2, Fraction(1))].amplitudes.get((Fraction(0), Fraction(1)), ExactScalar(0)) == w2
        and table[(s2, Fraction(0))].amplitudes.get((Fraction(0), Fraction(0)), ExactScalar(0)) == w23
        and table[(s2, Fraction(0))].amplitudes.get((Fraction(1), Fraction(-1)), ExactScalar(0)) == w6
        and table[(s2, Fraction(0))].amplitudes.get((Fraction(-1), Fraction(1)), ExactScalar(0)) == w6
        and table[(s2, Fraction(-1))].amplitudes.get((Fraction(0), Fraction(-1)), ExactScalar(0)) == w2
        and table[(s2, Fraction(-1))].amplitudes.get((Fraction(-1), Fraction(0)), ExactScalar(0)) == w2
        and table[(s2, Fraction(-2))].amplitudes == {(Fraction(-1), Fraction(-1)): one}
    )
    half_table = cg_decompose(HALF, HALF)
    pair_singlet = half_table[(Fraction(0), Fraction(0))].ket
    anticorrelated_ok = pair_singlet == make_state("singlet")
    improper = make_state("improper_singlet")
    correlated_ok = conjugate_spinor_slot(pair_singlet, 1) in (improper, -improper)
    photon = photon_pair_table()
    lowered = ladder_apply("-", photon[(s2, Fraction(2))])
    photon_ok = (
        lowered.norm() == ExactScalar(4)
        and lowered.normalized() == photon[(s2, Fraction(0))]
        and photon[(s2, Fraction(0))].amplitudes.get((Fraction(1), Fraction(-1)), ExactScalar(0)) == w2
        and photon[(s2, Fraction(0))].amplitudes.get((Fraction(-1), Fraction(1)), ExactScalar(0)) == w2
        and photon[(Fraction(0), Fraction(0))].amplitudes.get((Fraction(1), Fraction(-1)), ExactScalar(0)) == w2
        and photon[(Fraction(0), Fraction(0))].amplitudes.get((Fraction(-1), Fraction(1)), ExactScalar(0)) == -w2
    )
    elapsed = time.perf_counter() - start
    report(
        5,
        "(1,1) stretched rows carry {1, 1/sqrt2, sqrt(2/3), 1/sqrt6} exactly; "
        "(1/2,1/2) gives the anticorrelated pair (and its correlated partner "
        "via spinor conjugation); n=2 ladder gives S-|2,2> = 4|2,0>; <1s",
        stretched_ok and anticorrelated_ok and correlated_ok and photon_ok and elapsed < 1.0,
    )


def test_criterion_6_rescaled_algebra():
    checks = [verify_rescaled_algebra(n, j) for n, j in ((1, HALF), (2, 1), (4, 2))]
    n2 = verify_rescaled_algebra(2, 1)
    report(
        6,
        "rescaled commutator residual exactly 0 for (n,j) in {(1,1/2),(2,1),(4,2)} "
        "and the n=2 ladder products equal 4x the unscaled ones exactly",
        all(c.max_residual == 0.0 for c in checks) and n2.ladder_product_identity,
    )


def test_criterion_7_conditional_identities():
    uniform = SpinDistribution.uniform(1)
    weighted = SpinDistribution.half_weighted()
    u_table = conditional_given_total(uniform, uniform, 0)
    w_table = conditional_given_total(weighted, weighted, 0)
    third = Fraction(1, 3)
    tables_ok = (
        u_table.probability(0, 0) == third
        and u_table.probability(1, -1) == third
        and u_table.probability(-1, 1) == third
        and w_table.probability(0, 0) == Fraction(2, 3)
        and w_table.probability(1, -1) == Fraction(1, 6)
        and w_table.probability(-1, 1) == Fraction(1, 6)
    )
    matched = compare_with_cg(weighted, 0)
    mismatched = compare_with_cg(uniform, 0)
    report(
        7,
        "uniform prior conditions to thirds, the (1/4,1/2,1/4) prior to "
        "(2/3,1/6,1/6); squared-coefficient deviation exactly 0 and 1/3",
        tables_ok and matched.max_deviation == 0 and mismatched.max_deviation == third,
    )


def test_criterion_8_beam_discrimination():
    start = time.perf_counter()
    power_rejections = sum(
        chi_square_discriminate(
            simulate_beam(BeamConfig(1000, "paper", seed=seed)), "uniform"
        ).reject
        for seed in range(500)
    )
    calibration_rejections = sum(
        chi_square_discriminate(
            simulate_beam(BeamConfig(10_000, "uniform", seed=seed)), "uniform"
        ).reject
        for seed in range(2000)
    )
    elapsed = time.perf_counter() - start
    rate = calibration_rejections / 2000
    report(
        8,
        f"beam test: power {power_rejections / 5:.1f}% >= 99% at N=1000, "
        f"null calibration {rate * 100:.1f}% within [3%, 7%] at N=10^4; "
        f"ran in {elapsed:.1f}s < 30s",
        power_rejections >= 495 and 0.03 <= rate <= 0.07 and elapsed < 30.0,
    )


def test_criterion_9_full_suite_under_a_minute(module_suite):
    if module_suite is None:  # this session does not run the module tests
        start = time.perf_counter()
        completed = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "--ignore", "tests/test_acceptance.py", "tests",
            ],
            cwd=str(Path(__file__).parent.parent),
            capture_output=True,
            text=True,
        )
        module_suite = (completed.returncode == 0, time.perf_counter() - start)
    passed, elapsed = module_suite
    report(
        9,
        f"all module tests pass in {elapsed:.1f}s < 60s",
        passed and elapsed < 60.0,
    )
