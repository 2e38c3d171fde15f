import math

import numpy as np
import pytest

from spinstat.beam import (
    DRAW_CHUNK,
    MAX_ATOMS,
    SPIN_VALUES,
    BeamConfig,
    BeamResult,
    chi_square_discriminate,
    hypothesis_distribution,
    simulate_beam,
)
from spinstat.errors import InsufficientSampleError, SizeLimitError, UnknownTagError


def test_hypothesis_distributions():
    uniform = hypothesis_distribution("uniform")
    assert float(uniform.probability(0)) == pytest.approx(1 / 3)
    paper = hypothesis_distribution("paper")
    assert float(paper.probability(0)) == 0.5
    with pytest.raises(UnknownTagError):
        hypothesis_distribution("coin-flip")


def test_simulation_is_deterministic():
    config = BeamConfig(5000, "paper", seed=123456789)
    first = simulate_beam(config)
    second = simulate_beam(config)
    assert first.counts == second.counts
    other_seed = simulate_beam(BeamConfig(5000, "paper", seed=987654321))
    assert other_seed.counts != first.counts


@pytest.mark.parametrize("hypothesis, seed", [("paper", 7), ("uniform", 123)])
def test_chunked_draws_match_one_shot_draws(hypothesis, seed):
    n = DRAW_CHUNK + 12345
    dist = hypothesis_distribution(hypothesis)
    edges = np.cumsum([float(dist.probability(v)) for v in SPIN_VALUES[:-1]])
    draws = np.random.Generator(np.random.Philox(key=seed)).random(n)
    cells = np.searchsorted(edges, draws, side="left")
    expected = {v: int(np.count_nonzero(cells == i)) for i, v in enumerate(SPIN_VALUES)}
    assert simulate_beam(BeamConfig(n, hypothesis, seed)).counts == expected


def test_empty_beam():
    result = simulate_beam(BeamConfig(0, "uniform", seed=1))
    assert result.counts == {1: 0, 0: 0, -1: 0}


@pytest.mark.parametrize("hypothesis", ["uniform", "paper"])
def test_proportions_within_four_standard_errors(hypothesis):
    n = 100_000
    result = simulate_beam(BeamConfig(n, hypothesis, seed=20260809))
    dist = hypothesis_distribution(hypothesis)
    for value in (1, 0, -1):
        p = float(dist.probability(value))
        se = math.sqrt(p * (1 - p) / n)
        assert abs(result.proportions[value] - p) < 4 * se


def test_chi_square_exact_match_statistic_zero():
    result = BeamResult(BeamConfig(1000, "paper", seed=0), {1: 250, 0: 500, -1: 250})
    report = chi_square_discriminate(result, "paper")
    assert report.statistic == 0.0
    assert not report.reject
    assert report.degrees_of_freedom == 2


def test_chi_square_separation_statistic():
    # Idealized half-weighted counts against the uniform null give
    # N * sum((p-q)^2 / q) = 1000 * 1/8 = 125.
    result = BeamResult(BeamConfig(1000, "paper", seed=0), {1: 250, 0: 500, -1: 250})
    report = chi_square_discriminate(result, "uniform")
    assert report.statistic == pytest.approx(125.0)
    assert report.reject
    assert report.p_value < 1e-20


def test_chi_square_expected_count_guard():
    result = simulate_beam(BeamConfig(10, "uniform", seed=5))
    with pytest.raises(InsufficientSampleError):
        chi_square_discriminate(result, "paper")


def test_small_sample_null_rarely_rejects():
    rejections = 0
    for seed in range(500):
        result = simulate_beam(BeamConfig(30, "uniform", seed=seed))
        if chi_square_discriminate(result, "uniform").reject:
            rejections += 1
    assert rejections <= 50  # no reject in >= 90% of seeds


def test_null_calibration_at_five_percent():
    rejections = 0
    runs = 2000
    for seed in range(runs):
        result = simulate_beam(BeamConfig(10_000, "uniform", seed=seed))
        if chi_square_discriminate(result, "uniform").reject:
            rejections += 1
    assert 0.03 <= rejections / runs <= 0.07


def test_power_against_uniform_null():
    rejections = 0
    runs = 500
    for seed in range(runs):
        result = simulate_beam(BeamConfig(1000, "paper", seed=seed))
        if chi_square_discriminate(result, "uniform").reject:
            rejections += 1
    assert rejections / runs >= 0.99


def test_config_validation():
    with pytest.raises(ValueError):
        BeamConfig(-1, "paper", seed=0)
    with pytest.raises(UnknownTagError):
        BeamConfig(10, "bogus", seed=0)
    with pytest.raises(SizeLimitError):
        BeamConfig(MAX_ATOMS + 1, "paper", seed=0)
    with pytest.raises(ValueError):
        BeamResult(BeamConfig(5, "paper", seed=0), {1: 1, 0: 1, -1: 1})
