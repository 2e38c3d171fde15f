import math
import sys
import threading
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinstat import beam
from spinstat.beam import (
    DRAW_CHUNK,
    MAX_ATOMS,
    SMALL_BEAM,
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


def numpy_counts(n, hypothesis, seed):
    """Cells of ``Philox(key=seed).random(n)`` drawn in one shot: the oracle."""
    dist = hypothesis_distribution(hypothesis)
    edges = np.cumsum([float(dist.probability(v)) for v in SPIN_VALUES[:-1]])
    draws = np.random.Generator(np.random.Philox(key=seed)).random(n)
    cells = np.searchsorted(edges, draws, side="left")
    return {v: int(np.count_nonzero(cells == i)) for i, v in enumerate(SPIN_VALUES)}


@pytest.mark.parametrize(
    "hypothesis, seed", [("paper", 7), ("uniform", 123), ("paper", 2**128 - 1), ("uniform", 2**128 - 1)]
)
def test_chunked_draws_match_one_shot_draws(hypothesis, seed):
    for n in (0, 1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, DRAW_CHUNK + 12345):
        assert simulate_beam(BeamConfig(n, hypothesis, seed)).counts == numpy_counts(n, hypothesis, seed), n


@pytest.mark.parametrize("hypothesis", ["uniform", "paper"])
@pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**64, 2**128 - 1])
def test_counts_do_not_depend_on_the_worker_count(monkeypatch, hypothesis, seed):
    # Each worker starts on a whole Philox block; the chunk count caps the
    # workers, so 5 of them split only the largest beam five ways.
    sizes = (SMALL_BEAM + 1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 2 * DRAW_CHUNK + 3, 4 * DRAW_CHUNK + 12345)
    for n in sizes:
        expected = numpy_counts(n, hypothesis, seed)
        for workers in (1, 2, 3, 5):
            monkeypatch.setattr(beam, "_usable_cpus", lambda workers=workers: workers)
            assert simulate_beam(BeamConfig(n, hypothesis, seed)).counts == expected, (n, workers)


def python_counts(n, hypothesis, seed):
    """Draws at or below each CDF edge, counted by the pure-Python path."""
    dist = hypothesis_distribution(hypothesis)
    edges = list(accumulate(float(dist.probability(v)) for v in SPIN_VALUES[:-1]))
    return beam._count_in_python(seed, n, edges)


def at_or_below_edges(counts):
    return list(accumulate(counts[v] for v in SPIN_VALUES[:-1]))


# This process has loaded numpy, so simulate_beam draws every beam with it;
# these tests call the pure-Python path, which a cold process takes, directly.
@pytest.mark.parametrize("hypothesis", ["uniform", "paper"])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 2**64, 2**128 - 1])
def test_pure_python_draws_match_numpy_philox(hypothesis, seed):
    # Both sides of SMALL_BEAM, and the partial and whole blocks of 4 words.
    for n in (0, 1, 2, 3, 4, 5, SMALL_BEAM - 1, SMALL_BEAM, SMALL_BEAM + 1):
        expected = numpy_counts(n, hypothesis, seed)
        assert python_counts(n, hypothesis, seed) == at_or_below_edges(expected), n
        assert simulate_beam(BeamConfig(n, hypothesis, seed)).counts == expected, n


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, SMALL_BEAM),
    hypothesis=st.sampled_from(["uniform", "paper"]),
    seed=st.integers(0, 2**128 - 1),
)
def test_small_beams_follow_the_numpy_philox_stream(n, hypothesis, seed):
    assert python_counts(n, hypothesis, seed) == at_or_below_edges(numpy_counts(n, hypothesis, seed))


def test_pure_python_draws_only_while_numpy_is_not_loaded(monkeypatch):
    calls = []
    monkeypatch.setattr(beam, "_count_in_python", lambda seed, n, edges: calls.append("python") or [0, 0])
    monkeypatch.setattr(beam, "_count_with_numpy", lambda seed, n, edges: calls.append("numpy") or [0, 0])
    for n in (0, SMALL_BEAM, SMALL_BEAM + 1):
        simulate_beam(BeamConfig(n, "paper", 1))
    # The stubs import nothing, so hiding numpy cannot load a second copy.
    monkeypatch.delitem(sys.modules, "numpy")
    for n in (0, SMALL_BEAM, SMALL_BEAM + 1):
        simulate_beam(BeamConfig(n, "paper", 1))
    assert calls == ["numpy", "numpy", "numpy", "python", "python", "numpy"]


@pytest.mark.parametrize(
    "edge",
    [0.0, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1.0, math.nextafter(0.25, 0), math.nextafter(0.25, 1)],
)
def test_word_limit_is_the_draw_test(edge):
    # Both paths count a word w as at or below the edge when w <= top; that
    # must be exactly the draw (w >> 11) * 2**-53 at or below it.  At 1.0 the
    # limit is clamped to the largest word.
    top = beam._word_limit(edge)
    m = int(edge * 2**53)
    candidates = {0, 2**64 - 1, (m << 11) - 1, m << 11, (m << 11) | 0x7FF, (m + 1) << 11}
    words = sorted(w for w in candidates if 0 <= w < 2**64)
    expected = [(w >> 11) * 2**-53 <= edge for w in words]
    assert [w <= top for w in words] == expected
    assert (np.array(words, dtype=np.uint64) <= np.uint64(top)).tolist() == expected


def test_beam_memory_stays_at_one_chunk(monkeypatch):
    # The workers' buffers together stay within one chunk, whatever the CPUs.
    monkeypatch.setattr(beam, "_usable_cpus", lambda: 3)
    # Warm up above one chunk: the lazy imports of numpy.random and the
    # thread pool are not the beam's.
    simulate_beam(BeamConfig(DRAW_CHUNK + 1, "uniform", seed=3))
    tracemalloc.start()
    try:
        simulate_beam(BeamConfig(4 * DRAW_CHUNK, "uniform", seed=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * DRAW_CHUNK * np.dtype(np.float64).itemsize


def test_beams_of_one_chunk_start_no_thread(monkeypatch):
    monkeypatch.setattr(beam, "_usable_cpus", lambda: 4)
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    for n in (SMALL_BEAM + 1, DRAW_CHUNK):
        simulate_beam(BeamConfig(n, "uniform", seed=3))
    assert started == []
    # The positive control: one more atom makes two chunks and two workers.
    simulate_beam(BeamConfig(DRAW_CHUNK + 1, "uniform", seed=3))
    assert started


def test_worker_error_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(beam, "_usable_cpus", lambda: 2)
    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)

    def count_nonzero(*args, **kwargs):
        raise RuntimeError("count failed")

    monkeypatch.setattr(np, "count_nonzero", count_nonzero)
    with pytest.raises(RuntimeError, match="count failed"):
        simulate_beam(BeamConfig(2 * DRAW_CHUNK + 3, "uniform", seed=3))
    assert unhandled == []


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
    with pytest.raises(InsufficientSampleError) as error:
        chi_square_discriminate(result, "paper")
    # The cells carry the envelope's labels.
    assert str(error.value) == "expected counts below 5 (+1: 2.5, 0: 5.0, -1: 2.5); increase the sample"


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
