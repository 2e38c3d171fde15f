"""Seeded Stern-Gerlach beam simulation and chi-square discrimination.

Draws come from the counter-based Philox4x64-10 stream keyed by the seed
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011),
exactly as numpy's ``Philox(key=seed)`` generates it: the key words are
``seed & (2**64 - 1)`` and ``seed >> 64``, the counter starts at 1, and each
64-bit word ``w`` gives the draw ``(w >> 11) * 2**-53``.  A beam of at most
``SMALL_BEAM`` atoms computes the same words in pure Python, so it never
imports numpy; a larger beam draws them with numpy in chunks, one thread per
usable CPU, each thread drawing its own contiguous range of whole Philox
blocks (block ``b`` depends only on the seed and ``b``).  Each draw is
sampled by inverse CDF over the three outcomes in the fixed order
(+1, 0, -1).  Identical (seed, count, hypothesis) triples therefore
reproduce identical counts bit for bit, independent of platform, path and
number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping

from .condprob import SpinDistribution
from .errors import InsufficientSampleError, InvalidValueError, SizeLimitError, UnknownTagError

#: Critical value of the chi-square distribution with 2 degrees of freedom
#: at the conventional 5% level.
DEFAULT_CRITICAL = 5.991

SPIN_VALUES = (1, 0, -1)

#: Most atoms one beam draws.  Time grows with the count while memory stays
#: at one chunk: a cold ``beam`` took 0.3-0.4 s at 10**7 atoms and 0.8-0.9 s
#: at 10**8 on 2 usable cores (1.1-1.4 s on one thread).
MAX_ATOMS = 10**8

#: Draws made at once, shared by the threads of a large beam: each has a
#: ``DRAW_CHUNK // threads`` buffer.  Chunked ``random()`` calls continue one
#: Philox stream, so the counts do not depend on it; it bounds the memory of a
#: large beam, and a beam of at most one chunk starts no thread.
DRAW_CHUNK = 1 << 18

#: Largest beam drawn in pure Python.  There one draw costs 1.2-1.7 us, so
#: 4096 draws take about 6 ms, while a cold import of numpy and
#: ``numpy.random`` takes about 155 ms (Python 3.11, numpy 2.4, a shared
#: 2-core x86 machine).  The price is paid in a warm process, where a beam of
#: at most ``SMALL_BEAM`` atoms costs up to about 6 ms more than numpy would.
#: It stays below the 10**4-atom beams of the calibration tests, which run
#: thousands of beams in one process.
SMALL_BEAM = 4096

_WORD = (1 << 64) - 1
# Philox4x64 round multipliers and key bumps (the Weyl constants).
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10

HYPOTHESES = {
    "uniform": SpinDistribution.uniform,
    "paper": SpinDistribution.half_weighted,
}


def cell_label(value: int) -> str:
    """The envelope's name of an outcome cell: ``+1``, ``0`` or ``-1``."""
    return f"{value:+d}" if value else "0"


def hypothesis_distribution(name: str) -> SpinDistribution:
    """The single-particle law for a named beam hypothesis.

    ``uniform`` is the equal-thirds law; ``paper`` is the (1/4, 1/2, 1/4)
    law of a triplet built from two independent half-spins.
    """
    try:
        return HYPOTHESES[name]()
    except KeyError:
        raise UnknownTagError(f"unknown hypothesis {name!r}") from None


@dataclass(frozen=True)
class BeamConfig:
    n_atoms: int
    hypothesis: str
    seed: int

    def __post_init__(self) -> None:
        if self.n_atoms < 0:
            raise InvalidValueError("atom count must be nonnegative")
        if self.n_atoms > MAX_ATOMS:
            raise SizeLimitError(f"the beam supports up to {MAX_ATOMS} atoms")
        if not 0 <= self.seed < 2**128:
            raise InvalidValueError("seed must be in [0, 2**128), the Philox key range")
        hypothesis_distribution(self.hypothesis)  # validates the name

    def distribution(self) -> SpinDistribution:
        return hypothesis_distribution(self.hypothesis)


@dataclass(frozen=True)
class BeamResult:
    config: BeamConfig
    counts: Mapping[int, int]

    def __post_init__(self) -> None:
        counts = {int(v): int(self.counts.get(v, 0)) for v in SPIN_VALUES}
        if sum(counts.values()) != self.config.n_atoms:
            raise ValueError("counts do not sum to the atom count")
        object.__setattr__(self, "counts", counts)

    @property
    def n_atoms(self) -> int:
        return self.config.n_atoms

    @property
    def proportions(self) -> dict[int, float]:
        n = self.n_atoms
        return {v: (c / n if n else 0.0) for v, c in self.counts.items()}


def _philox_words(seed: int, n: int) -> list[int]:
    """The first ``n`` words of numpy's ``Philox(key=seed)`` stream.

    Block ``ctr`` (from 1) yields four words.  A beam this small never
    carries into the counter's upper words, so they stay 0.
    """
    k0, k1 = seed & _WORD, seed >> 64
    keys = [
        ((k0 + r * _PHILOX_W0) & _WORD, (k1 + r * _PHILOX_W1) & _WORD)
        for r in range(_PHILOX_ROUNDS)
    ]
    words: list[int] = []
    for ctr in range(1, (n + 3) // 4 + 1):
        c0, c1, c2, c3 = ctr, 0, 0, 0
        for a, b in keys:
            p0, p1 = _PHILOX_M0 * c0, _PHILOX_M1 * c2
            c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ a, p1 & _WORD, (p0 >> 64) ^ c3 ^ b, p0 & _WORD
        words += (c0, c1, c2, c3)
    return words[:n]


def _count_in_python(seed: int, n: int, edges: list[float]) -> list[int]:
    # A draw (w >> 11) * 2**-53 is at most an edge exactly when its integer
    # mantissa is at most int(edge * 2**53); scaling by 2**53 is exact.
    mantissas = [w >> 11 for w in _philox_words(seed, n)]
    limits = [int(edge * 2**53) for edge in edges]
    return [sum(m <= limit for m in mantissas) for limit in limits]


def _usable_cpus() -> int:
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _count_range(seed: int, start: int, stop: int, chunk: int, edges: list[float]) -> list[int]:
    # Words start..stop of the stream; ``start`` is a multiple of 4, so
    # skipping start // 4 whole blocks lands on word ``start``.
    import numpy as np

    bits = np.random.Philox(key=seed)
    bits.advance(start // 4)
    rng = np.random.Generator(bits)
    at_or_below = [0] * len(edges)
    buffer = np.empty(min(chunk, stop - start))
    for lo in range(start, stop, chunk):
        draws = buffer[: min(chunk, stop - lo)]
        rng.random(out=draws)
        for i, edge in enumerate(edges):
            at_or_below[i] += int(np.count_nonzero(draws <= edge))
    return at_or_below


def _count_with_numpy(seed: int, n: int, edges: list[float]) -> list[int]:
    # Philox block b depends only on (seed, b), so each worker counts its own
    # contiguous range of whole blocks and the sums do not depend on the
    # number of workers.  numpy fills and compares without the GIL, so
    # threads run the ranges in parallel; their buffers share one DRAW_CHUNK.
    workers = min(_usable_cpus(), -(-n // DRAW_CHUNK))
    if workers <= 1:
        return _count_range(seed, 0, n, DRAW_CHUNK, edges)
    from concurrent.futures import ThreadPoolExecutor

    span = 4 * -(-n // (4 * workers))  # words per worker, in whole blocks

    def count(start: int) -> list[int]:
        return _count_range(seed, start, min(start + span, n), DRAW_CHUNK // workers, edges)

    # map re-raises a worker's error here, when its result is read.
    with ThreadPoolExecutor(workers) as pool:
        parts = list(pool.map(count, range(0, n, span)))
    return [sum(part) for part in zip(*parts)]


def simulate_beam(config: BeamConfig) -> BeamResult:
    """Draw ``n_atoms`` independent spin readings under the hypothesis."""
    dist = config.distribution()
    n = config.n_atoms
    edges = list(accumulate(float(dist.probability(v)) for v in SPIN_VALUES[:-1]))
    # A draw falls in cell i when it lies above edge i-1 and at most at edge
    # i, so counting the draws at or below each edge gives every cell.
    count = _count_in_python if n <= SMALL_BEAM else _count_with_numpy
    bounds = [0, *count(config.seed, n, edges), n]
    return BeamResult(config, {v: hi - lo for v, lo, hi in zip(SPIN_VALUES, bounds, bounds[1:])})


@dataclass(frozen=True)
class ChiSquareReport:
    statistic: float
    degrees_of_freedom: int
    critical: float
    p_value: float
    reject: bool
    null_hypothesis: str
    expected: Mapping[int, float]


def chi_square_discriminate(
    result: BeamResult,
    null_hypothesis: str,
    critical: float = DEFAULT_CRITICAL,
) -> ChiSquareReport:
    """Pearson chi-square of the observed counts against a named null.

    Requires every expected count to be at least 5 (the classical validity
    rule); df = 2 and the null is rejected when the statistic exceeds the
    critical value.  With two degrees of freedom the chi-square survival
    function is exactly ``exp(-statistic / 2)``.
    """
    null = hypothesis_distribution(null_hypothesis)
    n = result.n_atoms
    expected = {v: n * float(null.probability(v)) for v in SPIN_VALUES}
    if min(expected.values()) < 5:
        cells = ", ".join(f"{cell_label(v)}: {e}" for v, e in expected.items())
        raise InsufficientSampleError(f"expected counts below 5 ({cells}); increase the sample")
    statistic = sum(
        (result.counts[v] - expected[v]) ** 2 / expected[v] for v in SPIN_VALUES
    )
    df = len(SPIN_VALUES) - 1
    return ChiSquareReport(
        statistic=float(statistic),
        degrees_of_freedom=df,
        critical=critical,
        p_value=math.exp(-statistic / 2),
        reject=statistic > critical,
        null_hypothesis=null_hypothesis,
        expected=expected,
    )
