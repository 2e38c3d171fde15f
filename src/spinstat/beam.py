"""Seeded Stern-Gerlach beam simulation and chi-square discrimination.

Draws come from the counter-based Philox4x64-10 stream keyed by the seed
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011),
exactly as numpy's ``Philox(key=seed)`` generates it: the key words are
``seed & (2**64 - 1)`` and ``seed >> 64``, the counter starts at 1, and each
64-bit word ``w`` gives the draw ``(w >> 11) * 2**-53``.  Each draw is
sampled by inverse CDF over the three outcomes in the fixed order
(+1, 0, -1).  A beam of at most ``SMALL_BEAM`` atoms, drawn in a process
that has not loaded numpy, computes the words in pure Python and so never
imports it; any other beam draws them with numpy's ``Philox.random_raw`` in
chunks, one thread per usable CPU, each thread drawing its own contiguous range of whole Philox blocks (block ``b``
depends only on the seed and ``b``).  Both paths compare raw words: a draw is
at most a CDF edge exactly when its word is at most the edge's integer limit
(:func:`_word_limit`), so no float draw is formed.  Identical
(seed, count, hypothesis) triples therefore reproduce identical counts bit
for bit, independent of platform, path and number of threads.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate
from typing import Mapping, NamedTuple

from .condprob import SpinDistribution
from .errors import InsufficientSampleError, InvalidValueError, SizeLimitError, UnknownTagError
from .exact import Frozen

#: Critical value of the chi-square distribution with 2 degrees of freedom
#: at the conventional 5% level.
DEFAULT_CRITICAL = 5.991

SPIN_VALUES = (1, 0, -1)

#: Most atoms one beam draws.  Time grows with the count while memory stays
#: at one chunk: a cold ``beam`` took 0.25-0.65 s at 10**7 atoms and
#: 0.65-1.1 s at 10**8 on 2 usable cores (1.0-1.3 s on one), with a peak RSS
#: of about 37 MB at both sizes (Python 3.11, numpy 2.4, a shared x86
#: machine whose load varied).
MAX_ATOMS = 10**8

#: Words drawn at once, shared by the threads of a large beam: each holds one
#: ``DRAW_CHUNK // threads`` chunk of ``random_raw`` words at a time, so the
#: draw window is 512 KiB of words however large the beam.  The chunks
#: continue one Philox stream, so the counts do not depend on it, and a beam
#: of at most one chunk starts no thread.  At ``2**18`` words a 10**7-atom
#: beam's best time was up to about 10 % lower, but a cold large beam peaked
#: about 1.4 MB higher.
DRAW_CHUNK = 1 << 16

#: Largest beam drawn in pure Python.  There one draw costs 1.2-1.7 us, so
#: 4096 draws take about 6 ms, while a cold import of numpy and
#: ``numpy.random`` takes about 155 ms (Python 3.11, numpy 2.4, a shared
#: 2-core x86 machine).  A process that has already loaded numpy draws
#: every beam with it: warm, 1000 atoms take about 0.06 ms that way and
#: 2 ms in pure Python.
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


class BeamConfig(Frozen):
    __slots__ = ("n_atoms", "hypothesis", "seed")
    n_atoms: int
    hypothesis: str
    seed: int

    def __init__(self, n_atoms: int, hypothesis: str, seed: int) -> None:
        if n_atoms < 0:
            raise InvalidValueError("atom count must be nonnegative")
        if n_atoms > MAX_ATOMS:
            raise SizeLimitError(f"the beam supports up to {MAX_ATOMS} atoms")
        if not 0 <= seed < 2**128:
            raise InvalidValueError("seed must be in [0, 2**128), the Philox key range")
        hypothesis_distribution(hypothesis)  # validates the name
        object.__setattr__(self, "n_atoms", n_atoms)
        object.__setattr__(self, "hypothesis", hypothesis)
        object.__setattr__(self, "seed", seed)

    def distribution(self) -> SpinDistribution:
        return hypothesis_distribution(self.hypothesis)


class BeamResult(Frozen):
    __slots__ = ("config", "counts")
    config: BeamConfig
    counts: Mapping[int, int]

    def __init__(self, config: BeamConfig, counts: Mapping[int, int]) -> None:
        counts = {int(v): int(counts.get(v, 0)) for v in SPIN_VALUES}
        if sum(counts.values()) != config.n_atoms:
            raise ValueError("counts do not sum to the atom count")
        object.__setattr__(self, "config", config)
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


def _word_limit(edge: float) -> int:
    """Largest word whose draw ``(w >> 11) * 2**-53`` is at most ``edge``.

    Scaling by 2**53 is exact, so the draw is at most ``edge`` exactly when
    its mantissa ``w >> 11`` is at most ``int(edge * 2**53)``; an edge of 1
    or more admits every word.
    """
    return min((int(edge * 2**53) << 11) | 0x7FF, _WORD)


def _count_in_python(seed: int, n: int, edges: list[float]) -> list[int]:
    words = _philox_words(seed, n)
    return [sum(w <= top for w in words) for top in map(_word_limit, edges)]


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
    tops = [np.uint64(_word_limit(edge)) for edge in edges]
    at_or_below = [0] * len(edges)
    for lo in range(start, stop, chunk):
        words = bits.random_raw(min(chunk, stop - lo))
        for i, top in enumerate(tops):
            at_or_below[i] += int(np.count_nonzero(words <= top))
        del words  # freed before the next chunk is drawn
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
    # Both paths give equal counts; pure Python only saves a small beam numpy's import.
    count = _count_in_python if n <= SMALL_BEAM and "numpy" not in sys.modules else _count_with_numpy
    bounds = [0, *count(config.seed, n, edges), n]
    return BeamResult(config, {v: hi - lo for v, lo, hi in zip(SPIN_VALUES, bounds, bounds[1:])})


class ChiSquareReport(NamedTuple):
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
    # A loop, not sum(): from Python 3.12 sum() adds floats with
    # compensation, so the statistic would depend on the version.
    statistic = 0.0
    for v in SPIN_VALUES:
        statistic += (result.counts[v] - expected[v]) ** 2 / expected[v]
    df = len(SPIN_VALUES) - 1
    return ChiSquareReport(
        statistic=statistic,
        degrees_of_freedom=df,
        critical=critical,
        p_value=math.exp(-statistic / 2),
        reject=statistic > critical,
        null_hypothesis=null_hypothesis,
        expected=expected,
    )
