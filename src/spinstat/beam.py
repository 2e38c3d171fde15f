"""Seeded Stern-Gerlach beam simulation and chi-square discrimination.

Draws are generated with numpy's counter-based Philox generator keyed by
the seed, and sampled by inverse CDF over the three outcomes in the fixed
order (+1, 0, -1).  Identical (seed, count, hypothesis) triples therefore
reproduce identical counts bit for bit, independent of platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .condprob import SpinDistribution
from .errors import InsufficientSampleError, InvalidValueError, SizeLimitError, UnknownTagError

#: Critical value of the chi-square distribution with 2 degrees of freedom
#: at the conventional 5% level.
DEFAULT_CRITICAL = 5.991

SPIN_VALUES = (1, 0, -1)

#: Most atoms one beam draws.  Time grows with the count while memory stays
#: at one chunk: a cold ``beam`` took 0.6 s at 10**7 atoms and 2.9 s at 10**8.
MAX_ATOMS = 10**8

#: Draws made at once.  Chunked ``random()`` calls continue one Philox stream,
#: so the counts do not depend on it; it bounds the memory of a large beam.
DRAW_CHUNK = 1 << 20

HYPOTHESES = {
    "uniform": SpinDistribution.uniform,
    "paper": SpinDistribution.half_weighted,
}


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


def simulate_beam(config: BeamConfig) -> BeamResult:
    """Draw ``n_atoms`` independent spin readings under the hypothesis."""
    import numpy as np

    dist = config.distribution()
    edges = np.cumsum([float(dist.probability(v)) for v in SPIN_VALUES[:-1]])
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    cells = np.zeros(len(SPIN_VALUES), dtype=np.int64)
    for start in range(0, config.n_atoms, DRAW_CHUNK):
        draws = rng.random(min(DRAW_CHUNK, config.n_atoms - start))
        cells += np.bincount(np.searchsorted(edges, draws, side="left"), minlength=cells.size)
    return BeamResult(config, dict(zip(SPIN_VALUES, cells.tolist())))


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
        raise InsufficientSampleError(
            f"expected counts {expected} below 5; increase the sample"
        )
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
