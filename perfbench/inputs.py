"""Seeded inputs for every workload.

Every generator takes a ``random.Random`` built from the workload seed, so
the same seed gives the same inputs.  Sizes are fixed by the structure of
each generator, not by the seed: the seed relabels basis vectors, picks
signs, angles and float amplitudes, but the support of every ket (and so
the number of permutation terms a kernel expands) and the size of every
exact number are the same for every seed.
That keeps run-to-run spread down to machine noise.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from spinstat.exact import ExactScalar, format_scalar
from spinstat.kets import Ket

# cos/sin pairs from Pythagorean triples: exactly orthonormal rotations.
PYTHAGOREAN = (
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
    (Fraction(20, 29), Fraction(21, 29)),
)


@dataclass(frozen=True)
class ExactSet:
    """An exact orthonormal set, kept both as kets and as an oracle matrix.

    ``columns[k]`` holds the rational amplitudes of ket ``k`` and
    ``radicands[k]`` the common radicand every amplitude of that ket
    carries, so ket ``k`` is ``sqrt(radicands[k]) * columns[k]``.
    """

    name: str
    kets: tuple[Ket, ...]
    columns: tuple[tuple[Fraction, ...], ...]
    radicands: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.kets)

    @property
    def dim(self) -> int:
        return self.kets[0].dims[0]

    @property
    def terms(self) -> int:
        """Terms a full permutation sum expands: n! * prod(|support|)."""
        return math.factorial(self.n) * math.prod(len(k.amplitudes) for k in self.kets)


def _relabel(rng: random.Random, dim: int) -> list[int]:
    order = list(range(dim))
    rng.shuffle(order)
    return order


def pythagorean_set(rng: random.Random, dim: int, pattern: tuple[tuple[int, int], ...]) -> ExactSet:
    """Columns of a rational orthogonal matrix built by Pythagorean twists.

    Each twist rotates two coordinates by a Pythagorean (cos, sin) pair,
    the construction the test suite uses for exact random states.  The
    coordinate pairs follow the fixed ``pattern`` after a seeded relabelling,
    so the support of every column is the same for every seed.  Twist ``t``
    uses ``PYTHAGOREAN[t]``: a seeded choice of triple would change the size
    of every numerator and denominator, and with it the cost of the
    permutation sums from seed to seed.
    """
    label = _relabel(rng, dim)
    cols = [[Fraction(int(i == k)) for i in range(dim)] for k in range(dim)]
    for t, (a, b) in enumerate(pattern):
        i, j = label[a], label[b]
        c, s = PYTHAGOREAN[t % len(PYTHAGOREAN)]
        if rng.random() < 0.5:
            s = -s
        for col in cols:
            vi, vj = col[i], col[j]
            col[i] = c * vi - s * vj
            col[j] = s * vi + c * vj
    rng.shuffle(cols)
    kets = tuple(
        Ket((dim,), {(i,): ExactScalar(v) for i, v in enumerate(col) if v}) for col in cols
    )
    return ExactSet(f"pythagorean/n{dim}", kets, tuple(tuple(c) for c in cols), (1,) * dim)


def hadamard_set(rng: random.Random, dim: int, pairs: int) -> ExactSet:
    """Basis vectors with ``pairs`` disjoint pairs replaced by (|a>±|b>)/sqrt(2)."""
    label = _relabel(rng, dim)
    cols: list[tuple[list[Fraction], int]] = []
    for k in range(dim):
        p = k // 2
        if p < pairs:
            a, b = label[2 * p], label[2 * p + 1]
            col = [Fraction(0)] * dim
            col[a] = Fraction(1, 2)
            col[b] = Fraction(1 if k % 2 == 0 else -1, 2)
            if rng.random() < 0.5:
                col = [-v for v in col]
            cols.append((col, 2))
        else:
            col = [Fraction(int(i == label[k])) for i in range(dim)]
            cols.append((col, 1))
    rng.shuffle(cols)
    kets = tuple(
        Ket((dim,), {(i,): ExactScalar(v, r) for i, v in enumerate(col) if v})
        for col, r in cols
    )
    return ExactSet(
        f"hadamard/n{dim}",
        kets,
        tuple(tuple(col) for col, _ in cols),
        tuple(r for _, r in cols),
    )


def scalar_pairs(rng: random.Random, sets: list[ExactSet], count: int) -> list[tuple[ExactScalar, ExactScalar]]:
    """Operand pairs drawn from the amplitudes of the exact inputs.

    Both operands of a pair share a radicand, so ``+`` is defined on every
    pair as well as ``*``.
    """
    by_radicand: dict[int, list[ExactScalar]] = {}
    for s in sets:
        for ket in s.kets:
            for amp in ket.amplitudes.values():
                by_radicand.setdefault(amp.radicand, []).append(amp)
    pools = [pool for _, pool in sorted(by_radicand.items())]
    out = []
    for _ in range(count):
        pool = rng.choice(pools)
        out.append((rng.choice(pool), rng.choice(pool)))
    return out


def float_ket(rng: random.Random, n_slots: int, support: int) -> Ket:
    """A normalized float ket on ``support`` distinct spin-1/2 labels."""
    labels = rng.sample(range(2**n_slots), support)
    amps = {}
    for flat in labels:
        label = tuple((flat >> (n_slots - 1 - s)) & 1 for s in range(n_slots))
        amps[label] = cmath.rect(rng.uniform(0.2, 1.0), rng.uniform(0, 2 * math.pi))
    return Ket((2,) * n_slots, amps).normalized()


def pi_multiple(rng: random.Random, denominator: int) -> Fraction:
    return Fraction(rng.randrange(2 * denominator), denominator)


def state_file_text(kets: list[Ket]) -> str:
    """Serialize spin-1/2 kets in the CLI's state-file format."""
    sections = []
    for ket in kets:
        lines = [f"dims {' '.join(map(str, ket.dims))}"]
        for label, amp in sorted(ket.amplitudes.items()):
            lines.append(f"{','.join('+-'[i] for i in label)} {format_scalar(amp)}")
        sections.append("\n".join(lines))
    return "\n\n".join(sections) + "\n"
