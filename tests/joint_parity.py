"""Parity of ``measurement.joint_distribution`` with its per-pair reference form.

The reference is the earlier body of ``joint_distribution``: it builds the
dense layout in place, converts each angle with ``float(angle) * math.pi``,
rotates one index pair at a time, and builds its table with ``float()``,
``max()`` and ``tuple()`` per entry.  ``tests/test_measurement.py`` runs it
as a hypothesis oracle.  Run as a script, this module needs only the
standard library and ``src``, so it runs on any interpreter the package
supports::

    PYTHONPATH=src python tests/joint_parity.py --cases 4096 --seed 30

It compares the two on seeded cases, refusals included (exception type and
message), prints one JSON line with the counts and a digest of the
package's outcomes, and exits 1 on any mismatch.  The digest depends only on
the package's outcomes, so equal digests from two checkouts mean equal
tables there too.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import platform
import random
import sys
from fractions import Fraction

from spinstat.errors import InvalidValueError, ShapeError, SizeLimitError, SpinstatError
from spinstat.exact import ExactScalar
from spinstat.kets import Ket
from spinstat.measurement import MAX_JOINT_PARTICLES, joint_distribution


class PiMultiple(Fraction):
    """A ``Fraction`` subclass, which still reads as a multiple of pi."""


class ReferenceTable:
    """The per-entry table constructor the package used before."""

    def __init__(self, entries):
        cleaned = {}
        total = 0.0
        for outcome, p in entries.items():
            p = float(p)
            if p < -1e-12:
                raise InvalidValueError(f"negative probability {p} for {outcome}")
            p = max(p, 0.0)
            total += p
            cleaned[tuple(outcome)] = p
        if not abs(total - 1.0) <= 1e-12:
            raise InvalidValueError(f"probabilities sum to {total}, not 1")
        self.entries = cleaned


def reference_joint_distribution(ket, angles, c=Fraction(1, 2)):
    """The earlier ``joint_distribution``: one index pair at a time, slot 0 the highest bit."""
    if any(d != 2 for d in ket.dims):
        raise ShapeError(f"measurement needs spin-1/2 slots, got dims {ket.dims}")
    n = ket.n_particles
    if len(angles) != n:
        raise ShapeError(f"{len(angles)} angles for {n} particles")
    if n > MAX_JOINT_PARTICLES:
        raise SizeLimitError(f"joint tables support up to {MAX_JOINT_PARTICLES} particles")
    size = 1 << n
    keys = list(itertools.product("+-", repeat=n))
    index = {label: i for i, label in enumerate(itertools.product((0, 1), repeat=n))}
    slot_pairs = [[(i, i | bit) for i in range(size) if not i & bit] for bit in (size >> (s + 1) for s in range(n))]
    rate = float(c)
    amp = [0j] * size
    for label, a in ket.amplitudes.items():
        amp[index[label]] = complex(a)
    for pairs, angle in zip(slot_pairs, angles):
        t = rate * (float(angle) * math.pi if isinstance(angle, Fraction) else float(angle))
        if not math.isfinite(t):
            raise InvalidValueError(f"rotation angle {c} * {angle!r} is not finite")
        cos, sin = math.cos(t), math.sin(t)
        for i, j in pairs:
            x, y = amp[i], amp[j]
            amp[i] = cos * x + sin * y
            amp[j] = cos * y - sin * x
    return ReferenceTable(dict(zip(keys, [abs(z) ** 2 for z in amp])))


def outcome(joint, ket, angles, c) -> str:
    """``repr`` of the table's entries, or the refusal's type and message."""
    try:
        return repr(joint(ket, angles, c).entries)
    except (SpinstatError, ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


#: Rates of every kind a caller passes: exact halves and quarters, an int, floats.
RATES = (Fraction(1, 2), 1, Fraction(3, 4), 0.37, -2.5)


def random_ket(rng: random.Random, n: int, exact: bool, normalized: bool) -> Ket:
    """A nonzero ket on ``n`` spin-1/2 slots: exact ``q*sqrt(r)`` or complex amplitudes."""
    support = rng.randint(1, min(2**n, 16 if exact else 64))
    amps = {}
    for flat in rng.sample(range(2**n), support):
        label = tuple((flat >> (n - 1 - s)) & 1 for s in range(n))
        if exact:
            q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            amps[label] = ExactScalar(q, rng.choice((1, 2, 3)))
        else:
            amps[label] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) or 1j
    ket = Ket((2,) * n, amps)
    return ket.normalized() if normalized else ket


def random_angle(rng: random.Random):
    kind = rng.randrange(64)
    if kind == 0:
        return rng.choice((math.nan, math.inf, -math.inf, 1e308))
    if kind == 1:
        # Parts above 2**53, and thousands of turns.
        return Fraction(rng.randint(-(2**70), 2**70), rng.randint(1, 2**60))
    kind %= 4
    if kind == 0:
        return Fraction(rng.randint(-48, 48), rng.randint(1, 12))
    if kind == 1:
        return PiMultiple(rng.randint(-48, 48), rng.randint(1, 12))
    if kind == 2:
        return rng.randint(-7, 7)
    return rng.uniform(-10, 10)


def random_case(rng: random.Random):
    n = rng.randint(1, 10)
    ket = random_ket(rng, n, exact=rng.random() < 0.5, normalized=rng.random() < 0.875)
    return ket, [random_angle(rng) for _ in range(n)], rng.choice(RATES)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=30)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    digest = hashlib.sha256()
    identical = refused = 0
    for _ in range(args.cases):
        ket, angles, c = random_case(rng)
        got = outcome(joint_distribution, ket, angles, c)
        identical += got == outcome(reference_joint_distribution, ket, angles, c)
        refused += not got.startswith("{")
        digest.update(got.encode())
    report = {
        "python": platform.python_version(),
        "cases": args.cases,
        "seed": args.seed,
        "identical": identical,
        "refused": refused,
        "sha256": digest.hexdigest(),
    }
    print(json.dumps(report))
    return 0 if identical == args.cases else 1


if __name__ == "__main__":
    sys.exit(main())
