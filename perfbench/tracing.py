"""Span recording and the statistics the benchmark reports.

Spans are kept in memory while a run is measured and written out when it
ends.  A span records its name, start, end, parent span and the op it
belongs to; nested calls become child spans, and a span's self time is its
duration minus the part of it that its children cover.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

TAIL_BEYOND = 10
MEMORY_SPANS = frozenset({"beam.simulate_beam"})


class Untraced:
    """Calls layer functions directly; the end-to-end runs use this."""

    traced = False

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)

    def count(self, key: str, value: float) -> None:
        pass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Recorder(Untraced):
    """Records one span per layer call, plus counters, for the traced run.

    The peak allocation inside ``MEMORY_SPANS`` is taken with tracemalloc;
    it stays off for every other call so that it does not slow the rest of
    the run.
    """

    traced = True
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    peaks: dict[str, float] = field(default_factory=dict)
    op: str = ""
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        rec = Span(name, time.perf_counter(), 0.0, self.current(), self.op)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        except BaseException:
            rec.failed = True
            raise
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        if name not in MEMORY_SPANS:
            with self.span(name):
                return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            with self.span(name):
                return fn(*args, **kwargs)
        finally:
            self.peak(name + ".peak_traced_mb", tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, 0.0), value)

    def add_child_spans(self, rows: list[dict[str, Any]]) -> None:
        """Attach spans a child process recorded under the current span.

        ``rows`` carry child-local indices in ``parent``; ``perf_counter``
        reads the system-wide monotonic clock, so times need no offset.
        """
        parent, base = self.current(), len(self.spans)
        for row in rows:
            local = row["parent"]
            self.spans.append(
                Span(
                    row["name"],
                    row["start"],
                    row["end"],
                    parent if local is None else base + local,
                    self.op,
                    row["failed"],
                )
            )

    def rows(self) -> list[dict[str, Any]]:
        """The spans as JSON rows, with self time; nothing ever waits for a
        layer because one thread runs every op with no queue."""
        self_times = self_time(self.spans)
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "failed": s.failed,
                "self_s": self_times[i],
                "wait_s": 0.0,
            }
            for i, s in enumerate(self.spans)
        ]


def self_time(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(i, [])):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(s.duration - covered)
    return out


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``: the value has exactly ``TAIL_BEYOND``
    samples above it in sorted order.  With fewer than ``TAIL_BEYOND + 1``
    samples no such percentile exists and the maximum is returned at 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def best(passes: list[dict[str, float]]) -> dict[str, float]:
    """Each op's fastest time over the passes."""
    out: dict[str, float] = {}
    for times in passes:
        for op, t in times.items():
            out[op] = min(t, out.get(op, t))
    return out


def wall(passes: list[dict[str, float]]) -> float:
    """The op list's time once: the sum of each op's best time."""
    return sum(best(passes).values())


def corrected(passes: list[dict[str, float]]) -> list[float]:
    """Every op sample with its pass's slowdown divided out.

    The shared machine runs everything slower in stretches of seconds.  A
    pass's slowdown is its time over the sum of its ops' best times;
    dividing it out removes that drift and keeps the differences between
    samples within a pass.
    """
    fastest = best(passes)
    out = []
    for times in passes:
        if not times:
            continue
        slowdown = sum(times.values()) / sum(fastest[op] for op in times)
        out += [t / slowdown for t in times.values()]
    return out


def latencies(passes: list[dict[str, float]]) -> tuple[list[float], str]:
    """The values ``op_p50_ms`` and ``op_tail_ms`` are taken over, and their basis.

    With more than ``TAIL_BEYOND`` distinct ops these are the ops' best
    times, so the tail stays on one op class however many passes fit.  A
    shorter op list has no percentile with ten values beyond it among its
    ops, so every sample is used, with its pass's slowdown divided out.
    """
    fastest = best(passes)
    if len(fastest) > TAIL_BEYOND:
        return list(fastest.values()), "per-op best times"
    return corrected(passes), "slowdown-corrected samples"


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much ``second`` is worse than ``first``, as a share of ``first``."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def compare_sets(
    first: dict[str, list[float]],
    second: dict[str, list[float]],
    metrics: list[dict[str, Any]],
) -> list[str]:
    """Problems that stop two sets of runs of the same code from agreeing.

    Each spread must stay within the metric's bound in both sets, and no
    median may get worse between the sets by more than the bound.  An
    empty list means the sets agree.
    """
    problems = []
    for m in metrics:
        name, bound = m["name"], m["bound"]
        a, b = first[name], second[name]
        for label, values in (("first", a), ("second", b)):
            s = spread(values)
            if s > bound:
                problems.append(f"{name}: {label} spread {s:.4f} > bound {bound}")
        drift = worse_by(statistics.median(a), statistics.median(b), m["better"])
        if drift > bound:
            problems.append(f"{name}: median worse by {drift:.4f} > bound {bound}")
    return problems
