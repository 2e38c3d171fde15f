"""The spinstat benchmark.

    python3 perfbench/run.py --workload float_kernels --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25

Run from the root of a spinstat checkout; spinstat is imported from its
``src/``.  One workload per call: the last line of stdout is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
``--all`` runs every workload untraced, each in its own process, and
prints a table of every end-to-end metric plus ``fail_ratio``.

Load is a closed loop with one client: one op at a time, on one thread,
with at most one CLI child alive.  Passes over the workload's fixed op
list repeat while another pass fits in ``--seconds``.  See README.md for
the metrics and the reasons for every workload and size.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Recorder, Untraced, latencies, self_time, tail, wall

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("cli_cold", "float_kernels")
SETUP_PROBES = 7
IMPORT_PROBES = 3
# cli_cold makes a fixed number of passes, so that its percentiles are taken
# over the same 50 cold processes whatever the program's speed.  A traced
# run makes two untraced and two traced passes.
CLI_PASSES = 5
CLI_TRACED_PASSES = 4

# per-layer time metric -> the span names it sums
METRIC_SPANS = {
    "cli.parse_ms": ("cli.parse",),
    "cli.state_file_ms": ("cli.state_file",),
    "cli.handler_ms": ("cli.handler",),
    "cli.emit_ms": ("cli.emit",),
    "kets.inner_product_ms": ("kets.inner_product",),
    "kets.permute_slots_ms": ("kets.permute_slots",),
    "permstats.antisymmetrize_ms": ("permstats.antisymmetrize",),
    "permstats.symmetrize_ms": ("permstats.symmetrize",),
    "permstats.classify_ms": ("permstats.expansion", "permstats.classify_statistics"),
    "permstats.signature_ms": ("permstats.invariance_signature",),
    "spin_algebra.cg_decompose_ms": ("spin_algebra.cg_decompose",),
    "spin_algebra.verify_algebra_ms": ("spin_algebra.verify_rescaled_algebra",),
    "condprob.compare_with_cg_ms": ("condprob.compare_with_cg",),
    "rotations.invariance_exact_ms": ("rotations.invariance_exact",),
    "rotations.invariance_grid_ms": ("rotations.invariance_grid",),
    "rotations.isc_ms": ("rotations.is_isc",),
    "measurement.search_ms": ("measurement.search_violations",),
    "measurement.joint_ms": ("measurement.joint_distribution",),
    "measurement.wigner_ms": ("measurement.wigner_argument",),
    "beam.simulate_ms": ("beam.simulate_beam",),
    "beam.chi_square_ms": ("beam.chi_square_discriminate",),
}
COUNTERS = (
    "cli.emit_bytes",
    "permstats.terms",
    "spin_algebra.cg_cells",
    "rotations.grid_points",
    "measurement.triples",
    "measurement.violations",
    "beam.draws",
)
LAYERS = ("import", "cli", "exact", "kets", "permstats", "spin_algebra", "condprob", "rotations", "measurement", "beam")


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload untraced and print a table")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    return args


def require_checkout() -> None:
    """Refuse to run anywhere but the root of a spinstat checkout."""
    missing = [p for p in (SRC / "spinstat" / "__init__.py", ROOT / "tests" / "golden") if not p.exists()]
    if missing:
        print(f"perfbench: not a spinstat checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import spinstat

    if Path(spinstat.__file__).resolve().parent != (SRC / "spinstat").resolve():
        print(f"perfbench: imported spinstat from {spinstat.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# measuring


class Measurement:
    """Per-op samples of one run, split by untraced and traced passes."""

    def __init__(self, ops):
        self.ops = ops
        self.plain: list[dict[str, float]] = []  # one {op: seconds} per pass
        self.traced: list[dict[str, float]] = []
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.traced_passes = 0
        self.child_peak_kb = 0  # largest ru_maxrss of a CLI child

    def run_op(self, op, tracer, op_id: str) -> float | None:
        """Run and check one op; return its time, or None if it failed."""
        import workloads

        self.attempted += 1
        try:
            # The timeit rule: no cyclic collection inside a timed op.  Each
            # pass allocates the same objects, so a collection would land in
            # the same op every pass, and its cost is set by the objects the
            # benchmark itself holds.  Collections run between ops instead.
            gc.disable()
            try:
                start = time.perf_counter()
                if tracer.traced:
                    tracer.op = op_id
                    with tracer.span("op"):
                        result = op.run(tracer)
                else:
                    result = op.run(tracer)
                elapsed = time.perf_counter() - start
            finally:
                gc.enable()
            self.child_peak_kb = max(self.child_peak_kb, getattr(result, "peak_rss_kb", 0))
            if op.name not in self.first:
                op.check(result)
                self.first[op.name] = result
            elif result != self.first[op.name]:
                raise workloads.Wrong("output differs from the first pass")
        except Exception:  # one failed op must not stop the run
            self.failed += 1
            print(f"perfbench: op {op_id} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        return elapsed

    def run(self, seconds: float, recorder, passes: int | None = None, probes: SetupProbes | None = None) -> None:
        """Passes over the op list: ``passes`` of them if given, else while
        another pass fits in ``seconds``.

        With a recorder, passes alternate untraced and traced so that the
        tracing overhead is measured under the same conditions.  Set-up
        probes run between ops; their time does not count against
        ``seconds``.
        """
        tracers = (Untraced(),) if recorder is None else (Untraced(), recorder)
        start = time.perf_counter()
        pass_times: list[float] = []
        k = 0
        while True:
            tracer = tracers[k % len(tracers)]
            self.traced_passes += tracer.traced
            times = {}
            for op in self.ops:
                elapsed = self.run_op(op, tracer, f"p{k}:{op.name}")
                if elapsed is not None:
                    times[op.name] = elapsed
                if probes is not None:
                    probes.tick(elapsed or 0.0)
            (self.traced if tracer.traced else self.plain).append(times)
            pass_times.append(sum(times.values()))
            k += 1
            if k < len(tracers):
                continue
            if passes is not None:
                if k >= passes:
                    break
            else:
                spent = time.perf_counter() - start - (probes.spent if probes else 0.0)
                if spent + statistics.median(pass_times) > seconds:
                    break


class SetupProbes:
    """Time from spawning a fresh interpreter to its inputs being built.

    The ``SETUP_PROBES`` probes are spread over the run, one per
    ``seconds / SETUP_PROBES`` of op time, so that their median sees the
    machine in the same state as the passes rather than in one window of
    a few seconds.  Probes the run has no time left for run at its end.
    """

    def __init__(self, workload: str, seed: int, workdir: Path, seconds: float):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)]
        self.every = seconds / SETUP_PROBES
        self.clock = self.every / 2
        self.samples: list[float] = []
        self.spent = 0.0

    def tick(self, op_seconds: float) -> None:
        self.clock += op_seconds
        if self.clock >= self.every and len(self.samples) < SETUP_PROBES:
            self.clock -= self.every
            self.probe()

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_PROBES:
            self.probe()
        return self.samples

    def probe(self) -> None:
        import workloads

        start = time.perf_counter()
        with subprocess.Popen(self.cmd, cwd=ROOT, env=workloads.cli_env(), stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        self.samples.append(elapsed)
        self.spent += time.perf_counter() - start


IMPORT_LINE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$")


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative import time in ms of spinstat, and of scipy and numpy in it.

    A package's time is the sum of the cumulative times of its outermost
    entries.  scipy and numpy are kept disjoint: a numpy module that scipy
    imports counts under scipy only, so an entry of either counts only when
    no entry enclosing it belongs to scipy or numpy.
    """
    entries = []
    for line in text.splitlines():
        m = IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4).split(".")[0], int(m.group(2)) / 1000))
    totals = {"spinstat": 0.0, "scipy": 0.0, "numpy": 0.0}
    # -X importtime prints children before their parent, one level deeper;
    # read backwards, the stack holds the packages enclosing each entry.
    stack: list[tuple[int, str]] = []
    for depth, package, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        rivals = {"spinstat"} if package == "spinstat" else {"scipy", "numpy"}
        if package in totals and not rivals & {p for _, p in stack}:
            totals[package] += cumulative
        stack.append((depth, package))
    return {"import.total_ms": totals["spinstat"], "import.scipy_ms": totals["scipy"], "import.numpy_ms": totals["numpy"]}


def import_breakdown() -> tuple[dict[str, float], int]:
    import workloads

    runs, failed = [], 0
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import spinstat"],
            cwd=ROOT, env=workloads.cli_env(), capture_output=True, text=True, timeout=60,
        )
        parsed = parse_importtime(proc.stderr)
        # The package must dominate its own import; scipy and numpy sit inside it.
        shares = parsed["import.scipy_ms"] + parsed["import.numpy_ms"]
        if proc.returncode or not parsed["import.total_ms"] or shares > parsed["import.total_ms"]:
            failed += 1
            continue
        runs.append(parsed)
    if not runs:
        raise RuntimeError("every -X importtime probe failed")
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}, failed


# ---------------------------------------------------------------------------
# per-layer metrics


def span_table(recorder, divisor: int) -> dict[str, dict[str, float]]:
    """Per span name: time, self time, calls and failures, per pass."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(recorder.spans, self_time(recorder.spans)):
        row = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0.0, "failed": 0.0})
        row["s"] += span.duration / divisor
        row["self_s"] += own / divisor
        row["calls"] += 1 / divisor
        row["failed"] += span.failed / divisor
    return out


def layer_metrics(
    measure: Measurement, passes, sweep, sweep_ops, imports: dict[str, float], import_failed: int
) -> tuple[dict[str, float], dict[str, float]]:
    """Every per-layer metric, and the split-by-size table for the report.

    A span name the workload's own ops reach is taken per traced pass; one
    they never reach comes from the sweep's single call.
    """
    own = span_table(passes, measure.traced_passes)
    extra = span_table(sweep, 1)
    names = {**extra, **own}
    counts = {k: v / measure.traced_passes for k, v in passes.counts.items()}
    counts = {**sweep.counts, **counts}
    peaks = {**sweep.peaks, **passes.peaks}

    def time_of(*span_names: str) -> float:
        return sum(names.get(n, {}).get("s", 0.0) for n in span_names)

    metrics = dict(imports)
    for metric, span_names in METRIC_SPANS.items():
        metrics[metric] = 1000 * time_of(*span_names)
    for key in COUNTERS:
        metrics[key] = counts.get(key, 0)
    metrics["exact.mul_us"] = 1e6 * time_of("exact.mul") / counts["exact.mul_ops"]
    metrics["exact.add_us"] = 1e6 * time_of("exact.add") / counts["exact.add_ops"]
    metrics["permstats.useful_ratio"] = counts["permstats.nonzero"] / counts["permstats.expanded"]
    metrics["beam.peak_traced_mb"] = peaks["beam.simulate_beam.peak_traced_mb"]
    for layer in LAYERS[1:]:
        rows = [row for n, row in names.items() if n.startswith(layer + ".")]
        metrics[f"{layer}.calls"] = sum(r["calls"] for r in rows)
        metrics[f"{layer}.failed"] = sum(r["failed"] for r in rows)
    metrics["import.calls"] = IMPORT_PROBES
    metrics["import.failed"] = import_failed
    metrics["root.self_ms"] = 1000 * own["op"]["self_s"]
    metrics["trace.overhead_s"] = wall(measure.traced) - wall(measure.plain)

    splits: dict[str, float] = {}
    for ops, recorder, divisor in ((measure.ops, passes, measure.traced_passes), (sweep_ops, sweep, 1)):
        split_of = {op.name: op.split for op in ops if op.split}
        for span in recorder.spans:
            split = split_of.get(span.op.split(":", 1)[-1])
            metric = next((m for m, ns in METRIC_SPANS.items() if span.name in ns), None)
            if split and metric and metric.startswith(("permstats.", "measurement.search")):
                key = f"{metric}[{split}]"
                splits[key] = splits.get(key, 0.0) + 1000 * span.duration / divisor
    return metrics, splits


# ---------------------------------------------------------------------------
# entry points


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        measure = Measurement(workloads.build(workload, seed, workdir))
        passes = Recorder() if trace else None
        probes = None if trace else SetupProbes(workload, seed, workdir, seconds)
        fixed = (CLI_TRACED_PASSES if trace else CLI_PASSES) if workload == "cli_cold" else None
        measure.run(seconds, passes, fixed, probes)
        if trace:
            sweep = Recorder()
            sweep_measure = Measurement(workloads.sweep(workload, seed, workdir))
            for op in sweep_measure.ops:
                sweep_measure.run_op(op, sweep, f"sweep:{op.name}")
            imports, import_failed = import_breakdown()
            metrics, splits = layer_metrics(measure, passes, sweep, sweep_measure.ops, imports, import_failed)
            attempted = measure.attempted + sweep_measure.attempted
            failed = measure.failed + sweep_measure.failed
            with open(OUT / f"spans-{workload}-{seed}.json", "w", encoding="utf-8") as fh:
                json.dump({"passes": passes.rows(), "sweep": sweep.rows(), "metrics": metrics, "splits": splits}, fh)
            for key, value in sorted(splits.items()):
                print(f"split {key} = {value:.3f}")
            print("wait_ms = 0 for every layer: one thread, closed loop, no queue")
            print(f"spans written to {OUT / f'spans-{workload}-{seed}.json'}")
            return {"attempted": attempted, "failed": failed, "metrics": metrics}
        values, basis = latencies(measure.plain)
        tail_s, percentile = tail(values)
        if workload == "cli_cold":
            peak_rss_mb = measure.child_peak_kb / 1024
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup = probes.finish()
        times = {
            "setup_s": statistics.median(setup),
            "wall_s": wall(measure.plain),
            "op_p50_ms": 1000 * statistics.median(values),
            "op_tail_ms": 1000 * tail_s,
        }
        with open(OUT / f"samples-{workload}-{seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"passes": measure.plain, "setup_s": setup}, fh)
        print(f"op_tail_ms is p{percentile:.1f} of {len(values)} {basis}; setup_s samples {setup}")
        metrics = {**times, "peak_rss_mb": peak_rss_mb}
        metrics["ok_ratio"] = (measure.attempted - measure.failed) / measure.attempted
        return {"attempted": measure.attempted, "failed": measure.failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, each in a fresh process, as one table."""
    print(f"{'workload':<14} {'metric':<12} {'value':>12} unit")
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        rows = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        rows["fail_ratio"] = (result["failed"] / result["attempted"], "ratio")
        for name, (value, u) in rows.items():
            print(f"{workload:<14} {name:<12} {value:>12.4f} {u}")
    return 0


def main() -> int:
    args = parse_args()
    require_checkout()
    if args.all:
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    unit = units()
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": unit[k]} for k, v in result["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
