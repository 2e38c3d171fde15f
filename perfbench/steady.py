"""Check that the benchmark is steady: many seeds, then two sets compared.

    python3 perfbench/steady.py --workload cli_cold --seeds 1-10 --out .perfbench/a.json
    python3 perfbench/steady.py --compare .perfbench/a.json .perfbench/b.json

The first form runs the untraced benchmark once per seed, one run at a
time, and prints each end-to-end metric's median and quartile spread (as a
share of the median) next to its bound.  The second form reports whether
two such sets of the same code agree: every spread within its bound, and
no median worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import compare_sets, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def collect(workload: str, seed_list: list[int], seconds: int) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for seed in seed_list:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect output\n{proc.stderr}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    return values


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2)
    args = p.parse_args()
    if args.compare:
        sets = [json.loads(Path(f).read_text()) for f in args.compare]
        problems = compare_sets(sets[0], sets[1], spec["end_to_end"])
        print("\n".join(problems) or "the two sets agree within every bound")
        return 1 if problems else 0
    values = collect(args.workload, args.seeds, spec["run_seconds"])
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        s = spread(v)
        print(f"{m['name']:<12} median {statistics.median(v):<12.5g} spread {s:.4f} bound {m['bound']} "
              f"({s / m['bound']:.2f} of bound)")
    if args.out:
        Path(args.out).write_text(json.dumps(values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
