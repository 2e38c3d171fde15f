"""Fresh-interpreter set-up: import spinstat and build one workload's inputs.

Run as ``python perfbench/setup_probe.py <workload> <seed> <workdir>``; it
prints ``ready`` once the inputs exist, and the parent times the interval
from spawning it to reading that line.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spinstat  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print("ready", flush=True)
