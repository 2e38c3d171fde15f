"""Write reference.json: the seed commit's outputs for seed-independent ops.

    python3 perfbench/make_reference.py

Run it only when a change to spinstat alters one of these outputs on
purpose, and say why in the change; the benchmark checks every run
against this file.
"""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spinstat import condprob, measurement, rotations, spin_algebra  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    ref = {
        "cg": {
            f"{j1},{j2}": workloads.table_digest(spin_algebra.cg_decompose(j1, j2))
            for j1 in workloads.SPINS
            for j2 in workloads.SPINS
        },
        "photon": workloads.table_digest(spin_algebra.photon_pair_table()),
        "decompose": {
            str(j): workloads.decomposition_digest(rotations.decompose_spin_j_singlet(j)) for j in workloads.SPINS
        },
        "invariance": {},
        "compare_with_cg": {},
        "search": {str(d): len(measurement.search_violations(d)) for d in workloads.SEARCH_DENOMINATORS},
    }
    for tag in workloads.SPIN_HALF_TAGS:
        for c in (Fraction(1, 2), Fraction(1)):
            result = rotations.is_rotationally_invariant(rotations.make_state(tag), c=c)
            ref["invariance"][f"{tag}/c{c}"] = [result.invariant, result.max_deviation]
    laws = {"half": condprob.SpinDistribution.half_weighted(), "uniform": condprob.SpinDistribution.uniform()}
    for law, dist in laws.items():
        for total in range(-2, 3):
            result = condprob.compare_with_cg(dist, total)
            ref["compare_with_cg"][f"{law}/{total}"] = [result.matches, str(result.max_deviation)]
    csv = subprocess.run(
        [sys.executable, "-m", "spinstat", "cg", "--j1", "3", "--j2", "3", "--format", "csv"],
        env=workloads.cli_env(), capture_output=True, check=True,
    ).stdout
    ref["cli"] = {"cg_j3_j3_csv": hashlib.sha256(csv).hexdigest()}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
