"""The golden CLI commands, and a check of their output against ``tests/golden``.

``tests/test_cli.py`` imports the command table from here.  Run as a script,
this module needs only the standard library and ``src``, so it runs on any
interpreter the package supports::

    PYTHONPATH=src python tests/check_golden.py --check

Each command runs through ``spinstat.cli.main`` in this process, and its
stdout is compared with ``tests/golden/<name>.json``.  The script names each
command whose output differs and prints a summary line; with ``--check`` it
exits 1 if any differs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import platform
import sys
from pathlib import Path

from spinstat.cli import main as cli_main

DATA = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_COMMANDS = {
    "state_singlet": ["state", "singlet", "--check-invariance", "--check-isc"],
    "bell_reference": ["bell", "--gaps", "pi/3,pi/3,2pi/3"],
    "wigner_same_state": ["wigner", "--angles", "0,pi/3,2pi/3"],
    "perm_antisymmetrize": ["perm", "antisymmetrize", "--states", str(DATA / "two_spinors.txt")],
    "cg_one_one": ["cg", "--j1", "1", "--j2", "1"],
    "algebra_n2_j1": ["algebra", "--n", "2", "--j", "1"],
    "condprob_compare": ["condprob", "--prior", "1/4,1/2,1/4", "--total", "0", "--compare-cg"],
    "beam_seeded": [
        "beam", "--atoms", "100", "--hypothesis", "paper", "--seed", "7",
        "--test-null", "uniform",
    ],
}


def run_cli(argv) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    return code, buffer.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="exit 1 if any output differs")
    args = parser.parse_args(argv)
    differ = []
    for name, command in GOLDEN_COMMANDS.items():
        code, output = run_cli(command)
        if code != 0 or output != (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"):
            differ.append(name)
            print(f"differs: {name}")
    same = len(GOLDEN_COMMANDS) - len(differ)
    print(f"Python {platform.python_version()}: {same} of {len(GOLDEN_COMMANDS)} golden commands print their golden bytes")
    return 1 if args.check and differ else 0


if __name__ == "__main__":
    sys.exit(main())
