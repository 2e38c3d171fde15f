"""The golden CLI commands, the refused inputs, and a runner of one CLI call.

``tests/test_cli.py`` and ``tests/make_ledger.py`` import the command table
(``GOLDEN_COMMANDS``), the table of refused inputs (``BAD_INPUTS``) and
:func:`run_cli` from here.  Each golden command's stdout is kept in
``tests/golden/<name>.json``; ``make_ledger.py --check`` confirms that each
file hashes to its command's digest in the ledger.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from spinstat.beam import MAX_ATOMS
from spinstat.cli import main as cli_main
from spinstat.rotations import MAX_GRID

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


def refused(name: str) -> str:
    """The path of the state file that the refused input ``name`` reads."""
    return str(DATA / "refused" / f"{name}.txt")


# Each case expects exit 2 (a usage error) or exit 1 with the named error code.
# A case that reads a state file reads ``tests/data/refused/<name>.txt``.
BAD_INPUTS = {
    "negative-atoms": (["beam", "--atoms", "-1"], "invalid-value"),
    "atoms-above-limit": (["beam", "--atoms", str(MAX_ATOMS + 1)], "size-limit"),
    "negative-count": (["perm", "energy", "--levels", "1,2", "--count", "-1"], "invalid-value"),
    "descending-levels": (["perm", "energy", "--levels", "2,1", "--count", "1"], "invalid-value"),
    "prior-sum": (["condprob", "--prior", "1/2,1/2,1/2"], "invalid-value"),
    "zero-scale": (["algebra", "--n", "0", "--j", "1"], "invalid-value"),
    "algebra-spin-above-limit": (["algebra", "--n", "1", "--j", "20"], "size-limit"),
    "zero-angle-denominator": (["bell", "--gaps", "pi/0,pi,pi"], 2),
    "zero-grid": (["state", "singlet", "--check-invariance", "--grid", "0"], 2),
    "grid-above-limit": (
        ["state", "improper_singlet", "--check-isc", "--grid", str(MAX_GRID + 1)], "size-limit"
    ),
    # state takes no --tol: every state is exact, and an exact verdict is final.
    "negative-tol": (["state", "singlet", "--check-isc", "--tol", "-1"], 2),
    "tol-with-a-check": (["state", "singlet", "--check-isc", "--tol", "1"], 2),
    "zero-rate": (
        ["state", "improper_singlet", "--check-invariance", "--check-isc", "--c", "0"], "invalid-value"
    ),
    "overflowing-rate": (["state", "improper_singlet", "--check-isc", "--c", "1e308"], "invalid-value"),
    # The exact generator decides the singlet, but the grid and rate bounds still hold.
    "exactly-invariant-grid-above-limit": (
        ["state", "singlet", "--check-invariance", "--grid", str(MAX_GRID + 1)], "size-limit"
    ),
    "exactly-invariant-overflowing-rate": (
        ["state", "singlet", "--check-invariance", "--c", "1e308"], "invalid-value"
    ),
    "singlet-spin-above-limit": (["state", "spin_j_singlet", "--j", "1e400"], "size-limit"),
    "spin-j-singlet-without-j": (["state", "spin_j_singlet"], "error"),
    "spin-zero-singlet": (["state", "spin_j_singlet", "--j", "0"], "invalid-spin"),
    # The rotation checks take spin-1/2 pairs only.
    "invariance-of-a-spin-one-singlet": (
        ["state", "spin_j_singlet", "--j", "1", "--check-invariance"], "shape-mismatch"
    ),
    "decompose-without-j": (["state", "singlet", "--decompose"], "invalid-value"),
    "decompose-of-another-tag": (["state", "triplet_plus", "--j", "3", "--decompose"], "invalid-value"),
    "j-for-a-tag-without-one": (["state", "singlet", "--j", "5/2"], "invalid-value"),
    "negative-seed": (["beam", "--atoms", "10", "--seed", "-1"], "invalid-value"),
    "critical-nan": (["beam", "--atoms", "100", "--test-null", "uniform", "--critical", "nan"], 2),
    "critical-inf": (["beam", "--atoms", "100", "--test-null", "uniform", "--critical", "inf"], 2),
    "zero-search-denominator": (["bell", "--search", "--denominator", "0"], 2),
    "search-denominator-above-limit": (["bell", "--search", "--denominator", "49"], "size-limit"),
    # A mode refuses every option that its handler does not read.
    "search-with-gaps": (["bell", "--search", "--gaps", "pi/3,pi/3,2pi/3"], "invalid-value"),
    "photon-with-spins": (["cg", "--photon", "--j1", "3", "--j2", "1/2"], "invalid-value"),
    "photon-with-one-spin": (["cg", "--photon", "--j1", "1"], "invalid-value"),
    "gaps-with-denominator": (["bell", "--gaps", "pi/3,pi/3,2pi/3", "--denominator", "5"], "invalid-value"),
    "critical-without-test-null": (["beam", "--atoms", "10", "--critical", "3"], "invalid-value"),
    "s-without-compare-cg": (["condprob", "--prior", "1/4,1/2,1/4", "--s", "1"], "invalid-value"),
    "grid-and-rate-without-a-check": (["state", "singlet", "--grid", "7", "--c", "1/3"], "invalid-value"),
    "tol-without-a-check": (["state", "singlet", "--tol", "1"], 2),
    "levels-and-count-with-states": (
        ["perm", "antisymmetrize", "--levels", "1,2", "--count", "3", "--states",
         refused("levels-and-count-with-states")],
        "invalid-value",
    ),
    "states-for-energy": (
        ["perm", "energy", "--levels", "1,2", "--count", "1", "--states", refused("states-for-energy")], "invalid-value"
    ),
    "construction-without-classify": (
        ["perm", "symmetrize", "--construction", "be", "--states", refused("construction-without-classify")],
        "invalid-value",
    ),
    "signature-of-two-states": (["perm", "signature", "--states", refused("signature-of-two-states")], "invalid-value"),
    # The refusal comes before any handler runs, so an unread option wins
    # over a missing needed option and over the handler's domain error.
    "search-with-gaps-above-limit": (
        ["bell", "--search", "--denominator", "49", "--gaps", "pi,pi,pi"], "invalid-value"
    ),
    "critical-without-test-null-above-limit": (
        ["beam", "--atoms", str(MAX_ATOMS + 1), "--critical", "3"], "invalid-value"
    ),
    "critical-with-negative-atoms": (["beam", "--atoms", "-1", "--critical", "3"], "invalid-value"),
    "critical-without-atoms": (["beam", "--critical", "3"], "invalid-value"),
    "decompose-of-singlet-grid-above-limit": (
        ["state", "singlet", "--decompose", "--check-isc", "--grid", str(MAX_GRID + 1)], "invalid-value"
    ),
    # A list of the wrong length is a usage error, even beside an unread option.
    "denominator-with-two-gaps": (["bell", "--gaps", "pi/3,pi/3", "--denominator", "5"], 2),
    "s-without-prior": (["condprob", "--s", "1"], "invalid-value"),
    "construction-for-energy-without-count": (
        ["perm", "energy", "--levels", "1,2", "--construction", "fd"], "invalid-value"
    ),
    # A missing needed option ends with the generic code ``error``; a three-value list of another length
    # is a usage error.
    "bell-without-gaps": (["bell"], "error"),
    "bell-with-two-gaps": (["bell", "--gaps", "pi/3,pi/3"], 2),
    "wigner-with-two-angles": (["wigner", "--angles", "0,pi/3"], 2),
    "cg-with-one-spin": (["cg", "--j1", "1"], "error"),
    "energy-without-count": (["perm", "energy", "--levels", "1,2"], "error"),
    "signature-without-states": (["perm", "signature"], "error"),
    "condprob-without-prior": (["condprob"], "error"),
    "prior-of-two-values": (["condprob", "--prior", "1/2,1/2"], 2),
    "wigner-without-angles": (["wigner"], "error"),
    "wigner-options-without-angles": (["wigner", "--variant", "singlet-inclusive", "--formula", "full"], "error"),
    "algebra-without-n-or-j": (["algebra"], "error"),
    "algebra-without-j": (["algebra", "--n", "2"], "error"),
    "algebra-without-n": (["algebra", "--j", "1"], "error"),
    "beam-without-atoms": (["beam"], "error"),
    "beam-options-without-atoms": (["beam", "--hypothesis", "uniform", "--seed", "3"], "error"),
    "exact-value-beyond-float": (
        ["perm", "energy", "--levels", "1e400,1e401", "--count", "1"], "invalid-value"
    ),
    "exact-value-beyond-float-in-float-mode": (
        ["perm", "energy", "--levels", "1e400,1e401", "--count", "1", "--mode", "float"], "invalid-value"
    ),
    "classify-above-state-limit": (
        ["perm", "classify", "--construction", "fd", "--states", refused("classify-above-state-limit")], "size-limit"
    ),
    "empty-state-file": (["perm", "signature", "--states", refused("empty-state-file")], "state-file"),
    "missing-amplitude": (["perm", "antisymmetrize", "--states", refused("missing-amplitude")], "state-file"),
    "repeated-label": (["perm", "antisymmetrize", "--states", refused("repeated-label")], "state-file"),
    "label-longer-than-dims": (
        ["perm", "antisymmetrize", "--states", refused("label-longer-than-dims")], "state-file"
    ),
    "zero-amplitude-denominator": (
        ["perm", "antisymmetrize", "--states", refused("zero-amplitude-denominator")], "state-file"
    ),
    "not-utf8": (["perm", "signature", "--states", refused("not-utf8")], "state-file"),
    "prime-radicand-beyond-trial-division": (
        ["perm", "antisymmetrize", "--states", refused("prime-radicand-beyond-trial-division")], "size-limit"
    ),
    "prime-norm-beyond-trial-division": (
        ["perm", "symmetrize", "--states", refused("prime-norm-beyond-trial-division")], "size-limit"
    ),
    "irrational-norm": (["perm", "symmetrize", "--states", refused("irrational-norm")], "incompatible-radicands"),
}


def run_cli(argv) -> tuple[int, str]:
    """The exit code and stdout of one call; a usage error's message on stderr is dropped."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse refuses a usage error with exit 2
            code = exc.code
    return code, buffer.getvalue()
