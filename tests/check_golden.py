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


# Each case expects exit 2 (a usage error) or exit 1 with the named error code.
# A case with state text appends the path of a file holding it to its argv.
BAD_INPUTS = {
    "negative-atoms": (["beam", "--atoms", "-1"], None, "invalid-value"),
    "atoms-above-limit": (["beam", "--atoms", str(MAX_ATOMS + 1)], None, "size-limit"),
    "negative-count": (["perm", "energy", "--levels", "1,2", "--count", "-1"], None, "invalid-value"),
    "descending-levels": (["perm", "energy", "--levels", "2,1", "--count", "1"], None, "invalid-value"),
    "prior-sum": (["condprob", "--prior", "1/2,1/2,1/2"], None, "invalid-value"),
    "zero-scale": (["algebra", "--n", "0", "--j", "1"], None, "invalid-value"),
    "algebra-spin-above-limit": (["algebra", "--n", "1", "--j", "20"], None, "size-limit"),
    "zero-angle-denominator": (["bell", "--gaps", "pi/0,pi,pi"], None, 2),
    "zero-grid": (["state", "singlet", "--check-invariance", "--grid", "0"], None, 2),
    "grid-above-limit": (
        ["state", "improper_singlet", "--check-isc", "--grid", str(MAX_GRID + 1)], None, "size-limit"
    ),
    # state takes no --tol: every state is exact, and an exact verdict is final.
    "negative-tol": (["state", "singlet", "--check-isc", "--tol", "-1"], None, 2),
    "tol-with-a-check": (["state", "singlet", "--check-isc", "--tol", "1"], None, 2),
    "zero-rate": (
        ["state", "improper_singlet", "--check-invariance", "--check-isc", "--c", "0"], None, "invalid-value"
    ),
    "overflowing-rate": (["state", "improper_singlet", "--check-isc", "--c", "1e308"], None, "invalid-value"),
    # The exact generator decides the singlet, but the grid and rate bounds still hold.
    "exactly-invariant-grid-above-limit": (
        ["state", "singlet", "--check-invariance", "--grid", str(MAX_GRID + 1)], None, "size-limit"
    ),
    "exactly-invariant-overflowing-rate": (
        ["state", "singlet", "--check-invariance", "--c", "1e308"], None, "invalid-value"
    ),
    "singlet-spin-above-limit": (["state", "spin_j_singlet", "--j", "1e400"], None, "size-limit"),
    "decompose-without-j": (["state", "singlet", "--decompose"], None, "invalid-value"),
    "decompose-of-another-tag": (["state", "triplet_plus", "--j", "3", "--decompose"], None, "invalid-value"),
    "j-for-a-tag-without-one": (["state", "singlet", "--j", "5/2"], None, "invalid-value"),
    "negative-seed": (["beam", "--atoms", "10", "--seed", "-1"], None, "invalid-value"),
    "critical-nan": (["beam", "--atoms", "100", "--test-null", "uniform", "--critical", "nan"], None, 2),
    "critical-inf": (["beam", "--atoms", "100", "--test-null", "uniform", "--critical", "inf"], None, 2),
    "zero-search-denominator": (["bell", "--search", "--denominator", "0"], None, 2),
    "search-denominator-above-limit": (["bell", "--search", "--denominator", "49"], None, "size-limit"),
    # A mode refuses every option that its handler does not read.
    "search-with-gaps": (["bell", "--search", "--gaps", "pi/3,pi/3,2pi/3"], None, "invalid-value"),
    "photon-with-spins": (["cg", "--photon", "--j1", "3", "--j2", "1/2"], None, "invalid-value"),
    "photon-with-one-spin": (["cg", "--photon", "--j1", "1"], None, "invalid-value"),
    "gaps-with-denominator": (["bell", "--gaps", "pi/3,pi/3,2pi/3", "--denominator", "5"], None, "invalid-value"),
    "critical-without-test-null": (["beam", "--atoms", "10", "--critical", "3"], None, "invalid-value"),
    "s-without-compare-cg": (["condprob", "--prior", "1/4,1/2,1/4", "--s", "1"], None, "invalid-value"),
    "grid-and-rate-without-a-check": (["state", "singlet", "--grid", "7", "--c", "1/3"], None, "invalid-value"),
    "tol-without-a-check": (["state", "singlet", "--tol", "1"], None, 2),
    "levels-and-count-with-states": (
        ["perm", "antisymmetrize", "--levels", "1,2", "--count", "3", "--states"], "+ 1\n\n- 1\n", "invalid-value"
    ),
    "states-for-energy": (["perm", "energy", "--levels", "1,2", "--count", "1", "--states"], "+ 1\n", "invalid-value"),
    "construction-without-classify": (
        ["perm", "symmetrize", "--construction", "be", "--states"], "+ 1\n\n- 1\n", "invalid-value"
    ),
    "signature-of-two-states": (["perm", "signature", "--states"], "+ 1\n\n- 1\n", "invalid-value"),
    # The refusal comes before any handler runs, so an unread option wins
    # over the domain error or the missing list that the handler would report.
    "search-with-gaps-above-limit": (
        ["bell", "--search", "--denominator", "49", "--gaps", "pi,pi,pi"], None, "invalid-value"
    ),
    "critical-without-test-null-above-limit": (
        ["beam", "--atoms", str(MAX_ATOMS + 1), "--critical", "3"], None, "invalid-value"
    ),
    "critical-with-negative-atoms": (["beam", "--atoms", "-1", "--critical", "3"], None, "invalid-value"),
    "decompose-of-singlet-grid-above-limit": (
        ["state", "singlet", "--decompose", "--check-isc", "--grid", str(MAX_GRID + 1)], None, "invalid-value"
    ),
    "denominator-with-two-gaps": (["bell", "--gaps", "pi/3,pi/3", "--denominator", "5"], None, "invalid-value"),
    "s-without-prior": (["condprob", "--s", "1"], None, "invalid-value"),
    "construction-for-energy-without-count": (
        ["perm", "energy", "--levels", "1,2", "--construction", "fd"], None, "invalid-value"
    ),
    # A missing or short required list ends with the generic code ``error``, one row per check.
    "bell-without-gaps": (["bell"], None, "error"),
    "bell-with-two-gaps": (["bell", "--gaps", "pi/3,pi/3"], None, "error"),
    "wigner-with-two-angles": (["wigner", "--angles", "0,pi/3"], None, "error"),
    "cg-with-one-spin": (["cg", "--j1", "1"], None, "error"),
    "energy-without-count": (["perm", "energy", "--levels", "1,2"], None, "error"),
    "signature-without-states": (["perm", "signature"], None, "error"),
    "condprob-without-prior": (["condprob"], None, "error"),
    "prior-of-two-values": (["condprob", "--prior", "1/2,1/2"], None, "error"),
    "exact-value-beyond-float": (
        ["perm", "energy", "--levels", "1e400,1e401", "--count", "1"], None, "invalid-value"
    ),
    "exact-value-beyond-float-in-float-mode": (
        ["perm", "energy", "--levels", "1e400,1e401", "--count", "1", "--mode", "float"], None, "invalid-value"
    ),
    "classify-above-state-limit": (
        ["perm", "classify", "--construction", "fd", "--states"], "\n".join(["+ 1\n"] * 12), "size-limit"
    ),
    "empty-state-file": (["perm", "signature", "--states"], "# nothing\n", "state-file"),
    "missing-amplitude": (["perm", "antisymmetrize", "--states"], "+,-\n", "state-file"),
    "repeated-label": (["perm", "antisymmetrize", "--states"], "+ 1\n+ 1/2\n", "state-file"),
    "label-longer-than-dims": (["perm", "antisymmetrize", "--states"], "dims 2\n+,- 1\n", "state-file"),
    "zero-amplitude-denominator": (["perm", "antisymmetrize", "--states"], "+ 1/0\n", "state-file"),
    "not-utf8": (["perm", "signature", "--states"], b"\xff\xfe\x00x\n", "state-file"),
    "prime-radicand-beyond-trial-division": (
        ["perm", "antisymmetrize", "--states"], "+ 1\n\n- sqrt(1000000000000000000000007)\n", "size-limit"
    ),
    "prime-norm-beyond-trial-division": (
        ["perm", "symmetrize", "--states"], "+ 1000000000000000000000007\n- 1\n\n+ 1\n", "size-limit"
    ),
    "irrational-norm": (
        ["perm", "symmetrize", "--states"],
        "+ 1/2*sqrt(2)\n- 1/2*sqrt(2)\n\n+ 1/3*sqrt(3)\n- 1/3*sqrt(6)\n",
        "incompatible-radicands",
    ),
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
