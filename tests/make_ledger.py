"""The CLI output ledger: a fixed corpus of calls, each with its exit code and stdout digest.

Run as a script, this module needs only the standard library and ``src``::

    PYTHONPATH=src python tests/make_ledger.py          # write tests/golden/ledger.json
    PYTHONPATH=src python tests/make_ledger.py --check  # compare with it

Each call runs through ``spinstat.cli.main`` in this process, from the
repository root, with its paths relative to it.  The corpus is the golden
commands of ``check_golden.py``, ``bell --search`` at every denominator from
1 to one past ``MAX_SEARCH_DENOMINATOR`` in both formulas, the default search
in JSON and in CSV, each golden command in CSV, Bell and Wigner triples at
tiny gaps (with signs flipped and periods added), exact ties, an
inconsistent triple and signed zero angles, each state of the catalog with
its rotation checks at three rates and in CSV, Wigner triples on the
twelfths grid, spin-j singlets decomposed at three spins, ``cg
--photon`` and ``cg`` pairs up to the size limit, each ``perm`` op on each
file in ``tests/data``, seeded beams on both sides of ``SMALL_BEAM`` and of
the draw chunks, and every entry of ``BAD_INPUTS``.  With ``--check`` the
script names each call whose record differs from the ledger, with the
recorded and the current exit code, and each ``tests/golden/<name>.json``
file whose sha256 is not its golden command's ledger digest, and exits 1 if
any does.  A beam above ``SMALL_BEAM`` atoms and a failing ISC check compute
with numpy; where numpy cannot be imported, ``--check`` skips those calls
and says how many it skipped.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

from check_golden import BAD_INPUTS, DATA, GOLDEN_COMMANDS, GOLDEN_DIR, run_cli
from spinstat.beam import SMALL_BEAM
from spinstat.rotations import STATE_TAGS

LEDGER = GOLDEN_DIR / "ledger.json"
#: Argv paths are recorded relative to the repository root.
ROOT = Path(__file__).resolve().parent.parent
#: Beam sizes at and just past ``SMALL_BEAM`` (4096), around 2**16 and 2**18
#: atoms (the draw chunk of this version and of earlier ones), and an odd
#: size of several chunks that ends inside a Philox block.
BEAM_ATOMS = (4096, 4097, 65535, 65536, 65537, 262143, 262144, 262145, 1000003)
#: 2**64 + 5: both Philox key words are nonzero.
BEAM_SEED = "18446744073709551621"
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None
#: Consistent gap triples pi/k, pi/k, 2pi/k whose Bell margin falls below
#: 1e-12 between k = 10**6 and 2 * 10**6, and the exact tie pi/2, pi/2, pi.
#: At k = 10**7, the same triple with a sign flipped or the third gap a
#: period on (2 turns of pi in the half formula, 1 in the full one), the
#: tie pi/k, -pi/k, 0, and the inconsistent triple pi/3, pi/3, pi/3, in
#: both formulas.
TINY_GAP_CALLS = [
    *(
        ["bell", "--gaps", f"pi/{k},pi/{k},2pi/{k}", "--formula", formula]
        for k in (10**6, 2 * 10**6, 10**7)
        for formula in ("half", "full")
    ),
    ["wigner", "--angles", "0,pi/10000000,2pi/10000000"],
    ["bell", "--gaps", "pi/2,pi/2,pi"],
    *(
        ["bell", "--gaps", gaps, "--formula", formula]
        for gaps in (
            "pi/10000000,pi/10000000,-2pi/10000000",
            "-pi/10000000,-pi/10000000,2pi/10000000",
            "pi/10000000,pi/10000000,20000002pi/10000000",
            "pi/10000000,pi/10000000,10000002pi/10000000",
            "pi/10000000,-pi/10000000,0",
            "pi/3,pi/3,pi/3",
        )
        for formula in ("half", "full")
    ),
]
#: The catalog's tags whose ISC check fails; its deviation and witness come
#: from numpy's angle grid.
NOT_ISC_TAGS = ("excluded_combination", "triplet_plus", "triplet_zero", "triplet_minus")


def state_calls() -> list[list[str]]:
    """Each tag (spin_j_singlet at j = 1/2) with each rotation check and both, at two rates and two grids.

    Then the spin-j singlet bare at j = 1/2, and decomposed at j = 1, 3/2 and
    2; each tag with each check set at a third rate, ``--c 1/3``; and each
    tag with both checks in CSV.
    """
    tags = [[tag] for tag in STATE_TAGS if tag != "spin_j_singlet"] + [["spin_j_singlet", "--j", "1/2"]]
    checks = (["--check-invariance"], ["--check-isc"], ["--check-invariance", "--check-isc"])
    return [
        ["state", *tag, *check, *rate, *grid]
        for tag in tags
        for check in checks
        for rate in ([], ["--c", "1"])
        for grid in ([], ["--grid", "7"])
    ] + [["state", "spin_j_singlet", "--j", "1/2"]] + [
        ["state", "spin_j_singlet", "--j", j, "--decompose"] for j in ("1", "3/2", "2")
    ] + [["state", *tag, *check, "--c", "1/3"] for tag in tags for check in checks] + [
        ["state", *tag, *checks[2], "--format", "csv"] for tag in tags
    ]


def wigner_calls() -> list[list[str]]:
    """Triples ``0, a pi/12, b pi/12`` on the twelfths grid.

    Every ``1 <= a < b <= 12`` in the half formula and same-state variant,
    and those with ``b <= 6`` in the other three variant and formula pairs.
    """
    calls = []
    for variant in ("same-state", "singlet-inclusive"):
        for formula in ("half", "full"):
            top = 12 if (variant, formula) == ("same-state", "half") else 6
            calls += [
                ["wigner", "--angles", f"0,{a}pi/12,{b}pi/12", "--variant", variant, "--formula", formula]
                for b in range(2, top + 1)
                for a in range(1, b)
            ]
    return calls


#: Spin pairs of ``cg``: the smallest, a mixed one, and two at the size limit
#: ``MAX_COUPLED_SPIN`` (9).
CG_SPINS = (("1/2", "1/2"), ("3/2", "1"), ("9", "1/2"), ("9", "9"))


def cg_calls() -> list[list[str]]:
    """The photon table in JSON and CSV, and each pair of ``CG_SPINS``."""
    photon = [["cg", "--photon"], ["cg", "--photon", "--format", "csv"]]
    return photon + [["cg", "--j1", j1, "--j2", j2] for j1, j2 in CG_SPINS]


def perm_calls() -> list[list[str]]:
    classify = (["classify", "--construction", construction] for construction in ("fd", "be", "mixed"))
    ops = (["antisymmetrize"], ["symmetrize"], ["signature"], *classify)
    return [["perm", *op, "--states", str(path)] for path in sorted(DATA.glob("*.txt")) for op in ops]


def beam_calls() -> list[list[str]]:
    laws = (("paper", "uniform"), ("uniform", "paper"))
    return [
        ["beam", "--atoms", str(n), "--hypothesis", law, "--seed", BEAM_SEED, "--test-null", null]
        for n in BEAM_ATOMS
        for law, null in laws
    ]


def corpus() -> list[list[str]]:
    calls = [list(argv) for argv in GOLDEN_COMMANDS.values()]
    for formula in ("half", "full"):
        calls += [["bell", "--search", "--denominator", str(d), "--formula", formula] for d in range(1, 50)]
    calls += [["bell", "--search"], ["bell", "--search", "--format", "csv"]]
    calls += [[*argv, "--format", "csv"] for argv in GOLDEN_COMMANDS.values()]
    calls += TINY_GAP_CALLS
    calls += [["bell", "--gaps", "-0,pi/3,pi/3"], ["wigner", "--angles", "+0,pi/3,2pi/3"]]
    calls += state_calls()
    calls += wigner_calls()
    calls += cg_calls()
    calls += perm_calls()
    calls += beam_calls()
    calls += [list(argv) for argv, _ in BAD_INPUTS.values()]
    # A golden command may come again among the calls of its subcommand.
    return [list(call) for call in dict.fromkeys(map(tuple, calls))]


def numpy_calls() -> list[list[str]]:
    """The calls that compute with numpy: seeded beams above ``SMALL_BEAM`` atoms and failing ISC checks."""
    beams = [call for call in beam_calls() if int(call[2]) > SMALL_BEAM]
    return beams + [call for call in state_calls() if call[1] in NOT_ISC_TAGS and "--check-isc" in call]


def _shown(arg: str) -> str:
    path = Path(arg)
    return path.relative_to(ROOT).as_posix() if path.is_absolute() and ROOT in path.parents else arg


def records(calls: list[list[str]]) -> list[dict]:
    """Each call's record, run from the repository root as recorded, since an error message may print a path."""
    result = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for call in calls:
            argv = [_shown(arg) for arg in call]
            code, output = run_cli(argv)
            digest = hashlib.sha256(output.encode("utf-8")).hexdigest()
            result.append({"argv": argv, "exit": code, "sha256": digest})
    finally:
        os.chdir(cwd)
    return result


def differing_golden_files(by_argv: dict[tuple, dict]) -> list[str]:
    """The golden files whose sha256 is not the ledger digest of their command."""
    differ = []
    for name, command in GOLDEN_COMMANDS.items():
        entry = by_argv.get(tuple(_shown(arg) for arg in command), {})
        if hashlib.sha256((GOLDEN_DIR / f"{name}.json").read_bytes()).hexdigest() != entry.get("sha256"):
            differ.append(f"{name}.json")
    return differ


def dumps(entries: list[dict]) -> str:
    """One record per line, so that a changed call is one changed line."""
    return "[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the ledger; exit 1 if any call differs")
    args = parser.parse_args(argv)
    calls = corpus()
    skipped = [] if HAVE_NUMPY else numpy_calls()
    if skipped and not args.check:
        parser.error("writing the ledger needs numpy")
    found = records([call for call in calls if call not in skipped])
    if not args.check:
        LEDGER.write_text(dumps(found), encoding="utf-8")
        print(f"wrote {len(found)} calls to {LEDGER.name}")
        return 0
    expected = json.loads(LEDGER.read_text(encoding="utf-8"))
    by_argv = {tuple(entry["argv"]): entry for entry in expected}
    golden_differ = differing_golden_files(by_argv)
    for call in skipped:
        by_argv.pop(tuple(call), None)
    pairs = [(by_argv.pop(tuple(entry["argv"]), None), entry) for entry in found]
    differ = [(old, new) for old, new in pairs if old != new]
    for old, new in differ:
        recorded = "none" if old is None else old["exit"]
        print(f"differs: {' '.join(new['argv'])} (exit {recorded} -> {new['exit']})")
    for key in by_argv:
        print(f"not in the corpus: {' '.join(key)}")
    for name in golden_differ:
        print(f"golden file differs: {name}")
    if skipped:
        print(f"skipped {len(skipped)} calls that need numpy, which cannot be imported")
    n = len(GOLDEN_COMMANDS)
    print(f"{n - len(golden_differ)} of {n} golden files hash to their ledger digests")
    same = len(found) - len(differ)
    print(f"Python {platform.python_version()}: {same} of {len(found)} calls match the ledger")
    return 1 if differ or by_argv or golden_differ else 0


if __name__ == "__main__":
    sys.exit(main())
