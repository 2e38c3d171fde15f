import contextlib
import io
import json
import os
import re
import shlex
import site
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinstat.beam import MAX_ATOMS, SMALL_BEAM
from spinstat.cli import ket_payload, main, parse_state_sections
from spinstat.exact import parse_scalar
from spinstat.kets import Ket
from spinstat.rotations import MAX_GRID, STATE_TAGS, make_state

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
        code = main(argv)
    return code, buffer.getvalue()


def load_schema():
    text = resources.files("spinstat.schemas").joinpath("output_envelope.schema.json").read_text()
    return json.loads(text)


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_outputs_are_stable(name):
    code, output = run_cli(GOLDEN_COMMANDS[name])
    assert code == 0
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    assert output == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_outputs_validate_against_schema(name):
    code, output = run_cli(GOLDEN_COMMANDS[name])
    assert code == 0
    jsonschema.validate(json.loads(output), load_schema())


def test_error_envelope_validates_against_schema():
    code, output = run_cli(["perm", "energy", "--levels", "1,2", "--count", "5"])
    assert code == 1
    envelope = json.loads(output)
    jsonschema.validate(envelope, load_schema())
    assert envelope["error"]["code"] == "capacity"
    assert "payload" not in envelope


def test_energy_of_no_particles_is_exact():
    code, output = run_cli(["perm", "energy", "--levels", "1,2", "--count", "0"])
    assert code == 0
    envelope = json.loads(output)
    jsonschema.validate(envelope, load_schema())
    assert envelope["payload"]["energy"] == {"exact": "0", "value": 0.0}


def test_domain_error_exit_codes():
    code, output = run_cli(["state", "spin_j_singlet"])  # missing --j
    assert code == 1
    assert json.loads(output)["error"]["code"] == "unknown-tag"
    code, output = run_cli(["cg", "--j1", "19/2", "--j2", "1"])
    assert code == 1
    assert json.loads(output)["error"]["code"] == "size-limit"


def test_cg_runs_at_the_coupled_spin_limit():
    code, output = run_cli(["cg", "--j1", "9", "--j2", "1/2"])
    assert code == 0
    assert len(json.loads(output)["payload"]["rows"]) == 38


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["state", "nonsense"])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "invalid choice: 'nonsense'" in message
    assert all(repr(tag) in message for tag in STATE_TAGS)
    with pytest.raises(SystemExit) as err:
        main(["bell", "--gaps", "one-third-pi"])
    assert err.value.code == 2
    for argv in (["wigner", "--angles"], ["bell", "--gaps"], ["wigner", "--angles", "--formula", "full"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "expected one argument" in capsys.readouterr().err
    capsys.readouterr()


# Each case expects exit 2 (a usage error) or exit 1 with the named error code.
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
    "negative-tol": (["state", "singlet", "--check-isc", "--tol", "-1"], None, 2),
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
    "tol-without-a-check": (["state", "singlet", "--tol", "1"], None, "invalid-value"),
    "levels-and-count-with-states": (
        ["perm", "antisymmetrize", "--levels", "1,2", "--count", "3", "--states"], "+ 1\n\n- 1\n", "invalid-value"
    ),
    "states-for-energy": (["perm", "energy", "--levels", "1,2", "--count", "1", "--states"], "+ 1\n", "invalid-value"),
    "construction-without-classify": (
        ["perm", "symmetrize", "--construction", "be", "--states"], "+ 1\n\n- 1\n", "invalid-value"
    ),
    "signature-of-two-states": (["perm", "signature", "--states"], "+ 1\n\n- 1\n", "invalid-value"),
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


@pytest.mark.parametrize("argv, state_text, expected", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_inputs_exit_with_a_code_not_a_traceback(tmp_path, capsys, argv, state_text, expected):
    if state_text is not None:
        path = tmp_path / "states.txt"
        path.write_bytes(state_text if isinstance(state_text, bytes) else state_text.encode())
        argv = [*argv, str(path)]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == (2 if expected == 2 else 1)
    if code == 1:
        envelope = json.loads(capsys.readouterr().out)
        jsonschema.validate(envelope, load_schema())
        assert envelope["error"]["code"] == expected


def test_refusal_names_every_unread_option():
    code, output = run_cli(["state", "singlet", "--grid", "7", "--c", "1/3"])
    assert code == 1
    assert json.loads(output)["error"]["message"] == "state does not use --c, --grid here"
    code, output = run_cli(["cg", "--photon", "--j1", "3", "--j2", "1/2"])
    assert json.loads(output)["error"]["message"] == "cg does not use --j1, --j2 here"
    # The handler runs first, so its own domain error wins over the refusal.
    code, output = run_cli(["beam", "--atoms", "-1", "--critical", "3"])
    assert code == 1
    assert json.loads(output)["error"]["message"] == "atom count must be nonnegative"


# Options that only some modes read default to None and are resolved where
# they are read; giving the default explicitly prints the same bytes.
EXPLICIT_DEFAULTS = {
    "state_singlet": (GOLDEN_COMMANDS["state_singlet"], ["--c", "1/2", "--grid", "360", "--tol", "1e-12"]),
    "condprob_compare": (GOLDEN_COMMANDS["condprob_compare"], ["--s", "2"]),
    "bell_search": (["bell", "--search"], ["--denominator", "12"]),
    "perm_classify": (["perm", "classify", "--states", str(DATA / "three_levels.txt")], ["--construction", "fd"]),
}


@pytest.mark.parametrize("name", sorted(EXPLICIT_DEFAULTS))
def test_explicit_defaults_print_the_same_bytes(name):
    argv, defaults = EXPLICIT_DEFAULTS[name]
    code, output = run_cli([*argv, *defaults])
    assert code == 0
    assert output == run_cli(argv)[1]
    if name in GOLDEN_COMMANDS:
        assert output == (GOLDEN_DIR / f"{name}.json").read_text()


def test_printing_a_large_slot_does_not_build_its_ladder():
    dim = 400_001
    ket = Ket((dim,), {(0,): 1, (dim - 1,): -1})
    tracemalloc.start()
    try:
        payload = ket_payload(ket)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(payload["amplitudes"]) == ["200000", "-200000"]
    assert peak < 1_000_000


def test_state_file_takes_printed_amplitudes(tmp_path):
    path = tmp_path / "states.txt"
    path.write_text("+ 1/2*sqrt(2)\n- 1/2*sqrt(2)\n\n+ 1/3*sqrt(3)\n- 1/3*sqrt(6)\n")
    code, output = run_cli(["perm", "antisymmetrize", "--states", str(path)])
    assert code == 0
    amplitudes = json.loads(output)["payload"]["amplitudes"]
    assert amplitudes["+,-"]["exact"] == "-1/6*sqrt(3) + 1/6*sqrt(6)"
    assert amplitudes["-,+"]["exact"] == "1/6*sqrt(3) - 1/6*sqrt(6)"
    path.write_text("".join(f"{label} {entry['exact']}\n" for label, entry in amplitudes.items()))
    (ket,) = parse_state_sections(path.read_text())
    assert ket.amplitude((0, 1)) == parse_scalar("1/6*sqrt(6) - 1/6*sqrt(3)")
    assert ket.amplitude((1, 0)) == -ket.amplitude((0, 1))


def test_exact_fraction_strings_round_trip():
    _, output = run_cli(GOLDEN_COMMANDS["bell_reference"])
    payload = json.loads(output)["payload"]
    lhs = Fraction(payload["lhs"]["exact"])
    rhs = Fraction(payload["rhs"]["exact"])
    assert (lhs, rhs) == (Fraction(3, 8), Fraction(1, 4))
    _, output = run_cli(GOLDEN_COMMANDS["cg_one_one"])
    rows = json.loads(output)["payload"]["rows"]
    for row in rows.values():
        for entry in row.values():
            scalar = parse_scalar(entry["exact"])
            assert float(scalar) == pytest.approx(entry["value"], abs=1e-15)


def _exact_to_float(value):
    """``value`` with every ``{"exact", "value"}`` pair replaced by its float."""
    if isinstance(value, dict):
        if value.keys() == {"exact", "value"}:
            return value["value"]
        return {k: _exact_to_float(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_exact_to_float(v) for v in value]
    return value


def _leaves(value):
    if isinstance(value, dict):
        return sum(_leaves(v) for v in value.values())
    if isinstance(value, list):
        return sum(_leaves(v) for v in value)
    return 1


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_float_mode_is_the_exact_envelope_without_exact_strings(name):
    _, exact_output = run_cli(GOLDEN_COMMANDS[name])
    code, float_output = run_cli([*GOLDEN_COMMANDS[name], "--mode", "float"])
    assert code == 0
    expected = {**_exact_to_float(json.loads(exact_output)), "mode": "float"}
    assert json.loads(float_output) == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_csv_has_one_row_per_json_leaf(name):
    _, json_output = run_cli(GOLDEN_COMMANDS[name])
    code, csv_output = run_cli([*GOLDEN_COMMANDS[name], "--format", "csv"])
    assert code == 0
    header, *rows = csv_output.splitlines()
    assert header == "key,value"
    keys = [row.split(",", 1)[0] for row in rows]
    assert keys[:3] == ["schema_version", "command", "mode"]
    assert all(key.startswith("payload") for key in keys[3:])
    assert len(keys) - 3 == _leaves(json.loads(json_output)["payload"])


def test_float_mode_drops_exact_strings():
    code, output = run_cli(["bell", "--gaps", "pi/3,pi/3,2pi/3", "--mode", "float"])
    assert code == 0
    payload = json.loads(output)["payload"]
    assert payload["lhs"] == 0.375
    assert payload["rhs"] == 0.25


def test_csv_format():
    code, output = run_cli(["algebra", "--n", "2", "--j", "1", "--format", "csv"])
    assert code == 0
    lines = output.strip().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert "payload.max_commutator_residual" in keys


def test_malformed_seed_variable_is_a_usage_error_of_beam_only(monkeypatch, capsys):
    monkeypatch.setenv("SPINSTAT_SEED", "abc")
    code, output = run_cli(["state", "singlet"])
    assert code == 0
    assert json.loads(output)["command"] == "state"
    with pytest.raises(SystemExit) as err:
        main(["beam", "--atoms", "10"])
    assert err.value.code == 2
    code, output = run_cli(["beam", "--atoms", "10", "--seed", "5"])
    assert code == 0
    assert json.loads(output)["payload"]["seed"] == 5
    with pytest.raises(SystemExit) as err:
        main(["state", "singlet", "--seed", "5"])
    assert err.value.code == 2
    capsys.readouterr()


def test_huge_pi_multiple_angles_exit_zero():
    huge = f"{10**400 + 1}pi/7"
    code, output = run_cli(["bell", "--gaps", f"{huge},pi,pi"])
    assert code == 0
    assert json.loads(output)["payload"]["violated"] is False
    code, output = run_cli(["wigner", "--angles", f"0,pi/3,{huge}"])
    assert code == 0


@pytest.mark.parametrize(
    "option, value",
    [("--angles", "-pi/4,pi/3,0"), ("--gaps", "-pi/4,pi,pi"), ("--angles", "-2pi/3,0,pi")],
)
def test_angle_list_may_start_with_a_negative_angle(option, value):
    command = "wigner" if option == "--angles" else "bell"
    attached = run_cli([command, f"{option}={value}"])
    assert attached[0] == 0
    assert run_cli([command, option, value]) == attached


def test_seed_from_environment(monkeypatch):
    monkeypatch.setenv("SPINSTAT_SEED", "31337")
    # The parser reads the environment when it is built.
    code, output = run_cli(["beam", "--atoms", "10", "--hypothesis", "uniform"])
    assert code == 0
    assert json.loads(output)["payload"]["seed"] == 31337


def test_state_file_parsing_round_trip(tmp_path):
    kets = parse_state_sections((DATA / "two_spinors.txt").read_text())
    assert kets == [Ket.basis((2,), (0,)), Ket.basis((2,), (1,))]
    pair = parse_state_sections((DATA / "pair_state.txt").read_text())
    assert pair == [make_state("singlet")]
    levels = parse_state_sections((DATA / "three_levels.txt").read_text())
    assert [k.dims for k in levels] == [(3,), (3,), (3,)]
    with pytest.raises(ValueError):
        parse_state_sections("3/2 1\n")


def test_perm_signature_subcommand():
    code, output = run_cli(["perm", "signature", "--states", str(DATA / "pair_state.txt")])
    assert code == 0
    signature = json.loads(output)["payload"]["signature"]
    assert signature == {"(0,1)": "+1", "(1,0)": "-1"}


def test_perm_classify_subcommand():
    code, output = run_cli(
        ["perm", "classify", "--states", str(DATA / "three_levels.txt"),
         "--construction", "mixed"]
    )
    assert code == 0
    assert json.loads(output)["payload"]["class"] == "Neither"


def test_bell_search_subcommand():
    code, output = run_cli(["bell", "--search"])
    assert code == 0
    payload = json.loads(output)["payload"]
    assert payload["contains_reference_gaps"] is True
    assert payload["violations_found"] > 0


def test_cg_photon_subcommand():
    code, output = run_cli(["cg", "--photon"])
    assert code == 0
    payload = json.loads(output)["payload"]
    assert payload["lowering_scale"]["exact"] == "4"
    assert payload["rows"]["0,0"]["1,-1"]["exact"] == "1/2*sqrt(2)"


def test_state_decompose_subcommand():
    code, output = run_cli(
        ["state", "spin_j_singlet", "--j", "2", "--decompose"]
    )
    assert code == 0
    decomposition = json.loads(output)["payload"]["checks"]["decomposition"]
    assert [p["m"] for p in decomposition["pairs"]] == ["2", "1"]
    assert decomposition["center"] is not None


def readme_cli_lines():
    """The ``spinstat ...`` lines of README's CLI block, as argv lists, comments dropped."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("spinstat ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


@pytest.mark.parametrize("argv", readme_cli_lines(), ids=" ".join)
def test_readme_cli_lines_exit_zero(argv):
    argv = [str(DATA / "two_spinors.txt") if arg == "states.txt" else arg for arg in argv]
    code, output = run_cli(argv)
    assert code == 0
    jsonschema.validate(json.loads(output), load_schema())


def test_readme_cli_block_is_read():
    assert len(readme_cli_lines()) == 13


def test_module_entry_point_runs():
    completed = subprocess.run(
        [sys.executable, "-m", "spinstat", "state", "singlet"],
        capture_output=True,
        text=True,
        cwd=str(Path(__file__).parent.parent),
    )
    assert completed.returncode == 0
    envelope = json.loads(completed.stdout)
    assert envelope["command"] == "state"


@pytest.mark.parametrize("name", ["state_singlet", "perm_antisymmetrize"])
def test_benchmark_probe_prints_the_golden_bytes(name):
    """``perfbench/cli_probe.py`` wraps ``parse_args`` and the handler; stdout must not change."""
    root = Path(__file__).parent.parent
    completed = subprocess.run(
        [sys.executable, str(root / "perfbench" / "cli_probe.py"), *GOLDEN_COMMANDS[name]],
        capture_output=True,
        text=True,
        cwd=str(root),
        env={**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == (GOLDEN_DIR / f"{name}.json").read_text()


def test_cli_import_leaves_scipy_out():
    completed = subprocess.run(
        [sys.executable, "-c", "import sys, spinstat.cli; print('scipy' in sys.modules, 'numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        cwd=str(Path(__file__).parent.parent),
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["False", "False"]


# Exact commands must run without numpy; the array commands are positive
# controls, so the check cannot pass by never seeing numpy at all.  Each
# command must also load exactly the spinstat modules its subcommand reaches.
COLD_COMMANDS = {
    **{name: (argv, 0, False) for name, argv in GOLDEN_COMMANDS.items()},
    "cg_3x3_csv": (["cg", "--j1", "3", "--j2", "3", "--format", "csv"], 0, False),
    "perm_energy_capacity": (["perm", "energy", "--levels", "1,2", "--count", "5"], 1, False),
    "state_singlet_invariance": (["state", "singlet", "--check-invariance"], 0, False),
    "state_singlet_isc": (["state", "singlet", "--check-isc"], 0, False),
    # A failing check takes its deviation and witness from the float grid.
    "state_excluded_isc": (["state", "excluded_combination", "--check-isc"], 0, True),
    "beam_atoms_10": (["beam", "--atoms", "10"], 0, False),
    # Above SMALL_BEAM the draws come from numpy.
    "beam_above_small": (["beam", "--atoms", str(SMALL_BEAM + 1)], 0, True),
}

# The modules cli.py imports itself, and those each subcommand adds.
CLI_MODULES = {"cli", "errors", "exact", "kets"}
SUBCOMMAND_MODULES = {
    "state": {"rotations"},
    "bell": {"measurement"},
    "wigner": {"measurement"},
    "perm": {"permstats"},
    "cg": {"spin_algebra"},
    "algebra": {"spin_algebra"},
    "condprob": {"condprob", "spin_algebra"},
    "beam": {"beam", "condprob"},
}

MODULES_AFTER_MAIN = """
import contextlib, io, sys
from spinstat.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
spinstat_modules = sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('spinstat.'))
print(code, *(m in sys.modules for m in ('numpy', 'scipy', 'dataclasses', 'inspect')), ','.join(spinstat_modules))
"""


# The child runs with -S, so that a site .pth file cannot load dataclasses or
# inspect before any spinstat code runs; numpy comes from the site
# directories on PYTHONPATH.  numpy itself imports inspect, so an array
# command is checked for dataclasses alone.
@pytest.mark.parametrize("argv, exit_code, loads_numpy", COLD_COMMANDS.values(), ids=COLD_COMMANDS)
def test_only_array_commands_import_numpy(argv, exit_code, loads_numpy):
    root = Path(__file__).parent.parent
    completed = subprocess.run(
        [sys.executable, "-S", "-c", MODULES_AFTER_MAIN, *argv],
        capture_output=True,
        text=True,
        cwd=str(root),
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), *site.getsitepackages()])},
    )
    assert completed.returncode == 0, completed.stderr
    code, numpy, scipy, dataclasses, inspect, modules = completed.stdout.split()
    assert (code, numpy, scipy, dataclasses) == (str(exit_code), str(loads_numpy), "False", "False")
    assert loads_numpy or inspect == "False"
    assert modules == ",".join(sorted(CLI_MODULES | SUBCOMMAND_MODULES[argv[0]]))


THREAD_MODULES_AFTER_MAIN = """
import contextlib, io, sys
from spinstat.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *(m for m in ('threading', 'concurrent.futures') if m in sys.modules))
"""


# A beam of at most one chunk starts no thread, so a cold one loads no thread
# pool.  The child runs with -S, because a site .pth file may import
# threading before any spinstat code runs; numpy comes from the site
# directories on PYTHONPATH.  Above SMALL_BEAM numpy may load threading.
@pytest.mark.parametrize(
    "atoms, absent", [(100, {"threading", "concurrent.futures"}), (SMALL_BEAM + 1, {"concurrent.futures"})]
)
def test_cold_beams_load_no_thread_pool(atoms, absent):
    root = Path(__file__).parent.parent
    completed = subprocess.run(
        [sys.executable, "-S", "-c", THREAD_MODULES_AFTER_MAIN, "beam", "--atoms", str(atoms)],
        capture_output=True,
        text=True,
        cwd=str(root),
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), *site.getsitepackages()])},
    )
    assert completed.returncode == 0, completed.stderr
    code, *loaded = completed.stdout.split()
    assert code == "0"
    assert not absent & set(loaded)


# ---------------------------------------------------------------------------
# Fuzzing the CLI contract: every argv and state file ends with exit code 0,
# 1 or 2, and exit 0 or 1 prints an envelope.  Sizes stay small: at most 4
# states, --atoms <= 10^4, --denominator <= 12, spins <= 4.

FRACTIONS = ("0", "1", "-1", "1/2", "3/2", "2", "5/2", "3", "4", "1/3", "-1/2", "1e400", "1/0", "x", "")
ANGLES = ("0", "pi", "pi/3", "2pi/3", "-pi/4", "7pi/12", f"{10**400 + 1}pi/7", "pi/0", "1.5", "x")
INTS = ("-1", "0", "1", "2", "3", "12", "x")


def _lists(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=4).map(",".join)


@st.composite
def _flags(draw, options):
    """A random subset of ``options``: flag -> value strategy, or ``None`` for a switch."""
    argv = []
    for flag, values in options.items():
        if draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(values)]
    return argv


COMMON = {
    "--format": st.sampled_from(("json", "csv")),
    "--mode": st.sampled_from(("exact", "float")),
}

PERM_OPS = ("antisymmetrize", "symmetrize", "classify", "signature", "energy", "other")
LABEL_TOKENS = ("+", "-", "0", "1", "-1", "1/2", "-1/2", "3/2", "x")
AMPLITUDES = (
    "1", "-1", "1/2", "1/2*sqrt(2)", "-1/3*sqrt(3)", "1/6*sqrt(3) - 1/6*sqrt(6)", "0", "1/0", "x", "",
    "1000000000000000000000007",
)


@st.composite
def _state_text(draw):
    sections = []
    for _ in range(draw(st.integers(0, 4))):
        lines = []
        if draw(st.booleans()):
            dims = draw(st.lists(st.sampled_from(("1", "2", "3", "0", "x")), max_size=3))
            lines.append(" ".join(["dims", *dims]))
        for _ in range(draw(st.integers(0, 3))):
            label = ",".join(draw(st.lists(st.sampled_from(LABEL_TOKENS), min_size=1, max_size=3)))
            lines.append(f"{label} {draw(st.sampled_from(AMPLITUDES))}".rstrip())
        if draw(st.booleans()):
            lines.append("# comment")
        sections.append("\n".join(lines))
    return "\n\n".join(sections) + "\n"


SUBCOMMANDS = {
    "state": (
        st.sampled_from((*STATE_TAGS, "nonsense")).map(lambda tag: [tag]),
        {
            "--j": st.sampled_from(FRACTIONS),
            "--check-invariance": None,
            "--check-isc": None,
            "--decompose": None,
            "--c": st.sampled_from(FRACTIONS),
            "--grid": st.sampled_from(("1", "4", "36", "0", "x")),
            "--tol": st.sampled_from(("1e-12", "0", "1", "-1", "nan")),
        },
    ),
    "bell": (
        st.just([]),
        {
            "--gaps": _lists(ANGLES),
            "--formula": st.sampled_from(("half", "full", "other")),
            "--search": None,
            "--denominator": st.sampled_from(("1", "3", "6", "12", "0", "x")),
        },
    ),
    "wigner": (
        st.just([]),
        {
            "--angles": _lists(ANGLES),
            "--variant": st.sampled_from(("same-state", "singlet-inclusive", "other")),
            "--formula": st.sampled_from(("half", "full")),
        },
    ),
    "perm": (
        st.sampled_from(PERM_OPS).map(lambda op: [op]),
        {
            "--states": st.just("{states}"),
            "--construction": st.sampled_from(("fd", "be", "mixed")),
            "--levels": _lists(FRACTIONS),
            "--count": st.sampled_from(INTS),
        },
    ),
    "cg": (
        st.just([]),
        {"--j1": st.sampled_from(FRACTIONS), "--j2": st.sampled_from(FRACTIONS), "--photon": None},
    ),
    "algebra": (st.just([]), {"--n": st.sampled_from(INTS), "--j": st.sampled_from(FRACTIONS)}),
    "condprob": (
        st.just([]),
        {
            "--prior": _lists(FRACTIONS),
            "--total": st.sampled_from(INTS),
            "--compare-cg": None,
            "--s": st.sampled_from(INTS),
        },
    ),
    "beam": (
        st.just([]),
        {
            "--atoms": st.sampled_from(("-1", "0", "1", "10", "100", "10000", "x")),
            "--hypothesis": st.sampled_from(("uniform", "paper", "other")),
            "--test-null": st.sampled_from(("uniform", "paper", "other")),
            "--critical": st.sampled_from(("5.991", "0", "-1", "nan", "inf", "x")),
            "--seed": st.sampled_from(INTS),
        },
    ),
}


# The options each mode reads, kept apart from the recorder in ``cli.main``
# as an oracle: per subcommand, rows of (word, options), where the row holds
# if the word is in argv, ``"!word"`` if it is not, and ``None`` always.
OPTIONS_READ = {
    "state": [
        (None, {"--j", "--check-invariance", "--check-isc"}),
        ("--check-invariance", {"--c", "--grid", "--tol"}),
        ("--check-isc", {"--c", "--grid", "--tol"}),
        ("spin_j_singlet", {"--decompose"}),
    ],
    "bell": [(None, {"--formula", "--search"}), ("--search", {"--denominator"}), ("!--search", {"--gaps"})],
    "wigner": [(None, {"--angles", "--variant", "--formula"})],
    "perm": [("energy", {"--levels", "--count"}), ("!energy", {"--states"}), ("classify", {"--construction"})],
    "cg": [(None, {"--photon"}), ("!--photon", {"--j1", "--j2"})],
    "algebra": [(None, {"--n", "--j"})],
    "condprob": [(None, {"--prior", "--total", "--compare-cg"}), ("--compare-cg", {"--s"})],
    "beam": [(None, {"--atoms", "--hypothesis", "--test-null", "--seed"}), ("--test-null", {"--critical"})],
}


def _options_read(argv):
    read = set(COMMON)
    for word, options in OPTIONS_READ[argv[0]]:
        if word is None or (word.lstrip("!") in argv) != word.startswith("!"):
            read |= options
    return read


def _named_unread(error):
    """The options that a "does not use" refusal names; empty for any other envelope."""
    refused = re.fullmatch(r"\w+ does not use (.*) here", error.get("message", ""))
    return set(refused.group(1).split(", ")) if refused else set()


# Argv that succeed, at least one per mode, and a valid value for each option
# of the subcommand.  Added to each argv, an option is refused by name
# exactly when ``OPTIONS_READ`` says that the mode does not read it.
MODE_CASES = {
    "state": (
        ["state singlet", "state singlet --check-isc", "state spin_j_singlet --j 1"],
        ["--j 1", "--check-invariance", "--check-isc", "--decompose", "--c 1/2", "--grid 36", "--tol 1e-9"],
    ),
    "bell": (
        ["bell --gaps pi/3,pi/3,2pi/3", "bell --search --denominator 3"],
        ["--gaps pi/3,pi/3,2pi/3", "--formula full", "--search", "--denominator 3"],
    ),
    "wigner": (["wigner --angles 0,pi/3,2pi/3"], ["--angles 0,pi/3,pi", "--variant singlet-inclusive"]),
    "perm": (
        [
            "perm energy --levels 1,2 --count 1",
            "perm antisymmetrize --states two_spinors.txt",
            "perm classify --states two_spinors.txt",
            "perm signature --states pair_state.txt",
        ],
        ["--states pair_state.txt", "--construction be", "--levels 1,2", "--count 1"],
    ),
    "cg": (["cg --j1 1 --j2 1", "cg --photon"], ["--j1 1", "--j2 1/2", "--photon"]),
    "algebra": (["algebra --n 1 --j 1"], ["--n 2", "--j 1/2"]),
    "condprob": (
        ["condprob --prior 1/4,1/2,1/4", "condprob --prior 1/4,1/2,1/4 --compare-cg"],
        ["--prior 1/3,1/3,1/3", "--total 0", "--compare-cg", "--s 2"],
    ),
    "beam": (
        ["beam --atoms 10", "beam --atoms 100 --test-null uniform"],
        ["--atoms 20", "--hypothesis uniform", "--test-null paper", "--critical 3", "--seed 1"],
    ),
}
OPTION_CASES = [
    (base.split(), option.split())
    for bases, options in MODE_CASES.values()
    for base in bases
    for option in [*options, "--mode float", "--format json"]
]


@pytest.mark.parametrize("base, option", OPTION_CASES, ids=[" ".join(b + o) for b, o in OPTION_CASES])
def test_an_option_is_refused_exactly_where_its_mode_does_not_read_it(base, option):
    argv = [str(DATA / arg) if arg.endswith(".txt") else arg for arg in [*base, *option]]
    code, output = run_cli(argv)
    error = json.loads(output).get("error", {})
    assert (option[0] in _named_unread(error)) == (option[0] not in _options_read(argv)), error
    assert code == (1 if error else 0)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    positional, options = SUBCOMMANDS[command]
    return [command, *draw(positional), *draw(_flags({**options, **COMMON}))]


def _reject_non_finite(name):
    raise ValueError(f"{name} is not valid JSON")


@settings(max_examples=150, deadline=None)
@given(argv=_argv(), state_text=_state_text())
def test_fuzzed_argv_keeps_the_exit_code_contract(argv, state_text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "states.txt"
        path.write_text(state_text)
        argv = [str(path) if arg == "{states}" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), argv
    if code == 2:
        return
    given = {arg for arg in argv if arg.startswith("--")}
    if code == 0:
        assert given <= _options_read(argv), argv
    if "csv" in argv:
        assert out.getvalue().startswith("key,value\n")
        return
    envelope = json.loads(out.getvalue(), parse_constant=_reject_non_finite)
    jsonschema.validate(envelope, load_schema())
    assert ("error" in envelope) == (code == 1)
    assert _named_unread(envelope.get("error", {})) <= given - _options_read(argv), argv
