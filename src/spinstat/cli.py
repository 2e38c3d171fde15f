"""Command-line front end.

Every subcommand prints one JSON envelope (or CSV rows with ``--format
csv``) on stdout.  Handlers return raw values (``ExactScalar``,
``Fraction``, floats, ...), and ``emit`` alone decides how each number is
printed.  Exit codes: 0 success, 1 domain error (serialized with a
machine-readable code), 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Sequence

# Each handler imports the modules it computes with, so a cold process loads
# only what its subcommand reaches.
from .errors import InvalidValueError, SpinstatError, StateFileError
from .exact import ExactScalar, parse_scalar
from .kets import EXACT, FLOAT, Ket, index_of_m

if TYPE_CHECKING:
    from .measurement import BellEvaluation

SCHEMA_VERSION = "1.0"


# ---------------------------------------------------------------------------
# rendering: handlers return raw values, and only ``emit`` decides how a
# number is printed.


def _plain(value: Any, mode: str) -> Any:
    """The printed form of an exact leaf; other values pass through.

    An exact number prints as ``{"exact": text, "value": float}``, or as the
    bare float in float mode.
    """
    if isinstance(value, (ExactScalar, Fraction)):
        try:
            number = float(value)
        except OverflowError:
            raise InvalidValueError("an exact result is too large to print as a float") from None
        return number if mode == FLOAT else {"exact": str(value), "value": number}
    return value


def _label_token(dim: int, index: int) -> str:
    if dim == 2:
        return "+" if index == 0 else "-"
    return str(Fraction(dim - 1, 2) - index)


def ket_payload(ket: Ket) -> dict[str, Any]:
    amplitudes = {
        ",".join(_label_token(d, i) for d, i in zip(ket.dims, label)): amp
        for label, amp in sorted(ket.amplitudes.items())
    }
    return {"dims": list(ket.dims), "amplitudes": amplitudes}


def pair_rows(mapping: Any) -> dict[str, Any]:
    """A table keyed by ``(a, b)`` pairs as ``"a,b"`` rows, in descending order."""
    return {f"{a},{b}": value for (a, b), value in sorted(mapping.items(), reverse=True)}


def _flatten(prefix: str, value: Any, mode: str, rows: list[tuple[str, str]]) -> None:
    value = _plain(value, mode)
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, mode, rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, mode, rows)
    else:
        rows.append((prefix, "" if value is None else str(value)))


def emit(envelope: dict[str, Any], fmt: str) -> None:
    """Write the envelope as JSON or CSV, numbers printed as its ``mode`` says.

    The whole text is built before anything is written, so a number that
    cannot be printed raises with stdout still empty.
    """
    mode = envelope["mode"]
    if fmt == "csv":
        rows: list[tuple[str, str]] = []
        _flatten("", envelope, mode, rows)
        lines = ["key,value\n"]
        for key, value in rows:
            value = value.replace('"', '""')
            lines.append(f'{key},"{value}"\n')
        text = "".join(lines)
    else:
        text = json.dumps(
            envelope, indent=2, sort_keys=True, allow_nan=False, default=lambda v: _plain(v, mode)
        ) + "\n"
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing helpers


def fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from exc


def positive_int_arg(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def positive_float_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not 0 < value < math.inf:  # also refuses nan
        raise argparse.ArgumentTypeError(f"not a finite positive number: {text!r}")
    return value


def state_tag_arg(text: str) -> str:
    """A tag of the state catalog; loads ``rotations`` only when a ``state`` command is parsed."""
    from .rotations import STATE_TAGS

    if text not in STATE_TAGS:
        choices = ", ".join(map(repr, STATE_TAGS))
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {choices})")
    return text


def angle_arg(text: str) -> Fraction:
    from . import measurement

    try:
        return measurement.parse_pi_angle(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from exc


def _three(parse: Callable[[str], Fraction], text: str, kind: str) -> list[Fraction]:
    values = [parse(part) for part in text.split(",")]
    if len(values) != 3:
        raise argparse.ArgumentTypeError(f"need three comma-separated {kind}, not {len(values)}")
    return values


def angle_list_arg(text: str) -> list[Fraction]:
    return _three(angle_arg, text, "angles")


_ANGLE_LIST_OPTIONS = ("--angles", "--gaps")
_NEGATIVE_ANGLE = re.compile(r"-(\d|pi)")


def _attach_negative_angle_lists(argv: Sequence[str]) -> list[str]:
    """Write ``--angles -pi/4,...`` as ``--angles=-pi/4,...``.

    argparse reads a value that starts with ``-`` as an option unless it
    looks like a negative number, so a list led by a negative angle would
    be refused as a missing value.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _ANGLE_LIST_OPTIONS and _NEGATIVE_ANGLE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def fraction_list_arg(text: str) -> list[Fraction]:
    return [fraction_arg(part) for part in text.split(",")]


def parse_state_sections(text: str) -> list[Ket]:
    """Parse the line-oriented ket format.

    Sections are separated by blank lines.  A section may start with
    ``dims d1 d2 ...``; the remaining lines are ``label amplitude`` pairs,
    the label being comma-joined per-slot tokens (``+``/``-`` for
    two-dimensional slots, projection fractions otherwise) and the
    amplitude an exact scalar such as ``-1/2*sqrt(2)`` or
    ``1/6*sqrt(3) - 1/6*sqrt(6)``.  ``#`` starts a comment.  A malformed
    line raises :class:`~spinstat.errors.StateFileError`.
    """
    kets = []
    sections: list[list[str]] = [[]]
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            if sections[-1]:
                sections.append([])
            continue
        sections[-1].append(line)
    for lines in sections:
        if not lines:
            continue
        line = lines[0]
        try:
            dims: tuple[int, ...] | None = None
            if line.startswith("dims"):
                dims = tuple(int(tok) for tok in line.split()[1:])
                lines = lines[1:]
            amps: dict[tuple[int, ...], ExactScalar] = {}
            for line in lines:
                label_text, _, amp_text = line.partition(" ")
                tokens = label_text.split(",")
                if dims is None:
                    if not all(t in "+-" for t in tokens):
                        raise ValueError(
                            "sections with projection labels need a 'dims' header"
                        )
                    dims = (2,) * len(tokens)
                if len(tokens) != len(dims):
                    raise ValueError(f"label needs {len(dims)} comma-joined tokens")
                label = []
                for token, dim in zip(tokens, dims):
                    if token == "+" and dim == 2:
                        label.append(0)
                    elif token == "-" and dim == 2:
                        label.append(1)
                    else:
                        label.append(index_of_m(dim, Fraction(token)))
                if tuple(label) in amps:
                    raise ValueError(f"label {label_text} repeated in one section")
                amps[tuple(label)] = parse_scalar(amp_text)
        except (ValueError, ZeroDivisionError) as exc:
            raise StateFileError(f"{line!r}: {exc}") from exc
        kets.append(Ket(dims, amps))
    return kets


def _read_states(path: str) -> list[Ket]:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise StateFileError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    states = parse_state_sections(text)
    if not states:
        raise StateFileError(f"{path}: no states")
    return states


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_state(args: argparse.Namespace) -> dict[str, Any]:
    from . import rotations

    spin_j = args.tag == "spin_j_singlet"
    ket = rotations.spin_j_singlet(args.j) if spin_j else rotations.make_state(args.tag)
    payload: dict[str, Any] = {"tag": args.tag, **ket_payload(ket)}
    if spin_j:
        payload["j"] = str(args.j)
    checks: dict[str, Any] = {}
    if args.check_invariance or args.check_isc:
        c, grid = rotations.HALF if args.c is None else args.c, args.grid or 360
    if args.check_invariance:
        inv = rotations.is_rotationally_invariant(ket, c=c, grid=grid)
        checks["rotational_invariance"] = {
            "invariant": inv.invariant,
            "max_deviation": Fraction(0) if inv.max_deviation == 0 else inv.max_deviation,
            "c": str(c),
            "grid": grid,
        }
    if args.check_isc:
        isc = rotations.is_isc(ket, c=c, grid=grid)
        checks["isc"] = {
            "isc": isc.isc,
            "witness_angle": isc.witness_angle,
            "max_deviation": isc.max_deviation,
        }
    if spin_j and args.decompose:
        decomposition = rotations.decompose_spin_j_singlet(args.j)
        checks["decomposition"] = {
            "pairs": [{"m": str(p.m), **ket_payload(p.ket)} for p in decomposition.pairs],
            "center": None if decomposition.center is None else ket_payload(decomposition.center),
        }
    if checks:
        payload["checks"] = checks
    return payload


def _bell_payload(ev: BellEvaluation) -> dict[str, Any]:
    from . import measurement

    return {
        "gaps": [measurement.format_pi_angle(g) for g in (ev.theta_ij, ev.theta_jk, ev.theta_ki)],
        "formula": ev.mode,
        "lhs": ev.lhs,
        "rhs": ev.rhs,
        "doubled_lhs": ev.doubled_lhs,
        "doubled_rhs": ev.doubled_rhs,
        "violated": ev.violated,
    }


def cmd_bell(args: argparse.Namespace) -> dict[str, Any]:
    from . import measurement

    if args.search:
        denominator = args.denominator or 12
        violations = measurement.search_violations(denominator=denominator, mode=args.formula)
        # The gaps pi/3, pi/3, 2pi/3 are the step pair (d/3, d/3).
        return {
            "search_denominator": denominator,
            "violations_found": len(violations),
            "contains_reference_gaps": any(3 * a == 3 * b == denominator for a, b, _, _ in violations.pairs),
            "first_violations": [
                {
                    "angles": [measurement.format_pi_angle(a) for a in v.angles],
                    **_bell_payload(v.evaluation),
                }
                for v in itertools.islice(violations, 3)
            ],
        }
    ev = measurement.bell_inequality(*args.gaps, mode=args.formula)
    return _bell_payload(ev)


def cmd_wigner(args: argparse.Namespace) -> dict[str, Any]:
    from . import measurement

    report = measurement.wigner_argument(
        *args.angles, variant=args.variant, mode=args.formula
    )
    return {
        "variant": report.variant,
        "angles": [measurement.format_pi_angle(a) for a in args.angles],
        "subset_event": ["".join(o) for o in report.subset],
        "superset_event": ["".join(o) for o in report.superset],
        "subset_probability": report.subset_probability,
        "pair_events": {
            name: {"outcomes": ["".join(o) for o in outcomes], "probability": p}
            for name, (outcomes, p) in report.pair_events.items()
        },
        "superset_probability": report.superset_probability,
        "consistent": report.consistent,
    }


def cmd_perm(args: argparse.Namespace) -> dict[str, Any]:
    from . import permstats

    if args.op == "energy":
        energy = permstats.ground_state_energy(args.levels, args.count)
        return {
            "op": "energy",
            "levels": [str(level) for level in args.levels],
            "count": args.count,
            "energy": energy,
        }
    states = _read_states(args.states)
    if args.op in ("antisymmetrize", "symmetrize"):
        func = permstats.antisymmetrize if args.op == "antisymmetrize" else permstats.symmetrize
        return {"op": args.op, **ket_payload(func(states))}
    if args.op == "classify":
        construction, expansion = args.construction or "fd", permstats.PermutationExpansion
        builders = {"fd": expansion.fermi_dirac, "be": expansion.bose_einstein, "mixed": expansion.mixed}
        result = permstats.classify_statistics(builders[construction](states))
        return {"op": "classify", "construction": construction, "class": result.value}
    if len(states) > 1:
        raise InvalidValueError(f"perm signature takes one state, not {len(states)}")
    signature = permstats.invariance_signature(states[0])
    return {
        "op": "signature",
        "signature": {
            str(p): ("none" if v is None else f"{v:+d}")
            for p, v in sorted(signature.items(), key=lambda kv: kv[0].image)
        },
    }


def cmd_cg(args: argparse.Namespace) -> dict[str, Any]:
    from . import spin_algebra

    if args.photon:
        table = spin_algebra.photon_pair_table()
        top = table[(Fraction(2), Fraction(2))]
        lowered = spin_algebra.ladder_apply("-", top)
        payload: dict[str, Any] = {"photon": True, "lowering_scale": lowered.norm()}
    else:
        table = spin_algebra.cg_decompose(args.j1, args.j2)
        payload = {"j1": str(args.j1), "j2": str(args.j2)}
    payload["rows"] = pair_rows({key: pair_rows(state.amplitudes) for key, state in table.items()})
    return payload


def cmd_algebra(args: argparse.Namespace) -> dict[str, Any]:
    from . import spin_algebra

    check = spin_algebra.verify_rescaled_algebra(args.n, args.j)
    return {
        "n": check.n,
        "j": str(check.j),
        "max_commutator_residual": check.max_residual,
        "ladder_product_identity": check.ladder_product_identity,
        "holds": check.holds,
    }


def cmd_condprob(args: argparse.Namespace) -> dict[str, Any]:
    from . import condprob

    dist = condprob.SpinDistribution(
        Fraction(1), dict(zip((Fraction(1), Fraction(0), Fraction(-1)), args.prior))
    )
    payload: dict[str, Any] = {
        "prior": {str(m): p for m, p in dist.probabilities.items()},
        "total": str(args.total),
    }
    if args.compare_cg:
        comparison = condprob.compare_with_cg(dist, args.total, s=2 if args.s is None else args.s)
        payload["table"] = pair_rows(comparison.conditional)
        payload["cg_comparison"] = {
            "s": str(comparison.s),
            "squares": pair_rows(comparison.cg_squares),
            "max_deviation": comparison.max_deviation,
            "matches": comparison.matches,
        }
    else:
        payload["table"] = pair_rows(condprob.conditional_given_total(dist, dist, args.total))
    return payload


def cmd_beam(args: argparse.Namespace) -> dict[str, Any]:
    from . import beam

    config = beam.BeamConfig(args.atoms, args.hypothesis, args.seed)
    result = beam.simulate_beam(config)
    payload: dict[str, Any] = {
        "atoms": config.n_atoms,
        "hypothesis": config.hypothesis,
        "seed": config.seed,
        "counts": {beam.cell_label(v): c for v, c in result.counts.items()},
        "proportions": {beam.cell_label(v): p for v, p in result.proportions.items()},
    }
    if args.test_null:
        critical = beam.DEFAULT_CRITICAL if args.critical is None else args.critical
        report = beam.chi_square_discriminate(result, args.test_null, critical=critical)
        payload["chi_square"] = {
            "null": report.null_hypothesis,
            "statistic": report.statistic,
            "degrees_of_freedom": report.degrees_of_freedom,
            "critical": report.critical,
            "p_value": report.p_value,
            "reject": report.reject,
        }
    return payload


# ---------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--mode", choices=(EXACT, FLOAT), default=EXACT)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinstat",
        description="Spin-pair states, Bell inequality, permutation statistics, "
        "coupling tables, and beam simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="build a cataloged state and run checks")
    p.add_argument("tag", type=state_tag_arg, help="a state of the catalog; an unknown tag lists them")
    p.add_argument("--j", type=fraction_arg, help="spin for spin_j_singlet")
    p.add_argument("--check-invariance", action="store_true")
    p.add_argument("--check-isc", action="store_true")
    p.add_argument("--decompose", action="store_true", help="two-level components (spin_j_singlet)")
    p.add_argument("--c", type=fraction_arg, help="rotation rate of the checks (default: 1/2)")
    p.add_argument("--grid", type=positive_int_arg, help="float grid of the checks (default: 360)")
    _add_common(p)
    p.set_defaults(handler=cmd_state)

    p = sub.add_parser("bell", help="evaluate the angle-gap inequality")
    p.add_argument("--gaps", type=angle_list_arg, help="e.g. pi/3,pi/3,2pi/3")
    p.add_argument("--formula", choices=("half", "full"), default="half")
    p.add_argument("--search", action="store_true", help="scan the angle grid")
    p.add_argument("--denominator", type=positive_int_arg, help="search step pi/denominator (default: 12)")
    _add_common(p)
    p.set_defaults(handler=cmd_bell)

    p = sub.add_parser("wigner", help="three-angle set-inclusion argument")
    p.add_argument("--angles", type=angle_list_arg, help="e.g. 0,pi/3,2pi/3")
    p.add_argument("--variant", choices=("same-state", "singlet-inclusive"), default="same-state")
    p.add_argument("--formula", choices=("half", "full"), default="half")
    _add_common(p)
    p.set_defaults(handler=cmd_wigner)

    p = sub.add_parser("perm", help="permutation sums and classification")
    p.add_argument("op", choices=("antisymmetrize", "symmetrize", "classify", "signature", "energy"))
    p.add_argument("--states", help="state spec file")
    p.add_argument("--construction", choices=("fd", "be", "mixed"), help="classify expansion (default: fd)")
    p.add_argument("--levels", type=fraction_list_arg)
    p.add_argument("--count", type=int)
    _add_common(p)
    p.set_defaults(handler=cmd_perm)

    p = sub.add_parser("cg", help="coupling tables")
    p.add_argument("--j1", type=fraction_arg)
    p.add_argument("--j2", type=fraction_arg)
    p.add_argument("--photon", action="store_true", help="two-valued pair via n=2 ladders")
    _add_common(p)
    p.set_defaults(handler=cmd_cg)

    p = sub.add_parser("algebra", help="rescaled commutator residuals")
    p.add_argument("--n", type=int)
    p.add_argument("--j", type=fraction_arg)
    _add_common(p)
    p.set_defaults(handler=cmd_algebra)

    p = sub.add_parser("condprob", help="conditional spin-sum tables")
    p.add_argument("--prior", type=lambda text: _three(fraction_arg, text, "fractions"), help="p(+1),p(0),p(-1)")
    p.add_argument("--total", type=int, default=0)
    p.add_argument("--compare-cg", action="store_true")
    p.add_argument("--s", type=int, help="--compare-cg coupled spin (default: 2)")
    _add_common(p)
    p.set_defaults(handler=cmd_condprob)

    p = sub.add_parser("beam", help="simulate a beam and test a null")
    p.add_argument("--atoms", type=int)
    p.add_argument("--hypothesis", choices=("uniform", "paper"), default="paper")
    p.add_argument("--test-null", choices=("uniform", "paper"))
    p.add_argument(
        "--critical",
        type=positive_float_arg,
        help="chi-square critical value (default: the 5%% point for 2 degrees of freedom)",
    )
    # argparse converts a string default with ``type`` only when the flag is
    # absent, so a malformed SPINSTAT_SEED is a usage error of beam alone.
    p.add_argument(
        "--seed",
        type=int,
        default=os.environ.get("SPINSTAT_SEED", "0"),
        help="seed of the draws (default: SPINSTAT_SEED or 0)",
    )
    _add_common(p)
    p.set_defaults(handler=cmd_beam)

    return parser


# The options that a mode reads only where a condition on the parsed values
# holds, per subcommand, and whether the mode also needs them there; every
# other option is read in every mode.  argparse checks no option's presence,
# so this table alone decides whether a needed option is missing.
_READ_WHERE: dict[str, tuple[tuple[Callable[[argparse.Namespace], bool], tuple[str, ...], bool], ...]] = {
    "state": (
        (lambda a: a.check_invariance or a.check_isc, ("c", "grid"), False),
        (lambda a: a.tag == "spin_j_singlet", ("decompose",), False),
        (lambda a: a.tag == "spin_j_singlet", ("j",), True),
    ),
    "bell": ((lambda a: a.search, ("denominator",), False), (lambda a: not a.search, ("gaps",), True)),
    "wigner": ((lambda a: True, ("angles",), True),),
    "perm": (
        (lambda a: a.op == "energy", ("levels", "count"), True),
        (lambda a: a.op != "energy", ("states",), True),
        (lambda a: a.op == "classify", ("construction",), False),
    ),
    "cg": ((lambda a: not a.photon, ("j1", "j2"), True),),
    "algebra": ((lambda a: True, ("n", "j"), True),),
    "condprob": ((lambda a: True, ("prior",), True), (lambda a: a.compare_cg, ("s",), False)),
    "beam": ((lambda a: True, ("atoms",), True), (lambda a: a.test_null is not None, ("critical",), False)),
}


def _refusal(args: argparse.Namespace) -> None:
    """Refuse the given options that the parsed mode does not read, then the needed ones it lacks.

    The resolve step before any handler.  ``None`` and ``False`` are not given; ``--count 0`` is.
    """
    unread, missing = [], []
    for reads, names, needed in _READ_WHERE.get(args.command, ()):
        holds = reads(args)
        for name in names:
            given = getattr(args, name) is not None and getattr(args, name) is not False
            if given and not holds:
                unread.append(name)
            elif needed and holds and not given:
                missing.append(name)
    for names, error, verb in ((unread, InvalidValueError, "does not use"), (missing, SpinstatError, "needs")):
        if names:
            options = ", ".join("--" + name.replace("_", "-") for name in sorted(names))
            raise error(f"{args.command} {verb} {options} here")


def main(argv: Sequence[str] | None = None) -> int:
    argv = _attach_negative_angle_lists(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    envelope: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "mode": args.mode,
    }
    try:
        _refusal(args)
        envelope["payload"] = args.handler(args)
        emit(envelope, args.format)
        return 0
    except (SpinstatError, OSError) as exc:
        code = exc.code if isinstance(exc, SpinstatError) else "io-error"
        envelope.pop("payload", None)
        envelope["error"] = {"code": code, "message": str(exc)}
    emit(envelope, args.format)
    return 1


if __name__ == "__main__":
    sys.exit(main())
