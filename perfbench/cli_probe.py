"""Cold CLI process with spans around import, parse, handler and emit.

Run as ``python perfbench/cli_probe.py <spinstat argv...>``.  It calls the
real ``spinstat.cli.main``, so stdout is what ``python -m spinstat`` prints;
the spans go to stderr as one ``PERFBENCH_SPANS <json>`` line.  The parse
span covers ``build_parser().parse_args``, and the state-file span nests
inside the handler span.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Callable

from tracing import Recorder

SRC = Path(__file__).resolve().parent.parent / "src"


def _timed(t: Any, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return t.call(name, fn, *args, **kwargs)

    return wrapper


def instrumented_main(t: Any, argv: list[str]) -> int:
    """``spinstat.cli.main(argv)`` with a span at each CLI phase."""
    from spinstat import cli

    originals = {name: getattr(cli, name) for name in ("build_parser", "emit", "parse_state_sections")}

    def build_parser():
        parser = t.call("cli.parse", originals["build_parser"])
        parse_args = parser.parse_args

        def parse(*args: Any, **kwargs: Any) -> Any:
            ns = t.call("cli.parse", parse_args, *args, **kwargs)
            ns.handler = _timed(t, "cli.handler", ns.handler)
            return ns

        parser.parse_args = parse
        return parser

    cli.build_parser = build_parser
    cli.emit = _timed(t, "cli.emit", originals["emit"])
    cli.parse_state_sections = _timed(t, "cli.state_file", originals["parse_state_sections"])
    try:
        return cli.main(argv)
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)


def main() -> int:
    sys.path.insert(0, str(SRC))
    rec = Recorder()
    with rec.span("cli.import"):
        import spinstat.cli  # noqa: F401
    try:
        code = instrumented_main(rec, sys.argv[1:])
    finally:
        sys.stdout.flush()
        print("PERFBENCH_SPANS " + json.dumps(rec.rows()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
