"""Command-line front end: problem files in, JSON reports and SVG out.

Problem files are JSON with exact values only::

    {
      "geometry": {
        "l_ab": "3", "l_ac": "4",
        "d_ab": {"re": "6", "im": "0"},
        "d_ac": {"re": "0", "im": "8"},
        "cis_beta": {"re": "0", "im": "1"}
      },
      "strokes": {"s_a": "2", "s_b": "7/2", "s_c": "5/2"}
    }

Rationals are strings ("p/q" or "p") or JSON integers, so no value ever
passes through a float; any other JSON type is rejected.  Reports are
deterministic: rerunning the same input produces byte-identical JSON
once the single "timestamp" field (wall-clock data) is removed.

"-" as ``--input`` reads standard input, and as ``--output`` writes the
report to standard output; errors then name the input ``<stdin>``.

Exit codes: 0 success, 1 usage error, 2 solver or input error.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from types import SimpleNamespace

from .gaussrat import GaussianRational, parse_rational
from .groebner import PairLimitExceeded, buchberger
from .kinematics import (
    ManipulatorProblem,
    ShapePositionError,
    SolutionReport,
    solve_posture,
)
from .multipoly import VAR_NAMES
from .rootfind import ConvergenceError
from .svgdraw import render_posture

__all__ = [
    "ProblemFileError",
    "parse_problem",
    "problem_to_json",
    "report_to_json",
    "run_solve",
    "run_gb",
    "main",
    "run",
]


class ProblemFileError(ValueError):
    """An input file is unreadable or invalid; message names the file or field."""


# (section, key, reader) for every exact value of a problem file
_FIELDS = (
    ("geometry", "l_ab", parse_rational),
    ("geometry", "l_ac", parse_rational),
    ("geometry", "d_ab", GaussianRational.from_json),
    ("geometry", "d_ac", GaussianRational.from_json),
    ("geometry", "cis_beta", GaussianRational.from_json),
    ("strokes", "s_a", parse_rational),
    ("strokes", "s_b", parse_rational),
    ("strokes", "s_c", parse_rational),
)
_SECTION_OF = {key: section for section, key, _ in _FIELDS}


def _read_text(path) -> tuple[str, str]:
    """The name error messages give the input, and its text; "-" is stdin."""
    source = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            if sys.stdin is None:  # started with standard input closed
                raise ProblemFileError(f"{source}: not open")
            return source, sys.stdin.read()
        with open(path, encoding="utf-8") as f:
            return source, f.read()
    except OSError as exc:
        raise ProblemFileError(f"{source}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ProblemFileError(f"{source}: {exc}") from exc


def _section(doc: dict, key: str) -> dict:
    if key not in doc:
        raise ProblemFileError(f"{key}: missing section")
    if not isinstance(doc[key], dict):
        raise ProblemFileError(f"{key}: expected an object")
    return doc[key]


def parse_problem(path) -> ManipulatorProblem:
    """Read and validate a problem file ("-": standard input), exactly
    (no float intermediates)."""
    source, text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{source}: invalid JSON ({exc})") from exc
    except ValueError as exc:  # an integer longer than sys.get_int_max_str_digits()
        raise ProblemFileError(f"{source}: {exc}") from exc
    except RecursionError as exc:
        raise ProblemFileError(f"{source}: invalid JSON (nested too deeply)") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError(f"{source}: expected a JSON object")

    sections = {name: _section(doc, name) for name in ("geometry", "strokes")}
    values = {}
    for section, key, read in _FIELDS:
        if key not in sections[section]:
            raise ProblemFileError(f"{section}.{key}: missing")
        try:
            values[key] = read(sections[section][key])
        except ValueError as exc:
            raise ProblemFileError(f"{section}.{key}: {exc}") from exc

    try:
        return ManipulatorProblem(**values)
    except (TypeError, ValueError) as exc:
        # the record's messages start with the field name
        key = str(exc).partition(":")[0]
        raise ProblemFileError(f"{_SECTION_OF[key]}.{exc}") from exc


def problem_to_json(problem: ManipulatorProblem) -> dict:
    doc = {"geometry": {}, "strokes": {}}
    for section, key, read in _FIELDS:
        value = getattr(problem, key)
        doc[section][key] = str(value) if read is parse_rational else value.to_json()
    return doc


def _complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _utc_isoformat(ns: int) -> str:
    """UTC instant (ns since the epoch) in ``datetime.isoformat()`` form."""
    secs, ns = divmod(ns, 1_000_000_000)
    text = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(secs))
    micros = ns // 1000
    if micros:
        text += f".{micros:06d}"
    return text + "+00:00"


def report_to_json(report: SolutionReport, *, emit_basis: bool = False) -> dict:
    doc = {
        "problem": problem_to_json(report.problem),
        "variable_order": list(VAR_NAMES),
        "eliminant": {
            "variable": VAR_NAMES[-1],
            "coefficients": [str(c) for c in report.eliminant.coefficients],
        },
        "eliminant_self_reciprocal": report.eliminant_self_reciprocal,
        "empty_variety": report.empty_variety,
        "solutions": [
            {
                "coords": [_complex_json(z) for z in t.coords],
                "physical": t.physical,
                "residual_max": t.residual_max,
            }
            for t in report.solutions
        ],
        "postures": [
            {name: getattr(p, name) for name in p.__slots__} for p in report.postures
        ],
        "diagnostics": dict(report.diagnostics),
    }
    if emit_basis:
        doc["groebner_basis"] = [g.to_text() for g in report.basis.elements]
    doc["timestamp"] = {
        "generated_at": _utc_isoformat(time.time_ns()),
        "elapsed_ms": {k: round(v, 3) for k, v in report.timings_ms.items()},
    }
    return doc


def run_solve(args) -> int:
    """Solve one problem file; write the optional SVG set, then the report.

    The report comes last, so a failure in the SVG step leaves no report
    that looks like a success.
    """
    problem = parse_problem(args.input)
    report = solve_posture(problem)
    doc = report_to_json(report, emit_basis=args.emit_basis)
    payload = json.dumps(doc, indent=2) + "\n"

    if args.svg_dir:
        os.makedirs(args.svg_dir, exist_ok=True)
        physical = [t for t in report.solutions if t.physical]
        for k, (t, posture) in enumerate(zip(physical, report.postures), start=1):
            svg = render_posture(problem, t, posture, title=f"posture {k}")
            svg_path = os.path.join(args.svg_dir, f"posture_{k}.svg")
            with open(svg_path, "w", encoding="utf-8") as f:
                f.write(svg)

    if args.output in (None, "-"):
        sys.stdout.write(payload)
    else:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(payload)
    return 0


def run_gb(args) -> int:
    """Read one polynomial per line, print the reduced monic lex basis."""
    from .polytext import PolyParseError, parse_poly

    _, text = _read_text(args.input)
    generators = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        try:
            generators.append(parse_poly(body))
        except PolyParseError as exc:
            raise PolyParseError(f"line {lineno}: {exc}") from exc

    for g in buchberger(generators).elements:
        print(g.to_text())
    return 0


# bad input or an unsolvable problem: main() prints one "error:" line, exit 2
# (ValueError covers ProblemFileError, PolyParseError, VertexMismatchError;
# OverflowError is an exact value beyond double range)
_INPUT_ERRORS = (ShapePositionError, ConvergenceError, PairLimitExceeded,
                 OSError, OverflowError, ValueError)


_USAGE = "usage: parapose [-h] {solve,gb} ..."
_HELP = f"""{_USAGE}

Exact forward-position solver for planar 3RPR manipulators.

commands:
  solve       solve a problem file
  gb          print the reduced basis of a generator file

options:
  -h, --help  show this help message and exit
"""

# command -> (runner, {flag: (metavar, help)}); a flag whose metavar is
# None is a switch and takes no value, any other takes a string; every
# command needs --input.  Each command's help page and usage line are
# built from its table by _help.
_COMMANDS = {
    "solve": (run_solve, {
        "--input": ("INPUT", 'problem JSON file ("-": stdin)'),
        "--output": ("OUTPUT", 'report JSON path (default or "-": stdout)'),
        "--svg-dir": ("SVG_DIR", "directory for posture_<k>.svg files"),
        "--emit-basis": (None, "include the Groebner basis in the report"),
    }),
    "gb": (run_gb, {
        "--input": ("INPUT", 'text file, one polynomial per line ("-": stdin)'),
    }),
}


def _help(command: str) -> str:
    """A command's help page, built from its flag table; its first line is
    the usage line, in which --input is the one required flag."""
    rows = [("-h, --help", "show this help message and exit")]
    words = [f"usage: parapose {command} [-h]"]
    for flag, (metavar, text) in _COMMANDS[command][1].items():
        spelled = flag if metavar is None else f"{flag} {metavar}"
        rows.append((spelled, text))
        words.append(spelled if flag == "--input" else f"[{spelled}]")
    width = max(len(spelled) for spelled, _ in rows) + 2
    body = "".join(f"  {spelled:<{width}}{text}\n" for spelled, text in rows)
    return f"{' '.join(words)}\n\noptions:\n{body}"


class _UsageError(Exception):
    pass


def _parse_flags(flags: dict, tokens: list):
    """Flag values by name (dashes to underscores), or None after -h/--help."""
    values = {flag: None if metavar else False for flag, (metavar, _) in flags.items()}
    tokens = iter(tokens)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        flag, eq, value = token.partition("=")
        if flag not in flags:
            if token.startswith("-"):
                raise _UsageError(f"unknown flag {flag}")
            raise _UsageError(f"unexpected argument {token!r}")
        if flags[flag][0] is None:  # a switch
            if eq:
                raise _UsageError(f"{flag} takes no value")
            value = True
        elif not eq:
            # a next argument that looks like a flag is not a value; "-" is
            value = next(tokens, "")
            if value.startswith("-") and value != "-":
                value = ""
        if not value:  # an empty value counts as a missing one
            raise _UsageError(f"{flag} expects a value")
        values[flag] = value
    if values["--input"] is None:
        raise _UsageError("--input is required")
    return {flag[2:].replace("-", "_"): value for flag, value in values.items()}


def main(argv=None) -> int:
    """Run one command; exit code 0 success or help, 1 usage, 2 solver or input error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] in (["-h"], ["--help"]):
        sys.stdout.write(_HELP)
        return 0
    if not argv or argv[0] not in _COMMANDS:
        message = f"unknown command {argv[0]!r}" if argv else "a command is required"
        print(_USAGE, f"parapose: error: {message}", sep="\n", file=sys.stderr)
        return 1
    runner, flags = _COMMANDS[argv[0]]
    try:
        values = _parse_flags(flags, argv[1:])
    except _UsageError as exc:
        usage = _help(argv[0]).partition("\n")[0]
        print(usage, f"parapose {argv[0]}: error: {exc}", sep="\n", file=sys.stderr)
        return 1
    if values is None:
        sys.stdout.write(_help(argv[0]))
        return 0
    try:
        return runner(SimpleNamespace(**values))
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """Process entry of ``parapose`` and ``python -m parapose``: ``main()``
    on ``sys.argv``, returning its exit code.

    Everything still alive then dies with the process, so ``gc.freeze()``
    moves it out of the collector's reach, and the interpreter's exit
    skips its full collections over every object that ``site``, the
    standard library and the command left behind.  Atexit handlers and
    stream flushing still run.  In-process callers use ``main()``, which
    leaves the collector as it found it.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
