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

Exit codes: 0 success, 1 usage error, 2 solver or input error.
"""

from __future__ import annotations

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
from .svgdraw import VertexMismatchError, render_posture

__all__ = [
    "ProblemFileError",
    "parse_problem",
    "problem_to_json",
    "report_to_json",
    "run_solve",
    "run_gb",
    "main",
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


def _read_text(path) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise ProblemFileError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc


def _section(doc: dict, key: str) -> dict:
    if key not in doc:
        raise ProblemFileError(f"{key}: missing section")
    if not isinstance(doc[key], dict):
        raise ProblemFileError(f"{key}: expected an object")
    return doc[key]


def parse_problem(path) -> ManipulatorProblem:
    """Read and validate a problem file, exactly (no float intermediates)."""
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path}: invalid JSON ({exc})") from exc
    except ValueError as exc:  # an integer longer than sys.get_int_max_str_digits()
        raise ProblemFileError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError(f"{path}: expected a JSON object")

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
    return {
        "geometry": {
            "l_ab": str(problem.l_ab),
            "l_ac": str(problem.l_ac),
            "d_ab": problem.d_ab.to_json(),
            "d_ac": problem.d_ac.to_json(),
            "cis_beta": problem.cis_beta.to_json(),
        },
        "strokes": {
            "s_a": str(problem.s_a),
            "s_b": str(problem.s_b),
            "s_c": str(problem.s_c),
        },
    }


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
            {
                "theta_a": p.theta_a,
                "theta_b": p.theta_b,
                "theta_c": p.theta_c,
                "alpha": p.alpha,
            }
            for p in report.postures
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
    """Solve one problem file; write the report and optional SVG set."""
    try:
        problem = parse_problem(args.input)
        report = solve_posture(problem)
        doc = report_to_json(report, emit_basis=args.emit_basis)
        payload = json.dumps(doc, indent=2) + "\n"

        if args.output:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write(payload)
        else:
            sys.stdout.write(payload)

        if args.svg_dir:
            os.makedirs(args.svg_dir, exist_ok=True)
            k = 0
            physical = [t for t in report.solutions if t.physical]
            for t, posture in zip(physical, report.postures):
                k += 1
                svg = render_posture(problem, t, posture, title=f"posture {k}")
                svg_path = os.path.join(args.svg_dir, f"posture_{k}.svg")
                with open(svg_path, "w", encoding="utf-8") as f:
                    f.write(svg)
    except (
        ProblemFileError,
        ShapePositionError,
        ConvergenceError,
        PairLimitExceeded,
        VertexMismatchError,
        OSError,
        OverflowError,  # an exact value beyond double range
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run_gb(args) -> int:
    """Read one polynomial per line, print the reduced monic lex basis."""
    from .polytext import PolyParseError, parse_poly

    try:
        text = _read_text(args.input)
    except ProblemFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    generators = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        try:
            generators.append(parse_poly(body))
        except PolyParseError as exc:
            print(f"error: line {lineno}: {exc}", file=sys.stderr)
            return 2

    try:
        basis = buchberger(generators)
    except (ValueError, PairLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for g in basis.elements:
        print(g.to_text())
    return 0


_USAGE = "usage: parapose [-h] {solve,gb} ..."
_HELP = f"""{_USAGE}

Exact forward-position solver for planar 3RPR manipulators.

commands:
  solve       solve a problem file
  gb          print the reduced basis of a generator file

options:
  -h, --help  show this help message and exit
"""

_SOLVE_USAGE = """\
usage: parapose solve [-h] --input INPUT [--output OUTPUT] [--svg-dir SVG_DIR]
                      [--emit-basis]"""
_SOLVE_HELP = f"""{_SOLVE_USAGE}

options:
  -h, --help            show this help message and exit
  --input INPUT         problem JSON file
  --output OUTPUT       report JSON path (default: stdout)
  --svg-dir SVG_DIR     directory for posture_<k>.svg files
  --emit-basis          include the Groebner basis in the report
"""

_GB_USAGE = "usage: parapose gb [-h] --input INPUT"
_GB_HELP = f"""{_GB_USAGE}

options:
  -h, --help     show this help message and exit
  --input INPUT  text file, one polynomial per line
"""

# command -> (runner, usage, help, {flag: default}); a flag whose default
# is False is a switch and takes no value, any other takes a string;
# every command needs --input
_COMMANDS = {
    "solve": (run_solve, _SOLVE_USAGE, _SOLVE_HELP, {
        "--input": None,
        "--output": None,
        "--svg-dir": None,
        "--emit-basis": False,
    }),
    "gb": (run_gb, _GB_USAGE, _GB_HELP, {
        "--input": None,
    }),
}


class _UsageError(Exception):
    pass


def _parse_flags(flags: dict, tokens: list):
    """Flag values by name (dashes to underscores), or None after -h/--help."""
    values = dict(flags)
    tokens = iter(tokens)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        flag, eq, value = token.partition("=")
        if flag not in flags:
            if token.startswith("-"):
                raise _UsageError(f"unknown flag {flag}")
            raise _UsageError(f"unexpected argument {token!r}")
        if flags[flag] is False:
            if eq:
                raise _UsageError(f"{flag} takes no value")
            value = True
        elif not eq:
            # a next argument that looks like a flag is not a value; "-" is
            value = next(tokens, None)
            if value is None or (value.startswith("-") and value != "-"):
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
    run, usage, text, flags = _COMMANDS[argv[0]]
    try:
        values = _parse_flags(flags, argv[1:])
    except _UsageError as exc:
        print(usage, f"parapose {argv[0]}: error: {exc}", sep="\n", file=sys.stderr)
        return 1
    if values is None:
        sys.stdout.write(text)
        return 0
    return run(SimpleNamespace(**values))


if __name__ == "__main__":
    raise SystemExit(main())
