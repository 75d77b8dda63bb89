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

import argparse
import json
import os
import sys
import time

from .gaussrat import GaussianRational, parse_rational
from .groebner import PairLimitExceeded, buchberger
from .kinematics import (
    DEFAULT_PHYSICAL_TOL,
    DEFAULT_ROOT_TOL,
    ManipulatorProblem,
    ShapePositionError,
    SolutionReport,
    solve_posture,
)
from .multipoly import PolyParseError, VAR_NAMES, parse_poly
from .rootfind import ConvergenceError
from .svgdraw import VertexMismatchError, render_posture

__all__ = [
    "ProblemFileError",
    "parse_problem",
    "problem_to_json",
    "report_to_json",
    "run_solve",
    "run_gb",
    "build_parser",
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
        report = solve_posture(
            problem,
            tol_root=args.tol_root,
            tol_physical=args.tol_physical,
        )
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


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this front end uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="parapose",
        description="Exact forward-position solver for planar 3RPR manipulators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a problem file")
    solve.add_argument("--input", required=True, help="problem JSON file")
    solve.add_argument("--output", help="report JSON path (default: stdout)")
    solve.add_argument("--svg-dir", help="directory for posture_<k>.svg files")
    solve.add_argument("--tol-root", type=float, default=DEFAULT_ROOT_TOL,
                       help="root-residual tolerance (default %(default)g)")
    solve.add_argument("--tol-physical", type=float, default=DEFAULT_PHYSICAL_TOL,
                       help="unit-circle / conjugacy tolerance (default %(default)g)")
    solve.add_argument("--emit-basis", action="store_true",
                       help="include the Groebner basis in the report")
    solve.set_defaults(func=run_solve)

    gb = sub.add_parser("gb", help="print the reduced basis of a generator file")
    gb.add_argument("--input", required=True,
                    help="text file, one polynomial per line")
    gb.set_defaults(func=run_gb)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
