import datetime
import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path
import pytest

import parapose
from parapose.cli import (
    _COMMANDS,
    ProblemFileError,
    _utc_isoformat,
    main,
    parse_problem,
    problem_to_json,
    report_to_json,
    run,
)
from parapose.gaussrat import GaussianRational
from parapose.groebner import BuchbergerStats, PairLimitExceeded
from parapose.kinematics import ManipulatorProblem, ShapePositionError, solve_posture
from parapose.rootfind import ConvergenceError
from parapose.svgdraw import VertexMismatchError, render_posture

from conftest import PROBLEMS_DIR
from golden import BASIS_EXAMPLE1

# an interpreter without (or with a disabled) limit on int-string conversion
# parses integers of any length
needs_digit_limit = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no limit on int-string conversion",
)

EXAMPLE1 = PROBLEMS_DIR / "example1.json"
EXAMPLE2 = PROBLEMS_DIR / "example2.json"


def write_problem(tmp_path, body, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body) if isinstance(body, dict) else body)
    return path


def without_timestamp(text):
    doc = json.loads(text)
    doc.pop("timestamp")
    return json.dumps(doc, indent=2)


def report_digest(text):
    """SHA-256 of a report without its timestamp, every float rounded to
    12 significant digits."""
    doc = json.loads(text, parse_float=lambda s: float(f"{float(s):.12g}"))
    doc.pop("timestamp")
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


# report_digest of the bundled problems' --emit-basis reports: coordinates,
# residuals, solution order, angles and diagnostics, not only the bases
REPORT_DIGESTS = {
    "example1": "0acc74bae83f8ac80a96b514c3ca1210fe53d3973383c441ad4df61d945f7f5d",
    "example2": "36a35356f125390d32d6e25d3a70465840f025ab68517e3f3b2dc4896df41537",
}


def svg_bytes(svg_dir):
    return {p.name: p.read_bytes() for p in svg_dir.iterdir()}


def run_entry(*argv, stdin=None):
    """``python -m parapose`` in a fresh interpreter that imports this parapose."""
    src = str(Path(parapose.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "parapose", *argv],
        input=stdin, stdin=None if stdin is not None else subprocess.DEVNULL,
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )


def example_body(**overrides):
    body = {
        "geometry": {
            "l_ab": "3",
            "l_ac": "4",
            "d_ab": {"re": "6", "im": "0"},
            "d_ac": {"re": "0", "im": "8"},
            "cis_beta": {"re": "0", "im": "1"},
        },
        "strokes": {"s_a": "2", "s_b": "7/2", "s_c": "5/2"},
    }
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        body[section][key] = value
    return body


class TestParseProblem:
    def test_example_file(self):
        problem = parse_problem(EXAMPLE1)
        assert problem.s_b == Fraction(7, 2)
        assert problem.d_ac == GaussianRational(0, 8)

    def test_round_trip(self, tmp_path):
        problem = parse_problem(EXAMPLE2)
        path = write_problem(tmp_path, problem_to_json(problem))
        assert parse_problem(path) == problem

    def test_round_trip_generic(self, tmp_path):
        # negative, fractional and Pythagorean values; the JSON keeps the
        # file layout and key order
        rng = random.Random(13)

        def rational(lo=1):
            return Fraction(rng.randint(lo, 40), rng.randint(1, 9))

        def gaussian():
            return GaussianRational(rational(-40), rational(-40))

        layout = {"geometry": ["l_ab", "l_ac", "d_ab", "d_ac", "cis_beta"],
                  "strokes": ["s_a", "s_b", "s_c"]}
        for k in range(40):
            m, n = rng.randint(2, 9), rng.randint(1, 8)
            a, b, c = m * m - n * n, 2 * m * n, m * m + n * n
            if rng.random() < 0.5:
                a, b = b, a
            d_ab, d_ac = gaussian(), gaussian()
            if d_ab.is_zero or d_ac.is_zero or d_ab == d_ac:
                continue
            problem = ManipulatorProblem(
                l_ab=rational(), l_ac=rational(), d_ab=d_ab, d_ac=d_ac,
                cis_beta=GaussianRational(Fraction(rng.choice((-a, a)), c),
                                          Fraction(rng.choice((-b, b)), c)),
                s_a=rational(), s_b=rational(), s_c=rational(),
            )
            doc = problem_to_json(problem)
            assert {section: list(doc[section]) for section in doc} == layout
            path = write_problem(tmp_path, doc, name=f"p{k}.json")
            assert parse_problem(path) == problem

    def test_deeply_nested_json(self, tmp_path):
        # beyond the interpreter's recursion limit: a file error, not RecursionError
        path = write_problem(tmp_path, "[" * 100000)
        with pytest.raises(ProblemFileError, match=r"invalid JSON \(nested too deeply\)"):
            parse_problem(path)

    def test_imaginary_anchor(self, tmp_path):
        path = write_problem(tmp_path, example_body())
        assert parse_problem(path).d_ac == GaussianRational(0, 8)

    def test_zero_stroke_rejected(self, tmp_path):
        path = write_problem(tmp_path, example_body(**{"strokes.s_a": "0"}))
        with pytest.raises(ProblemFileError, match="lengths must be positive"):
            parse_problem(path)

    def test_missing_key(self, tmp_path):
        body = example_body()
        del body["strokes"]["s_c"]
        path = write_problem(tmp_path, body)
        with pytest.raises(ProblemFileError, match="strokes.s_c"):
            parse_problem(path)

    def test_malformed_rational(self, tmp_path):
        path = write_problem(tmp_path, example_body(**{"geometry.l_ab": "3.5"}))
        with pytest.raises(ProblemFileError, match="geometry.l_ab"):
            parse_problem(path)

    def test_non_unit_direction(self, tmp_path):
        path = write_problem(
            tmp_path, example_body(**{"geometry.cis_beta": {"re": "1", "im": "1"}})
        )
        with pytest.raises(ProblemFileError, match="cis_beta"):
            parse_problem(path)

    def test_invalid_json(self, tmp_path):
        path = write_problem(tmp_path, "{not json")
        with pytest.raises(ProblemFileError, match="invalid JSON"):
            parse_problem(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemFileError):
            parse_problem(tmp_path / "absent.json")

    @pytest.mark.parametrize("text", ["5", "null", '["geometry"]'])
    def test_top_level_not_an_object(self, tmp_path, text):
        path = write_problem(tmp_path, text)
        with pytest.raises(ProblemFileError, match="expected a JSON object"):
            parse_problem(path)


class TestSolveCommand:
    def test_example_one_end_to_end(self, tmp_path):
        out = tmp_path / "report.json"
        svg_dir = tmp_path / "svg"
        code = main(
            [
                "solve",
                "--input", str(EXAMPLE1),
                "--output", str(out),
                "--svg-dir", str(svg_dir),
                "--emit-basis",
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["postures"]) == 2
        assert len(doc["solutions"]) == 4
        assert doc["eliminant_self_reciprocal"] is True
        assert doc["groebner_basis"] == BASIS_EXAMPLE1
        files = sorted(p.name for p in svg_dir.iterdir())
        assert files == ["posture_1.svg", "posture_2.svg"]

    @pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
    def test_bundled_reports_pinned(self, tmp_path, name):
        out = tmp_path / "report.json"
        argv = ["solve", "--input", str(PROBLEMS_DIR / f"{name}.json"),
                "--emit-basis", "--output", str(out)]
        assert main(argv) == 0
        assert report_digest(out.read_text()) == REPORT_DIGESTS[name]

    def test_example_two_svg_count(self, tmp_path):
        svg_dir = tmp_path / "svg"
        code = main(
            [
                "solve",
                "--input", str(EXAMPLE2),
                "--output", str(tmp_path / "r.json"),
                "--svg-dir", str(svg_dir),
            ]
        )
        assert code == 0
        assert len(list(svg_dir.glob("posture_*.svg"))) == 4

    def test_report_determinism(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(["solve", "--input", str(EXAMPLE1), "--output", str(p)]) == 0
        docs = []
        for p in paths:
            doc = json.loads(p.read_text())
            doc.pop("timestamp")
            docs.append(json.dumps(doc, indent=2))
        assert docs[0] == docs[1]

    def test_discarded_tuples_reported(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["solve", "--input", str(EXAMPLE1), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        flags = sorted(s["physical"] for s in doc["solutions"])
        assert flags == [False, False, True, True]
        for s in doc["solutions"]:
            assert s["residual_max"] < 1e-9

    def test_missing_input_flag_is_usage_error(self):
        assert main(["solve"]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_unreadable_input_is_solver_error(self, tmp_path):
        assert main(["solve", "--input", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("text", ["5", "null", '["geometry"]'])
    def test_non_object_problem_is_solver_error(self, tmp_path, capsys, text):
        path = write_problem(tmp_path, text)
        assert main(["solve", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "expected a JSON object" in lines[0]

    @pytest.mark.parametrize("value", [6, 6.0, True, None, [6], "0"], ids=repr)
    @pytest.mark.parametrize("field", ["geometry.l_ab", "geometry.d_ab.re"])
    def test_json_types_of_exact_values(self, tmp_path, capsys, field, value):
        # one rule for every exact value: a JSON integer or a "p/q" string;
        # "0" fails validation (a zero length, a zero anchor), named alike
        body = example_body()
        section, key, *part = field.split(".")
        if part:
            body[section][key][part[0]] = value
        else:
            body[section][key] = value
        path = write_problem(tmp_path, body)
        code = main(["solve", "--input", str(path)])
        captured = capsys.readouterr()
        if type(value) is int:
            assert code == 0
            echoed = json.loads(captured.out)["problem"][section][key]
            assert (echoed[part[0]] if part else echoed) == "6"
            return
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {section}.{key}: ")

    @pytest.mark.parametrize("field", ["geometry.l_ab", "geometry.d_ab"])
    def test_long_rejected_value_gives_short_line(self, tmp_path, capsys, field):
        # the line shows the start of the value, not all 20000 elements
        path = write_problem(tmp_path, example_body(**{field: list(range(20000))}))
        assert main(["solve", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {field}: ")
        assert len(lines[0].encode()) < 200

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"geometry.d_ac": {"re": "6", "im": "0"}}, "geometry.d_ac"),
            ({"geometry.cis_beta": {"re": "1", "im": "1"}}, "geometry.cis_beta"),
            ({"strokes.s_c": "-1"}, "strokes.s_c"),
        ],
    )
    def test_validation_errors_name_the_section(self, tmp_path, capsys, overrides, field):
        path = write_problem(tmp_path, example_body(**overrides))
        assert main(["solve", "--input", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {field}: ")

    @needs_digit_limit
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output-file"])
    def test_failed_svg_step_writes_no_report(self, tmp_path, capsys, to_file):
        # --svg-dir names an existing file, so its directory cannot be made:
        # the error line is the whole outcome, with no report beside it
        blocker = tmp_path / "svg"
        blocker.write_text("")
        out = tmp_path / "r.json"
        argv = ["solve", "--input", str(EXAMPLE1), "--svg-dir", str(blocker)]
        if to_file:
            argv += ["--output", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert not out.exists()
        assert blocker.read_text() == ""

    def test_overlong_json_integer_names_the_file(self, tmp_path, capsys):
        digits = sys.get_int_max_str_digits() + 700
        text = json.dumps(example_body()).replace('"2"', "1" * digits)
        path = write_problem(tmp_path, text)
        assert main(["solve", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {path}: ")

    @pytest.mark.parametrize("command", ["solve", "gb"])
    def test_non_utf8_input_names_the_file(self, tmp_path, capsys, command):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"\xff\xfe")
        assert main([command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {path}: ")

    def test_invalid_problem_is_solver_error(self, tmp_path):
        path = write_problem(tmp_path, example_body(**{"strokes.s_b": "bogus"}))
        assert main(["solve", "--input", str(path)]) == 2

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("strokes.s_b", "7/0", "strokes.s_b: malformed rational"),
            # finite coefficients, but the root iterates overflow to NaN
            ("geometry.l_ab", "1" + "0" * 100, "a root iterate exceeds double range"),
            # an eliminant coefficient of some 1057 bits overflows the float root
            # stage: the message names its size, not its digits
            ("geometry.l_ab", "1" + "0" * 160, "value of about 2^"),
        ],
        ids=["zero-denominator", "nan-iterates", "overflow-message-size"],
    )
    def test_arithmetic_errors_are_solver_errors(self, tmp_path, capsys, field, value,
                                                 message):
        path = write_problem(tmp_path, example_body(**{field: value}))
        assert main(["solve", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and message in lines[0]
        assert len(lines[0]) < 200

    def test_stdout_report(self, tmp_path, capsys):
        assert main(["solve", "--input", str(EXAMPLE1)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["diagnostics"]["physical_count"] == 2

    @pytest.mark.parametrize(
        "flag, value", [("--tol-root", "1e-30"), ("--tol-physical", "10")]
    )
    def test_tolerance_flags_are_unknown(self, tmp_path, capsys, flag, value):
        out = tmp_path / "r.json"
        argv = ["solve", "--input", str(EXAMPLE1), "--output", str(out), flag, value]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: parapose solve")
        assert f"unknown flag {flag}" in captured.err
        assert not out.exists()


class TestErrorExit:
    """main() turns a runner's input or solver error into one line and exit 2."""

    @pytest.mark.parametrize(
        "target, error",
        [
            ("solve_posture", ShapePositionError("triangular extension unavailable")),
            ("solve_posture", ConvergenceError("root residuals exceed", (), (), 200)),
            ("solve_posture", PairLimitExceeded(7, BuchbergerStats(9, 7))),
            ("solve_posture", OverflowError("coefficient exceeds double range")),
            ("render_posture", VertexMismatchError("platform vertex B differs")),
        ],
        ids=lambda v: v if isinstance(v, str) else type(v).__name__,
    )
    def test_runner_errors_exit_two(self, tmp_path, monkeypatch, capsys, target, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(f"parapose.cli.{target}", fail)
        argv = ["solve", "--input", str(EXAMPLE1), "--output", str(tmp_path / "r.json"),
                "--svg-dir", str(tmp_path / "svg")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {error}"]
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("solve", "[" * 100000, "{path}: invalid JSON (nested too deeply)"),
            ("gb", "(" * 5000 + "CA" + ")" * 5000, "line 1: nested too deeply"),
        ],
        ids=["solve", "gb"],
    )
    def test_deep_nesting_exits_two(self, tmp_path, capsys, command, text, message):
        path = write_problem(tmp_path, text, name="deep.txt")
        assert main([command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: " + message.format(path=path)]


class TestStandardStreams:
    """"-" as --input reads stdin; as --output it writes the report to stdout."""

    def test_solve_reads_stdin(self, tmp_path, monkeypatch, capsys):
        assert main(["solve", "--input", str(EXAMPLE1)]) == 0
        expected = without_timestamp(capsys.readouterr().out)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stdin", io.StringIO(EXAMPLE1.read_text()))
        assert main(["solve", "--input", "-", "--output", "-"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert without_timestamp(captured.out) == expected
        assert list(tmp_path.iterdir()) == []  # no file named "-"

    def test_gb_reads_stdin(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stdin", io.StringIO("CA^2 - 1\nCA*CB - 1\n"))
        assert main(["gb", "--input=-"]) == 0
        assert capsys.readouterr().out.splitlines() == ["CA - CB", "CB^2 - 1"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("solve", "{not json", "error: <stdin>: invalid JSON"),
            ("solve", "5", "error: <stdin>: expected a JSON object"),
            ("gb", "CA\nnot a poly\n", "error: line 2: "),
        ],
    )
    def test_stdin_errors(self, monkeypatch, capsys, command, text, message):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main([command, "--input", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(message)

    @pytest.mark.parametrize("command", ["solve", "gb"])
    def test_closed_stdin(self, monkeypatch, capsys, command):
        # an interpreter started with its standard input closed has no sys.stdin
        monkeypatch.setattr(sys, "stdin", None)
        assert main([command, "--input", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: <stdin>: not open\n"


class TestProcessEntry:
    """``python -m parapose`` runs ``run()``: ``main()``, then ``gc.freeze()``."""

    def test_same_report_and_svgs_as_in_process(self, tmp_path):
        args = ["solve", "--input", str(EXAMPLE2), "--emit-basis"]
        here, child = tmp_path / "here", tmp_path / "child"
        for out in (here, child):
            out.mkdir()
        assert main([*args, "--output", str(here / "r.json"),
                     "--svg-dir", str(here / "svg")]) == 0
        to_file = run_entry(*args, "--output", str(child / "r.json"),
                            "--svg-dir", str(child / "svg"))
        assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, "", "")
        to_stdout = run_entry(*args, "--output", "-")
        assert (to_stdout.returncode, to_stdout.stderr) == (0, "")

        expected = without_timestamp((here / "r.json").read_text())
        assert without_timestamp((child / "r.json").read_text()) == expected
        assert without_timestamp(to_stdout.stdout) == expected
        assert len(svg_bytes(here / "svg")) == 4
        assert svg_bytes(child / "svg") == svg_bytes(here / "svg")

    def test_usage_error_exits_one(self):
        result = run_entry("solve", "--input")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("usage: parapose solve")

    def test_solver_error_exits_two(self):
        # a platform congruent to its base: not in shape position
        congruent = example_body(**{
            "geometry.l_ab": "6", "geometry.l_ac": "8",
            "strokes.s_a": "3", "strokes.s_b": "3", "strokes.s_c": "3",
        })
        result = run_entry("solve", "--input", "-", stdin=json.dumps(congruent))
        assert result.returncode == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: triangular extension unavailable")

    def test_main_leaves_the_collector_alone(self, tmp_path):
        before = gc.get_freeze_count(), gc.isenabled()
        assert main(["solve", "--input", str(EXAMPLE1),
                     "--output", str(tmp_path / "r.json")]) == 0
        assert main(["solve", "--input"]) == 1
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_run_freezes_after_main(self, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        argv = ["parapose", "solve", "--input", str(EXAMPLE1), "--output", str(out)]
        monkeypatch.setattr(sys, "argv", argv)
        frozen = gc.get_freeze_count()
        try:
            assert run() == 0
            assert gc.get_freeze_count() > frozen
        finally:
            gc.unfreeze()
        assert json.loads(out.read_text())["diagnostics"]["physical_count"] == 2


class TestTimestamp:
    def test_generated_at_is_utc_isoformat(self, problem1):
        doc = report_to_json(solve_posture(problem1))
        stamp = datetime.datetime.fromisoformat(doc["timestamp"]["generated_at"])
        assert stamp.utcoffset() == datetime.timedelta(0)

    @pytest.mark.parametrize(
        "ns",
        [0, 1_700_000_000 * 10**9, 1_700_000_000 * 10**9 + 999, 1_792_327_001_123_456_789],
    )
    def test_matches_datetime_isoformat(self, ns):
        secs, rest = divmod(ns, 10**9)
        expected = datetime.datetime.fromtimestamp(secs, datetime.timezone.utc).replace(
            microsecond=rest // 1000
        )
        assert _utc_isoformat(ns) == expected.isoformat()


@pytest.fixture()
def svg_files(tmp_path):
    svg_dir = tmp_path / "svg"
    assert (
        main(
            [
                "solve",
                "--input", str(EXAMPLE1),
                "--output", str(tmp_path / "r.json"),
                "--svg-dir", str(svg_dir),
            ]
        )
        == 0
    )
    return sorted(svg_dir.glob("posture_*.svg"))


class TestSvgOutput:
    def test_well_formed(self, svg_files):
        assert len(svg_files) == 2
        for path in svg_files:
            root = ET.parse(path).getroot()
            assert root.tag == "{http://www.w3.org/2000/svg}svg"
            tags = {child.tag.split("}")[1] for child in root}
            assert {"polygon", "line", "circle", "text"} <= tags

    def test_drawn_triangles_keep_proportions(self, svg_files):
        # base (0, 6, 8i) and platform sides (3, 4) share one scale factor
        for path in svg_files:
            root = ET.parse(path).getroot()
            polygons = [
                child for child in root
                if child.tag == "{http://www.w3.org/2000/svg}polygon"
            ]
            assert len(polygons) == 2

            def corners(polygon):
                pts = polygon.get("points").split()
                return [complex(*map(float, p.split(","))) for p in pts]

            base, platform = corners(polygons[0]), corners(polygons[1])
            scale = abs(base[1] - base[0]) / 6.0
            assert abs(base[2] - base[0]) == pytest.approx(8.0 * scale, rel=1e-3)
            assert abs(platform[1] - platform[0]) == pytest.approx(
                3.0 * scale, rel=1e-3
            )
            assert abs(platform[2] - platform[0]) == pytest.approx(
                4.0 * scale, rel=1e-3
            )

    def test_vertex_agreement_enforced(self, problem1):
        report = solve_posture(problem1)
        good = next(t for t in report.solutions if t.physical)
        render_posture(problem1, good, report.postures[0])  # fine
        corrupted = good.replace(coords=(good.coords[0] + 0.05,) + good.coords[1:])
        with pytest.raises(VertexMismatchError):
            render_posture(problem1, corrupted, report.postures[0])


class TestGbCommand:
    def test_reference_system(self, tmp_path, capsys, ideal1):
        gen_file = tmp_path / "gens.txt"
        gen_file.write_text("\n".join(f.to_text() for f in ideal1) + "\n")
        assert main(["gb", "--input", str(gen_file)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == BASIS_EXAMPLE1

    def test_single_variable(self, tmp_path, capsys):
        gen_file = tmp_path / "gens.txt"
        gen_file.write_text("CA\n")
        assert main(["gb", "--input", str(gen_file)]) == 0
        assert capsys.readouterr().out.strip() == "CA"

    def test_renamed_textbook_pair(self, tmp_path, capsys):
        gen_file = tmp_path / "gens.txt"
        gen_file.write_text("CA^2 - 1\nCA*CB - 1\n")
        assert main(["gb", "--input", str(gen_file)]) == 0
        assert capsys.readouterr().out.strip().splitlines() == [
            "CA - CB",
            "CB^2 - 1",
        ]

    def test_parse_error_names_line(self, tmp_path, capsys):
        gen_file = tmp_path / "gens.txt"
        gen_file.write_text("CA\nnot a poly\n")
        assert main(["gb", "--input", str(gen_file)]) == 2
        assert "line 2" in capsys.readouterr().err

    @needs_digit_limit
    def test_overlong_integer_is_parse_error(self, tmp_path, capsys):
        digits = sys.get_int_max_str_digits() + 700
        gen_file = tmp_path / "gens.txt"
        gen_file.write_text(f"CA\nCA - {'1' * digits}\n")
        assert main(["gb", "--input", str(gen_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: line 2: ")

    def test_missing_file(self, tmp_path):
        assert main(["gb", "--input", str(tmp_path / "none.txt")]) == 2

    def test_idempotent_on_reduced_basis(self, tmp_path, capsys):
        gen_file = tmp_path / "gens.txt"
        gen_file.write_text("\n".join(BASIS_EXAMPLE1) + "\n")
        assert main(["gb", "--input", str(gen_file)]) == 0
        assert capsys.readouterr().out.strip().splitlines() == BASIS_EXAMPLE1

    def test_blank_lines_and_comments_skipped(self, tmp_path, capsys):
        gen_file = tmp_path / "gens.txt"
        gen_file.write_text("# generators\n\nCA^2 - 1\n\nCA*CB - 1\n")
        assert main(["gb", "--input", str(gen_file)]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2


class TestHelp:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "solve" in capsys.readouterr().out

    @pytest.mark.parametrize("command, flag", [("solve", "--svg-dir"), ("gb", "--input")])
    @pytest.mark.parametrize("option", ["-h", "--help"])
    def test_command_help_exits_zero(self, capsys, command, flag, option):
        assert main([command, option]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: parapose {command}")
        assert flag in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_command_help_lists_every_flag(self, capsys, command):
        assert main([command, "--help"]) == 0
        lines = capsys.readouterr().out.splitlines()
        usage = lines[0]
        for flag, (metavar, text) in _COMMANDS[command][1].items():
            spelled = flag if metavar is None else f"{flag} {metavar}"
            assert spelled in usage
            assert any(re.fullmatch(rf"  {re.escape(spelled)} +{re.escape(text)}", line)
                       for line in lines), (flag, lines)


class TestFlags:
    @pytest.mark.parametrize("form", ["separate", "equals"])
    def test_value_forms(self, tmp_path, form):
        out = tmp_path / "r.json"
        svg_dir = tmp_path / "svg"
        flags = {
            "--input": str(EXAMPLE1),
            "--output": str(out),
            "--svg-dir": str(svg_dir),
        }
        if form == "separate":
            argv = [part for item in flags.items() for part in item]
        else:
            argv = [f"{flag}={value}" for flag, value in flags.items()]
        assert main(["solve", *argv]) == 0
        assert json.loads(out.read_text())["diagnostics"]["physical_count"] == 2
        assert sorted(p.name for p in svg_dir.iterdir()) == [
            "posture_1.svg",
            "posture_2.svg",
        ]

    @pytest.mark.parametrize("flag", ["--output", "--svg-dir"])
    def test_repeated_flag_last_wins(self, tmp_path, capsys, flag):
        first, last = tmp_path / "first", tmp_path / "last"
        argv = ["solve", "--input", str(EXAMPLE1), flag, str(first), flag, str(last)]
        assert main(argv) == 0
        assert last.exists() and not first.exists()

    @pytest.mark.parametrize("form", ["equals", "separate"])
    @pytest.mark.parametrize("flag", ["--input", "--output", "--svg-dir"])
    def test_empty_value_is_usage_error(self, tmp_path, monkeypatch, capsys, flag, form):
        monkeypatch.chdir(tmp_path)
        flags = {"--input": str(EXAMPLE1), "--output": "r.json", "--svg-dir": "svg"}
        flags[flag] = ""
        if form == "separate":
            argv = [part for item in flags.items() for part in item]
        else:
            argv = [f"{name}={value}" for name, value in flags.items()]
        assert main(["solve", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: parapose solve")
        assert captured.err.splitlines()[-1] == f"parapose solve: error: {flag} expects a value"
        assert list(tmp_path.iterdir()) == []

    def test_dash_value_needs_equals(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--input", str(EXAMPLE1), "--output", "-r.json"]) == 1
        assert main(["solve", "--input", str(EXAMPLE1), "--output=-r.json"]) == 0
        doc = json.loads((tmp_path / "-r.json").read_text())
        assert doc["diagnostics"]["physical_count"] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["solve"],
            ["solve", "--input"],
            ["solve", "--input", "--emit-basis"],
            ["solve", "--input", "p.json", "--bogus"],
            ["solve", "--input", "p.json", "--emit-basis=x"],
            # a next argument starting with "-" is not a value, a number included
            ["solve", "--input", "p.json", "--output", "-1"],
            ["solve", "--input", "p.json", "stray"],
            # prefixes of a flag are not accepted
            ["solve", "--inp", "p.json"],
            ["gb", "--input", "g.txt", "--output", "o.txt"],
        ],
        ids=["no-command", "no-input", "missing-value", "flag-as-value", "unknown-flag",
             "switch-with-value", "negative-as-value", "positional", "prefix",
             "gb-unknown-flag"],
    )
    def test_usage_errors(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage: parapose")
        assert lines[-1].startswith("parapose") and ": error: " in lines[-1]

