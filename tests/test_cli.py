import datetime
import json
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
import pytest

from parapose.cli import (
    ProblemFileError,
    _utc_isoformat,
    main,
    parse_problem,
    problem_to_json,
    report_to_json,
)
from parapose.gaussrat import GaussianRational
from parapose.kinematics import solve_posture
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
            # exact, but its eliminant's coefficients overflow the float root stage
            ("geometry.l_ab", "1" + "0" * 110, "exceeds double range"),
            ("strokes.s_b", "7/0", "strokes.s_b: malformed rational"),
            # finite coefficients, but the root iterates overflow to NaN
            ("geometry.l_ab", "1" + "0" * 100, "double range"),
            # a coefficient of some 1060 bits: the message names its size, not its digits
            ("geometry.l_ab", "1" + "0" * 320, "exceeds double range"),
        ],
        ids=["double-overflow", "zero-denominator", "nan-iterates", "overflow-message-size"],
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

