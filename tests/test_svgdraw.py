"""Byte-level output of render_posture.

The digests were taken from the ElementTree serialiser the renderer
used before it wrote SVG text directly; the documents must not change.
"""

import hashlib
import math
import xml.etree.ElementTree as ET

import pytest

from parapose.cli import parse_problem
from parapose.kinematics import solve_posture
from parapose.svgdraw import VertexMismatchError, render_posture

from conftest import PROBLEMS_DIR

SVG_NS = "{http://www.w3.org/2000/svg}"

# (problem file, posture number k, SHA-256 of render_posture(title="posture k"))
POSTURE_DIGESTS = [
    ("example1", 1, "8ecad03ed03616cd4e2031bb870792084ad3b3fe8ccff841bffede27ddf604bf"),
    ("example1", 2, "b85bf075a8931f698e9cece379befd2947bdce152a4990a57005421a4d95debf"),
    ("example2", 1, "217ff300b548e7fc6842af5f92bece899e901804cdcf22140c43fa1980188c83"),
    ("example2", 2, "5e76b22d40948dfa3c47ab607662d1eb3b03af0ead2a0a4efeb6a2c84eea482e"),
    ("example2", 3, "70dcdb32076088df69bec92aa736cf93fc1b6e4ec54b0eb53526d46c38ee2538"),
    ("example2", 4, "85b7a0ff10cd115c2ee03fcaef2e51990be1eccb88c6ac14b2c7ebe7ea742093"),
]

MARKUP_TITLE = 'a & b < c > d "e"\nf'
MARKUP_DIGEST = "cba6561edbfd491de8ada1d13b215721997a9df6b0dea1cb309a59abc3308b30"


@pytest.fixture(scope="module")
def physical_postures():
    """name -> (problem, [(physical tuple, posture angles), ...])"""
    out = {}
    for name in ("example1", "example2"):
        problem = parse_problem(PROBLEMS_DIR / f"{name}.json")
        report = solve_posture(problem)
        physical = [t for t in report.solutions if t.physical]
        out[name] = (problem, list(zip(physical, report.postures)))
    return out


def digest(svg: str) -> str:
    return hashlib.sha256(svg.encode("utf-8")).hexdigest()


def legend_title(svg: str) -> str:
    root = ET.fromstring(svg.encode("utf-8"))
    texts = [el for el in root if el.tag == SVG_NS + "text" and el.get("fill") == "#111"]
    return texts[0].text


def test_bundled_posture_count(physical_postures):
    counts = {name: len(pairs) for name, (_, pairs) in physical_postures.items()}
    assert counts == {"example1": 2, "example2": 4}


@pytest.mark.parametrize("name, k, expected", POSTURE_DIGESTS)
def test_bundled_postures_byte_identical(physical_postures, name, k, expected):
    problem, pairs = physical_postures[name]
    t, posture = pairs[k - 1]
    svg = render_posture(problem, t, posture, title=f"posture {k}")
    assert digest(svg) == expected
    assert legend_title(svg) == f"posture {k}"


def test_markup_in_title_escaped(physical_postures):
    problem, pairs = physical_postures["example1"]
    t, posture = pairs[0]
    svg = render_posture(problem, t, posture, title=MARKUP_TITLE)
    assert digest(svg) == MARKUP_DIGEST
    assert legend_title(svg) == MARKUP_TITLE


@pytest.mark.parametrize(
    "index, value",
    [
        # every point built from cis_a is NaN, so both vertex gaps are NaN
        (0, complex(math.nan, 0.0)),
        # an infinite extent makes the scale 0, and inf * 0 is NaN
        (3, complex(math.inf, 0.0)),
    ],
    ids=["nan-cis_a", "inf-cis_alpha"],
)
def test_non_finite_coordinate_is_a_vertex_mismatch(physical_postures, index, value):
    problem, pairs = physical_postures["example1"]
    t, posture = pairs[0]
    coords = list(t.coords)
    coords[index] = value
    with pytest.raises(VertexMismatchError):
        render_posture(problem, t.replace(coords=tuple(coords)), posture)
