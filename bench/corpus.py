"""Seeded problem corpora for the three benchmark workloads.

Problems are kept as problem-file documents (the JSON form the CLI
reads, every value an exact rational string), so the same object can be
written to disk for ``parapose solve`` or turned into a
``ManipulatorProblem`` for the library.  Every corpus is a pure function
of ``(workload, seed)``: the same seed gives byte-identical problems.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import count
from pathlib import Path

from parapose import GaussianRational, ManipulatorProblem

ROOT = Path(__file__).resolve().parents[1]
BUNDLED = ("example1.json", "example2.json")

# the bundled right-triangle geometry (cis_beta = i)
RIGHT_TRIANGLE = {
    "l_ab": "3",
    "l_ac": "4",
    "d_ab": {"re": "6", "im": "0"},
    "d_ac": {"re": "0", "im": "8"},
    "cis_beta": {"re": "0", "im": "1"},
}

# Every generated value is a multiple of 1/DEN.  A fixed denominator keeps
# coefficient heights, and so solve times, alike from seed to seed.
DEN = 8
# (m, n) generators of the Pythagorean triples behind cis_beta
PYTHAGOREAN = ((2, 1), (3, 2), (4, 1), (4, 3), (5, 2), (5, 4))
# sweep raster: steps per stroke axis, each step 1/SWEEP_DEN
SWEEP_STEPS = 16
SWEEP_DEN = 16


def _rational(rng: random.Random, lo: int, hi: int) -> str:
    return str(Fraction(rng.randint(lo * DEN, hi * DEN), DEN))


def _gaussian(rng: random.Random, lo: int, hi: int) -> dict:
    return {"re": _rational(rng, lo, hi), "im": _rational(rng, lo, hi)}


def _cis_beta(rng: random.Random) -> dict:
    m, n = rng.choice(PYTHAGOREAN)
    a, b, c = m * m - n * n, 2 * m * n, m * m + n * n
    if rng.random() < 0.5:
        a, b = b, a
    return {
        "re": str(Fraction(rng.choice((1, -1)) * a, c)),
        "im": str(Fraction(rng.choice((1, -1)) * b, c)),
    }


def _strokes(rng: random.Random) -> dict:
    return {key: _rational(rng, 1, 10) for key in ("s_a", "s_b", "s_c")}


def generic_geometry(rng: random.Random) -> dict:
    """Pythagorean cis_beta, rational side lengths and base anchors."""
    while True:
        geometry = {
            "l_ab": _rational(rng, 1, 6),
            "l_ac": _rational(rng, 1, 6),
            "d_ab": _gaussian(rng, -8, 8),
            "d_ac": _gaussian(rng, -8, 8),
            "cis_beta": _cis_beta(rng),
        }
        zero = {"re": "0", "im": "0"}
        if zero not in (geometry["d_ab"], geometry["d_ac"]) and (
            geometry["d_ab"] != geometry["d_ac"]
        ):
            return geometry


def bundled(name: str) -> dict:
    return json.loads((ROOT / "problems" / name).read_text(encoding="utf-8"))


def special_cli(seed: int):
    """Both bundled problems, then seeded strokes on the same geometry."""
    for name in BUNDLED:
        yield name, bundled(name)
    rng = random.Random(f"special_cli:{seed}")
    for k in count():
        yield f"strokes{k}", {"geometry": RIGHT_TRIANGLE, "strokes": _strokes(rng)}


def generic(seed: int):
    """A fresh generic geometry and stroke triple for every problem."""
    rng = random.Random(f"generic:{seed}")
    for k in count():
        yield f"generic{k}", {"geometry": generic_geometry(rng), "strokes": _strokes(rng)}


def sweep(seed: int):
    """One generic geometry along a boustrophedon raster of stroke triples.

    Consecutive triples differ by 1/SWEEP_DEN in one stroke, and no
    triple repeats, so a cache keyed on the whole problem never hits.
    """
    rng = random.Random(f"sweep:{seed}")
    geometry = generic_geometry(rng)
    base = _pose_strokes(rng, geometry)
    n = SWEEP_STEPS
    for k in range(n**3):
        row, l = divmod(k, n)
        plane, j = divmod(row, n)
        steps = (plane, n - 1 - j if plane % 2 else j, n - 1 - l if row % 2 else l)
        strokes = {
            key: str(b + Fraction(s, SWEEP_DEN))
            for key, b, s in zip(("s_a", "s_b", "s_c"), base, steps)
        }
        yield f"sweep{k}", {"geometry": geometry, "strokes": strokes}


def _pose_strokes(rng: random.Random, geometry: dict) -> list:
    """Raster origin around the strokes of a randomly placed platform.

    The strokes of the pose are rounded to multiples of 1/SWEEP_DEN and the
    raster starts half its width below them, so the trajectory passes
    through reachable triples as well as unreachable ones.
    """
    def point(obj):
        return complex(float(Fraction(obj["re"])), float(Fraction(obj["im"])))

    while True:
        p_a = point(_gaussian(rng, -4, 4))
        if abs(p_a) >= 1:
            break
    cis_alpha = point(_cis_beta(rng))
    p_b = p_a + float(Fraction(geometry["l_ab"])) * cis_alpha
    p_c = p_a + float(Fraction(geometry["l_ac"])) * point(geometry["cis_beta"]) * cis_alpha
    strokes = (abs(p_a), abs(p_b - point(geometry["d_ab"])), abs(p_c - point(geometry["d_ac"])))
    half = Fraction(SWEEP_STEPS // 2, SWEEP_DEN)
    return [
        max(Fraction(round(x * SWEEP_DEN), SWEEP_DEN) - half, Fraction(1, SWEEP_DEN))
        for x in strokes
    ]


WORKLOADS = {"special_cli": special_cli, "generic": generic, "sweep": sweep}


def to_problem(doc: dict) -> ManipulatorProblem:
    """The library form of a problem-file document."""
    g, s = doc["geometry"], doc["strokes"]

    def gauss(obj):
        return GaussianRational(Fraction(obj["re"]), Fraction(obj["im"]))

    return ManipulatorProblem(
        l_ab=Fraction(g["l_ab"]),
        l_ac=Fraction(g["l_ac"]),
        d_ab=gauss(g["d_ab"]),
        d_ac=gauss(g["d_ac"]),
        cis_beta=gauss(g["cis_beta"]),
        s_a=Fraction(s["s_a"]),
        s_b=Fraction(s["s_b"]),
        s_c=Fraction(s["s_c"]),
    )
