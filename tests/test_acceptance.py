"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import cmath
import json
import math
import random
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from fractions import Fraction

import pytest

from parapose.cli import main
from parapose.gaussrat import GaussianRational
from parapose.groebner import buchberger, is_groebner_basis
from parapose.inversive import (
    InversionCircle,
    UniPoly,
    harmonic_conjugate_check,
    invert_in_circle,
    invert_unit,
    is_self_inversive,
    is_self_reciprocal,
)
from parapose.kinematics import _read_shape, solve_posture
from parapose.multipoly import mono_divides, normal_form, parse_poly
from parapose.rootfind import find_roots

from conftest import PROBLEMS_DIR, make_problem
from golden import (
    BASIS_EXAMPLE1,
    BASIS_EXAMPLE2,
    POSTURES_EXAMPLE1,
    POSTURES_EXAMPLE2,
    ROOTS_EXAMPLE1,
    ROOTS_EXAMPLE2,
)
from test_groebner import random_system
from test_rootfind import match_roots, poly_from_roots, sample_separated_roots


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS - {label}")


def match_posture_sets(postures, expected, tol):
    remaining = [p.as_tuple() for p in postures]
    for want in expected:
        best = min(
            remaining, key=lambda got: max(abs(g - w) for g, w in zip(got, want))
        )
        assert max(abs(g - w) for g, w in zip(best, want)) <= tol
        remaining.remove(best)


def test_criterion_1_golden_basis_example1(ideal1, golden_basis1):
    with criterion(1, "golden basis, stroke set (2, 7/2, 5/2)"):
        start = time.monotonic()
        basis = buchberger(ideal1)
        elapsed = time.monotonic() - start
        assert list(basis.elements) == golden_basis1
        g8 = basis.elements[7]
        assert g8 == parse_poly(
            "CCAL^4 - 213/50*CCAL^3 + 165857/25600*CCAL^2 - 213/50*CCAL + 1"
        )
        assert elapsed < 60.0


def test_criterion_2_golden_basis_example2(ideal2, golden_basis2):
    with criterion(2, "golden basis, stroke set (7/2, 6, 15/2)"):
        start = time.monotonic()
        basis = buchberger(ideal2)
        elapsed = time.monotonic() - start
        assert list(basis.elements) == golden_basis2
        h8 = basis.elements[7]
        assert h8.coefficient((0,) * 7 + (3,)) == GaussianRational(Fraction(-131, 100))
        assert h8.coefficient((0,) * 7 + (2,)) == GaussianRational(
            Fraction(12409, 14400)
        )
        assert elapsed < 60.0


def test_criterion_3_eliminant_roots(basis1, basis2):
    with criterion(3, "eliminant roots match the reference values at 1e-3"):
        roots1 = find_roots(_read_shape(basis1)[0])
        match_roots(roots1.roots, ROOTS_EXAMPLE1, 1e-3)
        roots2 = find_roots(_read_shape(basis2)[0])
        match_roots(roots2.roots, ROOTS_EXAMPLE2, 1e-3)


def test_criterion_4_posture_angles(problem1, problem2):
    with criterion(4, "posture angle sets and physical counts (2 and 4)"):
        rep1 = solve_posture(problem1)
        assert sum(t.physical for t in rep1.solutions) == 2
        assert len(rep1.postures) == 2
        match_posture_sets(rep1.postures, POSTURES_EXAMPLE1, 0.05)

        rep2 = solve_posture(problem2)
        assert sum(t.physical for t in rep2.solutions) == 4
        assert len(rep2.postures) == 4
        match_posture_sets(rep2.postures, POSTURES_EXAMPLE2, 0.05)


def test_criterion_5_self_reciprocity_and_harmonic_pairs(basis1, basis2):
    with criterion(5, "self-reciprocal eliminants and harmonic real roots"):
        g8, _ = _read_shape(basis1)
        h8, _ = _read_shape(basis2)
        assert is_self_reciprocal(g8)
        assert is_self_reciprocal(h8)

        # printed 3-decimal values
        assert harmonic_conjugate_check(0.549, 1.822, tol=1e-2)

        computed = [z.real for z in find_roots(g8).roots if z.imag == 0.0]
        assert len(computed) == 2
        assert harmonic_conjugate_check(computed[0], computed[1], tol=1e-12)


def test_criterion_6_variety_verification(problem1, problem2, ideal1, ideal2):
    with criterion(6, "physical tuples satisfy the original equations"):
        for problem, ideal in ((problem1, ideal1), (problem2, ideal2)):
            report = solve_posture(problem)
            physical = [t for t in report.solutions if t.physical]
            assert physical
            for t in physical:
                assert max(abs(f.evaluate(t.coords)) for f in ideal) < 1e-9


def _assert_reduced(elements):
    for i, g in enumerate(elements):
        assert g.leading_coefficient == GaussianRational(1)
        other = [h.leading_monomial for j, h in enumerate(elements) if j != i]
        for m, _ in g.terms:
            assert not any(mono_divides(lm, m) for lm in other)


def _assert_basis_properties(generators, rng):
    basis = buchberger(generators)
    elements = list(basis.elements)
    assert is_groebner_basis(elements)
    for f in generators:
        assert normal_form(f, elements).is_zero
    _assert_reduced(elements)

    shuffled = list(generators)
    rng.shuffle(shuffled)
    assert buchberger(shuffled).elements == basis.elements

    scale = GaussianRational(Fraction(3, 5), Fraction(-2, 5))
    rescaled = list(generators)
    rescaled[rng.randrange(len(rescaled))] *= scale
    assert buchberger(rescaled).elements == basis.elements


def test_criterion_7_basis_correctness_properties(ideal1, ideal2):
    with criterion(7, "basis correctness on both examples + 20 random systems"):
        rng = random.Random(987)
        _assert_basis_properties(ideal1, rng)
        _assert_basis_properties(ideal2, rng)
        produced = 0
        while produced < 20:
            system = random_system(rng)
            if not system:
                continue
            _assert_basis_properties(system, rng)
            produced += 1


def test_criterion_8_inversive_property_suite():
    with criterion(8, "inversive properties over 1000+ random samples"):
        rng = random.Random(20260809)

        # period two in a general circle
        circle = InversionCircle(complex(0.3, -1.1), 2.2)
        for _ in range(1000):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(z - circle.center) < 0.05:
                continue
            assert abs(invert_in_circle(invert_in_circle(z, circle), circle) - z) \
                <= 1e-12 * max(1.0, abs(z))

        # unit-circle fixpoints
        for _ in range(1000):
            z = cmath.rect(1.0, rng.uniform(0.0, 2.0 * math.pi))
            assert abs(invert_unit(z) - z) <= 1e-12

        # inside/outside exchange
        for _ in range(1000):
            inside = cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(0.0, 6.28))
            outside = cmath.rect(rng.uniform(1.05, 25.0), rng.uniform(0.0, 6.28))
            assert abs(invert_unit(inside)) > 1.0
            assert abs(invert_unit(outside)) < 1.0

        # self-inversive root closure under z -> 1/conj(z)
        def pair_factors(z):
            w = GaussianRational(1) / z.conjugate()
            return [z * w * z.conjugate(), -(z + w) * z.conjugate(), z.conjugate()]

        def mul_coeffs(a, b):
            out = [GaussianRational(0)] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] = out[i + j] + x * y
            return out

        def draw_gaussian():
            return GaussianRational(
                Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
            )

        def well_separated(z, w):
            # keep the four roots simple and well-conditioned
            points = [complex(z), complex(w)]
            points += [1.0 / p.conjugate() for p in points]
            if any(not 0.2 <= abs(p) <= 5.0 for p in points):
                return False
            return all(
                abs(points[i] - points[j]) >= 0.05
                for i in range(4)
                for j in range(i + 1, 4)
            )

        checked = 0
        while checked < 1000:
            z = draw_gaussian()
            w = draw_gaussian()
            if z.is_zero or w.is_zero or not well_separated(z, w):
                continue
            poly = UniPoly(mul_coeffs(pair_factors(z), pair_factors(w)))
            assert is_self_inversive(poly)
            roots = find_roots(poly).roots
            for r in roots:
                assert min(abs(1.0 / r.conjugate() - s) for s in roots) <= 1e-8
            checked += 1


def test_criterion_9_rootfinder_oracle():
    with criterion(9, "root recovery on 100 seeded random polynomials"):
        rng = random.Random(424242)
        for _ in range(100):
            n = rng.randint(1, 12)
            seeds = sample_separated_roots(rng, n)
            lead = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2 * math.pi))
            rs = find_roots(poly_from_roots(seeds, lead))
            match_roots(rs.roots, seeds, 1e-8)


def test_criterion_10_cli_end_to_end(tmp_path):
    with criterion(10, "CLI end-to-end: reports, determinism, SVG output"):
        expectations = [("example1.json", 2), ("example2.json", 4)]
        for name, posture_count in expectations:
            problem_path = PROBLEMS_DIR / name
            reports = []
            for run in range(2):
                out = tmp_path / f"{name}.{run}.json"
                svg_dir = tmp_path / f"{name}.{run}.svg"
                code = main(
                    [
                        "solve",
                        "--input", str(problem_path),
                        "--output", str(out),
                        "--svg-dir", str(svg_dir),
                        "--emit-basis",
                    ]
                )
                assert code == 0
                doc = json.loads(out.read_text())
                doc.pop("timestamp")
                reports.append(json.dumps(doc, indent=2))

                svg_files = sorted(svg_dir.glob("posture_*.svg"))
                assert len(svg_files) == posture_count
                for svg in svg_files:
                    root = ET.parse(svg).getroot()
                    assert root.tag == "{http://www.w3.org/2000/svg}svg"

            assert reports[0] == reports[1]

            # dual vertex computations agree within 1e-6 for every posture
            doc = json.loads(reports[0])
            geometry = doc["problem"]["geometry"]
            strokes = doc["problem"]["strokes"]

            def as_complex(obj):
                return complex(
                    float(Fraction(obj["re"])), float(Fraction(obj["im"]))
                )

            d_ab = as_complex(geometry["d_ab"])
            d_ac = as_complex(geometry["d_ac"])
            cis_beta = as_complex(geometry["cis_beta"])
            l_ab = float(Fraction(geometry["l_ab"]))
            l_ac = float(Fraction(geometry["l_ac"]))
            s_a = float(Fraction(strokes["s_a"]))
            s_b = float(Fraction(strokes["s_b"]))
            s_c = float(Fraction(strokes["s_c"]))
            for sol in doc["solutions"]:
                if not sol["physical"]:
                    continue
                coords = [complex(c["re"], c["im"]) for c in sol["coords"]]
                cis_a, cis_b, cis_c, cis_alpha = coords[:4]
                assert abs(
                    (s_a * cis_a + l_ab * cis_alpha) - (d_ab + s_b * cis_b)
                ) < 1e-6
                assert abs(
                    (s_a * cis_a + l_ac * cis_beta * cis_alpha)
                    - (d_ac + s_c * cis_c)
                ) < 1e-6


def test_reference_basis_texts_parse(golden_basis1, golden_basis2):
    # guard: the frozen reference text stays parseable and canonical
    for text, poly in zip(BASIS_EXAMPLE1, golden_basis1):
        assert poly.to_text() == text
    for text, poly in zip(BASIS_EXAMPLE2, golden_basis2):
        assert poly.to_text() == text


def test_infeasible_strokes_have_no_postures():
    report = solve_posture(make_problem(100, Fraction(7, 2), Fraction(5, 2)))
    assert len(report.postures) == 0
    roots = find_roots(report.eliminant).roots
    assert all(abs(abs(z) - 1.0) > 1e-3 for z in roots)
