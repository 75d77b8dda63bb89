"""The working form of the reduction loop and of ``buchberger`` against the
textbook algorithms.

A monic polynomial in that form is a head, (leading monomial, tail), the
tail's coefficients integer parts and the leading 1 not stored.  Checked
here: the one division by a leading coefficient, the S-polynomial of two
heads, the reduction loop on parts, and the reduced bases ``buchberger``
boxes at its end.

Standard library only, so that it also runs under ``python -m unittest``
on interpreters without the test extras installed.
"""

import unittest
from fractions import Fraction
from itertools import combinations

from parapose.gaussrat import GaussianRational, _parts
from parapose.groebner import buchberger, is_groebner_basis
from parapose.multipoly import (
    MultiPoly,
    _box,
    _box_head,
    _head,
    _monic_head,
    _reduce,
    _s_work,
    _to_work,
    mono_divides,
    normal_form,
    parse_poly,
    s_polynomial,
)

from textbook import textbook_division, textbook_s_polynomial

# parts of 141-147 bits, as in the bases of generic designs
TALL_RE = Fraction(3**90, 2 * 5**60)
TALL_IM = Fraction(-7 * 5**60, 11 * 3**90)
TALL = GaussianRational(TALL_RE, TALL_IM)
# real, purely imaginary and general leading coefficients, small and tall
LEADING = [
    GaussianRational(re, im)
    for re, im in (
        (1, 0), (-1, 0), (Fraction(7, 3), 0), (TALL_RE, 0),
        (0, 1), (0, Fraction(-5, 2)), (0, TALL_IM),
        (Fraction(7, 3), Fraction(-5, 2)), (TALL_RE, TALL_IM),
    )
]
CA, CB, CC = (MultiPoly.variable(i) for i in range(3))
TAILS = [
    parse_poly("CB^2 - 3/4*I*CB + 2"),
    parse_poly("(1/3+2*I)*CA*CC + CC^2"),
    TALL * CB * CC - TALL.conjugate(),
    MultiPoly(),
]
# a monomial above every monomial of TAILS
TOP = (3,) + (0,) * 7


def with_leading(lc, tail):
    return MultiPoly(((TOP, lc),) + tail.terms)


def parts_terms(p):
    return tuple((m, _parts(c)) for m, c in p.terms)


# small systems, among them pairs a wrong pair criterion would lose
SYSTEMS = [
    "CA^2 - 1 ; CA*CB - 1",
    "2*CA^2 - 2 ; (3+I)*CA*CB - 3 - I",
    "(-3+2*I)*CCA*CCB + 3*CCC ; (-1+I)*CCB ; (-1-2*I)*CCA",
    "(1-2*I)*CA*CB^2 + (-3+I) ; (-3+2*I)*CA^2*CB + 3*CA*AL^2",
    "(-3+I)*CA*CCAL^2 + (-3+I) ; (3-2*I)*CCC*CCAL^2 + (3+I)*CCC*CCAL",
    "-2*CA*CB ; (3-I)*CB*CC ; (2-I)*CA*CC^2 + (2-I)",
    "CA^2 + 2/3*I*CB - 1 ; CB^2 - 7/5*CA ; CA*CB*CC - I",
]


class TestDivisionRule(unittest.TestCase):
    def test_matches_monic_and_public_division(self):
        for lc in LEADING:
            for tail in TAILS:
                p = with_leading(lc, tail)
                with self.subTest(lc=lc, tail=tail):
                    head = _monic_head(parts_terms(p))
                    self.assertEqual(head, _head(p))
                    self.assertEqual(head[0], TOP)
                    want = tuple((m, c / lc) for m, c in p.terms)
                    self.assertEqual(_box_head(head).terms, want)
                    self.assertEqual(p.monic().terms, want)

    def test_leading_one_keeps_the_tail(self):
        p = with_leading(GaussianRational(1), TAILS[2])
        self.assertEqual(_head(p), (TOP, parts_terms(p)[1:]))
        self.assertIs(p.monic(), p)


class TestSPolynomialOfHeads(unittest.TestCase):
    def test_matches_textbook(self):
        monic = [with_leading(lc, t).monic() for lc, t in zip(LEADING[3:], TAILS)]
        monic += [parse_poly(t).monic() for t in SYSTEMS[3].split(";") + SYSTEMS[6].split(";")]
        for f in monic:
            for g in monic:
                with self.subTest(f=f, g=g):
                    s = _box(sorted(_s_work(_head(f), _head(g)).items(), reverse=True))
                    self.assertEqual(s.terms, textbook_s_polynomial(f, g).terms)
                    self.assertEqual(s.terms, s_polynomial(f, g).terms)


class TestReductionLoop(unittest.TestCase):
    def test_matches_textbook_for_non_monic_divisors(self):
        f = TALL * CA**2 * CB**2 + (CA + GaussianRational(0, 1) * CB) ** 3 - TALL.conjugate()
        divisor_sets = [
            [TALL * CA * CB - 1, GaussianRational(Fraction(2, 3), -5) * CB**2 + CA],
            [with_leading(lc, t) for lc, t in zip(LEADING[4:], TAILS[:3])] + [CB - TALL],
            [GaussianRational(0, 3) * CA - CC, CB * CC + 1],
        ]
        for divisors in divisor_sets:
            with self.subTest(divisors=divisors):
                want_r = textbook_division(f, divisors)[1]
                got = _box(_reduce(_to_work(f), [_head(g) for g in divisors]))
                self.assertEqual(got.terms, want_r.terms)
                self.assertEqual(normal_form(f, divisors).terms, want_r.terms)


class TestReducedBasis(unittest.TestCase):
    def test_monic_reduced_and_groebner(self):
        for text in SYSTEMS:
            generators = [parse_poly(t) for t in text.split(";")]
            with self.subTest(system=text):
                elements = list(buchberger(generators).elements)
                self.assertTrue(is_groebner_basis(elements))
                leads = [g.leading_monomial for g in elements]
                self.assertEqual(leads, sorted(leads, reverse=True))
                for k, g in enumerate(elements):
                    self.assertEqual(g.leading_coefficient, GaussianRational(1))
                    for m, _ in g.terms[1:]:
                        self.assertFalse(any(mono_divides(lm, m) for lm in leads))
                    self.assertFalse(any(
                        mono_divides(lm, leads[k]) for j, lm in enumerate(leads) if j != k
                    ))
                # the textbook oracle, on public operators only
                for f, g in combinations(elements, 2):
                    self.assertTrue(textbook_division(textbook_s_polynomial(f, g), elements)[1].is_zero)
                for f in generators:
                    self.assertTrue(textbook_division(f, elements)[1].is_zero)


if __name__ == "__main__":
    unittest.main()
