import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parapose.gaussrat import GaussianRational, _parts
from parapose.groebner import buchberger, is_groebner_basis
from parapose.multipoly import (
    MONO_ONE,
    MultiPoly,
    PolyParseError,
    VAR_NAMES,
    mono_divides,
    mono_lcm,
    mono_mul,
    normal_form,
    parse_poly,
    s_polynomial,
)
from parapose.multipoly import _box, _box_head, _head, _monic_head, _reduce, _s_work, _to_work

from textbook import textbook_division, textbook_s_polynomial

CA, CB, CC, AL, CCA, CCB, CCC, CCAL = (MultiPoly.variable(i) for i in range(8))
X, Y = CA, CB  # generic names for small-system tests

I_UNIT = GaussianRational(0, 1)


def mono(**exponents):
    m = [0] * 8
    for name, e in exponents.items():
        m[VAR_NAMES.index(name)] = e
    return tuple(m)


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)
coeffs = st.builds(GaussianRational, small_fractions, small_fractions).filter(
    lambda z: not z.is_zero
)
monomials = st.lists(st.integers(0, 3), min_size=8, max_size=8).map(tuple)
polys = st.dictionaries(monomials, coeffs, min_size=0, max_size=4).map(MultiPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)

# tall parts (numerators and denominators of 200 bits or more), purely real
# and purely imaginary values, small or tall
def _tall_fraction(a, d, negative, inverted):
    # a*d + 1 and d are coprime, so both stay of 200 bits or more
    n, d = a * d + 1, d
    if inverted:
        n, d = d, n
    return Fraction(-n if negative else n, d)


tall_fractions = st.builds(_tall_fraction, st.integers(1, 2**56), st.integers(2**200, 2**256),
                           st.booleans(), st.booleans())
any_fractions = st.one_of(small_fractions, tall_fractions)
wide_coeffs = st.one_of(
    st.builds(GaussianRational, tall_fractions, tall_fractions),
    st.builds(GaussianRational, any_fractions),
    st.builds(lambda b: GaussianRational(0, b), any_fractions),
).filter(lambda z: not z.is_zero)
wide_polys = st.dictionaries(monomials, wide_coeffs, max_size=4).map(MultiPoly)
wide_nonzero = wide_polys.filter(lambda p: not p.is_zero)


class TestLexOrder:
    """Monomials are 8-tuples, so the lex chain is native tuple order."""

    def test_highest_variable_dominates(self):
        assert mono(CA=1) > mono(CCAL=4)

    def test_first_differing_exponent(self):
        assert mono(CA=2, CB=1) > mono(CA=1, CB=2)

    def test_equal(self):
        m = mono(CC=3)
        assert m == mono(CC=3) and not m < mono(CC=3) and not m > mono(CC=3)

    @given(monomials, monomials)
    def test_antisymmetric(self, m1, m2):
        assert (m1 < m2) == (m2 > m1)
        if m1 <= m2 <= m1:
            assert m1 == m2

    @given(monomials, monomials, monomials)
    def test_transitive(self, m1, m2, m3):
        if m1 >= m2 and m2 >= m3:
            assert m1 >= m3

    @given(monomials, monomials, monomials)
    def test_multiplicative(self, m1, m2, m):
        shifted1, shifted2 = mono_mul(m1, m), mono_mul(m2, m)
        assert (m1 < m2, m1 == m2) == (shifted1 < shifted2, shifted1 == shifted2)


def _is_monomial(m):
    return type(m) is tuple and len(m) == 8 and all(type(e) is int for e in m)


# (m1, m2) pairs: unrelated, or m2 a multiple of m1 so that m1 divides m2
monomial_pairs = st.one_of(
    st.tuples(monomials, monomials),
    st.tuples(monomials, monomials).map(
        lambda t: (t[0], tuple(a + b for a, b in zip(*t)))
    ),
)


class TestMonomialHelpers:
    """The helpers against generator-expression reference definitions:
    mono_divides is the reducedness oracle of other tests, so it is not
    checked only by itself."""

    @given(monomial_pairs)
    @settings(max_examples=300)
    def test_against_reference(self, pair):
        m1, m2 = pair
        divides = all(a <= b for a, b in zip(m1, m2))
        assert mono_divides(m1, m2) is divides
        product = mono_mul(m1, m2)
        assert _is_monomial(product)
        assert product == tuple(a + b for a, b in zip(m1, m2))
        lcm = mono_lcm(m1, m2)
        assert _is_monomial(lcm)
        assert lcm == tuple(max(a, b) for a, b in zip(m1, m2))


class TestLeadingTerm:
    def test_linear_chain_element(self, golden_basis1):
        g4 = golden_basis1[3]
        assert g4.leading_term == (mono(AL=1), GaussianRational(1))

    def test_eliminant(self, golden_basis1):
        g8 = golden_basis1[7]
        assert g8.leading_term == (mono(CCAL=4), GaussianRational(1))

    def test_constant(self):
        five = MultiPoly.constant(GaussianRational(5))
        assert five.leading_term == (MONO_ONE, GaussianRational(5))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly().leading_term


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (X + 1) * (X - 1) == X * X - 1

    def test_cancellation(self, ideal1):
        f1 = ideal1[0]
        assert (f1 + (-1) * f1).is_zero

    def test_scale_by_i(self):
        f5 = CA * CCA - 1
        assert f5 * I_UNIT == parse_poly("I*CA*CCA - I")

    def test_pow(self):
        assert (X + Y) ** 2 == X * X + 2 * X * Y + Y * Y
        assert (X + 1) ** 0 == MultiPoly.constant(GaussianRational(1))

    @given(polys, polys)
    @settings(max_examples=50)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(polys, polys, polys)
    @settings(max_examples=50)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    def test_no_zero_terms_stored(self):
        p = (X + Y) - X
        assert all(not c.is_zero for _, c in p.terms)
        assert p == Y

    def test_constructor_sums_repeats_and_drops_zeros(self):
        x2, y, z = mono(CA=2), mono(CB=1), mono(CC=1)
        p = MultiPoly([
            (x2, 3), (y, 0), (MONO_ONE, Fraction(1, 2)), (x2, -3),
            (z, I_UNIT), (MONO_ONE, Fraction(1, 2)), (y, 2), (y, -2), (y, 5),
        ])
        assert all(not c.is_zero for _, c in p.terms)
        assert p == 5 * Y + I_UNIT * CC + 1
        assert MultiPoly({x2: 0, y: GaussianRational(0)}).is_zero

    def test_terms_strictly_descending(self):
        p = (X + Y + 1) * (X * Y + CC)
        ms = [m for m, _ in p.terms]
        assert all(ms[i] > ms[i + 1] for i in range(len(ms) - 1))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            X.terms = ()

    def test_bool_exponent_rejected(self):
        with pytest.raises(ValueError, match="bad monomial"):
            MultiPoly({(True,) + MONO_ONE[1:]: 1})

    def test_bool_variable_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            MultiPoly.variable(True)

    def test_bool_power_rejected(self):
        with pytest.raises(ValueError, match="non-negative integer"):
            X ** True

    def test_pickle_and_copy(self):
        for p in ((X + Y + 1) * (X * Y + CC) * I_UNIT, MultiPoly()):
            for clone in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
                assert clone == p and clone.terms == p.terms


def assert_textbook_remainder(f, divisors):
    """normal_form(f, divisors) is the textbook remainder r, whose quotients
    q_i witness f == sum(q_i * g_i) + r, and no term of r is divisible by a
    divisor's leading monomial."""
    quotients, want = textbook_division(f, divisors)
    remainder = normal_form(f, divisors)
    assert remainder.terms == want.terms
    rebuilt = remainder
    for q, g in zip(quotients, divisors):
        rebuilt = rebuilt + q * g
    assert rebuilt == f
    for m, _ in remainder.terms:
        assert not any(mono_divides(d.leading_monomial, m) for d in divisors)
    return remainder


class TestDivision:
    def test_self_division(self):
        f5 = CA * CCA - 1
        assert normal_form(f5, [f5]).is_zero

    def test_shifted_variable(self):
        assert normal_form(CA, [CA - 1]) == MultiPoly.constant(GaussianRational(1))

    def test_ideal_membership_with_reconstruction(self, ideal1, golden_basis1):
        assert assert_textbook_remainder(ideal1[0], golden_basis1).is_zero

    @given(st.one_of(polys, wide_polys),
           st.lists(st.one_of(nonzero_polys, wide_nonzero), min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_division_identity(self, f, divisors):
        assert_textbook_remainder(f, divisors)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            normal_form(X, [MultiPoly()])
        with pytest.raises(ZeroDivisionError):
            normal_form(X, [X - 1, MultiPoly()])
        assert normal_form(X + 1, []) == X + 1

    def test_non_monic_tall_divisors_match_textbook(self):
        tall = GaussianRational(Fraction(3**130, 2**210 + 1), Fraction(-(5**90), 7**75))
        f = tall * CA**2 * CB**2 + (CA + I_UNIT * CB) ** 3 - tall.conjugate()
        divisors = [tall * CA * CB - 1, GaussianRational(Fraction(2, 3), -5) * CB**2 + I_UNIT * CA]
        quotients, remainder = textbook_division(f, divisors)
        assert all(not q.is_zero for q in quotients) and not remainder.is_zero
        assert normal_form(f, divisors).terms == remainder.terms


class TestSPolynomial:
    def test_self_cancels(self, ideal1):
        for f in ideal1:
            assert s_polynomial(f, f).is_zero

    def test_hand_computed_pair(self):
        # y*(x^2 - 1) - x*(x*y - 1) = x - y
        s = s_polynomial(X * X - 1, X * Y - 1)
        assert s == X - Y

    def test_coprime_pair_reduces_to_zero(self):
        f, g = X * X - 1, Y * Y - 1
        assert normal_form(s_polynomial(f, g), [f, g]).is_zero


class TestTextForm:
    def test_round_trip_golden(self, golden_basis1, golden_basis2):
        for p in golden_basis1 + golden_basis2:
            assert parse_poly(p.to_text()) == p

    @given(polys)
    @settings(max_examples=60)
    def test_round_trip_random(self, p):
        assert parse_poly(p.to_text()) == p

    def test_zero(self):
        assert MultiPoly().to_text() == "0"
        assert parse_poly("0").is_zero

    @pytest.mark.parametrize(
        "coeff, lead, inner",
        [
            (GaussianRational(1), "CA^2", "+ CA^2"),
            (GaussianRational(-1), "-CA^2", "- CA^2"),
            (GaussianRational(Fraction(-7, 3)), "-7/3*CA^2", "- 7/3*CA^2"),
            (GaussianRational(0, 1), "I*CA^2", "+ I*CA^2"),
            (GaussianRational(0, Fraction(-1, 2)), "-1/2*I*CA^2", "- 1/2*I*CA^2"),
            (GaussianRational(2, -1), "(2-I)*CA^2", "+ (2-I)*CA^2"),
            (GaussianRational(Fraction(-1, 2), 3), "(-1/2+3*I)*CA^2", "+ (-1/2+3*I)*CA^2"),
        ],
    )
    def test_term_text(self, coeff, lead, inner):
        # the coefficient's own text; a negative sole part moves to the sign
        term = MultiPoly.constant(coeff) * CA**2
        assert term.to_text() == lead
        assert (CA**3 + term).to_text() == f"CA^3 {inner}"
        assert (term - 1).to_text() == f"{lead} - 1"

    def test_grammar_examples(self):
        p = parse_poly("(-14080/2017+2880/2017*I)*CCA^3 + CC")
        assert p.coefficient(mono(CCA=3)) == GaussianRational(
            Fraction(-14080, 2017), Fraction(2880, 2017)
        )
        assert p.coefficient(mono(CC=1)) == GaussianRational(1)

    @pytest.mark.parametrize(
        "text",
        [
            "", "CA +", "CD", "2^CA", "CA^-1", "(CA", "CA/CB",
            # deeper than the interpreter's recursion limit
            pytest.param("(" * 5000 + "CA" + ")" * 5000, id="deep-parentheses"),
            pytest.param("-" * 5000 + "CA", id="deep-signs"),
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(PolyParseError):
            parse_poly(text)


# polynomials on three variables, so that divisions actually reduce
dense_monomials = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)).map(
    lambda e: e + (0,) * 5
)
special_coeffs = st.sampled_from(
    [GaussianRational(1), GaussianRational(-3), GaussianRational(0, 2),
     GaussianRational(Fraction(1, 2), -1)]
)
dense_polys = st.dictionaries(
    dense_monomials, st.one_of(coeffs, special_coeffs), max_size=5
).map(MultiPoly)
dense_nonzero = dense_polys.filter(lambda p: not p.is_zero)
wide_dense_polys = st.dictionaries(dense_monomials, wide_coeffs, max_size=5).map(MultiPoly)
wide_dense_nonzero = wide_dense_polys.filter(lambda p: not p.is_zero)


def assert_canonical(p):
    """p equals its validated rebuild; terms strictly descending, zero-free."""
    assert isinstance(p, MultiPoly)
    assert p == MultiPoly(p.terms)
    ms = [m for m, _ in p.terms]
    assert all(a > b for a, b in zip(ms, ms[1:]))
    assert all(not c.is_zero for _, c in p.terms)


class TestTermInvariant:
    """Results built without validation still satisfy the term invariant."""

    @given(dense_polys, dense_polys, dense_monomials, coeffs)
    @settings(max_examples=80, deadline=None)
    def test_ring_operations(self, p, q, m, c):
        for r in (p + q, p - q, p * q, -p, p * c, p + c, p - c,
                  p.term_shift(m, c), p.formal_conjugate()):
            assert_canonical(r)
        if not p.is_zero:
            assert_canonical(p.monic())

    @pytest.mark.parametrize("bad", [(1,) * 7, (1,) * 9, (0, 0, -1, 0, 0, 0, 0, 0)])
    @pytest.mark.parametrize("coeff", [GaussianRational(1), GaussianRational(2, 3)])
    def test_term_shift_rejects_bad_monomial(self, bad, coeff):
        p = CA * CB + 3
        with pytest.raises(ValueError, match="bad monomial"):
            p.term_shift(bad, coeff)

    @given(st.one_of(dense_polys, wide_dense_polys),
           st.lists(st.one_of(dense_nonzero, wide_dense_nonzero), min_size=1, max_size=3))
    @settings(max_examples=160, deadline=None)
    def test_division(self, f, divisors):
        remainder = normal_form(f, divisors)
        assert_canonical(remainder)
        assert remainder.terms == textbook_division(f, divisors)[1].terms

    @given(dense_nonzero, dense_nonzero)
    @settings(max_examples=50, deadline=None)
    def test_s_polynomial(self, f, g):
        assert_canonical(s_polynomial(f, g))


class TestMonicDivisors:
    """The monic shortcut and the general division path agree."""

    def test_monic_divides_every_term_by_the_leading_coefficient(self):
        rng = random.Random(1019)

        def part():
            bits = rng.choice((0, 3, 140))
            return Fraction(rng.randrange(-2**bits, 2**bits + 1), rng.randrange(1, 2**bits + 2))

        for _ in range(60):
            p = MultiPoly(
                (tuple(rng.randrange(3) for _ in range(8)), GaussianRational(part(), part()))
                for _ in range(rng.randrange(1, 6))
            )
            if p.is_zero:
                continue
            lc = p.leading_coefficient
            assert p.monic().terms == tuple((m, c / lc) for m, c in p.terms)

    @given(dense_polys, st.lists(st.tuples(dense_nonzero, coeffs), min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_scaled_divisors(self, f, scaled):
        monic = [g.monic() for g, _ in scaled]
        rescaled = [g.monic() * c for g, c in scaled]
        assert normal_form(f, rescaled) == normal_form(f, monic)

    def test_scaled_golden_basis(self, ideal1, golden_basis1):
        scaled = [g * GaussianRational(Fraction(-3, 7), 2) for g in golden_basis1]
        for f in ideal1:
            assert normal_form(f, scaled).is_zero
        probe = CA * CCB + CC * CCAL ** 3 + I_UNIT * AL
        assert normal_form(probe, scaled) == normal_form(probe, golden_basis1)


class TestNonMonicSPolynomial:
    """s_polynomial on inputs whose leading coefficients are not 1."""

    @given(st.one_of(dense_nonzero, wide_dense_nonzero), st.one_of(dense_nonzero, wide_dense_nonzero),
           st.one_of(coeffs, wide_coeffs), st.one_of(coeffs, wide_coeffs))
    @settings(max_examples=60, deadline=None)
    def test_scalars_cancel(self, f, g, a, b):
        # S(a*f, b*g) == S(f, g) for nonzero scalars a and b
        assert s_polynomial(f * a, g * b).terms == s_polynomial(f, g).terms

    @given(wide_dense_nonzero, wide_dense_nonzero)
    @settings(max_examples=60, deadline=None)
    def test_matches_textbook(self, f, g):
        assert s_polynomial(f, g).terms == textbook_s_polynomial(f, g).terms


class TestExactEvaluation:
    """evaluate at GaussianRational coordinates is exact."""

    def test_gaussian_point(self):
        value = parse_poly("CA^2*CB + 3").evaluate([GaussianRational(1, 1)] * 8)
        assert type(value) is GaussianRational
        # (1+i)^3 + 3
        assert value == GaussianRational(1, 2)

    def test_zero_polynomial(self):
        assert MultiPoly().evaluate([GaussianRational(2)] * 8) == GaussianRational(0)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "complex"])
    @pytest.mark.parametrize("length", [0, 1, 7, 9])
    def test_point_needs_every_coordinate(self, exact, length):
        x = GaussianRational(5) if exact else 5j
        for p in (2 * CCAL + 1, CA + 1):
            with pytest.raises(ValueError, match=f"expected 8 coordinates, got {length}"):
                p.evaluate([x] * length)

    @given(st.one_of(polys, wide_polys), st.lists(st.one_of(coeffs, special_coeffs), min_size=8, max_size=8))
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    def test_matches_products_and_doubles(self, p, point):
        exact = p.evaluate(point)
        # the reference: powers by MultiPoly's binary exponentiation
        want, scale = MultiPoly(), 0.0
        for m, c in p.terms:
            term, size = MultiPoly.constant(c), abs(complex(c))
            for x, e in zip(point, m):
                term = term * MultiPoly.constant(x) ** e
                size *= abs(complex(x)) ** e
            want, scale = want + term, scale + size
        assert exact == want.coefficient(MONO_ONE)
        approx = p.evaluate([complex(x) for x in point])
        assert type(approx) is complex
        assert abs(complex(exact) - approx) <= 1e-12 * scale


def parts_terms(p):
    return tuple((m, _parts(c)) for m, c in p.terms)


# a monomial above every dense monomial, to put a chosen leading coefficient on
TOP = (3,) + (0,) * 7


class TestWorkingForm:
    """The working form of the reduction loop and of buchberger: heads
    (leading monomial, tail in integer parts) with an implicit leading 1."""

    @given(st.one_of(dense_nonzero, wide_dense_nonzero), st.one_of(coeffs, special_coeffs, wide_coeffs))
    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    def test_division_rule_is_monic(self, p, lc):
        # real, purely imaginary and tall leading coefficients
        p = MultiPoly(((TOP, lc),) + p.terms)
        head = _monic_head(parts_terms(p))
        assert head == _head(p)
        assert head[0] == TOP
        assert _box_head(head).terms == p.monic().terms == tuple((m, c / lc) for m, c in p.terms)

    @given(st.one_of(dense_nonzero, wide_dense_nonzero), st.one_of(dense_nonzero, wide_dense_nonzero))
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    def test_s_polynomial_of_heads(self, f, g):
        f, g = f.monic(), g.monic()
        s = _box(sorted(_s_work(_head(f), _head(g)).items(), reverse=True))
        assert s.terms == s_polynomial(f, g).terms == textbook_s_polynomial(f, g).terms

    @given(st.one_of(dense_polys, wide_dense_polys),
           st.lists(st.tuples(st.one_of(dense_nonzero, wide_dense_nonzero), st.one_of(coeffs, wide_coeffs)),
                    min_size=1, max_size=3))
    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    def test_non_monic_division_identity(self, f, scaled):
        divisors = [g.monic() * c for g, c in scaled]
        remainder = assert_textbook_remainder(f, divisors)
        assert _box(_reduce(_to_work(f), [_head(g) for g in divisors])) == remainder

    @given(st.lists(st.dictionaries(dense_monomials, st.one_of(coeffs, special_coeffs), min_size=1, max_size=3)
                    .map(MultiPoly).filter(lambda p: not p.is_zero), min_size=1, max_size=3))
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    def test_buchberger_basis_is_reduced_and_monic(self, generators):
        elements = list(buchberger(generators).elements)
        assert is_groebner_basis(elements)
        leads = [g.leading_monomial for g in elements]
        assert leads == sorted(leads, reverse=True)
        for k, g in enumerate(elements):
            assert g.leading_coefficient == GaussianRational(1)
            for m, _ in g.terms[1:]:
                assert not any(mono_divides(lm, m) for lm in leads)
            assert not any(mono_divides(lm, leads[k]) for j, lm in enumerate(leads) if j != k)
        # the textbook oracle, on public operators only
        for j in range(len(elements)):
            for i in range(j):
                s = textbook_s_polynomial(elements[i], elements[j])
                assert textbook_division(s, elements)[1].is_zero
        for f in generators:
            assert textbook_division(f, elements)[1].is_zero
