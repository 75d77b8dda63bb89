import cmath
import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parapose.gaussrat import GaussianRational
from parapose.inversive import (
    InversionCircle,
    UniPoly,
    conjugate_reciprocal,
    harmonic_conjugate_check,
    invert_in_circle,
    invert_unit,
    is_self_inversive,
    is_self_reciprocal,
    parse_unipoly,
    reciprocal,
)
from parapose.rootfind import find_roots


def gq(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


# numbers whose float() raises OverflowError: the module's rules still give
# a ValueError
BEYOND_DOUBLE = [
    pytest.param(10**400, id="int-1e400"),
    pytest.param(-(10**400), id="int-minus-1e400"),
    pytest.param(Fraction(10**400, 3), id="fraction-1e400"),
]


def exact_poly(*constant_first):
    return UniPoly([gq(*c) if isinstance(c, tuple) else gq(c) for c in constant_first])


G8 = exact_poly(
    1, Fraction(-213, 50), Fraction(165857, 25600), Fraction(-213, 50), 1
)
H8 = exact_poly(
    1, Fraction(-131, 100), Fraction(12409, 14400), Fraction(-131, 100), 1
)

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=10)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)


def mul_unipoly(a, b):
    out = [gq(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def inversive_pair_factors(z):
    """conj(z) * (x - z) * (x - 1/conj(z)) as exact coefficients."""
    w = GaussianRational(1) / z.conjugate()
    return [z * w * z.conjugate(), -(z + w) * z.conjugate(), z.conjugate()]


class TestInversionCircle:
    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            InversionCircle(0j, 0.0)
        with pytest.raises(ValueError):
            InversionCircle(0j, -2.0)

    @pytest.mark.parametrize("radius", [True, float("nan"), float("inf")] + BEYOND_DOUBLE)
    def test_radius_must_be_finite_and_not_bool(self, radius):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            InversionCircle(0j, radius)

    @pytest.mark.parametrize(
        "center",
        [complex("nan"), complex("inf"), complex(1, float("nan")), complex(0, float("-inf"))]
        + BEYOND_DOUBLE,
    )
    def test_center_must_be_finite(self, center):
        with pytest.raises(ValueError, match="center must be finite"):
            InversionCircle(center, 1.0)


class TestInvertInCircle:
    def test_real_axis_reciprocal(self):
        assert invert_in_circle(2.0, InversionCircle()) == pytest.approx(0.5)

    def test_points_on_circle_fixed(self):
        circle = InversionCircle(complex(1, -2), 3.0)
        z = circle.center + 3.0 * cmath.exp(0.7j)
        assert invert_in_circle(z, circle) == pytest.approx(z, abs=1e-12)

    def test_shifted_circle(self):
        assert invert_in_circle(2.0, InversionCircle(1.0, 2.0)) == pytest.approx(5.0)

    def test_center_rejected(self):
        with pytest.raises(ValueError, match="center"):
            invert_in_circle(complex(1, -2), InversionCircle(complex(1, -2), 3.0))

    def test_period_two(self):
        rng = random.Random(11)
        circle = InversionCircle(complex(0.5, -0.25), 1.75)
        for _ in range(500):
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(z - circle.center) < 0.05:
                continue
            back = invert_in_circle(invert_in_circle(z, circle), circle)
            assert abs(back - z) <= 1e-12 * max(1.0, abs(z))

    def test_ray_and_power(self):
        circle = InversionCircle(complex(-1, 2), 2.5)
        z = complex(1.7, 0.3)
        z_inv = invert_in_circle(z, circle)
        d1, d2 = z - circle.center, z_inv - circle.center
        assert abs(d1 * d2.conjugate() - abs(d1) * abs(d2)) < 1e-12  # same ray
        assert abs(d1) * abs(d2) == pytest.approx(circle.radius**2)


class TestInvertUnit:
    def test_printed_real_pair(self):
        assert abs(invert_unit(0.549) - 1.822) < 1e-3

    def test_on_circle_fixpoint(self):
        assert invert_unit(1j) == 1j

    def test_pure_imaginary(self):
        assert invert_unit(2j) == 0.5j

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            invert_unit(0j)

    def test_inside_outside_exchange(self):
        rng = random.Random(13)
        for _ in range(500):
            z = cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(0, 6.28))
            assert abs(invert_unit(z)) > 1.0
            w = cmath.rect(rng.uniform(1.05, 20.0), rng.uniform(0, 6.28))
            assert abs(invert_unit(w)) < 1.0


class TestReciprocalTransforms:
    def test_conjugate_reciprocal_by_hand(self):
        # z^2 + 2i z + 3  ->  3 z^2 - 2i z + 1
        f = exact_poly(3, (0, 2), 1)
        assert conjugate_reciprocal(f) == exact_poly(1, (0, -2), 3)

    def test_conjugate_reciprocal_fixes_real_palindrome(self):
        assert conjugate_reciprocal(G8) == G8

    def test_constant(self):
        assert conjugate_reciprocal(exact_poly((1, 2))) == exact_poly((1, -2))

    def test_reciprocal_reverses(self):
        assert reciprocal(exact_poly(2, 3, 1)) == exact_poly(1, 3, 2)

    def test_reciprocal_fixes_palindrome(self):
        assert reciprocal(H8) == H8

    def test_reciprocal_drops_origin_root(self):
        # f = z: reversal gives the constant 1
        f = exact_poly(0, 1)
        assert reciprocal(f) == exact_poly(1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            reciprocal(UniPoly([]))
        with pytest.raises(ValueError):
            conjugate_reciprocal(UniPoly([]))

    @given(st.lists(gaussians, min_size=2, max_size=6))
    def test_involution_when_constant_term_nonzero(self, coeffs):
        f = UniPoly(coeffs)
        if f.is_zero or f.coefficients[0].is_zero:
            return
        assert conjugate_reciprocal(conjugate_reciprocal(f)) == f


class TestPredicates:
    def test_reference_eliminants(self):
        assert is_self_reciprocal(G8)
        assert is_self_inversive(G8)
        assert is_self_reciprocal(H8)
        assert is_self_inversive(H8)

    def test_plain_shift_is_not(self):
        assert not is_self_inversive(exact_poly(2, 1))
        assert not is_self_reciprocal(exact_poly(2, 1))

    def test_zero_and_origin_root_rejected(self):
        with pytest.raises(ValueError):
            is_self_inversive(UniPoly([]))
        with pytest.raises(ValueError):
            is_self_reciprocal(exact_poly(0, 1))

    def test_numeric_mode_rejected(self):
        with pytest.raises(TypeError):
            is_self_inversive(UniPoly([1.0, 0.5]))

    def test_constructed_self_inversive(self):
        rng = random.Random(17)
        for _ in range(50):
            z = GaussianRational(
                Fraction(rng.randint(-8, 8), rng.randint(1, 6)),
                Fraction(rng.randint(-8, 8), rng.randint(1, 6)),
            )
            w = GaussianRational(
                Fraction(rng.randint(-8, 8), rng.randint(1, 6)),
                Fraction(rng.randint(-8, 8), rng.randint(1, 6)),
            )
            if z.is_zero or w.is_zero:
                continue
            coeffs = mul_unipoly(inversive_pair_factors(z), inversive_pair_factors(w))
            assert is_self_inversive(UniPoly(coeffs))

    def test_root_closure_under_unit_inversion(self):
        z = gq(Fraction(1, 2), Fraction(1, 3))
        w = gq(Fraction(-2, 5), Fraction(3, 4))
        poly = UniPoly(mul_unipoly(inversive_pair_factors(z), inversive_pair_factors(w)))
        assert is_self_inversive(poly)
        roots = find_roots(poly).roots
        for r in roots:
            assert min(abs(invert_unit(r) - s) for s in roots) < 1e-8


class TestHarmonicConjugates:
    def test_printed_real_roots(self):
        assert harmonic_conjugate_check(0.549, 1.822, tol=1e-2)

    def test_exact_reciprocal_pair(self):
        assert harmonic_conjugate_check(2.0, 0.5, tol=1e-12)

    def test_unrelated_pair(self):
        assert not harmonic_conjugate_check(2.0, 3.0, tol=1e-9)

    @pytest.mark.parametrize(
        "tol", [-1.0, 0.0, float("nan"), float("inf"), True, False] + BEYOND_DOUBLE
    )
    def test_tol_must_be_positive_and_finite(self, tol):
        # the radius rule of InversionCircle; (2.0, 0.5) is harmonic, the
        # other pairs are not
        for pair in ((2.0, 0.5), (2.0, 3.0), (2.0, 0.6)):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                harmonic_conjugate_check(*pair, tol=tol)

    @pytest.mark.parametrize("pair", [(1.0, 0.3), (0.3, -1.0)])
    def test_degenerate_rejected(self, pair):
        with pytest.raises(ValueError):
            harmonic_conjugate_check(*pair)

    def test_reciprocal_pairs_are_harmonic(self):
        rng = random.Random(19)
        for _ in range(500):
            z = rng.uniform(-5, 5)
            if abs(z) < 0.05 or abs(abs(z) - 1.0) < 0.05:
                continue
            assert harmonic_conjugate_check(z, 1.0 / z, tol=1e-12)


class TestUniPoly:
    def test_trailing_zeros_trimmed(self):
        f = exact_poly(1, 2, 0, 0)
        assert f.degree == 1
        assert f.coefficients == (gq(1), gq(2))

    def test_zero_polynomial(self):
        f = UniPoly([gq(0), gq(0)])
        assert f.is_zero and f.degree == -1

    def test_numeric_coefficients_rejected(self):
        for coeffs in ([gq(1), 0.5], [1.0, 0.5], [gq(1), 1j]):
            with pytest.raises(TypeError, match="exact rational required"):
                UniPoly(coeffs)

    def test_text_round_trip(self):
        assert parse_unipoly(G8.to_text()) == G8
        assert G8.to_text() == "1, -213/50, 165857/25600, -213/50, 1"
        assert parse_unipoly("0").is_zero

    def test_pickle_and_copy(self):
        for f in (G8, UniPoly([])):
            for clone in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
                assert clone == f

    def test_leading_coefficient(self):
        assert G8.leading_coefficient == gq(1)
        with pytest.raises(ValueError):
            UniPoly([]).leading_coefficient
