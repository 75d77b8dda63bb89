import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parapose.gaussrat import GaussianRational, parse_gaussian, parse_rational

I = GaussianRational(0, 1)
ONE = GaussianRational(1)


def gq(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=20)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)
nonzero_gaussians = gaussians.filter(lambda z: not z.is_zero)


class TestRationalConstruction:
    def test_canonical_examples(self):
        assert Fraction(7, 2) == Fraction("7/2")
        zero = Fraction(0, 5)
        assert (zero.numerator, zero.denominator) == (0, 1)
        q = Fraction(6, -4)
        assert (q.numerator, q.denominator) == (-3, 2)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 0)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool))
    def test_canonical_form(self, num, den):
        q = Fraction(num, den)
        assert q.denominator > 0
        assert math.gcd(abs(q.numerator), q.denominator) == 1


class TestFieldOperations:
    def test_i_squared(self):
        assert I * I == gq(-1)

    def test_division(self):
        assert (ONE + I) / (ONE - I) == I

    def test_additive_identity(self):
        z = gq(Fraction(-213, 50))
        assert z + GaussianRational(0) == z

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / GaussianRational(0)

    def test_int_and_fraction_coercion(self):
        assert 2 * I == gq(0, 2)
        assert I + Fraction(1, 2) == gq(Fraction(1, 2), 1)
        assert 1 / I == -I

    @given(gaussians, gaussians, gaussians)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @given(nonzero_gaussians)
    def test_multiplicative_inverse(self, a):
        assert a * (ONE / a) == ONE

    @given(gaussians, gaussians)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a


class TestConjugation:
    def test_examples(self):
        assert gq(0, 8).conjugate() == gq(0, -8)
        assert gq(Fraction(3, 2)).conjugate() == gq(Fraction(3, 2))
        assert gq(Fraction(3, 2), Fraction(1, 4)).conjugate() == gq(
            Fraction(3, 2), Fraction(-1, 4)
        )

    @given(gaussians)
    def test_involution(self, z):
        assert z.conjugate().conjugate() == z

    @given(gaussians, gaussians)
    def test_multiplicative(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    @given(gaussians)
    def test_norm_is_real_nonnegative(self, z):
        n = z * z.conjugate()
        assert n.im == 0
        assert n.re >= 0


class TestFloatConversion:
    def test_examples(self):
        assert complex(I) == complex(0.0, 1.0)
        assert complex(gq(Fraction(-213, 50))) == complex(-4.26, 0.0)
        assert complex(gq(Fraction(165857, 25600))) == complex(6.4787890625, 0.0)

    def test_overflow(self):
        huge = GaussianRational(Fraction(10) ** 400)
        with pytest.raises(OverflowError) as info:
            huge.to_complex()
        # 10^400 is about 2^1328.8: the message names the size, not the digits
        assert str(info.value) == "value of about 2^1328 exceeds double range"

    @given(gaussians)
    def test_components_finite(self, z):
        c = z.to_complex()
        assert math.isfinite(c.real) and math.isfinite(c.imag)


class TestTextForms:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("7/2", Fraction(7, 2)),
            ("-3", Fraction(-3)),
            ("0", Fraction(0)),
            ("+5/10", Fraction(1, 2)),
        ],
    )
    def test_parse_rational(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["1.5", "3e2", "a/b", "1/", "/2", ""])
    def test_parse_rational_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @pytest.mark.parametrize(
        "text,value",
        [
            ("I", gq(0, 1)),
            ("-I", gq(0, -1)),
            ("3/2", gq(Fraction(3, 2))),
            ("3/2-1/4*I", gq(Fraction(3, 2), Fraction(-1, 4))),
            ("-14080/2017+2880/2017*I", gq(Fraction(-14080, 2017), Fraction(2880, 2017))),
            ("2*I", gq(0, 2)),
            ("1+I", gq(1, 1)),
        ],
    )
    def test_parse_gaussian(self, text, value):
        assert parse_gaussian(text) == value

    @pytest.mark.parametrize("text", ["", "I*I", "1+2", "*I", "1+*I"])
    def test_parse_gaussian_rejects(self, text):
        with pytest.raises(ValueError):
            parse_gaussian(text)

    @given(gaussians)
    def test_text_round_trip(self, z):
        assert parse_gaussian(str(z)) == z

    @given(gaussians)
    def test_json_round_trip(self, z):
        packed = json.loads(json.dumps(z.to_json()))
        assert GaussianRational.from_json(packed) == z

    @pytest.mark.parametrize(
        "obj",
        [{"re": 6.0, "im": "0"}, {"re": True, "im": "0"}, {"re": "1", "im": None},
         {"re": [6], "im": "0"}, {"re": "1"}, [6], 6, None],
        ids=repr,
    )
    def test_from_json_rejects_with_value_error(self, obj):
        with pytest.raises(ValueError):
            GaussianRational.from_json(obj)

    @pytest.mark.parametrize(
        "read, value",
        [
            (parse_rational, list(range(20000))),
            (parse_rational, "1" * 5000 + ".5"),
            (GaussianRational.from_json, {"re": list(range(20000))}),
            (parse_gaussian, "1" * 5000 + "+"),
        ],
        ids=["rational-list", "rational-text", "json-object", "gaussian-text"],
    )
    def test_rejected_value_is_cut_in_message(self, read, value):
        with pytest.raises(ValueError) as info:
            read(value)
        message = str(info.value)
        assert len(message) < 200
        assert "..." in message

    def test_from_json_takes_integer_components(self):
        assert GaussianRational.from_json({"re": 6, "im": "-1/2"}) == gq(6, Fraction(-1, 2))

    def test_float_components_rejected(self):
        with pytest.raises(TypeError):
            GaussianRational(0.5, 0)
