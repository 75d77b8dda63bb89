"""GaussianRational operators and the reduction loop's parts helpers
against the textbook formulas: ``*`` and ``/`` box the loop's step on
parts (0 - x*(-y) and 0 - x*(-1/y)), so both are checked here on zero,
real, imaginary, general and tall operands.

Standard library only, so that it also runs under ``python -m unittest``
on interpreters without the test extras installed.
"""

import copy
import math
import pickle
import unittest
from fractions import Fraction
from itertools import product

from parapose.gaussrat import (
    GaussianRational,
    _from_parts,
    _neg_inverse_parts,
    _parts,
    _sub_mul_parts,
)

# components cover zero, one, integers and proper fractions of both signs,
# so operands range over zero, real, imaginary and general values; the two
# tall ones (numerators and denominators of 141-147 bits, as in the bases of
# generic designs) share their prime factors crosswise with each other and
# with 7/3 and -5/2, so a product over the common denominator must cancel
COMPONENTS = (
    Fraction(0), Fraction(1), Fraction(-1), Fraction(7, 3), Fraction(-5, 2),
    Fraction(3**90, 2 * 5**60), Fraction(-7 * 5**60, 11 * 3**90),
)
VALUES = [GaussianRational(a, b) for a, b in product(COMPONENTS, repeat=2)]
TALL = GaussianRational(COMPONENTS[5], COMPONENTS[6])
# products of two general operands with a known value: a part cancels to 0,
# or everything cancels to 1
PRODUCT_CASES = [
    (GaussianRational(0, 1), GaussianRational(0, 1), GaussianRational(-1)),
    (GaussianRational(1, 1), GaussianRational(1, 1), GaussianRational(0, 2)),
    (TALL, TALL.conjugate(), GaussianRational(TALL.norm_sq())),
    (TALL, GaussianRational(1) / TALL, GaussianRational(1)),
]


def generic_mul(a, b, c, d):
    return a * c - b * d, a * d + b * c


def generic_div(a, b, c, d):
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


class TestOperatorShortcuts(unittest.TestCase):
    def assert_components(self, z, expected):
        self.assertIs(type(z), GaussianRational)
        self.assertIs(type(z.re), Fraction)
        self.assertIs(type(z.im), Fraction)
        self.assertEqual((z.re, z.im), expected)
        for part in (z.re, z.im):
            # canonical: lowest terms with a positive denominator
            self.assertEqual(math.gcd(part.numerator, part.denominator), 1)
            self.assertGreater(part.denominator, 0)

    def test_product(self):
        for x, y in product(VALUES, repeat=2):
            with self.subTest(x=x, y=y):
                self.assert_components(x * y, generic_mul(x.re, x.im, y.re, y.im))
        for x, y, z in PRODUCT_CASES:
            with self.subTest(x=x, y=y):
                self.assert_components(x * y, (z.re, z.im))

    def test_sum_and_difference(self):
        for x, y in product(VALUES, repeat=2):
            with self.subTest(x=x, y=y):
                self.assert_components(x + y, (x.re + y.re, x.im + y.im))
                self.assert_components(x - y, (x.re - y.re, x.im - y.im))

    def test_quotient(self):
        for x, y in product(VALUES, repeat=2):
            with self.subTest(x=x, y=y):
                if y.is_zero:
                    with self.assertRaises(ZeroDivisionError):
                        x / y
                else:
                    self.assert_components(x / y, generic_div(x.re, x.im, y.re, y.im))

    def test_mixed_operands(self):
        z = GaussianRational(Fraction(1, 2), -3)
        self.assert_components(z * 2, (Fraction(1), Fraction(-6)))
        self.assert_components(Fraction(1, 3) * z, (Fraction(1, 6), Fraction(-1)))
        self.assert_components(1 - z, (Fraction(1, 2), Fraction(3)))
        self.assert_components(1 / GaussianRational(0, 2), (Fraction(0), Fraction(-1, 2)))

    def assert_parts(self, t, expected):
        """t is the canonical parts of the nonzero value expected, or None
        when expected is zero."""
        re, im = expected
        if not (re or im):
            self.assertIsNone(t)
            return
        self.assertIs(type(t), tuple)
        self.assertEqual(t, (re.numerator, re.denominator, im.numerator, im.denominator))
        for n, d in (t[:2], t[2:]):
            self.assertIs(type(n), int)
            self.assertIs(type(d), int)
            self.assertEqual(math.gcd(n, d), 1)
            self.assertGreater(d, 0)

    def test_parts_round_trip(self):
        for z in VALUES + [TALL]:
            with self.subTest(z=z):
                self.assertEqual(_parts(z), (z.re.numerator, z.re.denominator,
                                             z.im.numerator, z.im.denominator))
                self.assert_components(_from_parts(_parts(z)), (z.re, z.im))

    def test_fused_multiply_subtract(self):
        # the reduction loop's step acc - x*y on parts against the textbook
        # formula; acc None is 0, and acc = x*y itself cancels both parts
        for x, y in product(VALUES, repeat=2):
            xy = GaussianRational(*generic_mul(x.re, x.im, y.re, y.im))
            px, py = _parts(x), _parts(y)
            for acc in (None, GaussianRational(), TALL, xy):
                a = GaussianRational() if acc is None else acc
                with self.subTest(acc=acc, x=x, y=y):
                    self.assert_parts(
                        _sub_mul_parts(None if acc is None else _parts(acc), px, py),
                        (a.re - xy.re, a.im - xy.im),
                    )
        self.assertIsNone(_sub_mul_parts(_parts(TALL), _parts(TALL), _parts(GaussianRational(1))))

    def test_fused_multiply_subtract_one_part_cancels(self):
        # 7/3 + 5/2*i - (1 + i)(7/3) leaves only the imaginary part
        acc = _parts(GaussianRational(Fraction(7, 3), Fraction(5, 2)))
        x, y = _parts(GaussianRational(1, 1)), _parts(GaussianRational(Fraction(7, 3)))
        self.assert_parts(_sub_mul_parts(acc, x, y), (Fraction(0), Fraction(1, 6)))
        self.assert_parts(_sub_mul_parts(acc, y, x), (Fraction(0), Fraction(1, 6)))
        # tall parts: only the real part cancels
        acc = _parts(GaussianRational(TALL.norm_sq(), Fraction(1, 3)))
        self.assert_parts(
            _sub_mul_parts(acc, _parts(TALL), _parts(TALL.conjugate())),
            (Fraction(0), Fraction(1, 3)),
        )

    def test_negated_inverse(self):
        # -1/z on parts, and x/z through the fused step with it
        for z in VALUES + [TALL]:
            if z.is_zero:
                continue
            factor = _neg_inverse_parts(_parts(z))
            with self.subTest(z=z):
                self.assert_parts(factor, generic_div(Fraction(-1), Fraction(0), z.re, z.im))
            for x in VALUES:
                with self.subTest(x=x, z=z):
                    self.assert_parts(_sub_mul_parts(None, _parts(x), factor),
                                      generic_div(x.re, x.im, z.re, z.im))

    def test_results_compare_and_hash_like_constructed_values(self):
        for x, y in product(VALUES, repeat=2):
            built = GaussianRational(*generic_mul(x.re, x.im, y.re, y.im))
            self.assertEqual(x * y, built)
            self.assertEqual(hash(x * y), hash(built))
            self.assertEqual(bool(x * y), not built.is_zero)


class TestSlottedValue(unittest.TestCase):
    z = GaussianRational(Fraction(-14080, 2017), Fraction(2880, 2017))

    def test_frozen(self):
        with self.assertRaises(AttributeError):
            self.z.re = Fraction(1)
        with self.assertRaises(AttributeError):
            del self.z.im
        with self.assertRaises(AttributeError):
            self.z.extra = 1
        self.assertFalse(hasattr(self.z, "__dict__"))

    def test_hashable(self):
        same = GaussianRational("-14080/2017", "2880/2017")
        self.assertEqual(hash(self.z), hash(same))
        self.assertEqual(len({self.z, same, self.z * 1}), 1)

    def test_pickle_and_copy(self):
        for z in (self.z, self.z * self.z, GaussianRational()):
            for clone in (
                pickle.loads(pickle.dumps(z)),
                copy.copy(z),
                copy.deepcopy(z),
                copy.deepcopy([z, {"k": z}])[1]["k"],
            ):
                self.assertEqual(clone, z)
                self.assertIs(type(clone.re), Fraction)

    def test_constructor_still_validates(self):
        with self.assertRaises(TypeError):
            GaussianRational(0.5)
        with self.assertRaises(ValueError):
            GaussianRational("1.5")
        self.assertEqual(GaussianRational(2, "1/2"), GaussianRational(Fraction(2), Fraction(1, 2)))


if __name__ == "__main__":
    unittest.main()
