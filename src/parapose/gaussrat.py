"""Exact arithmetic over the Gaussian rationals Q(i).

Rationals are plain :class:`fractions.Fraction` values (arbitrary
precision, canonical by construction).  :class:`GaussianRational` layers
the complex structure ``re + im*i`` on top of two Fractions and is the
coefficient field for every symbolic computation in this package.

Text forms: rationals print as ``p/q`` or ``p``; Gaussian rationals as
``p/q``, ``r/s*I`` or ``p/q+r/s*I`` and, for interchange, as JSON
objects ``{"re": "p/q", "im": "r/s"}``.  Parsing and printing round-trip
losslessly.

:func:`exact_rational` is the package's one rule for exact scalars.  The
constructor applies it to both components, the field operators without
text (:func:`exact_operand`, so ``z + "1"`` is a TypeError), and
:func:`parse_rational`, the reader of text and JSON, with every
rejection a ValueError.

:class:`GaussianRational` is a ``_record.Record`` with the fields
``re`` and ``im``; its ``_check`` applies the exact-scalar rule.  Every
field operator takes its operand by :func:`exact_operand` and builds its
result with the private ``_make(re, im)``, which takes two ``Fraction``
values as they are and does not coerce or check them.

The reduction loop of ``multipoly``, and ``groebner.buchberger`` around
it, run on integer parts instead of boxed values: ``_parts(z)`` is
``(re_num, re_den, im_num, im_den)``, each part in lowest terms over a
positive denominator (exactly the normal form of the two Fractions).
``_sub_mul_parts(acc, x, y)`` is the loop's step ``acc - x*y`` on parts:
the product's parts go over D, the product of the four component
denominators, each part goes over its own denominator in ``acc`` times D
and is reduced by one gcd, with no object built but the result tuple,
or None when both parts cancel.  ``_from_parts`` boxes either again, None
as 0.  ``_neg_inverse_parts(z)`` is -1/z on parts, so that
``_sub_mul_parts(None, x, _neg_inverse_parts(z))`` is x/z: the one
division by a leading coefficient.  These two are the module's only
product and inverse: ``x * y`` boxes 0 - x*(-y) and ``x / y`` boxes
0 - x*(-1/y), both by that step.  This module is the only one that knows
how a Q(i) value is normalised.

Error messages show a rejected value by :func:`_shown`, its repr cut to
a fixed length, so one bad value gives one short error line.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd

from ._record import Record

__all__ = [
    "GaussianRational",
    "exact_rational",
    "exact_operand",
    "parse_rational",
    "parse_gaussian",
]

_NUM = r"\d+(?:/\d+)?"
_RATIONAL_RE = _re.compile(rf"[+-]?{_NUM}\Z")
# Gaussian forms: a | b*I | a+b*I | a-b*I plus the shorthands I, -I, a+I, a-I
_IMAG_ONLY_RE = _re.compile(rf"(?P<sign>[+-]?)(?:(?P<mag>{_NUM})\*)?I\Z")
_REAL_IMAG_RE = _re.compile(
    rf"(?P<re>[+-]?{_NUM})(?P<sign>[+-])(?:(?P<mag>{_NUM})\*)?I\Z"
)


_SHOWN_CHARS = 60


def _shown(value) -> str:
    """repr(value) for an error message, cut to _SHOWN_CHARS characters."""
    text = repr(value)
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."


def _malformed(value) -> ValueError:
    return ValueError(f"malformed rational {_shown(value)} (expected p/q, p or an integer)")


def exact_rational(value, *, text: bool = True) -> Fraction:
    """The exact-scalar rule: ``value`` as a Fraction, or an error.

    A Fraction is taken as it is and an int that is not a bool is
    lifted; with ``text`` true, ``p/q`` or ``p`` (surrounding blanks
    allowed) is parsed.  A bool, malformed text or a zero denominator is
    a ValueError; any other type is a TypeError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        if isinstance(value, bool):
            raise _malformed(value)
        return Fraction(value)
    if not (text and isinstance(value, str)):
        raise TypeError(f"exact rational required, got {type(value).__name__}")
    stripped = value.strip()
    if _RATIONAL_RE.fullmatch(stripped):
        try:
            return Fraction(stripped)
        except ZeroDivisionError:
            pass
    raise _malformed(value)


def parse_rational(text) -> Fraction:
    """:func:`exact_rational` for text and JSON: any type it rejects is malformed."""
    try:
        return exact_rational(text)
    except TypeError:
        raise _malformed(text) from None


_ZERO = Fraction(0)


class GaussianRational(Record):
    """An exact complex number re + im*i with rational components."""

    __slots__ = ("re", "im")
    _defaults = {"re": _ZERO, "im": _ZERO}

    def _check(self):
        _set_re(self, exact_rational(self.re))
        _set_im(self, exact_rational(self.im))

    # -- field operations -------------------------------------------------

    def __add__(self, other):
        o = exact_operand(other)
        if o is None:
            return NotImplemented
        return _make(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = exact_operand(other)
        if o is None:
            return NotImplemented
        return _make(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = exact_operand(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _make(-self.re, -self.im)

    def __pos__(self):
        return self

    def __mul__(self, other):
        o = exact_operand(other)
        if o is None:
            return NotImplemented
        cn, cd, dn, dd = _parts(o)
        # 0 - x*(-y) == x*y, by the reduction loop's step
        return _from_parts(_sub_mul_parts(None, _parts(self), (-cn, cd, -dn, dd)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = exact_operand(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero")
        # 0 - x*(-1/y) == x/y, the one division rule of multipoly._divided
        return _from_parts(_sub_mul_parts(None, _parts(self), _neg_inverse_parts(_parts(o))))

    def __rtruediv__(self, other):
        o = exact_operand(other)
        if o is None:
            return NotImplemented
        return o / self

    def __bool__(self):
        return bool(self.re or self.im)

    # -- structure ---------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return _make(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return not (self.re or self.im)

    # -- conversions ---------------------------------------------------------

    def to_complex(self) -> complex:
        """Nearest double per component; raises on double overflow."""
        try:
            return complex(float(self.re), float(self.im))
        except OverflowError:
            bits = max(abs(x.numerator).bit_length() - x.denominator.bit_length()
                       for x in (self.re, self.im))
            raise OverflowError(f"value of about 2^{bits} exceeds double range") from None

    __complex__ = to_complex

    def to_json(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}

    @classmethod
    def from_json(cls, obj) -> "GaussianRational":
        if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
            raise ValueError(f"expected {{'re','im'}} object, got {_shown(obj)}")
        return cls(parse_rational(obj["re"]), parse_rational(obj["im"]))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        imag = "I" if abs(self.im) == 1 else f"{abs(self.im)}*I"
        if self.re == 0:
            return imag if self.im > 0 else "-" + imag
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{imag}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__
# slot descriptors: they store a field past the record's __setattr__
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__


def _make(re: Fraction, im: Fraction) -> GaussianRational:
    """Build re + im*i from two Fractions, without coercion or checks."""
    z = _new(GaussianRational)
    _set_re(z, re)
    _set_im(z, im)
    return z


# -- the reduction loop's working form: integer parts -------------------------

def _parts(z: GaussianRational) -> tuple:
    """z as (re_num, re_den, im_num, im_den), each part in lowest terms
    over a positive denominator: the normal form of its two Fractions."""
    re, im = z.re, z.im
    return (re.numerator, re.denominator, im.numerator, im.denominator)


def _from_parts(t) -> GaussianRational:
    """The value of parts t, which are already in lowest terms; None (what
    ``_sub_mul_parts`` returns for 0) is 0."""
    rn, rd, jn, jd = t or (0, 1, 0, 1)
    return _make(Fraction(rn, rd), Fraction(jn, jd))


def _sub_mul_parts(acc, x: tuple, y: tuple):
    """acc - x*y on parts; acc None means 0, and the result is None when
    both parts cancel.

    The product's parts go over P, the product of the four component
    denominators of x and y; part k of acc (nk/ek) minus part k of the
    product goes over ek*P and is brought to lowest terms by one gcd.  A
    part the product leaves unchanged is kept as it is.
    """
    an, ad, bn, bd = x
    cn, cd, dn, dd = y
    acd, bdd = ad * cd, bd * dd
    p = acd * bdd
    pre = an * cn * bdd - bn * dn * acd
    pim = an * dn * bd * cd + bn * cn * ad * dd
    if acc is None:
        en, ed, fn, fd = 0, 1, 0, 1
    else:
        en, ed, fn, fd = acc
    if pre:
        en, ed = en * p - pre * ed, ed * p
        g = gcd(en, ed)
        if g != 1:
            en //= g
            ed //= g
    if pim:
        fn, fd = fn * p - pim * fd, fd * p
        g = gcd(fn, fd)
        if g != 1:
            fn //= g
            fd //= g
    if en or fn:
        return (en, ed, fn, fd)
    return None


def _neg_inverse_parts(t: tuple) -> tuple:
    """-1/z on the parts t of a nonzero z, so that
    ``_sub_mul_parts(None, x, _neg_inverse_parts(t))`` is x/z.

    -1/z = (-a + b*i) / (a^2 + b^2): over N = an^2*bd^2 + bn^2*ad^2 the
    parts are -an*ad*bd^2/N and bn*bd*ad^2/N, each brought to lowest
    terms by one gcd (N is positive, so each denominator stays positive).
    """
    an, ad, bn, bd = t
    n = an * an * bd * bd + bn * bn * ad * ad
    re, im = -an * ad * bd * bd, bn * bd * ad * ad
    g, h = gcd(re, n), gcd(im, n)
    return (re // g, n // g, im // h, n // h)


def exact_operand(value):
    """An operand in Q(i) by :func:`exact_rational` without text, or None
    for a type it rejects (the operator then returns NotImplemented)."""
    if isinstance(value, GaussianRational):
        return value
    try:
        return _make(exact_rational(value, text=False), _ZERO)
    except TypeError:
        return None


def parse_gaussian(text: str) -> GaussianRational:
    """Parse the text form produced by ``str(GaussianRational)``."""
    s = text.strip().replace(" ", "")
    m = _REAL_IMAG_RE.fullmatch(s)
    if m:
        return GaussianRational(m["re"], m["sign"] + (m["mag"] or "1"))
    if _RATIONAL_RE.fullmatch(s):
        return GaussianRational(s)
    m = _IMAG_ONLY_RE.fullmatch(s)
    if m:
        return GaussianRational(0, m["sign"] + (m["mag"] or "1"))
    raise ValueError(f"malformed Gaussian rational {_shown(text)}")
