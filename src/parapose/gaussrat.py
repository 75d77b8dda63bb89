"""Exact arithmetic over the Gaussian rationals Q(i).

Rationals are plain :class:`fractions.Fraction` values (arbitrary
precision, canonical by construction).  :class:`GaussianRational` layers
the complex structure ``re + im*i`` on top of two Fractions and is the
coefficient field for every symbolic computation in this package.

Text forms: rationals print as ``p/q`` or ``p``; Gaussian rationals as
``p/q``, ``r/s*I`` or ``p/q+r/s*I`` and, for interchange, as JSON
objects ``{"re": "p/q", "im": "r/s"}``.  Parsing and printing round-trip
losslessly.  Read back, a rational (or a JSON component) may also be a
JSON integer; any other JSON type is a ValueError.

The class is a hand-written immutable class with ``__slots__ = ("re",
"im")``.  Its constructor coerces and validates both components; the
field operators skip that and build their results with the private
``_make(re, im)``, which takes two ``Fraction`` values as they are and
does not coerce or check them.  Products with a real (or zero) operand
use two ``Fraction`` multiplications instead of four multiplications and
two additions.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

__all__ = [
    "GaussianRational",
    "parse_rational",
    "parse_gaussian",
]

_RATIONAL_RE = _re.compile(r"[+-]?\d+(?:/\d+)?\Z")

# accepted forms: a | b*I | a+b*I | a-b*I plus the shorthands I, -I, a+I, a-I
_NUM = r"\d+(?:/\d+)?"
_REAL_ONLY_RE = _re.compile(rf"[+-]?{_NUM}\Z")
_IMAG_ONLY_RE = _re.compile(rf"(?P<sign>[+-]?)(?:(?P<mag>{_NUM})\*)?I\Z")
_REAL_IMAG_RE = _re.compile(
    rf"(?P<re>[+-]?{_NUM})(?P<sign>[+-])(?:(?P<mag>{_NUM})\*)?I\Z"
)


def parse_rational(text) -> Fraction:
    """Parse ``p/q`` or ``p``, or take a (JSON) integer as it is.

    Floats, exponent forms, booleans and every other type are rejected
    with ValueError.
    """
    if type(text) is int:
        return Fraction(text)
    if not (isinstance(text, str) and _RATIONAL_RE.fullmatch(text.strip())):
        raise ValueError(f"malformed rational {text!r} (expected p/q, p or an integer)")
    return Fraction(text.strip())


def _fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"exact component required, got {type(value).__name__}")


_ZERO = Fraction(0)


class GaussianRational:
    """An exact complex number re + im*i with rational components."""

    __slots__ = ("re", "im")

    def __init__(self, re=_ZERO, im=_ZERO):
        _set_re(self, _fraction(re))
        _set_im(self, _fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.re, self.im) == (other.re, other.im)
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __reduce__(self):
        return (GaussianRational, (self.re, self.im))

    # -- field operations -------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return None

    def __add__(self, other):
        o = other if other.__class__ is GaussianRational else self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if other.__class__ is GaussianRational else self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _make(-self.re, -self.im)

    def __pos__(self):
        return self

    def __mul__(self, other):
        o = other if other.__class__ is GaussianRational else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, o.re, o.im
        # (a + bi)(c + di): a real or zero operand needs only two products
        if not d:
            return _make(a * c, b * c)
        if not b:
            return _make(a * c, a * d)
        return _make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if other.__class__ is GaussianRational else self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm_sq()
        if n == 0:
            raise ZeroDivisionError("division by zero")
        return _make(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
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
            raise OverflowError(f"{self} exceeds double range") from None

    __complex__ = to_complex

    def to_json(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}

    @classmethod
    def from_json(cls, obj) -> "GaussianRational":
        if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
            raise ValueError(f"expected {{'re','im'}} object, got {obj!r}")
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
# slot descriptors: they store a field without the frozen __setattr__
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__


def _make(re: Fraction, im: Fraction) -> GaussianRational:
    """Build re + im*i from two Fractions, without coercion or checks."""
    z = _new(GaussianRational)
    _set_re(z, re)
    _set_im(z, im)
    return z


def _signed_magnitude(sign: str, mag) -> Fraction:
    value = Fraction(mag) if mag is not None else Fraction(1)
    return -value if sign == "-" else value


def parse_gaussian(text: str) -> GaussianRational:
    """Parse the text form produced by ``str(GaussianRational)``."""
    s = text.strip().replace(" ", "")
    m = _REAL_IMAG_RE.fullmatch(s)
    if m:
        return GaussianRational(
            Fraction(m.group("re")),
            _signed_magnitude(m.group("sign"), m.group("mag")),
        )
    if _REAL_ONLY_RE.fullmatch(s):
        return GaussianRational(Fraction(s))
    m = _IMAG_ONLY_RE.fullmatch(s)
    if m:
        return GaussianRational(
            Fraction(0), _signed_magnitude(m.group("sign"), m.group("mag"))
        )
    raise ValueError(f"malformed Gaussian rational {text!r}")
