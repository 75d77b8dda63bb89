"""Inversive geometry of the Gauss plane.

Inversion in a circle maps Z to the point Z' on ray CZ with
|CZ|*|CZ'| = r^2; in the unit circle this is z -> 1/conj(z).  The
module also provides the conjugate-reciprocal and reciprocal transforms
of univariate polynomials, the self-inversive / self-reciprocal
predicates (exact arithmetic only), and the harmonic-conjugate test for
real pairs against the unit-circle diameter.
"""

from __future__ import annotations

import math

from ._record import Record
from .gaussrat import GaussianRational, parse_gaussian

__all__ = [
    "InversionCircle",
    "UniPoly",
    "parse_unipoly",
    "invert_in_circle",
    "invert_unit",
    "conjugate_reciprocal",
    "reciprocal",
    "is_self_inversive",
    "is_self_reciprocal",
    "harmonic_conjugate_check",
]

DEFAULT_TOL = 1e-9


def _positive_finite(x, name: str) -> float:
    """x as a float; a bool, or a value not positive and finite (a number
    beyond double range included), is a ValueError."""
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if isinstance(x, bool) or not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite")
    return value


class InversionCircle(Record):
    __slots__ = ("center", "radius")
    _defaults = {"center": 0j, "radius": 1.0}

    def _check(self):
        try:
            object.__setattr__(self, "center", complex(self.center))
        except OverflowError:  # a number beyond double range
            raise ValueError("center must be finite") from None
        object.__setattr__(self, "radius", _positive_finite(self.radius, "radius"))
        if not (math.isfinite(self.center.real) and math.isfinite(self.center.imag)):
            raise ValueError("center must be finite")


class UniPoly(Record):
    """Univariate polynomial over Q(i), coefficients stored constant-term first.

    Coefficients are GaussianRational; any other value goes through the
    constructor's exact-scalar rule (``gaussrat.exact_rational``), so a
    float or complex is a TypeError and a bool a ValueError.  Trailing
    zero coefficients are trimmed so the leading coefficient is nonzero;
    the zero polynomial has no coefficients.
    """

    __slots__ = ("coefficients",)

    def _check(self):
        out = [
            c if isinstance(c, GaussianRational) else GaussianRational(c)
            for c in self.coefficients
        ]
        while out and not out[-1]:
            out.pop()
        object.__setattr__(self, "coefficients", tuple(out))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def leading_coefficient(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def to_text(self) -> str:
        """Comma-separated coefficient list, constant term first."""
        if self.is_zero:
            return "0"
        return ", ".join(str(c) for c in self.coefficients)

    def __repr__(self):
        return f"UniPoly({list(self.coefficients)!r})"


def parse_unipoly(text: str) -> UniPoly:
    """Parse the comma-separated exact coefficient list."""
    body = text.strip()
    if body == "0":
        return UniPoly([])
    return UniPoly([parse_gaussian(chunk) for chunk in body.split(",")])


def invert_in_circle(z: complex, circle: InversionCircle) -> complex:
    """Inverse of z in the circle: z' = c + r^2 / conj(z - c)."""
    z = complex(z)
    d = z - circle.center
    if d == 0:
        raise ValueError("inversion undefined at center")
    return circle.center + (circle.radius * circle.radius) / d.conjugate()


def invert_unit(z: complex) -> complex:
    """Inverse of z in the unit circle: 1/conj(z) = z/|z|^2."""
    z = complex(z)
    if z == 0:
        raise ValueError("inversion undefined at center")
    return 1.0 / z.conjugate()


def _require_nonzero(f: UniPoly):
    if f.is_zero:
        raise ValueError("zero polynomial is not accepted")


def conjugate_reciprocal(f: UniPoly) -> UniPoly:
    """f*(z) = z^n * conj(f(1/conj(z))): reversed, conjugated coefficients."""
    _require_nonzero(f)
    return UniPoly([c.conjugate() for c in reversed(f.coefficients)])


def reciprocal(f: UniPoly) -> UniPoly:
    """f+(z) = z^n * f(1/z): reversed coefficients."""
    _require_nonzero(f)
    return UniPoly(list(reversed(f.coefficients)))


def _require_nonzero_constant(f: UniPoly):
    _require_nonzero(f)
    if f.coefficients[0].is_zero:
        # a root at the origin has its inverse at infinity
        raise ValueError("constant term must be nonzero")


def is_self_inversive(f: UniPoly) -> bool:
    """True iff f equals its conjugate reciprocal (exact comparison)."""
    _require_nonzero_constant(f)
    return f == conjugate_reciprocal(f)


def is_self_reciprocal(f: UniPoly) -> bool:
    """True iff f equals its reciprocal (exact comparison)."""
    _require_nonzero_constant(f)
    return f == reciprocal(f)


def harmonic_conjugate_check(z: float, z_prime: float, tol: float = DEFAULT_TOL) -> bool:
    """Directed-ratio test: Z'X/Z'Y = -ZX/ZY with X = -1, Y = 1.

    Uses the summed-ratio form |(z'+1)/(z'-1) + (z+1)/(z-1)| <= tol,
    which stays finite for arguments near the circle.  tol follows the
    radius rule of InversionCircle: a bool, or a value not positive and
    finite, is a ValueError.
    """
    tol = _positive_finite(tol, "tol")
    z = float(z)
    z_prime = float(z_prime)
    if z in (-1.0, 1.0) or z_prime in (-1.0, 1.0):
        raise ValueError("degenerate ratio: argument at an intersection point")
    value = (z_prime + 1.0) / (z_prime - 1.0) + (z + 1.0) / (z - 1.0)
    return abs(value) <= tol
