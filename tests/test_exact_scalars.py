"""One exact-scalar rule (``gaussrat.exact_rational``) at every entry point.

Constructors take a Fraction, an int that is not a bool, or ``p/q``/``p``
text; the arithmetic operators take the same without text.  A bool is a
ValueError everywhere, a float a TypeError.
"""

from fractions import Fraction

import pytest

from parapose.gaussrat import GaussianRational
from parapose.inversive import UniPoly
from parapose.kinematics import ManipulatorProblem
from parapose.multipoly import MONO_ONE, MultiPoly

from conftest import RIGHT_TRIANGLE_GEOMETRY

Z0 = GaussianRational(0)
P0 = MultiPoly()
P1 = MultiPoly.constant(1)

# value, outcome at a constructor, outcome at an operator
CASES = [
    pytest.param(v, with_text, without_text, id=repr(v))
    for v, with_text, without_text in [
        (True, ValueError, ValueError),
        (False, ValueError, ValueError),
        (1.5, TypeError, TypeError),
        ("3/4", Fraction(3, 4), TypeError),
        (Fraction(3, 4), Fraction(3, 4), Fraction(3, 4)),
        (3, Fraction(3), Fraction(3)),
    ]
]


def _field(name):
    def build(value):
        kwargs = dict(RIGHT_TRIANGLE_GEOMETRY, s_a=2, s_b=Fraction(7, 2),
                      s_c=Fraction(5, 2))
        kwargs[name] = value
        got = getattr(ManipulatorProblem(**kwargs), name)
        return got.re if isinstance(got, GaussianRational) else got
    return build


# (id, value -> the Fraction it became, takes text, field name)
ENTRIES = [
    ("GaussianRational.re", lambda v: GaussianRational(v).re, True, None),
    ("GaussianRational.im", lambda v: GaussianRational(0, v).im, True, None),
    ("UniPoly", lambda v: UniPoly([v]).coefficients[0].re, True, None),
    ("MultiPoly", lambda v: MultiPoly({MONO_ONE: v}).leading_coefficient.re, True, None),
    ("z+v", lambda v: (Z0 + v).re, False, None),
    ("v+z", lambda v: (v + Z0).re, False, None),
    ("z-v", lambda v: -(Z0 - v).re, False, None),
    ("v-z", lambda v: (v - Z0).re, False, None),
    ("z*v", lambda v: (GaussianRational(1) * v).re, False, None),
    ("v/z", lambda v: (v / GaussianRational(1)).re, False, None),
    ("poly+v", lambda v: (P0 + v).leading_coefficient.re, False, None),
    ("v*poly", lambda v: (v * P1).leading_coefficient.re, False, None),
    ("poly*v", lambda v: (P1 * v).leading_coefficient.re, False, None),
] + [
    (name, _field(name), True, name)
    for name in ("l_ab", "l_ac", "d_ab", "d_ac", "cis_beta", "s_a", "s_b", "s_c")
]


@pytest.mark.parametrize("value, with_text, without_text", CASES)
@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e[0])
def test_exact_scalar_rule(entry, value, with_text, without_text):
    _, build, text, field = entry
    outcome = with_text if text else without_text
    if isinstance(outcome, type):
        if outcome is ValueError:
            match = "malformed rational"
        else:  # an operator's TypeError comes from Python itself
            match = "exact rational required" if text else None
        with pytest.raises(outcome, match=f"^{field}: {match}" if field else match):
            build(value)
    elif field == "cis_beta":
        # the rule accepts the value; the field's own check does not
        with pytest.raises(ValueError, match="^cis_beta: must be exactly unit-modulus"):
            build(value)
    else:
        assert build(value) == outcome
