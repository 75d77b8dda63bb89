"""Multivariate polynomials over Q(i) in a fixed eight-variable ring.

The ring is C[CA, CB, CC, AL, CCA, CCB, CCC, CCAL]: four planar unit
directions and their formal conjugates, ordered by the lex chain
CA > CB > CC > AL > CCA > CCB > CCC > CCAL.  Monomials are dense
8-tuples of exponents, so lex comparison is native tuple comparison and
the variable order is immutable by construction.

Polynomials are immutable ``_record.Record`` values.  Their one field,
``terms``, is a tuple of ``(monomial, coefficient)`` pairs strictly
descending in lex order with no zero coefficients.  They print through
a small canonical text grammar (e.g. ``CCAL^4 - 213/50*CCAL^3 + 1`` or
``(-14080/2017+2880/2017*I)*CCAL^3 + CCC``), whose coefficients are
printed by ``str(GaussianRational)``.  The parser for that
grammar, ``parse_poly``, lives in ``parapose.polytext`` and is loaded
when one of its names is first read from this module.

The constructor's ``_check`` is the one like-term rule: it validates
the pairs, sums repeated monomials, drops zero coefficients and sorts.
Sums, differences, products and formal conjugates are built through it.
Values that are normalised by construction (negation, products by a
nonzero scalar and the reduction loop's results) are wrapped by the private
``MultiPoly._trusted(terms)`` instead, which takes a tuple of
``(monomial, coefficient)`` pairs that is already strictly descending
and free of zero coefficients, and checks nothing.
Exponents, variable indices and powers are of type ``int`` exactly: a
bool is a ValueError, as a bool scalar is under the exact-scalar rule.

Division and S-polynomials run in a working form that ``groebner``
shares: a coefficient is its integer parts (``gaussrat._parts``,
``(re_num, re_den, im_num, im_den)`` in lowest terms), a polynomial being
reduced is a dict {monomial: parts}, and a monic polynomial is a head,
(leading monomial, tail), whose tail holds descending (monomial, parts)
pairs and whose leading coefficient 1 is not stored.

- One reduction loop, ``_reduce``, takes a work dict and a list of
  heads and returns the remainder in parts.  Each step removes the
  term being reduced and subtracts that term times the head's tail
  only: the leading product would cancel the term exactly, so it is
  never formed.  Each tail term updates its monomial by
  ``gaussrat._sub_mul_parts`` (``old - qc*dc``, one gcd per part, a
  missing term counting as 0), and a term whose parts both cancel is
  deleted.
- One S-polynomial rule, ``_s_work``: both heads are monic, so the
  leading terms cancel and S = x^a*tail_f - x^b*tail_g, one monomial
  shift and one step of the loop.
- One rule divides by a leading coefficient, ``_divided``: it
  multiplies parts by 1/lc (``gaussrat._neg_inverse_parts``, then the
  loop's step).  It makes heads (``_monic_head``), and ``monic()`` is
  its boxed form.

All gcd and denominator arithmetic stays in ``gaussrat``.  Coefficients
are boxed as ``GaussianRational`` only at the public functions:
``normal_form`` and ``s_polynomial`` convert their arguments once per
call and box their results.  Each divisor becomes the head of d/lc(d),
which changes no result: a normal form modulo d equals the normal form
modulo d/lc(d), and S(a*f, b*g) == S(f, g) for nonzero scalars a and b.
``groebner.buchberger`` converts its generators once, keeps every
element as a head and boxes only the reduced basis.  Plain sums and
products of polynomials use the boxed operators, and ``evaluate`` is
exact at ``GaussianRational`` coordinates; it takes exactly N_VARS
coordinates.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from operator import add, le, sub

from ._record import Record
from .gaussrat import (
    GaussianRational,
    _from_parts,
    _neg_inverse_parts,
    _parts,
    _sub_mul_parts,
    exact_operand,
)

__all__ = [
    "N_VARS",
    "VAR_NAMES",
    "MONO_ONE",
    "MultiPoly",
    "mono_mul",
    "mono_divides",
    "mono_lcm",
    "normal_form",
    "s_polynomial",
    "parse_poly",
    "PolyParseError",
]

N_VARS = 8
VAR_NAMES = ("CA", "CB", "CC", "AL", "CCA", "CCB", "CCC", "CCAL")
# index of the formally conjugate variable (CA <-> CCA, AL <-> CCAL, ...)
BAR_PARTNER = (4, 5, 6, 7, 0, 1, 2, 3)

MONO_ONE = (0,) * N_VARS

_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)

_new = object.__new__


# -- monomial helpers (monomials are plain 8-tuples of ints) ---------------

def mono_mul(m1, m2):
    return tuple(map(add, m1, m2))


def mono_divides(m1, m2) -> bool:
    """True iff m1 divides m2."""
    return all(map(le, m1, m2))


def mono_lcm(m1, m2):
    return tuple(map(max, m1, m2))


def _check_mono(m):
    if len(m) != N_VARS or any(type(e) is not int or e < 0 for e in m):
        raise ValueError(f"bad monomial {m!r}")
    return tuple(m)


class MultiPoly(Record):
    """Immutable multivariate polynomial with lex-sorted terms, built from
    ``(monomial, coefficient)`` pairs or a mapping, in any order."""

    __slots__ = ("terms",)
    _defaults = {"terms": ()}

    def _check(self):
        acc: dict = {}
        terms = self.terms
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            mono = _check_mono(mono)
            if not isinstance(coeff, GaussianRational):
                coeff = GaussianRational(coeff)
            old = acc.get(mono)
            acc[mono] = coeff if old is None else old + coeff
        _set_terms(self, tuple(sorted(((m, c) for m, c in acc.items() if c), reverse=True)))

    @classmethod
    def _trusted(cls, terms: tuple) -> "MultiPoly":
        """Wrap a term tuple that is already strictly descending and
        zero-free, without checking or copying it."""
        p = _new(cls)
        _set_terms(p, terms)
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "MultiPoly":
        return cls(((MONO_ONE, c),))

    @classmethod
    def variable(cls, index: int) -> "MultiPoly":
        if type(index) is not int or not 0 <= index < N_VARS:
            raise ValueError(f"variable index {index} out of range")
        mono = tuple(1 if i == index else 0 for i in range(N_VARS))
        return cls(((mono, _ONE),))

    # -- inspection ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def leading_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    @property
    def leading_monomial(self):
        return self.leading_term[0]

    @property
    def leading_coefficient(self) -> GaussianRational:
        return self.leading_term[1]

    # -- ring operations -----------------------------------------------------

    def _combine(self, other, negate: bool) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            s = exact_operand(other)
            if s is None:
                return NotImplemented
            other = MultiPoly.constant(s)
        if negate:
            other = -other
        return MultiPoly(self.terms + other.terms)

    def __add__(self, other):
        return self._combine(other, False)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, True)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return MultiPoly._trusted(tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            return MultiPoly([(mono_mul(m1, m2), c1 * c2)
                              for m1, c1 in self.terms for m2, c2 in other.terms])
        s = exact_operand(other)
        if s is None:
            return NotImplemented
        if s.is_zero:
            return MultiPoly()
        return MultiPoly._trusted(tuple((m, c * s) for m, c in self.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if type(n) is not int or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.constant(_ONE)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def monic(self) -> "MultiPoly":
        """self / lc(self) by the one division rule, ``_divided``; a
        leading coefficient of 1 returns self as it is."""
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        if self.leading_coefficient == _ONE:
            return self
        return _box_head(_head(self))

    def formal_conjugate(self) -> "MultiPoly":
        """Swap each variable with its barred partner, conjugating coefficients."""
        return MultiPoly([(tuple(mono[i] for i in BAR_PARTNER), coeff.conjugate())
                          for mono, coeff in self.terms])

    def evaluate(self, point: Sequence):
        """Value at an 8-vector of coordinates.

        At ``GaussianRational`` coordinates the value is the exact
        ``GaussianRational``, each power formed by repeated products; at
        complex (or float) coordinates it is a complex value in doubles.
        A point without exactly N_VARS coordinates is a ValueError.
        """
        if len(point) != N_VARS:
            raise ValueError(f"expected {N_VARS} coordinates, got {len(point)}")
        if all(isinstance(x, GaussianRational) for x in point):
            total = _ZERO
            for mono, coeff in self.terms:
                v = coeff
                for x, e in zip(point, mono):
                    for _ in range(e):
                        v = v * x
                total = total + v
            return total
        total = 0j
        for mono, coeff in self.terms:
            v = complex(coeff)
            for i, e in enumerate(mono):
                if e:
                    v *= point[i] ** e
            total += v
        return total

    def __bool__(self):
        return bool(self.terms)

    # -- text form ----------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for mono, coeff in self.terms:
            sign, body = _term_text(mono, coeff)
            if not chunks:
                chunks.append(body if sign > 0 else "-" + body)
            else:
                chunks.append(("+ " if sign > 0 else "- ") + body)
        return " ".join(chunks)

    __str__ = to_text

    def __repr__(self):
        return f"MultiPoly({self.to_text()})"


# the slot descriptor stores terms past the record's __setattr__
_set_terms = MultiPoly.terms.__set__


def _mono_text(mono) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(VAR_NAMES[i])
        elif e > 1:
            parts.append(f"{VAR_NAMES[i]}^{e}")
    return "*".join(parts)


def _term_text(mono, coeff: GaussianRational):
    """(sign, body) where the sign is rendered by the term separator.

    The body holds the coefficient's own text, ``str(coeff)``, negated
    when the sign moves into the separator (a coefficient with one
    nonzero part, which is negative); a coefficient with both parts
    nonzero is kept whole in parentheses, and a coefficient of 1 before
    a monomial is left out.
    """
    sign = 1
    if coeff.re and coeff.im:
        text = f"({coeff})"
    else:
        if (coeff.re or coeff.im) < 0:
            sign, coeff = -1, -coeff
        text = str(coeff)
    mono_s = _mono_text(mono)
    if not mono_s:
        return sign, text
    return sign, mono_s if text == "1" else f"{text}*{mono_s}"


# -- the working form: parts, work dicts and heads (see the module docstring)

_ONE_PARTS = _parts(_ONE)


def _to_work(f: MultiPoly) -> dict:
    """f's terms as a work dict of parts."""
    return {m: _parts(c) for m, c in f.terms}


def _divided(terms, lc: tuple) -> tuple:
    """The one division by a leading coefficient, used by ``_monic_head``:
    (monomial, parts) pairs times 1/lc, on parts; an lc of 1 leaves them as
    they are."""
    if lc == _ONE_PARTS:
        return tuple(terms)
    factor = _neg_inverse_parts(lc)
    # 0 - c * (-1/lc) == c/lc
    return tuple((m, _sub_mul_parts(None, c, factor)) for m, c in terms)


def _monic_head(terms) -> tuple:
    """The head of nonzero descending (monomial, parts) pairs divided by
    their leading coefficient."""
    lm, lc = terms[0]
    return lm, _divided(terms[1:], lc)


def _head(f: MultiPoly) -> tuple:
    """The head of f / lc(f); f must be nonzero."""
    return _monic_head(tuple((m, _parts(c)) for m, c in f.terms))


def _box(terms) -> MultiPoly:
    """MultiPoly of descending, zero-free (monomial, parts) pairs."""
    return MultiPoly._trusted(tuple((m, _from_parts(c)) for m, c in terms))


def _box_head(head) -> MultiPoly:
    """The monic MultiPoly of a head."""
    lm, tail = head
    return _box(((lm, _ONE_PARTS),) + tail)


def _sub_shifted(work: dict, coeff: tuple, qm, tail) -> None:
    """work -= coeff * x^qm * tail in place; a term whose parts both
    cancel is deleted."""
    for dm, dc in tail:
        m = tuple(map(add, qm, dm))
        c = _sub_mul_parts(work.get(m), coeff, dc)
        if c is None:
            del work[m]
        else:
            work[m] = c


def _reduce(work: dict, heads: Sequence[tuple]) -> tuple:
    """Remainder of the work dict modulo an ordered list of heads, as
    descending (monomial, parts) pairs; work is consumed.

    The term being reduced is always the largest left, so it only moves
    down: the remainder comes out strictly descending.
    """
    remainder = []
    while work:
        mono = max(work)
        coeff = work.pop(mono)
        for lm, tail in heads:
            if mono_divides(lm, mono):
                # the head is monic, so the leading product would cancel
                # the popped term: only the tail is subtracted
                _sub_shifted(work, coeff, tuple(map(sub, mono, lm)), tail)
                break
        else:
            remainder.append((mono, coeff))
    return tuple(remainder)


def _s_work(f: tuple, g: tuple) -> dict:
    """S(f, g) of two heads as a work dict.  Both are monic, so the leading
    terms cancel: S = x^a*tail_f - x^b*tail_g with x^a = lcm/lm(f) and
    x^b = lcm/lm(g)."""
    (fm, ftail), (gm, gtail) = f, g
    lcm = mono_lcm(fm, gm)
    a = tuple(map(sub, lcm, fm))
    work = {tuple(map(add, a, m)): c for m, c in ftail}
    _sub_shifted(work, _ONE_PARTS, tuple(map(sub, lcm, gm)), gtail)
    return work


def normal_form(f: MultiPoly, divisors: Sequence[MultiPoly]) -> MultiPoly:
    """Remainder of f on division by an ordered list of divisors.

    No term of the remainder is divisible by a divisor's leading
    monomial; a term divisible by several is reduced by the first divisor
    in list order.  f - remainder lies in the ideal of the divisors, and
    an empty list returns f.  A zero divisor is a ZeroDivisionError.
    """
    if any(d.is_zero for d in divisors):
        raise ZeroDivisionError("zero polynomial among divisors")
    return _box(_reduce(_to_work(f), [_head(d) for d in divisors]))


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """S(f, g) = (lcm/LT(f)) * f - (lcm/LT(g)) * g, formed from the heads
    of f/lc(f) and g/lc(g) by monomial shifts alone."""
    if f.is_zero or g.is_zero:
        raise ValueError("zero polynomial cannot be made monic")
    return _box(sorted(_s_work(_head(f), _head(g)).items(), reverse=True))


def __getattr__(name):
    # the text grammar stays off the import path of a solve
    if name in ("parse_poly", "PolyParseError"):
        from . import polytext

        return getattr(polytext, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
