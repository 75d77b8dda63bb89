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
``(-14080/2017+2880/2017*I)*CCAL^3 + CCC``).  The parser for that
grammar, ``parse_poly``, lives in ``parapose.polytext`` and is loaded
when one of its names is first read from this module.

The public constructors validate and normalise their input (in
``_check``: repeated monomials are summed and zero coefficients
dropped).  Results of ring operations and of the division loop are
wrapped by the private ``MultiPoly._trusted(terms)`` instead, which
takes a tuple of ``(monomial, coefficient)`` pairs that is already
strictly descending and free of zero coefficients, and checks nothing.
Exponents, variable indices and powers are of type ``int`` exactly: a
bool is a ValueError, as a bool scalar is under the exact-scalar rule.

``normal_form`` and ``multi_divide`` share one reduction loop.  It
splits each monic divisor into leading monomial and tail once per call.
Inside the loop coefficients are plain integer parts
(``gaussrat._parts``), not ``GaussianRational`` objects: f's terms and
each divisor's tail are converted once per call, and only remainder and
quotient terms are boxed again on the way out.  At each step the loop
removes the term being reduced and subtracts that term times the
divisor's tail only: the leading product would cancel the term exactly,
so it is never formed.  Each tail term updates its monomial by
``gaussrat._sub_mul_parts`` (``old - qc*dc``, one gcd per part, a
missing term counting as 0), and a term whose parts both cancel is
deleted.  All gcd and denominator arithmetic stays in ``gaussrat``.
Plain sums (``+`` and ``-`` of polynomials) and products of polynomials
keep the boxed product and sum.

Only ``monic()`` divides by a leading coefficient.  The reduction loop
and ``s_polynomial`` work on ``monic()`` copies of their inputs, which
changes no result: a normal form modulo d equals the normal form modulo
d/lc(d), and S(a*f, b*g) == S(f, g) for nonzero scalars a and b.
``multi_divide`` scales each divisor's quotient once by 1/lc(d), so its
identity holds for the divisors as given.  Groebner basis elements are
monic already, and ``monic()`` returns them unchanged.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from operator import add, le, sub

from ._record import Record
from .gaussrat import GaussianRational, _from_parts, _parts, _sub_mul_parts, exact_operand

__all__ = [
    "N_VARS",
    "VAR_NAMES",
    "MONO_ONE",
    "MultiPoly",
    "mono_mul",
    "mono_divides",
    "mono_div",
    "mono_lcm",
    "multi_divide",
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


def mono_div(m1, m2):
    """m1 / m2; requires divisibility."""
    q = tuple(map(sub, m1, m2))
    if any(e < 0 for e in q):
        raise ValueError(f"{m2} does not divide {m1}")
    return q


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
            if coeff:
                _add_inplace(acc, mono, coeff)
        _set_terms(self, tuple(sorted(acc.items(), reverse=True)))

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

    def coefficient(self, mono) -> GaussianRational:
        mono = tuple(mono)
        for m, c in self.terms:
            if m == mono:
                return c
        return _ZERO

    # -- ring operations -----------------------------------------------------

    def _combine(self, other, negate: bool) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            s = exact_operand(other)
            if s is None:
                return NotImplemented
            other = MultiPoly.constant(s)
        acc = dict(self.terms)
        for mono, coeff in other.terms:
            _add_inplace(acc, mono, -coeff if negate else coeff)
        return _sorted_poly(acc.items())

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
            acc: dict = {}
            for m1, c1 in self.terms:
                for m2, c2 in other.terms:
                    _add_inplace(acc, mono_mul(m1, m2), c1 * c2)
            return _sorted_poly(acc.items())
        s = exact_operand(other)
        if s is None:
            return NotImplemented
        return self.term_shift(MONO_ONE, s)

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

    def term_shift(self, mono, coeff) -> "MultiPoly":
        """Multiply by the single term coeff * x^mono.

        coeff is an exact scalar by the operators' rule
        (:func:`~parapose.gaussrat.exact_operand`): a bool is a
        ValueError, any other type it rejects a TypeError.
        """
        mono = _check_mono(mono)
        s = exact_operand(coeff)
        if s is None:
            raise TypeError(f"exact scalar required, got {type(coeff).__name__}")
        if s.is_zero:
            return MultiPoly()
        terms = self.terms
        if mono != MONO_ONE:
            terms = tuple((mono_mul(m, mono), c) for m, c in terms)
        if s != _ONE:
            terms = tuple((m, c * s) for m, c in terms)
        return MultiPoly._trusted(terms)

    def monic(self) -> "MultiPoly":
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        lc = self.leading_coefficient
        if lc == _ONE:
            return self
        inv = _ONE / lc
        return MultiPoly._trusted(tuple((m, c * inv) for m, c in self.terms))

    def formal_conjugate(self) -> "MultiPoly":
        """Swap each variable with its barred partner, conjugating coefficients."""
        out = []
        for mono, coeff in self.terms:
            swapped = tuple(mono[BAR_PARTNER[i]] for i in range(N_VARS))
            out.append((swapped, coeff.conjugate()))
        return _sorted_poly(out)

    def evaluate(self, point: Sequence[complex]) -> complex:
        """Numeric evaluation at an 8-vector of complex values."""
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
    """(sign, body) where the sign is rendered by the term separator."""
    mono_s = _mono_text(mono)
    if coeff.im == 0:
        q = coeff.re
        sign = 1 if q > 0 else -1
        a = abs(q)
        if not mono_s:
            return sign, str(a)
        if a == 1:
            return sign, mono_s
        return sign, f"{a}*{mono_s}"
    if coeff.re == 0:
        b = coeff.im
        sign = 1 if b > 0 else -1
        imag = "I" if abs(b) == 1 else f"{abs(b)}*I"
        return sign, imag if not mono_s else f"{imag}*{mono_s}"
    body = f"({coeff})"
    return 1, body if not mono_s else f"{body}*{mono_s}"


# -- division algorithm and S-polynomials -----------------------------------

def _add_inplace(acc: dict, mono, coeff: GaussianRational):
    old = acc.get(mono)
    if old is None:
        acc[mono] = coeff
        return
    c = old + coeff
    if c:
        acc[mono] = c
    else:
        del acc[mono]


def _reduce(f: MultiPoly, divisors: Sequence[MultiPoly], quotients=None) -> MultiPoly:
    """Remainder of f modulo an ordered list of divisors, each made monic.

    When quotients is a list of one dict per divisor, the quotient terms
    by the monic divisors are recorded there, keyed by monomial in
    descending order.  The term being reduced is always the largest left,
    so it only moves down: the remainder and each quotient come out
    strictly descending.
    """
    heads = []
    for d in divisors:
        if d.is_zero:
            raise ZeroDivisionError("zero polynomial among divisors")
        terms = d.monic().terms
        heads.append((terms[0][0], tuple((m, _parts(c)) for m, c in terms[1:])))

    work = {m: _parts(c) for m, c in f.terms}
    remainder = []
    while work:
        mono = max(work)
        coeff = work.pop(mono)
        for i, (lm, tail) in enumerate(heads):
            if mono_divides(lm, mono):
                qm = tuple(map(sub, mono, lm))
                if quotients is not None:
                    quotients[i][qm] = _from_parts(coeff)
                # the divisor is monic, so the leading product would cancel
                # the popped term: work -= coeff * x^qm * tail, and a term
                # whose parts both cancel is deleted
                for dm, dc in tail:
                    m = tuple(map(add, qm, dm))
                    c = _sub_mul_parts(work.get(m), coeff, dc)
                    if c is None:
                        del work[m]
                    else:
                        work[m] = c
                break
        else:
            remainder.append((mono, _from_parts(coeff)))
    return MultiPoly._trusted(tuple(remainder))


def multi_divide(f: MultiPoly, divisors: Sequence[MultiPoly]):
    """Divide f by an ordered list of divisors.

    Returns (quotients, remainder) with f == sum(q_i * g_i) + r exactly
    and no term of r divisible by any divisor's leading monomial.  Ties
    go to the first divisor in list order.
    """
    if not divisors:
        raise ValueError("empty divisor list")
    quotients = [{} for _ in divisors]
    remainder = _reduce(f, divisors, quotients)
    # q * (g / lc(g)) == (q / lc(g)) * g
    return [
        MultiPoly._trusted(tuple(q.items())) * (_ONE / g.leading_coefficient)
        for q, g in zip(quotients, divisors)
    ], remainder


def normal_form(f: MultiPoly, divisors: Sequence[MultiPoly]) -> MultiPoly:
    """Remainder of multi_divide without quotient bookkeeping."""
    return _reduce(f, divisors)


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """S(f, g) = (lcm/LT(f)) * f - (lcm/LT(g)) * g, formed from f.monic()
    and g.monic() by monomial shifts alone."""
    f, g = f.monic(), g.monic()
    fm, gm = f.leading_monomial, g.leading_monomial
    lcm = mono_lcm(fm, gm)
    return f.term_shift(mono_div(lcm, fm), _ONE) - g.term_shift(mono_div(lcm, gm), _ONE)


def _sorted_poly(items) -> MultiPoly:
    """MultiPoly from zero-free (monomial, coefficient) pairs with
    distinct monomials, in any order."""
    return MultiPoly._trusted(tuple(sorted(items, reverse=True)))


def __getattr__(name):
    # the text grammar stays off the import path of a solve
    if name in ("parse_poly", "PolyParseError"):
        from . import polytext

        return getattr(polytext, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
