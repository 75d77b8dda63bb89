"""Multivariate polynomials over Q(i) in a fixed eight-variable ring.

The ring is C[CA, CB, CC, AL, CCA, CCB, CCC, CCAL]: four planar unit
directions and their formal conjugates, ordered by the lex chain
CA > CB > CC > AL > CCA > CCB > CCC > CCAL.  Monomials are dense
8-tuples of exponents, so lex comparison is native tuple comparison and
the variable order is immutable by construction.

Polynomials are immutable, stored as term lists strictly descending in
lex order with no zero coefficients, and print through a small
canonical text grammar (e.g. ``CCAL^4 - 213/50*CCAL^3 + 1`` or
``(-14080/2017+2880/2017*I)*CCAL^3 + CCC``).  The parser for that
grammar, ``parse_poly``, lives in ``parapose.polytext`` and is loaded
when one of its names is first read from this module.

The public constructors validate and normalise their input.  Results of
ring operations and of the division loop are wrapped by the private
``MultiPoly._trusted(terms)`` instead, which takes a tuple of
``(monomial, coefficient)`` pairs that is already strictly descending
and free of zero coefficients, and checks nothing.

``normal_form`` and ``multi_divide`` share one reduction loop.  It
splits each divisor into leading monomial, leading coefficient and tail
once per call.  At each step it removes the term being reduced and
subtracts the quotient term times the divisor's tail only: the leading
product would cancel that term exactly, so it is never formed.  It
divides by a divisor's leading coefficient only when that is not 1:
Groebner basis elements are monic, so reducing modulo a basis never
divides.
``s_polynomial`` likewise skips the inverse and the scaling for a monic
argument.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from operator import add, le, sub

from .gaussrat import GaussianRational, exact_operand

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
    if len(m) != N_VARS or any(not isinstance(e, int) or e < 0 for e in m):
        raise ValueError(f"bad monomial {m!r}")
    return tuple(m)


class MultiPoly:
    """Immutable multivariate polynomial with lex-sorted terms."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable = ()):
        acc: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            mono = _check_mono(mono)
            if not isinstance(coeff, GaussianRational):
                coeff = GaussianRational(coeff)
            c = acc.get(mono, _ZERO) + coeff
            if c.is_zero:
                acc.pop(mono, None)
            else:
                acc[mono] = c
        _set_terms(self, tuple(sorted(acc.items(), reverse=True)))

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def _trusted(cls, terms: tuple) -> "MultiPoly":
        """Wrap a term tuple that is already strictly descending and
        zero-free, without checking or copying it."""
        p = _new(cls)
        _set_terms(p, terms)
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "MultiPoly":
        return cls(((MONO_ONE, c),))

    @classmethod
    def variable(cls, index: int) -> "MultiPoly":
        if not 0 <= index < N_VARS:
            raise ValueError(f"variable index {index} out of range")
        mono = tuple(1 if i == index else 0 for i in range(N_VARS))
        return cls(((mono, _ONE),))

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self):
        """Term list, strictly descending in lex order."""
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def leading_term(self):
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        return self._terms[0]

    @property
    def leading_monomial(self):
        return self.leading_term[0]

    @property
    def leading_coefficient(self) -> GaussianRational:
        return self.leading_term[1]

    def coefficient(self, mono) -> GaussianRational:
        mono = tuple(mono)
        for m, c in self._terms:
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
        acc = dict(self._terms)
        for mono, coeff in other._terms:
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
        return MultiPoly._trusted(tuple((m, -c) for m, c in self._terms))

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            acc: dict = {}
            for m1, c1 in self._terms:
                for m2, c2 in other._terms:
                    _add_inplace(acc, mono_mul(m1, m2), c1 * c2)
            return _sorted_poly(acc.items())
        s = exact_operand(other)
        if s is None:
            return NotImplemented
        return self.term_shift(MONO_ONE, s)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.constant(_ONE)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def term_shift(self, mono, coeff: GaussianRational) -> "MultiPoly":
        """Multiply by the single term coeff * x^mono."""
        mono = _check_mono(mono)
        if coeff.is_zero:
            return MultiPoly()
        terms = self._terms
        if coeff != _ONE:
            if mono != MONO_ONE:
                terms = tuple((mono_mul(m, mono), c * coeff) for m, c in terms)
            else:
                terms = tuple((m, c * coeff) for m, c in terms)
        elif mono != MONO_ONE:
            terms = tuple((mono_mul(m, mono), c) for m, c in terms)
        return MultiPoly._trusted(terms)

    def monic(self) -> "MultiPoly":
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        lc = self.leading_coefficient
        if lc == _ONE:
            return self
        return MultiPoly._trusted(tuple((m, c / lc) for m, c in self._terms))

    def formal_conjugate(self) -> "MultiPoly":
        """Swap each variable with its barred partner, conjugating coefficients."""
        out = []
        for mono, coeff in self._terms:
            swapped = tuple(mono[BAR_PARTNER[i]] for i in range(N_VARS))
            out.append((swapped, coeff.conjugate()))
        return _sorted_poly(out)

    def evaluate(self, point: Sequence[complex]) -> complex:
        """Numeric evaluation at an 8-vector of complex values."""
        total = 0j
        for mono, coeff in self._terms:
            v = complex(coeff)
            for i, e in enumerate(mono):
                if e:
                    v *= point[i] ** e
            total += v
        return total

    # -- equality / hashing ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def __reduce__(self):
        return (MultiPoly, (self._terms,))

    def __bool__(self):
        return bool(self._terms)

    # -- text form ----------------------------------------------------------

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for mono, coeff in self._terms:
            sign, body = _term_text(mono, coeff)
            if not chunks:
                chunks.append(body if sign > 0 else "-" + body)
            else:
                chunks.append(("+ " if sign > 0 else "- ") + body)
        return " ".join(chunks)

    __str__ = to_text

    def __repr__(self):
        return f"MultiPoly({self.to_text()})"


# the slot descriptor stores terms past the immutable __setattr__
_set_terms = MultiPoly._terms.__set__


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
    """Remainder of f modulo an ordered list of divisors.

    When quotients is a list of one dict per divisor, the quotient terms
    are recorded there, keyed by monomial in descending order.  The term
    being reduced is always the largest left, so it only moves down: the
    remainder and each quotient come out strictly descending.
    """
    heads = []
    for d in divisors:
        if d.is_zero:
            raise ZeroDivisionError("zero polynomial among divisors")
        terms = d.terms
        lm, lc = terms[0]
        # basis elements are monic: no division for them
        heads.append((lm, None if lc == _ONE else lc, terms[1:]))

    work = dict(f.terms)
    remainder = []
    while work:
        mono = max(work)
        coeff = work.pop(mono)
        for i, (lm, lc, tail) in enumerate(heads):
            if mono_divides(lm, mono):
                qm = tuple(map(sub, mono, lm))
                qc = coeff if lc is None else coeff / lc
                if quotients is not None:
                    quotients[i][qm] = qc
                # qc * lc == coeff exactly, so the leading product would
                # cancel the popped term: work -= qc * x^qm * tail, one
                # negation per step
                nqc = -qc
                for dm, dc in tail:
                    _add_inplace(work, tuple(map(add, qm, dm)), nqc * dc)
                break
        else:
            remainder.append((mono, coeff))
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
    return [MultiPoly._trusted(tuple(q.items())) for q in quotients], remainder


def normal_form(f: MultiPoly, divisors: Sequence[MultiPoly]) -> MultiPoly:
    """Remainder of multi_divide without quotient bookkeeping."""
    return _reduce(f, divisors)


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """S(f, g) = (lcm/LT(f)) * f - (lcm/LT(g)) * g."""
    fm, fc = f.leading_term
    gm, gc = g.leading_term
    lcm = mono_lcm(fm, gm)
    return f.term_shift(mono_div(lcm, fm), _inverse(fc)) - g.term_shift(
        mono_div(lcm, gm), _inverse(gc)
    )


def _inverse(c: GaussianRational) -> GaussianRational:
    return c if c == _ONE else _ONE / c


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
