"""Parser for the canonical polynomial text form of ``parapose.multipoly``.

The grammar covers what ``MultiPoly.to_text`` prints, e.g.
``CCAL^4 - 213/50*CCAL^3 + 1`` or ``(-14080/2017+2880/2017*I)*CCAL^3 + CCC``:
integers, the eight variable names, ``I``, ``+ - * / ^`` and parentheses.
Only ``parapose gb`` and callers of ``parse_poly`` need it, so it lives
apart from the ring arithmetic and a solve never imports it;
``parapose.parse_poly`` and ``parapose.multipoly.parse_poly`` still
resolve here on first use.
"""

from __future__ import annotations

import re

from .gaussrat import GaussianRational
from .multipoly import MONO_ONE, VAR_NAMES, MultiPoly

__all__ = ["PolyParseError", "parse_poly"]


class PolyParseError(ValueError):
    pass


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>CCAL|CCA|CCB|CCC|CA|CB|CC|AL|I)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PolyParseError(f"unexpected character {text[pos:].strip()[0]!r}")
            break
        pos = m.end()
        if m.group("int"):
            try:
                tokens.append(("int", int(m.group("int"))))
            except ValueError as exc:  # longer than sys.get_int_max_str_digits()
                raise PolyParseError(str(exc)) from exc
        elif m.group("name"):
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise PolyParseError(f"expected {op!r}")

    def parse(self) -> MultiPoly:
        poly = self.expr()
        if self.pos != len(self.tokens):
            raise PolyParseError("trailing input after polynomial")
        return poly

    def expr(self) -> MultiPoly:
        poly = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                poly = poly + rhs if val == "+" else poly - rhs
            else:
                return poly

    def term(self) -> MultiPoly:
        poly = self.unary()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.unary()
                if val == "*":
                    poly = poly * rhs
                else:
                    if rhs.is_zero:
                        raise PolyParseError("division by zero")
                    if rhs.terms[0][0] != MONO_ONE or len(rhs.terms) != 1:
                        raise PolyParseError("division by a non-constant")
                    poly = poly * (GaussianRational(1) / rhs.terms[0][1])
            else:
                return poly

    def unary(self) -> MultiPoly:
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            inner = self.unary()
            return inner if val == "+" else -inner
        return self.power()

    def power(self) -> MultiPoly:
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, exp = self.take()
            if kind != "int":
                raise PolyParseError("exponent must be an integer")
            return base ** exp
        return base

    def atom(self) -> MultiPoly:
        kind, val = self.take()
        if kind == "int":
            return MultiPoly.constant(GaussianRational(val))
        if kind == "name":
            if val == "I":
                return MultiPoly.constant(GaussianRational(0, 1))
            return MultiPoly.variable(VAR_NAMES.index(val))
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise PolyParseError("expected a number, variable or parenthesis")


def parse_poly(text: str) -> MultiPoly:
    """Parse the canonical polynomial text form."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial text")
    return _Parser(tokens).parse()
