"""Recursive-descent parser for algebra element expressions.

Grammar (whitespace insignificant):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := integer ['/' integer] ('*' factor)*
            | factor ('*' factor)*
    factor := name                 -- any generator
            | name '^(' nat ')'    -- divided power, even variables only
            | name '^' nat         -- polygen power

A bare integer term is a scalar.  ``X`` for an even variable means
``X^(1)``.  Unknown names, divided powers on odd variables or polygens,
and caret powers on adjoined variables are rejected with the offending
position.
"""

from __future__ import annotations

import re

from .algebra import AlgElem, Signature, _add_into
from .errors import ExprSyntaxError


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


# Integers, names and operators; any other character that is not white
# space falls to the last group and is refused.  ``\d``, ``\w`` and ``\s``
# are ``isdecimal()``, ``isalnum()`` or ``_``, and ``isspace()``.  A name
# must start with ``isalpha()`` or ``_``, which ``\w`` outside ``\d`` is
# not: it also holds numeric characters such as ``'²'``, checked after.
_TOKENS = re.compile(r"(\d+)|(\w+)|[-+*/^()]|(\S)")
_KINDS = (None, "int", "name")  # by group; an operator is its own kind


def _tokenize(source: str):
    tokens = []
    for match in _TOKENS.finditer(source):
        text, group = match.group(), match.lastindex
        if group == 3 or (group == 2 and not (text[0].isalpha() or text[0] == "_")):
            raise ExprSyntaxError(f"unexpected character {text[0]!r}", match.start())
        tokens.append(_Token(_KINDS[group] if group else text, text, match.start()))
    tokens.append(_Token("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.text = text
        self.sig = sig
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self, kind=None) -> _Token:
        tok = self.tokens[self.i]
        if kind is not None and tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind} but found {tok.text or 'end of input'!r}", tok.pos
            )
        self.i += 1
        return tok

    def parse(self) -> AlgElem:
        result = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.pos)
        return result

    def expr(self) -> AlgElem:
        """The sum of the terms, added in place into one term map, so that a
        long sum costs time linear in its length."""
        field = self.sig.field
        total: dict = {}
        neg = self.peek().kind in ("+", "-") and self.take().kind == "-"
        _add_into(field, total, self.term().terms, neg)
        while self.peek().kind in ("+", "-"):
            neg = self.take().kind == "-"
            _add_into(field, total, self.term().terms, neg)
        return AlgElem(self.sig, total)

    def term(self) -> AlgElem:
        sig = self.sig
        tok = self.peek()
        if tok.kind == "int":
            num = int(self.take().text)
            den = 1
            if self.peek().kind == "/":
                self.take()
                dtok = self.take("int")
                den = int(dtok.text)
                if sig.field.of_int(den) == sig.field.zero:
                    raise ExprSyntaxError("zero denominator", dtok.pos)
            result = sig.scalar(sig.field.of_fraction(num, den))
        else:
            result = self.factor()
        while self.peek().kind == "*":
            self.take()
            result = result * self.factor()
        return result

    def factor(self) -> AlgElem:
        sig = self.sig
        tok = self.take()
        if tok.kind != "name":
            raise ExprSyntaxError(
                f"expected a generator name, found {tok.text or 'end of input'!r}",
                tok.pos,
            )
        name = tok.text
        is_poly = name in sig._poly_index
        is_var = name in sig._var_index
        if not is_poly and not is_var:
            raise ExprSyntaxError(f"unknown generator {name!r}", tok.pos)
        if self.peek().kind != "^":
            return sig.gen(name)
        caret = self.take()
        if self.peek().kind == "(":
            self.take()
            etok = self.take("int")
            self.take(")")
            if not is_var or sig.var(name).odd:
                raise ExprSyntaxError(
                    f"divided-power notation requires an even variable, not {name!r}",
                    caret.pos,
                )
            return sig.gen_power(name, int(etok.text))
        etok = self.take("int")
        if not is_poly:
            raise ExprSyntaxError(
                f"caret powers apply to polynomial generators only, not {name!r}",
                caret.pos,
            )
        return sig.gen_power(name, int(etok.text))


def parse_expr(text: str, sig: Signature) -> AlgElem:
    return _Parser(text, sig).parse()
