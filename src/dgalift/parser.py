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

from .algebra import AlgElem, Signature
from .errors import ExprSyntaxError


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(source: str):
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            tokens.append(_Token("int", source[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("name", source[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
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
        sign = 1
        if self.peek().kind in ("+", "-"):
            sign = -1 if self.take().kind == "-" else 1
        total = self.term().scale(sign)
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            t = self.term()
            total = total + (t.scale(-1) if op == "-" else t)
        return total

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
