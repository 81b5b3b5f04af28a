"""Parser for algebra element expressions.

Grammar (whitespace insignificant):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := integer ['/' integer] ('*' factor)*
            | factor ('*' factor)*
    factor := name                 -- any generator
            | name '^(' nat ')'    -- divided power, even variables only
            | name '^' nat         -- polygen power

A bare integer term is a scalar.  ``X`` for an even variable means
``X^(1)``.  Unknown names, divided powers on odd variables or polygens,
caret powers on adjoined variables and integer literals too long for
``int`` are rejected with the offending position.

The text is read in one pass: a regular-expression scan refuses a bad
character, another splits the text into token strings, and one loop walks
them by index and adds each term into one term map, so that a long sum
costs time linear in its length and a term that cancels and comes back
moves to the end.  A token's kind is its text: an operator is itself, a
run of decimal digits an integer, ``""`` the end, anything else a name.
Positions are worked out again only for an error message.

Each generator's term map is kept in ``sig._gens``, a memo that only
gains entries, like ``_bands``; it holds no element, so that no signature
refers to itself through it.  A factor wraps that map only as an operand,
and the result is always a fresh term map.  The factors of a term are
multiplied by ``AlgElem.__mul__``, the graded product, which owns the
Koszul signs and the divided-power binomials.  They are multiplied in the
order read, so that a product too large to work out is refused at the
same factor as by a left-to-right evaluation.  The integer coefficient
scales the product last, by the constant-factor path of `_mul_into`,
which adds it into the sum.
"""

from __future__ import annotations

import re

from .algebra import AlgElem, Signature, _mul_into
from .errors import ExprSyntaxError

# Integers, names, operators and any other character that is not white
# space.  ``\d``, ``\w`` and ``\s`` are ``isdecimal()``, ``isalnum()`` or
# ``_``, and ``isspace()``.
_TOKENS = re.compile(r"\d+|\w+|[-+*/^()]|\S")
# What the scan above would take for a token but the grammar refuses: a
# character that starts no token, or the first character of a name (a
# ``\w`` run, after any leading digits) that is no ASCII letter, digit or
# ``_``.  A name must start with ``isalpha()`` or ``_``, which that
# character must then pass: ``\w`` outside ``\d`` also holds numeric
# characters such as ``'²'``.
_REFUSED = re.compile(r"[^\w\s+\-*/^()]|(?<!\w)\d*([^\W\d_a-zA-Z])")
# Every character that `_REFUSED` looks for is outside this set, so a text
# without one (most are) needs no scan by it.
_UNUSUAL = re.compile(r"[^0-9A-Za-z_\s+\-*/^()]")


def _tokenize(source: str) -> list:
    """The token texts of `source`, closed by ``""`` for the end."""
    if _UNUSUAL.search(source):
        for match in _REFUSED.finditer(source):
            c = match.group(1)
            if c is None or not c.isalpha():
                at = match.start() if c is None else match.start(1)
                raise ExprSyntaxError(f"unexpected character {source[at]!r}", at)
    tokens = _TOKENS.findall(source)
    tokens.append("")
    return tokens


def _positions(source: str) -> list:
    """The offset of each token of `source`, and of its end."""
    return [m.start() for m in _TOKENS.finditer(source)] + [len(source)]


def _error(message: str, source: str, i: int) -> ExprSyntaxError:
    return ExprSyntaxError(message, _positions(source)[i])


def _expect(source: str, tokens: list, i: int, kind: str) -> None:
    tok = tokens[i]
    if not (tok.isdecimal() if kind == "int" else tok == kind):
        raise _error(f"expected {kind} but found {tok or 'end of input'!r}", source, i)


def _int(source: str, tokens: list, i: int) -> int:
    """The integer token ``tokens[i]``; one longer than ``int`` reads
    (``sys.get_int_max_str_digits()``) is refused at its position."""
    try:
        return int(tokens[i])
    except ValueError:
        message = f"integer literal of {len(tokens[i])} digits is too long"
        raise _error(message, source, i) from None


def _generator(sig: Signature, source: str, tokens: list, i: int) -> dict:
    """The term map of the generator named by ``tokens[i]``, kept in
    ``sig._gens``."""
    name = tokens[i]
    if name not in sig._poly_index and name not in sig._var_index:
        if name[:1].isalpha() or name[:1] == "_":
            raise _error(f"unknown generator {name!r}", source, i)
        raise _error(f"expected a generator name, found {name or 'end of input'!r}", source, i)
    terms = sig._gens[name] = sig.gen(name).terms
    return terms


def _power(sig: Signature, source: str, tokens: list, i: int) -> tuple:
    """The power ``name^(e)`` or ``name^e`` whose name is ``tokens[i]`` and
    caret ``tokens[i + 1]``, and the index after it."""
    name = tokens[i]
    if tokens[i + 2] == "(":
        _expect(source, tokens, i + 3, "int")
        _expect(source, tokens, i + 4, ")")
        if name not in sig._var_index or sig.var(name).odd:
            raise _error(
                f"divided-power notation requires an even variable, not {name!r}", source, i + 1
            )
        return sig.gen_power(name, _int(source, tokens, i + 3)), i + 5
    _expect(source, tokens, i + 2, "int")
    if name not in sig._poly_index:
        raise _error(
            f"caret powers apply to polynomial generators only, not {name!r}", source, i + 1
        )
    return sig.gen_power(name, _int(source, tokens, i + 2)), i + 3


def parse_expr(text: str, sig: Signature) -> AlgElem:
    tokens = _tokenize(text)
    field, gens, unit = sig.field, sig._gens, sig._unit
    zero, one = field.zero, field.one
    total: dict = {}
    tok = tokens[0]
    negate = tok == "-"
    i = 1 if negate or tok == "+" else 0
    while True:
        if tokens[i].isdecimal():
            c = _int(text, tokens, i)
            i += 1
            if tokens[i] == "/":
                _expect(text, tokens, i + 1, "int")
                den = _int(text, tokens, i + 1)
                if field.of_int(den) == zero:
                    raise _error("zero denominator", text, i + 1)
                c = field.of_fraction(c, den) if den != 1 else field.of_int(c)
                i += 2
            else:
                c = field.of_int(c)
            # a zero coefficient makes every product after it zero
            product = None if c != zero else sig.zero()
            more = tokens[i] == "*"
            if more:
                i += 1
        else:
            c, product, more = one, None, True
        while more:
            terms = gens.get(tokens[i])
            if terms is None:
                terms = _generator(sig, text, tokens, i)
            if tokens[i + 1] == "^":
                f, i = _power(sig, text, tokens, i)
            else:
                f = AlgElem(sig, terms)
                i += 1
            product = f if product is None else product * f
            more = tokens[i] == "*"
            if more:
                i += 1
        terms = product.terms if product is not None else {unit: one}
        # the constant factor c*1 scales the product term by term into the sum
        _mul_into(sig, total, {unit: c}, terms, negate)
        tok = tokens[i]
        if tok == "+" or tok == "-":
            negate = tok == "-"
            i += 1
        elif tok:
            raise _error(f"unexpected {tok!r}", text, i)
        else:
            return AlgElem(sig, total)
