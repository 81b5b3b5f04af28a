import copy
import json
import random
import re
import sys
import time

import pytest

from dgalift import QQ, Signature, format_expr, parse_expr
from dgalift.errors import DgaliftError, ExprSyntaxError
from dgalift.field import PrimeField
from dgalift.parser import _positions, _tokenize

from oracles import parse_reference, tokenize_reference
from test_cli_fuzz import BAD_EXPRS, BAD_NAMES, CASES, DATA, _mutate


def test_basic_terms(S1):
    e = parse_expr("X^(2)*a - 3*W1*W2", S1)
    assert len(e.terms) == 2
    assert format_expr(parse_expr("2*a*b^2", S1)) == "2*a*b^2"


def test_paper_element(S2):
    # d(Y) is an element of the stage Y was adjoined over
    dy = S2.var("Y").diff
    assert dy == parse_expr("c*X1 - b*X2", dy.sig)
    assert dy.sig.variables == S2.variables[:2]


def test_odd_square_collapses(S1):
    assert parse_expr("W1*W1", S1).is_zero()


def test_scalars_and_fractions(S1):
    assert parse_expr("0", S1).is_zero()
    assert parse_expr("3", S1) == S1.scalar(S1.field.of_int(3))
    assert parse_expr("1/2*a + 1/2*a", S1) == parse_expr("a", S1)
    assert parse_expr("- a + a", S1).is_zero()


def test_divided_power_notation(S1):
    assert parse_expr("X", S1) == parse_expr("X^(1)", S1)
    assert parse_expr("X^(0)", S1) == S1.one()
    assert parse_expr("X^(2)*X^(3)", S1) == parse_expr("10*X^(5)", S1)


def test_error_positions(S1):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("a + ", S1)
    assert exc.value.position == 4
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("a * q", S1)
    assert exc.value.position == 4
    with pytest.raises(ExprSyntaxError):
        parse_expr("a ** b", S1)


def test_notation_restrictions(S1):
    # divided powers need an even variable
    with pytest.raises(ExprSyntaxError):
        parse_expr("W1^(2)", S1)
    with pytest.raises(ExprSyntaxError):
        parse_expr("a^(2)", S1)
    # caret powers are for polygens
    with pytest.raises(ExprSyntaxError):
        parse_expr("X^2", S1)
    with pytest.raises(ExprSyntaxError):
        parse_expr("W1^2", S1)
    with pytest.raises(ExprSyntaxError):
        parse_expr("1/0", S1)


@pytest.mark.parametrize(
    "text",
    [
        "X^(2)*a - 3*W1*W2",
        "1/2*X + b*W1",
        "a^3*b - 2*b^2",
        "-W1*W2 + X",
        "5",
        "0",
    ],
)
def test_format_reparses(S1, text):
    e = parse_expr(text, S1)
    assert parse_expr(format_expr(e), S1) == e


@pytest.mark.parametrize(
    "text, position",
    [("a^²", 2), ("a^①", 2), ("²*a", 0), ("2²", 1)],
    ids=["superscript-exponent", "circled-exponent", "superscript-scalar", "after-a-digit"],
)
def test_only_decimal_digits_are_integers(S1, text, position):
    # superscript and circled digits pass str.isdigit but not str.isdecimal,
    # and int() rejects them; an Arabic-Indic digit is decimal and reads as 3
    assert parse_expr("a^٣", S1) == parse_expr("a^3", S1)
    with pytest.raises(ExprSyntaxError, match="unexpected character") as exc:
        parse_expr(text, S1)
    assert exc.value.position == position


@pytest.mark.parametrize(
    "first, rest",
    [
        ("a", [("+", "b"), ("-", "a"), ("+", "X"), ("+", "a")]),
        ("-2*W1*W2", [("+", "W1*W2"), ("+", "W1*W2"), ("-", "b^2*X")]),
        ("+1/2*X^(2)", [("-", "1/2*X^(2)"), ("+", "3"), ("-", "X*a")]),
        ("-a^3*b", []),
        ("0", [("-", "0"), ("+", "b")]),
    ],
)
def test_sum_equals_term_by_term_sum(S1, first, rest):
    """A sum parsed in one pass is the term-by-term running sum of its
    parsed terms, with the same terms in the same order: a term that cancels
    and comes back moves to the end."""
    sign = ""
    if first[0] in "+-":
        sign, first = first[0], first[1:]
    want = parse_expr(first, S1)
    if sign == "-":
        want = -want
    for op, t in rest:
        want = want + parse_expr(t, S1) if op == "+" else want - parse_expr(t, S1)
    text = sign + first + "".join(f" {op} {t}" for op, t in rest)
    got = parse_expr(text, S1)
    assert got == want
    assert list(got.terms.items()) == list(want.terms.items())


def test_long_sum_parses_in_linear_time():
    """40 000 distinct terms ``i*a^i`` parse in 0.16 s on a shared 2-vCPU
    Xeon VM (0.8 s by the recursive-descent parser); a running sum rebuilt
    per term, which copies the sum for each term, took 17 s there."""
    sig = Signature(QQ, ["a"]).adjoin("X", 1, "a")
    n = 40_000
    text = " + ".join(f"{i}*a^{i}" for i in range(1, n + 1))
    start = time.perf_counter()
    e = parse_expr(text, sig)
    elapsed = time.perf_counter() - start
    assert len(e.terms) == n
    assert e.terms[((n,), (0,))] == n
    assert elapsed < 5.0, f"a {n}-term sum took {elapsed:.1f}s"


def _kind(text):
    """A token's kind, which `_tokenize` leaves to its text."""
    if text.isdecimal():
        return "int"
    if text[:1].isalpha() or text[:1] == "_":
        return "name"
    return text or "end"


def _tokens(source):
    """`_tokenize`'s tokens as ``(kind, text, pos)``, as `tokenize_reference`
    gives them."""
    texts, positions = _tokenize(source), _positions(source)
    assert len(texts) == len(positions)
    return list(zip(map(_kind, texts), texts, positions))


def _outcome(tokenize, source):
    try:
        return tokenize(source)
    except ExprSyntaxError as ex:
        return str(ex), ex.position


_OPS = "+-*/^()"
_ALL = "".join(map(chr, range(0x110000)))  # every code point, 4.4 MB


def test_scanner_classes_are_the_str_predicates():
    r"""On every code point, the scanner's classes ``\s``, ``\d`` and ``\w`` match
    where `tokenize_reference` tests ``isspace()``, ``isdecimal()`` and
    ``isalnum()`` or ``_``.  ``\w`` outside ``\d`` is wider than
    ``isalpha()`` or ``_`` (``'²'``), so the scanner's name branch is
    narrowed after the match."""
    for pattern, holds in (
        (r"\s", str.isspace),
        (r"\d", str.isdecimal),
        (r"\w", lambda c: c.isalnum() or c == "_"),
    ):
        assert re.findall(pattern, _ALL) == [c for c in _ALL if holds(c)], pattern


def test_tokenizer_matches_the_character_loop():
    """Both tokenizers give the same tokens, or the same error at the same
    position: on every code point that starts no error, joined by blanks,
    after a name and after an integer; on every numeric code point that is
    no decimal (each starts an error: ``'²'``) and on each refused code
    point whose number is a multiple of 997, alone and in context; and on
    every string of the seeded hostile documents of `test_cli_fuzz`."""
    kept, numeric, refused = [], [], []
    for cp, c in enumerate(_ALL):
        if c.isspace() or c.isdecimal() or c.isalpha() or c == "_" or c in _OPS:
            kept.append(c)
        elif c.isalnum():
            numeric.append(c)
        elif cp % 997 == 0:
            refused.append(c)
    assert len(numeric) > 1000
    for chunk in range(0, len(kept), 4096):
        part = kept[chunk : chunk + 4096]
        for text in (" ".join(part), " ".join("a" + c for c in part), " ".join("7" + c for c in part)):
            assert _outcome(_tokens, text) == _outcome(tokenize_reference, text)
    assert _outcome(_tokens, " ".join("a" + c for c in numeric)) == _outcome(
        tokenize_reference, " ".join("a" + c for c in numeric)
    )
    for c in numeric + refused:
        for text in (c, "a + " + c, "7" + c, "X^(" + c):
            assert _outcome(_tokens, text) == _outcome(tokenize_reference, text)

    texts = _fuzz_texts()
    assert len(texts) > 1000
    for text in texts:
        assert _outcome(_tokens, text) == _outcome(tokenize_reference, text), text


def _fuzz_texts():
    """Every string of the seeded hostile documents of `test_cli_fuzz`."""
    base_sig = json.loads((DATA / "s3.json").read_text())
    base_mod = json.loads((DATA / "n3.json").read_text())
    rng = random.Random(2020)
    texts = BAD_EXPRS + [n for n in BAD_NAMES if isinstance(n, str)]
    for _ in range(CASES):
        sig, mod = copy.deepcopy(base_sig), copy.deepcopy(base_mod)
        _mutate(sig, mod, rng)
        for doc in (sig, mod):
            texts += _strings(doc)
    return texts


def test_tokenizer_matches_on_every_ascii_character():
    """The same on each ASCII character, alone and in context: the refused
    ones are the only ASCII characters that `_REFUSED` scans for, and a
    text with none of them skips that scan."""
    for c in map(chr, range(128)):
        for text in (c, "a + " + c, "7" + c, "X^(" + c, c + "a*b"):
            assert _outcome(_tokens, text) == _outcome(tokenize_reference, text), text


def _strings(doc):
    """Every string key and value of a JSON document."""
    if isinstance(doc, str):
        yield doc
    elif isinstance(doc, dict):
        for key, value in doc.items():
            yield key
            yield from _strings(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _strings(value)


def _parsed(parse, text, sig):
    """The terms of ``parse(text, sig)`` in order, or the error it raises
    (a ValueError for a binomial too large to work out over Q)."""
    try:
        return list(parse(text, sig).terms.items())
    except (DgaliftError, ValueError) as ex:
        return type(ex).__name__, str(ex), getattr(ex, "position", None)


def _signatures(field):
    """Two odd variables under an even one over two polygens, and one odd
    variable over one polygen (the README example's signature)."""
    even = (
        Signature(field, ["a", "b"])
        .adjoin("W1", 1, "a")
        .adjoin("W2", 1, "b")
        .adjoin("X", 2, "b*W1 - a*W2")
    )
    return even, Signature(field, ["a"]).adjoin("X", 1, "a")


# Pieces of expressions: the well-formed factors of each signature of
# `_signatures`, factors the grammar refuses, integers (one a multiple of 5,
# one an Arabic-Indic digit) and stray tokens.
_FACTORS = (
    ["a", "b", "W1", "W2", "X", "a^2", "b^0", "a^11", "X^(2)", "X^(0)", "X^(3)"],
    ["a", "X", "a^2", "a^0", "a^11"],
)
_BAD_FACTORS = ["q", "_z", "é", "a²", "X^2", "W2^3", "a^(2)", "W1^(2)", "X^(", "X^(2", "a^", "a^b", "(a)"]
_INTEGERS = ["0", "1", "2", "3", "5", "10", "٣", "123456789012345678901234567890"]
_STRAY = ["+", "-", "*", "/", "^", "(", ")", "²", "①", "€", "1/0", "2/5", "", " "]


def _random_text(rng, factors):
    """A sum of random terms over `factors`, often well-formed; a piece is
    left out or a bad one put in now and then."""
    terms = []
    for _ in range(rng.randint(1, 5)):
        parts = []
        if rng.random() < 0.5:
            coefficient = rng.choice(_INTEGERS)
            if rng.random() < 0.4:
                coefficient += "/" + rng.choice(_INTEGERS)
            parts.append(coefficient)
        parts += [rng.choice(factors) for _ in range(rng.randint(0 if parts else 1, 4))]
        r = rng.random()
        if r < 0.04:
            parts.insert(rng.randrange(len(parts) + 1), rng.choice(_BAD_FACTORS))
        elif r < 0.07:
            parts.insert(rng.randrange(len(parts) + 1), rng.choice(_STRAY))
        elif r < 0.1 and parts:
            del parts[rng.randrange(len(parts))]
        terms.append(rng.choice(["*", " * ", "*"]).join(parts))
    signs = [rng.choice([" + ", " - ", "+", "-"]) for _ in terms]
    lead = rng.choice(["", "", "-", "+"])
    return lead + "".join(t if k == 0 else signs[k] + t for k, t in enumerate(terms))


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_parser_matches_the_recursive_descent_reference(field):
    """`parse_expr` gives the element of `parse_reference`, with the same
    terms in the same order, or the same error at the same position: on
    seeded random sums, well-formed and not, over a signature with odd and
    even variables and one with an odd variable only; on crafted texts
    (zero coefficients and denominators, cancelling terms, binomials too
    large to work out over Q behind a zero factor); and on every string of
    the seeded hostile documents of `test_cli_fuzz`."""
    rng = random.Random(f"parser-{field!r}")
    sigs = _signatures(field)
    crafted = [
        "0*X^(1000000)*X^(1000000)",
        "W1*W1*X^(1000000)*X^(1000000)",
        "X^(1000000)*X^(1000000)*q",
        "5*a - 1/5*a",
        "2/10*X + 1/2*X - a^11*X^(2)*W1 + a^11*W1*X^(2)",
        "X*X*X - 6*X^(3) + a*W1*W2 - W2*a*W1",
        "a + b - a + a",
        "3/4",
        "1/0",
        "a*0",
        "-0",
        "a b",
        "2 3",
        "a)",
        "X^(2))",
        "1/2/3",
    ]
    fuzzed = crafted + _fuzz_texts()
    outcomes = []
    for sig, factors in zip(sigs, _FACTORS):
        for text in [_random_text(rng, factors) for _ in range(3000)] + fuzzed:
            got = _parsed(parse_expr, text, sig)
            assert got == _parsed(parse_reference, text, sig), text
            outcomes.append(isinstance(got, list))
    assert outcomes.count(True) > 1000 and outcomes.count(False) > 1000


_INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_LONG = "9" * max(5000, _INT_LIMIT + 1)


@pytest.mark.skipif(not _INT_LIMIT, reason="int() reads integers of any length here")
@pytest.mark.parametrize(
    "text, position",
    [
        (_LONG + "*a", 0),
        ("a^" + _LONG, 2),
        ("a + 1/" + _LONG, 6),
        ("X^(" + _LONG + ")", 3),
    ],
    ids=["coefficient", "caret-power", "denominator", "divided-power"],
)
def test_an_oversized_literal_is_refused_at_its_position(S1, text, position):
    """A literal longer than ``int`` reads is a syntax error at its
    position, not a bare ValueError."""
    with pytest.raises(ExprSyntaxError, match=f"integer literal of {len(_LONG)} digits") as exc:
        parse_expr(text, S1)
    assert exc.value.position == position


def test_long_product_parses_in_linear_time():
    """A product of 40 000 factors, ``a*a*...*a``, is one term ``a^40000``
    and takes time linear in its length; it parses in about 0.1 s on a
    shared 2-vCPU Xeon VM."""
    sig = Signature(QQ, ["a"]).adjoin("X", 1, "a")
    n = 40_000
    text = "*".join(["a"] * n)
    start = time.perf_counter()
    e = parse_expr(text, sig)
    elapsed = time.perf_counter() - start
    assert e.terms == {((n,), (0,)): 1}
    assert elapsed < 5.0, f"a {n}-factor product took {elapsed:.1f}s"
