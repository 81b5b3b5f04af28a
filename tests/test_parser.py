import copy
import json
import random
import re
import time

import pytest

from dgalift import QQ, Signature, format_expr, parse_expr
from dgalift.errors import ExprSyntaxError
from dgalift.parser import _tokenize

from oracles import tokenize_reference
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
    """40 000 distinct terms ``i*a^i`` parse in 0.8 s on a shared 2-vCPU
    Xeon VM; a running sum rebuilt per term, which copies the sum for each
    term, took 17 s there."""
    sig = Signature(QQ, ["a"]).adjoin("X", 1, "a")
    n = 40_000
    text = " + ".join(f"{i}*a^{i}" for i in range(1, n + 1))
    start = time.perf_counter()
    e = parse_expr(text, sig)
    elapsed = time.perf_counter() - start
    assert len(e.terms) == n
    assert e.terms[((n,), (0,))] == n
    assert elapsed < 5.0, f"a {n}-term sum took {elapsed:.1f}s"


def _outcome(tokenize, source):
    try:
        return [(t.kind, t.text, t.pos) for t in tokenize(source)]
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
            assert _outcome(_tokenize, text) == _outcome(tokenize_reference, text)
    assert _outcome(_tokenize, " ".join("a" + c for c in numeric)) == _outcome(
        tokenize_reference, " ".join("a" + c for c in numeric)
    )
    for c in numeric + refused:
        for text in (c, "a + " + c, "7" + c, "X^(" + c):
            assert _outcome(_tokenize, text) == _outcome(tokenize_reference, text)

    base_sig = json.loads((DATA / "s3.json").read_text())
    base_mod = json.loads((DATA / "n3.json").read_text())
    rng = random.Random(2020)
    texts = BAD_EXPRS + [n for n in BAD_NAMES if isinstance(n, str)]
    for _ in range(CASES):
        sig, mod = copy.deepcopy(base_sig), copy.deepcopy(base_mod)
        _mutate(sig, mod, rng)
        for doc in (sig, mod):
            texts += _strings(doc)
    assert len(texts) > 1000
    for text in texts:
        assert _outcome(_tokenize, text) == _outcome(tokenize_reference, text), text


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
