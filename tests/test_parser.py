import pytest

from dgalift import format_expr, parse_expr
from dgalift.errors import ExprSyntaxError


def test_basic_terms(S1):
    e = parse_expr("X^(2)*a - 3*W1*W2", S1)
    assert len(e.terms) == 2
    assert format_expr(parse_expr("2*a*b^2", S1)) == "2*a*b^2"


def test_paper_element(S2):
    dy = parse_expr("c*X1 - b*X2", S2)
    assert dy == S2.var("Y").diff


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
