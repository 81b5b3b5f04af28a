import time
from fractions import Fraction

import pytest

from dgalift.errors import SchemaError
from dgalift.field import QQ, PrimeField, field_from_doc, field_from_spec


def test_rational_ops():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.mul(Fraction(2, 3), Fraction(3, 2)) == 1
    assert QQ.inv(Fraction(-4)) == Fraction(-1, 4)
    assert QQ.of_fraction(6, 4) == Fraction(3, 2)
    assert QQ.fmt(Fraction(-1, 2)) == "-1/2"


def test_prime_field_ops():
    f5 = PrimeField(5)
    assert f5.add(3, 4) == 2
    assert f5.neg(2) == 3
    assert f5.mul(3, 4) == 2
    assert f5.inv(2) == 3
    assert f5.of_fraction(1, 2) == 3
    assert f5.of_int(-1) == 4


def test_prime_validation():
    # 561 is a Carmichael number; 318665857834031151167461 = 399165290221 *
    # 798330580441 passes Miller-Rabin to every prime base up to 37.
    for p in (6, 1, 561, 318665857834031151167461, 3317044064679887385961981):
        with pytest.raises(SchemaError):
            PrimeField(p)
    for p in (2, 3, 5):
        assert PrimeField(p).p == p
    start = time.perf_counter()
    assert PrimeField(10**18 + 3).p == 10**18 + 3
    assert time.perf_counter() - start < 1.0


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)


def test_field_docs_roundtrip():
    assert field_from_doc({"type": "Q"}) == QQ
    assert field_from_doc({"type": "Fp", "p": 5}) == PrimeField(5)
    assert field_from_spec("q") == QQ
    assert field_from_spec("fp:11") == PrimeField(11)
    with pytest.raises(SchemaError):
        field_from_spec("float")
    assert PrimeField(5) != PrimeField(7)
