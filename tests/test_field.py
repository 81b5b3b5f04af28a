import random
import re
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import dgalift
from dgalift import field as field_module
from dgalift.errors import SchemaError
from dgalift.field import QQ, PrimeField, RationalField, field_from_doc, field_from_spec
from dgalift.io import matrix_to_doc
from dgalift.lift import construct_lift_even, construct_lift_odd, decide_naive_lift
from dgalift.module import Differential, FreeModule, GradedMap, invert_unit
from dgalift.randgen import FixturePool


class FractionQ(RationalField):
    """The all-`Fraction` rational field that `RationalField` replaced.

    Same `key()`, so it is the same field; only the representation of an
    integral scalar differs.
    """

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / x

    def of_int(self, n: int):
        return Fraction(n)

    def of_fraction(self, num: int, den: int):
        return Fraction(num, den)


def _canonical(x) -> bool:
    """An `int`, or a `Fraction` that is not integral; never a float."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def test_rational_ops():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.mul(Fraction(2, 3), Fraction(3, 2)) == 1
    assert QQ.inv(Fraction(-4)) == Fraction(-1, 4)
    assert QQ.of_fraction(6, 4) == Fraction(3, 2)
    assert QQ.fmt(Fraction(-1, 2)) == "-1/2"


def _rational_samples(rng, count):
    values = [0, 1, -1, 2, -4, 10**20 + 1]
    values += [QQ.of_fraction(1, 2), QQ.of_fraction(-3, 2), QQ.of_fraction(7, 3 * 10**20)]
    while len(values) < count:
        if rng.random() < 0.5:
            values.append(QQ.of_int(rng.randint(-30, 30)))
        else:
            values.append(QQ.of_fraction(rng.randint(-30, 30), rng.choice([2, 3, 4, 6, -9, 12])))
    return values


def test_rational_ops_match_fraction_arithmetic():
    """Every `RationalField` operation equals plain `Fraction` arithmetic and
    returns a canonical scalar: an `int` when integral, else a `Fraction`."""
    rng = random.Random(6)
    values = _rational_samples(rng, 40)
    assert any(type(x) is int for x in values) and any(type(x) is Fraction for x in values)
    assert _canonical(QQ.zero) and _canonical(QQ.one)
    for x in values:
        assert _canonical(x)
        fx = Fraction(x)
        assert QQ.neg(x) == -fx and _canonical(QQ.neg(x))
        assert QQ.fmt(x) == str(fx)
        if x != 0:
            assert QQ.inv(x) == 1 / fx and _canonical(QQ.inv(x))
        for y in values:
            fy = Fraction(y)
            for got, want in (
                (QQ.add(x, y), fx + fy),
                (QQ.sub(x, y), fx - fy),
                (QQ.mul(x, y), fx * fy),
            ):
                assert got == want and _canonical(got), (x, y, got, want)
            if y != 0:
                q = QQ.mul(x, QQ.inv(y))
                assert q == fx / fy and _canonical(q)
    for _ in range(200):
        n, m = rng.randint(-40, 40), rng.choice([1, -1, 2, 3, -4, 5, 6, 10])
        assert QQ.of_fraction(n, m) == Fraction(n, m) and _canonical(QQ.of_fraction(n, m))
        assert QQ.of_int(n) == n and type(QQ.of_int(n)) is int


def test_rational_results_that_become_integral():
    half, third = QQ.of_fraction(1, 2), QQ.of_fraction(1, 3)
    cases = [
        (QQ.add(half, half), 1),
        (QQ.sub(QQ.of_fraction(3, 2), half), 1),
        (QQ.mul(QQ.of_fraction(2, 3), QQ.of_fraction(3, 2)), 1),
        (QQ.mul(third, 6), 2),
        (QQ.of_fraction(6, 3), 2),
        (QQ.of_fraction(6, -3), -2),
        (QQ.inv(third), 3),
        (QQ.mul(half, QQ.inv(half)), 1),
        (QQ.inv(1), 1),
        (QQ.inv(-1), -1),
    ]
    for got, want in cases:
        assert type(got) is int and got == want
    assert QQ.inv(-4) == Fraction(-1, 4) and type(QQ.inv(-4)) is Fraction


def test_int_and_integral_fraction_agree():
    """`str`, `==` and `hash` agree between an `int` and the `Fraction` of
    equal value, so transcripts and dict keys do not see the change."""
    for n in list(range(-50, 51)) + [10**30, -(10**30) - 7]:
        q = Fraction(n)
        assert str(n) == str(q) and QQ.fmt(n) == QQ.fmt(q)
        assert n == q and hash(n) == hash(q)
        assert {n: 1} == {q: 1}


def test_prime_field_sub_matches_add_neg():
    for p in (2, 3, 5, 7, 2**31 - 1):
        f = PrimeField(p)
        rng = random.Random(p)
        for _ in range(200):
            x, y = f.of_int(rng.randint(-p, 2 * p)), f.of_int(rng.randint(-p, 2 * p))
            assert f.sub(x, y) == f.add(x, f.neg(y))
            assert 0 <= f.sub(x, y) < p


def test_prime_field_ops():
    f5 = PrimeField(5)
    assert f5.add(3, 4) == 2
    assert f5.neg(2) == 3
    assert f5.mul(3, 4) == 2
    assert f5.inv(2) == 3
    assert f5.of_fraction(1, 2) == 3
    assert f5.of_int(-1) == 4


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)], ids=repr
)
def test_binomial_matches_comb(field):
    """`Field.binomial` equals ``comb(n, k)`` taken into the field for every
    ``0 <= k <= n < 200``: over a prime field by Lucas' theorem, whose digit
    loop runs from ``n = p`` on."""
    for n in range(200):
        for k in range(n + 1):
            assert field.binomial(n, k) == field.of_int(comb(n, k))


def test_large_prime_binomial_matches_comb(monkeypatch):
    """Over ``p = 10^18 + 3`` the product formula of each Lucas digit equals
    ``comb(n, k) % p``, for ``n < p`` and for two-digit ``n`` and ``k``; a
    digit of ``k`` above that of ``n`` gives 0 uncomputed; more than the
    step limit is refused, at the limit exactly."""
    p = 10**18 + 3
    fp = PrimeField(p)
    rng = random.Random(5)
    cases = [(n, k) for n in (0, 1, 2, 7, 150, 3001) for k in (0, 1, n // 3, n // 2, n - 1, n) if 0 <= k <= n]
    cases += [(rng.randrange(10**18), rng.randrange(30)) for _ in range(20)]
    cases += [(p + 7, 3), (p + 7, p + 2), (3 * p + 40, 12), (2 * p + 5, 2 * p + 1)]
    for n, k in cases:
        assert fp.binomial(n, k) == comb(n, k) % p, (n, k)
    # the digits are (10^11, 2 10^11) and (1, 0): Lucas gives 0
    assert fp.binomial(p + 10**11, 2 * 10**11) == 0
    start = time.perf_counter()
    with pytest.raises(ValueError, match="divided-power coefficient"):
        fp.binomial(2 * 99999999999, 99999999999)
    assert time.perf_counter() - start < 0.1
    monkeypatch.setattr(field_module, "_BINOMIAL_STEPS", 10)
    assert fp.binomial(20, 10) == comb(20, 10) and fp.binomial(p + 20, p + 10) == comb(20, 10)
    for n, k in ((22, 11), (p + 22, p + 11)):
        with pytest.raises(ValueError, match="needs more than 10 steps"):
            fp.binomial(n, k)


def test_q_binomial_refuses_only_unprintable_coefficients():
    """Over Q a binomial is refused only when it has more digits than Python
    prints: around the 4300-digit default limit, and for a 401-digit ``n``."""
    limit = sys.get_int_max_str_digits()
    for n in range(14270, 14340, 3):
        for k in (1, 2500, n // 3, n // 2):
            try:
                QQ.binomial(n, k)
            except ValueError:
                assert comb(n, k) >= 10**limit, (n, k)
    assert QQ.binomial(10**400 + 1, 1) == 10**400 + 1
    assert QQ.binomial(10**400, 0) == 1
    for n, k in ((2 * 10**6, 10**6), (10**400, 20000), (10**400, 10**200)):
        with pytest.raises(ValueError, match="divided-power coefficient"):
            QQ.binomial(n, k)


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
        QQ.inv(0)
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


def _half_module(pool):
    """The README module N3 with ``1/2`` coefficients, conjugated by a unit
    with non-integral entries."""
    sig = pool.S3
    mod = FreeModule(sig, [("f0", 0), ("f1", 1), ("f2", 2)])
    d = Differential(
        GradedMap(
            mod,
            -1,
            {
                (0, 1): sig.parse("1/2*a"),
                (1, 2): sig.parse("a"),
                (0, 2): sig.parse("-1/2*a*X"),
            },
        )
    )
    u = GradedMap.identity(mod) + GradedMap(mod, 0, {(0, 1): sig.parse("1/3*X")})
    return [(mod, d, "X"), (mod, d.conjugate(u), "X")]


def _pipeline_transcripts(field):
    """Verdict, certificate, basis change and lifted matrix (as text) of
    every lift the pipeline decides on the fixture instances over `field`."""
    pool = FixturePool(field)
    rng = random.Random(1997)
    instances = [(pool.N3, pool.d3, "X")]
    instances += [pool.square_zero_instance(rng) for _ in range(40)]
    instances += _half_module(pool)
    out = []
    scalars = []
    for mod, d, var in instances:
        assert d.square_zero
        for bound in (0, 1, 2):
            dec = decide_naive_lift(mod, d, var, bound)
            if not dec.vanishes:
                out.append((bound, False))
                continue
            construct = construct_lift_odd if mod.sig.var(var).odd else construct_lift_even
            lift = construct(mod, d, var, dec.certificate)
            maps = [dec.certificate, lift.u, invert_unit(lift.u), lift.lift_diff.matrix]
            out.append((bound, True, *(matrix_to_doc(m) for m in maps)))
            scalars += [c for m in maps for e in m.entries.values() for c in e.terms.values()]
    return out, scalars


def test_pipeline_matches_all_fraction_field():
    """`decide_naive_lift` and `construct_lift_*` give the same verdicts,
    certificates, basis changes and lifted matrices under the int-normalised
    field as under the all-`Fraction` one."""
    got, got_scalars = _pipeline_transcripts(QQ)
    want, want_scalars = _pipeline_transcripts(FractionQ())
    assert got == want
    assert all(_canonical(c) for c in got_scalars)
    assert all(type(c) is Fraction for c in want_scalars)
    assert any(type(c) is Fraction for c in got_scalars), "no non-integral coefficient"
    verdicts = [t[1] for t in got]
    assert True in verdicts and False in verdicts


def test_only_field_module_knows_the_rational_representation():
    """No module but `field.py` names `Fraction` or reads a numerator or a
    denominator: the representation of a rational scalar stays private."""
    pattern = re.compile(r"\bFraction\b|\.numerator\b|\.denominator\b")
    src = Path(dgalift.__file__).parent
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "field.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []
    assert pattern.search((src / "field.py").read_text())
