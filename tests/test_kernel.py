"""The product kernel, `diff` and the band memo of `dgalift.algebra`,
differential-tested against the reference versions in `oracles` on every
`FixturePool` signature over Q, F2, F3 and F5."""

import random

import pytest

from dgalift import QQ, PrimeField, component_monomials, diff
from dgalift.module import GradedMap, ModuleElement, compose
from dgalift.randgen import FixturePool, rand_elem, rand_map, rand_scalar

from oracles import (
    apply_reference,
    component_monomials_reference,
    compose_reference,
    diff_reference,
    mul_reference,
)

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5)]
_POOLS = {f.key(): FixturePool(f) for f in FIELDS}


def _signatures(pool):
    return [pool.S3, pool.S1, pool.Sodd3, pool.S2]


def _elements(sig, rng, count):
    """Zero, scalars and random sums over degrees 0-5 and polygen bounds 0-2."""
    out = [sig.zero(), sig.one(), sig.scalar(rand_scalar(sig.field, rng, nonzero=True))]
    for _ in range(count):
        e = rand_elem(sig, rng.randint(0, 5), rng, rng.randint(0, 2), max_terms=4)
        out.append(e + rand_elem(sig, rng.randint(0, 5), rng, 1, max_terms=2))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_product_matches_reference(field):
    rng = random.Random(8)
    for sig in _signatures(_POOLS[field.key()]):
        elems = _elements(sig, rng, 25)
        for x in elems:
            for y in elems:
                assert x * y == mul_reference(x, y), (sig, x, y)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_diff_matches_reference(field):
    rng = random.Random(9)
    for sig in _signatures(_POOLS[field.key()]):
        for x in _elements(sig, rng, 120):
            assert diff(x) == diff_reference(x), (sig, x)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_divided_power_binomials_reduce_in_the_field(field):
    sig = _POOLS[field.key()].S1
    x, x2, x3 = sig.parse("X"), sig.parse("X^(2)"), sig.parse("X^(3)")
    # comb(2, 1) = 2 and comb(5, 2) = 10 vanish mod 2, and 10 mod 5
    assert x * x == mul_reference(x, x) == sig.parse("2*X^(2)")
    assert (x * x).is_zero() == (field.key() == ("Fp", 2))
    assert x2 * x3 == mul_reference(x2, x3) == sig.parse("10*X^(5)")
    assert (x2 * x3).is_zero() == (field.key() in (("Fp", 2), ("Fp", 5)))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_odd_even_interleavings(field):
    pool = _POOLS[field.key()]
    s, t = pool.Sodd3, pool.S2
    cases = [
        (s, "Z", "W1", "-W1*Z"),
        (s, "Z", "W1*W2", "W1*W2*Z"),
        (s, "W2*Z", "W1*X", "W1*W2*X*Z"),
        (s, "X*Z", "W2*X", "-2*W2*X^(2)*Z"),
        (s, "W1*Z", "W1", "0"),
        (t, "X2", "X1", "-X1*X2"),
        (t, "Y*X2", "X1*Y", "-2*X1*X2*Y^(2)"),
        (t, "X1*X2", "a*Y", "a*X1*X2*Y"),
    ]
    for sig, left, right, want in cases:
        x, y = sig.parse(left), sig.parse(right)
        assert x * y == mul_reference(x, y) == sig.parse(want), (left, right)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_scalars_zero_and_cancelling_sums(field):
    rng = random.Random(10)
    sig = _POOLS[field.key()].S1
    w = sig.parse("W1 + W2")
    assert (w * w).is_zero()  # W1*W2 + W2*W1 cancels inside one product
    assert mul_reference(w, w).is_zero()
    for x in _elements(sig, rng, 10):
        c = rand_scalar(field, rng, nonzero=True)
        assert sig.scalar(c) * x == x.scale(c) == x * sig.scalar(c)
        assert (sig.zero() * x).is_zero() and (x * sig.zero()).is_zero()
        assert (x * (x - x)).is_zero()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_compose_and_apply_match_entrywise_products(field):
    rng = random.Random(11)
    pool = _POOLS[field.key()]
    for mod in (pool.N3, pool.M2_S3, pool.M2_S1, pool.M2_odd, pool.NK, pool.Nodd):
        for _ in range(6):
            f = rand_map(mod, rng.randint(-2, 2), rng, density=0.9)
            g = rand_map(mod, rng.randint(-2, 2), rng, density=0.9)
            assert compose(f, g) == compose_reference(f, g)
            x = ModuleElement(
                mod, {i: rand_elem(mod.sig, rng.randint(0, 3), rng, 1, 3) for i in range(mod.rank)}
            )
            assert f.apply(x) == apply_reference(f, x)
        # the two products of entry (0, 0) cancel, so it is absent, not zero
        b = mod.sig.parse("a")
        f = GradedMap(mod, 0, {(0, 0): mod.sig.one(), (0, 1): mod.sig.one()}, check=False)
        g = GradedMap(mod, 0, {(0, 0): b, (1, 0): -b}, check=False)
        assert (0, 0) not in compose(f, g).entries
        assert f.apply(ModuleElement(mod, {0: b, 1: -b})).is_zero()


_GRID = [(degree, bound) for degree in range(-1, 6) for bound in range(-1, 3)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_band_memo(field):
    twins = _signatures(FixturePool(field))  # equal signatures, other objects
    for sig, twin in zip(_signatures(_POOLS[field.key()]), twins):
        assert sig is not twin and sig == twin
        for degree, bound in _GRID:
            band = component_monomials(sig, degree, bound)
            assert isinstance(band, tuple)
            assert list(band) == component_monomials_reference(sig, degree, bound)
            assert component_monomials(twin, degree, bound) == band
            if degree < 0 or bound < 0:
                assert band == ()
            else:
                assert component_monomials(sig, degree, bound) is band
