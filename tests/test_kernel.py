"""The product kernel, `diff`, their per-signature tables, the monomial
order and the band memos of `dgalift.algebra`, differential-tested against
the reference versions in `oracles` on every `FixturePool` signature over
Q, F2, F3 and F5."""

import gc
import random
import signal
import weakref

import pytest

from dgalift import QQ, PrimeField, Signature, component_monomials, derivative, diff, format_expr
from dgalift.algebra import AlgElem, _mul_into, monomial_sort_key
from dgalift.lift import _grading
from dgalift.module import Differential, FreeModule, GradedMap, ModuleElement, compose
from dgalift.randgen import FixturePool, rand_elem, rand_map

from oracles import (
    apply_reference,
    component_monomials_reference,
    compose_reference,
    derivative_reference,
    diff_reference,
    format_expr_reference,
    monomial_class,
    monomial_sort_key_reference,
    mul_into_pair_reference,
    mul_into_reference,
    mul_reference,
    rand_scalar_reference,
)
from test_cli_fuzz import CAP_S, _time_cap

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5)]
_POOLS = {f.key(): FixturePool(f) for f in FIELDS}


def _signatures(pool):
    return [pool.S3, pool.S1, pool.Sodd3, pool.S2]


def _elements(sig, rng, count):
    """Zero, scalars and random sums over degrees 0-5 and polygen bounds 0-2."""
    out = [sig.zero(), sig.one(), sig.scalar(rand_scalar_reference(sig.field, rng, nonzero=True))]
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


@pytest.mark.parametrize("neg", [False, True])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_table_kernel_matches_per_pair_kernel(field, neg):
    """`_mul_into` adds what the per-pair kernel adds, into an empty
    accumulator, into one holding another element, and into one holding
    the negated product as well, where every term of the product cancels."""
    rng = random.Random(13 + neg)
    for sig in _signatures(_POOLS[field.key()]):
        elems = _elements(sig, rng, 12)
        for x in elems:
            for y in elems:
                product = mul_reference(x, y)
                cancel = product if neg else -product
                z = rand_elem(sig, rng.randint(0, 5), rng, 2, max_terms=4)
                for start, total in (({}, None), (z.terms, None), ((cancel + z).terms, z.terms)):
                    got, want = dict(start), dict(start)
                    _mul_into(sig, got, x.terms, y.terms, neg)
                    mul_into_pair_reference(sig, want, x.terms, y.terms, neg)
                    assert got == want, (sig, x, y, start)
                    assert total is None or got == total


def _no_polygen_signature(field):
    """Odd and even variables over the field itself, no polygens."""
    return (
        Signature(field, [])
        .adjoin("T", 1, "0")
        .adjoin("U", 2, "0")
        .adjoin("V", 4, "T*U")
        .adjoin("Z", 5, "U^(2)")
    )


def _constants(field):
    """1, -1 and a third constant: -2/3 over Q, the residues 2 to p - 2
    over F_p (none over F2 and F3, where 1 and -1 are all of them)."""
    extra = [field.of_fraction(-2, 3)] if field == QQ else map(field.of_int, range(2, field.p - 1))
    return [field.one, field.neg(field.one), *extra]


@pytest.mark.parametrize("neg", [False, True])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_constant_factor_matches_table_kernel(field, neg):
    """A factor ``c*1`` on the left, on the right or on both sides adds
    the same terms in the same order as the table kernel does
    (`mul_into_reference`): into an empty accumulator, into one holding
    another element, into one holding the negated product, which cancels
    to nothing, and into one holding both."""
    rng = random.Random(17 + neg)
    for sig in _signatures(_POOLS[field.key()]) + [_no_polygen_signature(field)]:
        constants = [sig.scalar(c).terms for c in _constants(field)]
        others = [x.terms for x in _elements(sig, rng, 10)] + constants
        for k in constants:
            for x in others:
                for a, b in ((k, x), (x, k)):
                    product: dict = {}
                    mul_into_reference(sig, product, a, b)
                    product = AlgElem(sig, product)
                    cancel = product if neg else -product
                    z = rand_elem(sig, rng.randint(0, 5), rng, 2, max_terms=4)
                    for start, total in (
                        ({}, None),
                        (z.terms, None),
                        (cancel.terms, {}),
                        ((cancel + z).terms, z.terms),
                    ):
                        got, want = dict(start), dict(start)
                        _mul_into(sig, got, a, b, neg)
                        mul_into_reference(sig, want, a, b, neg)
                        assert list(got.items()) == list(want.items()), (sig, a, b, start)
                        assert total is None or got == total


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_derivative_matches_reference(field):
    rng = random.Random(19)
    for sig in _signatures(_POOLS[field.key()]) + [_no_polygen_signature(field)]:
        for x in _elements(sig, rng, 40):
            for var in sig.variables:
                got, want = derivative(x, var.name), derivative_reference(x, var.name)
                assert list(got.terms.items()) == list(want.terms.items()), (sig, x, var)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_format_matches_sorted_reference(field):
    """Elements of one term print as they did when every element was
    sorted, and so do elements of several terms."""
    rng = random.Random(20)
    for sig in _signatures(_POOLS[field.key()]) + [_no_polygen_signature(field)]:
        elems = _elements(sig, rng, 40)
        terms = {m: c for x in elems for m, c in x.terms.items()}
        elems += [AlgElem(sig, {m: c}) for m, c in terms.items()] + [AlgElem(sig, terms)]
        assert any(len(x.terms) == 1 for x in elems) and len(terms) > 2
        for x in elems:
            assert format_expr(x) == format_expr_reference(x), (sig, x.terms)


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
        c = rand_scalar_reference(field, rng, nonzero=True)
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


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_sort_key_matches_word_order(field):
    """The exponent key orders monomials as the word key does: random
    monomials with exponents 0-4 (and repeats) on every signature."""
    rng = random.Random(12)
    for sig in _signatures(_POOLS[field.key()]):
        for _ in range(40):
            monos = [
                (
                    tuple(rng.randint(0, 4) for _ in sig.polygens),
                    tuple(rng.randint(0, 4) for _ in sig.variables),
                )
                for _ in range(12)
            ]
            monos += monos[:3]
            by_exponents = sorted(monos, key=monomial_sort_key)
            assert by_exponents == sorted(monos, key=lambda m: monomial_sort_key_reference(sig, m))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_bands_of_higher_degrees_match_the_box_search(field):
    """The exponents of the last even variable start where the odd
    variables after it can make up the rest; up to degree 14 every band
    equals the search over the whole box."""
    for sig in _signatures(FixturePool(field)):
        for degree in range(15):
            assert list(component_monomials(sig, degree, 1)) == component_monomials_reference(
                sig, degree, 1
            )


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_bands_of_a_huge_degree_cost_what_their_monomials_do():
    """A band of degree 10^12 with one even variable holds a few monomials
    and is found as fast: the exponents of the even variable are not tried
    one by one.  So is the band of the class of ``X^(n/2)`` under the
    all-ones grading of ``S1``: both monomials of degree ``n`` at its
    degree, where ``W1 W2 X^(n/2 - 1)`` has the same weights, and none one
    degree up, where no monomial has its all-ones weight ``n``."""
    pool = FixturePool(QQ)  # no band memo of another test
    n = 10**12
    mod = FreeModule(pool.S1, [("e", 0)])
    x = ((0, 0), (0, 0, n // 2))
    with _time_cap(CAP_S):
        component_monomials(pool.S1, n, 0)
        component_monomials(pool.Sodd3, n, 0)
        grading, _ = _grading(mod, Differential.free(mod), GradedMap.zero(mod, n - 1), 0)
        cls = monomial_class(grading, x)
        assert grading.ones
        assert grading.band(n, 0, cls) == list(component_monomials(pool.S1, n, 0))
        assert grading.band(n + 1, 0, cls) == []
    assert [v for _, v in component_monomials(pool.S1, n, 0)] == [
        (0, 0, n // 2), (1, 1, n // 2 - 1)
    ]
    got = {v for _, v in component_monomials(pool.Sodd3, n, 0)}
    assert got == {(0, 0, n // 2, 0), (1, 1, n // 2 - 1, 0), (1, 0, n // 2 - 2, 1), (0, 1, n // 2 - 2, 1)}
    assert component_monomials(pool.S3, n, 5) == ()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_tables_belong_to_one_signature_object(field):
    """Twin signatures and signatures with the same names over Q and over F2
    keep their own tables: ``X*X`` is ``2*X^(2)`` over Q and 0 over F2 with
    every table warm."""
    sig, twin = _POOLS[field.key()].S1, FixturePool(field).S1
    other = FixturePool(QQ if field.key() == ("Fp", 2) else PrimeField(2)).S1
    assert sig == twin and sig._var_products is not twin._var_products
    assert sig._var_diffs is not twin._var_diffs
    for _ in range(2):
        for s in (sig, twin, other):
            x = s.parse("X")
            want = "0" if s.field.key() == ("Fp", 2) else "2*X^(2)"
            assert x * x == mul_reference(x, x) == s.parse(want), s.field
            assert diff(x * x) == diff_reference(x * x)
    v = sig.parse("X").terms.popitem()[0][1]
    assert sig._var_products[v, v] == twin._var_products[v, v]
    assert (sig._var_products[v, v] is None) == (field.key() == ("Fp", 2))
    assert (other._var_products[v, v] is None) != (field.key() == ("Fp", 2))


def test_refused_binomial_leaves_no_table_entry():
    """A Q binomial the field refuses raises on every call, in a product and
    in `diff`, and stores neither the product nor the differential."""
    n = 10**6
    sig = FixturePool(QQ).S1
    x = sig.parse(f"X^({n})")
    v = next(iter(x.terms))[1]
    # d(Y) = d(X^(n) W1) holds X^(n), so d(X^(n) Y) needs C(2n, n)
    ext = sig.adjoin("Y", 2 * n + 1, diff(x * sig.parse("W1")))
    y = ext.parse(f"X^({n})*Y")
    w = next(iter(y.terms))[1]
    xx = (0, 0, n, 0)  # X^(n) in the extension
    for _ in range(2):
        with pytest.raises(ValueError, match="divided-power coefficient"):
            x * x
        assert (v, v) not in sig._var_products
        with pytest.raises(ValueError, match="divided-power coefficient"):
            diff(y)
        assert w not in ext._var_diffs and (xx, xx) not in ext._var_products


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_diff_on_an_extension_after_the_base_tables_are_warm(field):
    """`adjoin` builds a signature with tables of its own: `diff` and the
    product on it match the references after its base's tables were filled."""
    rng = random.Random(14)
    base = FixturePool(field).S1
    for x in _elements(base, rng, 30):
        assert diff(x) == diff_reference(x)
        assert x * x == mul_reference(x, x)
    assert base._var_products and base._var_diffs
    odd = base.adjoin("Z", 3, diff(base.parse("X*W1")))
    even = base.adjoin("Y", 2, "b*W1 - a*W2")
    assert not (odd._var_products or odd._var_diffs or even._var_products or even._var_diffs)
    top = even.adjoin("T", 4, diff(even.parse("Y*X")))
    assert not (top._var_products or top._var_diffs)
    for sig in (odd, even, top):
        for x in _elements(sig, rng, 60):
            assert diff(x) == diff_reference(x), (sig, x)
            y = rand_elem(sig, rng.randint(0, 5), rng, 1, max_terms=3)
            assert x * y == mul_reference(x, y), (sig, x, y)


def test_signatures_are_freed_without_the_cycle_collector():
    """No signature refers to itself through its variables, so a pool's
    signatures and their tables go as soon as the pool does."""
    gc.disable()
    try:
        pool = FixturePool(QQ)
        for sig in _signatures(pool):
            x = sig.parse(str(sig.top_variable.diff))
            assert diff(x * x) == diff_reference(x * x)
        refs = [weakref.ref(sig) for sig in _signatures(pool)]
        del pool, sig, x
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
