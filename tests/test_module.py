import random
import time

import pytest

from dgalift import QQ, PrimeField, Signature, derivative, diff
from dgalift.errors import NotInvertibleError, SchemaError
from dgalift.jop import JOperator
from dgalift.module import (
    Differential,
    DOpPair,
    FreeModule,
    GradedMap,
    bracket,
    bracket_diff,
    bracket_diff2,
    compose,
    direct_sum,
    dop_normalize,
    _invert_flat,
    invert_unit,
    left_mult,
    sharp_map,
    shift,
    twofold_extension,
)
from dgalift.randgen import FixturePool, rand_diff, rand_map, rand_unit
from oracles import idempotent, invert_flat_reference, is_scalar_cycle, koszul, unit_elementary


def test_apply_map_identity(S1):
    mod = FreeModule(S1, [("e0", 0), ("e1", 2)])
    x = mod.elem([("e0", "X"), ("e1", "a")])
    assert GradedMap.identity(mod).apply(x) == x


def test_apply_map_degree_zero_scalar(S1):
    mod = FreeModule(S1, [("e0", 0), ("e1", 2)])
    la = left_mult(mod, S1.parse("a"))
    for name in mod.names:
        assert la.apply(mod.basis_elem(name)) == mod.elem([(name, "a")])


def test_apply_map_single_entry(S1):
    mod = FreeModule(S1, [("e0", 0), ("e1", 1)])
    f = GradedMap.single(mod, "e0", "e1", S1.parse("W1"))
    x = mod.elem([("e1", "W2")])
    assert f.apply(x) == mod.elem([("e0", "W1*W2")])


def test_apply_diff_free(S1):
    mod = FreeModule(S1, [("e0", 0), ("e1", 1)])
    free = Differential.free(mod)
    # sign is (-1)^{basis degree}
    assert free.apply(mod.elem([("e1", "X")])) == mod.elem(
        [("e1", "a*W2 - b*W1")]
    )
    assert free.apply(mod.basis_elem("e1")).is_zero()


def test_apply_diff_square_zero_fixture(N3):
    mod, d = N3
    assert d.apply(d.apply(mod.basis_elem("f2"))).is_zero()
    assert d.square_zero


def test_compose_matrix_units(S1):
    mod = FreeModule(S1, [("e0", 0), ("e1", 1), ("e2", 2)])
    assert compose(unit_elementary(mod, 0, 1), unit_elementary(mod, 1, 2)) == (
        unit_elementary(mod, 0, 2)
    )
    assert compose(idempotent(mod, 0), idempotent(mod, 1)).is_zero()
    f = GradedMap.single(mod, "e0", "e1", S1.parse("W1"))
    assert compose(f, GradedMap.identity(mod)) == f


def test_left_mult_commute(S1):
    mod = FreeModule(S1, [("e0", 0), ("e1", 1)])
    la, lb = left_mult(mod, S1.parse("a*W1")), left_mult(mod, S1.parse("b*W2"))
    assert bracket(la, lb).is_zero()


def test_left_mult_one_is_identity(S1):
    mod = FreeModule(S1, [("e0", 0), ("e1", 1)])
    assert left_mult(mod, S1.one()) == GradedMap.identity(mod)


def test_left_mult_sign(S1):
    mod = FreeModule(S1, [("e0", 0), ("e1", 1)])
    lw = left_mult(mod, S1.parse("W1"))
    assert lw.entry("e0", "e0") == S1.parse("W1")
    assert lw.entry("e1", "e1") == S1.parse("-W1")


def test_bracket_odd_self(S1):
    mod = FreeModule(S1, [("e0", 0), ("e1", 1)])
    f = GradedMap.single(mod, "e0", "e1", S1.parse("a"), degree=-1)
    assert bracket(f, f) == compose(f, f).scale(2)


def test_square_of_examples(S3, N3):
    mod, d = N3
    assert Differential.free(mod).square().is_zero()
    assert d.square().is_zero()
    rank2 = FreeModule(S3, [("e0", 0), ("e1", 2)])
    dd = Differential(GradedMap(rank2, -1, {(0, 1): S3.parse("X")}))
    sq = dd.square()
    assert sq == GradedMap.single(rank2, "e0", "e1", S3.parse("a"), degree=-2)


def test_bracket_diff_examples(S1, N3):
    mod, d = N3
    assert bracket_diff(d, GradedMap.identity(mod)).is_zero()
    b = mod.sig.parse("a*X")
    assert bracket_diff(Differential.free(mod), left_mult(mod, b)) == left_mult(
        mod, diff(b)
    )
    assert bracket_diff2(d, d) == d.square().scale(2)


def test_dop_normalize_forms(N3):
    mod, d = N3
    g = GradedMap.single(mod, "f0", "f1", mod.sig.parse("a"), degree=-1)
    p = dop_normalize([[d, g]], d)
    assert p.f == bracket_diff(d, g)
    assert p.g == -g  # (-1)^{|g|} g with |g| odd
    q = dop_normalize([[g]], d)
    assert q.f == g and q.g.is_zero()
    sq = dop_normalize([[d, d]], d)
    assert sq.f == d.square() and sq.g.is_zero()


def test_idempotents_sum(N3):
    mod, _ = N3
    total = GradedMap.zero(mod, 0)
    for i in range(mod.rank):
        total = total + idempotent(mod, i)
    assert total == GradedMap.identity(mod)
    assert idempotent(mod, 1).apply(mod.basis_elem(1)) == mod.basis_elem(1)
    assert idempotent(mod, 1).apply(mod.basis_elem(0)).is_zero()
    eps = idempotent(mod, 2)
    assert compose(eps, eps) == eps


def test_invert_unit_identity(N3):
    mod, _ = N3
    one = GradedMap.identity(mod)
    assert invert_unit(one) == one


def test_invert_unit_nilpotent(N3):
    mod, _ = N3
    n = GradedMap.single(mod, "f0", "f1", mod.sig.parse("X"), degree=0)
    u = GradedMap.identity(mod) + n
    assert invert_unit(u) == GradedMap.identity(mod) - n


def test_invert_unit_random_roundtrip(S1):
    import random

    from dgalift.randgen import rand_unit

    mod = FreeModule(S1, [("e0", 0), ("e1", 1), ("e2", 2)])
    rng = random.Random(5)
    one = GradedMap.identity(mod)
    for _ in range(15):
        u = rand_unit(mod, rng, poly_bound=2)
        v = compose(u, rand_unit(mod, rng))
        vi = invert_unit(v)
        assert compose(v, vi) == one and compose(vi, v) == one


def test_invert_unit_rejects_singular(N3):
    mod, _ = N3
    u = GradedMap.identity(mod) + GradedMap.single(
        mod, "f0", "f0", mod.sig.parse("a"), degree=0
    )
    with pytest.raises(NotInvertibleError):
        invert_unit(u)  # 1 + a is not invertible in a polynomial ring


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_invert_flat_matches_reference(field):
    """`_invert_flat`, whose candidates are the products of ``k - 1``
    monomials of a degree block's entries, gives the inverse that the
    search over every monomial up to ``(k - 1) * max_poly`` gives
    (`invert_flat_reference`), or refuses with it: on the flat parts of
    products of one to three non-strict `rand_unit`s, scaled by nonzero
    constants on the diagonal, and on each with ``a`` added at one
    diagonal entry, on modules with degree blocks of one to three basis
    elements."""
    pool = FixturePool(field)
    rng = random.Random(97)
    nonzero = [x for x in map(field.of_int, (1, 2, 3, 4)) if x != field.zero]
    modules = [
        FreeModule(pool.S2, [("e0", 0), ("e1", 0), ("e2", 0), ("f0", 1), ("f1", 1)]),
        FreeModule(pool.S1, [("e0", 0), ("e1", 0), ("f0", 2), ("f1", 2), ("f2", 2)]),
        pool.NK,
        pool.N3,
    ]
    seen = {"inverted": 0, "singular": 0, "polygen entries": 0}
    for mod in modules:
        sig = mod.sig
        degs = mod.degrees
        for _ in range(6):
            u = GradedMap.identity(mod)
            for _ in range(rng.randint(1, 3)):
                u = compose(u, rand_unit(mod, rng, poly_bound=2, strict_raising=False))
            scale = {(i, i): sig.scalar(rng.choice(nonzero)) for i in range(mod.rank)}
            u = compose(GradedMap(mod, 0, scale), u)
            flat = {k: v for k, v in u.entries.items() if degs[k[0]] == degs[k[1]]}
            f = GradedMap(mod, 0, flat)
            r = rng.randrange(mod.rank)
            bent = f + GradedMap(mod, 0, {(r, r): sig.parse("a")})
            seen["polygen entries"] += any(v.poly_degree() for v in flat.values())
            for g in (f, bent):
                try:
                    want = invert_flat_reference(g)
                except NotInvertibleError:
                    with pytest.raises(NotInvertibleError):
                        _invert_flat(g)
                    seen["singular"] += 1
                    continue
                assert _invert_flat(g) == want
                seen["inverted"] += 1
    assert all(seen.values()), seen


def test_invert_flat_of_a_high_degree_entry_is_quick(S1):
    """``1 + a^400 E_12`` on ``K(a^1000, b^600)``: the inverse
    ``1 - a^400 E_12`` takes two candidates per block, where every monomial
    up to polygen degree 400 would be 80 601."""
    mod, _ = koszul(S1, [S1.parse("a^1000"), S1.parse("b^600")])
    e12 = GradedMap(mod, 0, {(1, 2): S1.parse("a^400")})
    start = time.perf_counter()
    got = invert_unit(GradedMap.identity(mod) + e12)
    assert time.perf_counter() - start < 1.0
    assert got == GradedMap.identity(mod) - e12


def test_is_scalar_cycle(N3):
    mod, _ = N3
    b = mod.sig.parse("a")
    assert is_scalar_cycle(left_mult(mod, b)) == b
    assert is_scalar_cycle(idempotent(mod, 0)) is None
    zero = GradedMap.zero(mod, -2)
    assert is_scalar_cycle(zero) == mod.sig.zero()
    # left multiplication by a non-cycle commutes with matrix units but not with d
    w = Signature(QQ, ["a"]).adjoin("X", 1, "a").parse("X")
    assert is_scalar_cycle(left_mult(mod, mod.sig.parse("X"))) is None


def test_shift_and_direct_sum(N3):
    mod, _ = N3
    assert shift(mod, 0) is mod
    sh = shift(mod, -1)
    assert sh.degrees == (1, 2, 3)
    both = direct_sum(mod, sh)
    assert both.rank == 6
    with pytest.raises(SchemaError):
        direct_sum(mod, mod)


def test_twofold_extension(N3):
    mod, d = N3
    dbl, ds = twofold_extension(mod, d, -1)
    assert dbl.rank == 6
    assert ds.square_zero
    r = mod.rank
    for (i, j), v in d.matrix.entries.items():
        assert ds.matrix.entry(i + r, j + r) == -v  # (-1)^k with k = -1


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_twofold_extension_stores_its_square_in_closed_form(field):
    """`twofold_extension` stores the square of the doubled differential as
    ``sharp_map`` of the input's square, ``diag(d o d, d o d)``: on the
    pool's square-zero instances and their conjugates by `rand_unit`, at
    shifts of both parities, the stored square equals the one a fresh
    `Differential` of the same matrix computes.  The closed form holds for
    every differential, square-zero or not, which random ones check; a
    differential that does not square to zero is still refused."""
    pool = FixturePool(field)
    rng = random.Random(113)
    instances = []
    for mod, d in [(pool.N3, pool.d3), (pool.N1, pool.d1), (pool.NK, pool.dK), (pool.Nodd, pool.dodd)]:
        u = rand_unit(mod, rng, poly_bound=1)
        instances += [(mod, d), (mod, d.conjugate(u))]
    for mod, d in instances:
        assert d.square_zero
        for k in (-3, -2, -1, 1, 2):
            dbl, ds = twofold_extension(mod, d, k)
            assert ds._square is not None  # stored, not computed
            assert ds.square() == Differential(ds.matrix).square()
            assert ds.square_zero
    refused = 0
    for mod in (pool.N3, pool.NK, pool.Nodd, pool.M2_S1):
        for k in (-1, 2):
            dbl, _ = twofold_extension(mod, Differential.free(mod), k)
            for _ in range(4):
                d = rand_diff(mod, rng)
                fresh = Differential(sharp_map(d.matrix, dbl, k)).square()
                assert sharp_map(d.square(), dbl, k) == fresh
                if not d.square_zero:
                    refused += 1
                    with pytest.raises(SchemaError, match="requires a square-zero differential"):
                        twofold_extension(mod, d, k)
    assert refused


def test_sharp_map_sign(N3):
    mod, d = N3
    sig = mod.sig
    dbl, _ = twofold_extension(mod, d, -1)
    for text in ["a", "X", "a*X"]:
        b = sig.parse(text)
        assert sharp_map(left_mult(mod, b), dbl, -1) == left_mult(dbl, b)


def test_dop_apply_matches_composition(N3):
    mod, d = N3
    f = GradedMap.single(mod, "f0", "f1", mod.sig.parse("a"), degree=-1)
    p = DOpPair.of_map(f, d).compose(DOpPair.of_diff(d))
    x = mod.elem([("f2", "X"), ("f1", "a")])
    assert p.apply(x) == f.apply(d.apply(x))


# -- closed forms against the basis read-back they replace ----------------------


def _read_back(module, degree, action):
    """Column ``c`` of the result is ``action(e_c)``."""
    entries = {}
    for c in range(module.rank):
        for r, coeff in action(module.basis_elem(c)).coeffs.items():
            entries[(r, c)] = coeff
    return GradedMap(module, degree, entries)


def _bracket_diff_by_basis(d, f):
    def action(e):
        t = f.apply(d.apply(e))
        return d.apply(f.apply(e)) - (-t if f.degree % 2 else t)

    return _read_back(d.module, f.degree - 1, action)


def _bracket_diff2_by_basis(d, d2):
    return _read_back(d.module, -2, lambda e: d.apply(d2.apply(e)) + d2.apply(d.apply(e)))


def _square_by_basis(d):
    return _read_back(d.module, -2, lambda e: d.apply(d.apply(e)))


def _conjugate_by_basis(d, u, u_inv):
    return _read_back(d.module, -1, lambda e: u.apply(d.apply(u_inv.apply(e))))


def _j_by_row_sign(jop, alpha):
    entries = {}
    for (r, c), e in alpha.entries.items():
        de = derivative(e, jop.var_name)
        if de.is_zero():
            continue
        row_sign = -1 if (jop.module.degrees[r] * jop.var.degree) % 2 else 1
        entries[(r, c)] = -de if row_sign < 0 else de
    return GradedMap(jop.module, alpha.degree + jop.degree, entries)


def _same(new, old):
    return new == old and new.degree == old.degree


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_closed_forms_match_basis_readback(field):
    pool = FixturePool(field)
    rng = random.Random(23)
    rank1 = FreeModule(pool.Sodd3, [("g", 3)])
    cases = [
        (pool.N3, [pool.d3]),
        (pool.N1, [pool.d1]),
        (pool.NK, [pool.dK]),
        (pool.Nodd, [pool.dodd]),
        (pool.M2_S3, []),
        (pool.M2_S1, []),
        (pool.M2_odd, []),
        (rank1, []),
    ]
    not_square_zero = 0
    for mod, fixtures in cases:
        diffs = fixtures + [
            Differential.free(mod),
            rand_diff(mod, rng),
            rand_diff(mod, rng, poly_bound=2),
        ]
        maps = [
            f
            for degree in range(-3, 3)
            for f in (
                GradedMap.zero(mod, degree),
                rand_map(mod, degree, rng),
                rand_map(mod, degree, rng, poly_bound=2, density=1.0),
            )
        ]
        for d in diffs:
            not_square_zero += not d.square_zero
            assert _same(d.square(), _square_by_basis(d))
            for d2 in diffs:
                assert _same(bracket_diff2(d, d2), _bracket_diff2_by_basis(d, d2))
            for f in maps:
                assert _same(bracket_diff(d, f), _bracket_diff_by_basis(d, f))
            for _ in range(3):
                u = compose(
                    rand_unit(mod, rng, strict_raising=False), rand_unit(mod, rng, poly_bound=2)
                )
                u_inv = invert_unit(u)
                want = _conjugate_by_basis(d, u, u_inv)
                assert _same(d.conjugate(u).matrix, want)
                assert _same(d.conjugate(u_inv).matrix, _conjugate_by_basis(d, u_inv, u))
        for var in mod.sig.variables:
            jop = JOperator(mod, var.name)
            for f in maps + [d.matrix for d in diffs]:
                assert _same(jop.of_map(f), _j_by_row_sign(jop, f))
    assert not_square_zero > 0


@pytest.mark.parametrize("build", ["checked map", "single", "left_mult"])
def test_inhomogeneous_entry_raises_schema_error(N3, build):
    """An entry mixing degrees is a schema error (it was a bare ValueError
    from ``AlgElem.degree``, and `left_mult`'s own check never ran)."""
    mod, _ = N3
    mixed = mod.sig.parse("a + X")
    if build == "checked map":
        with pytest.raises(SchemaError, match=r"entry \(f0,f1\) must be homogeneous of degree 1"):
            GradedMap(mod, 0, {(0, 1): mixed})
    elif build == "single":
        with pytest.raises(SchemaError, match="single entry must be homogeneous"):
            GradedMap.single(mod, "f0", "f1", mixed)
    else:
        with pytest.raises(SchemaError, match="left multiplication needs a homogeneous element"):
            left_mult(mod, mixed)

