"""The accumulator in `dgalift.module` against the term-by-term oracles.

Every sum of products (`bracket`, `Differential.after`, `bracket_diff`,
`bracket_diff2`, `DOpPair.compose`/`bracket` and the j-operators with a
nonzero gamma) now adds its terms into one term map per entry.  The
oracles in `oracles.py` build each term as a map of its own and add or
subtract the maps; both must give the same degree and the same entries,
with no entry that cancelled to zero left stored.

The two accumulator kernels, `_product_into` and `_derive_into` with the
term-level derivations `_diff_into` and `_derivative_into`, are also
checked one call at a time: each adds into an accumulator that already
holds entries, negated and not, and must leave the seed plus (or minus)
the oracle's map.
"""

import random

import pytest

from dgalift.algebra import _derivative_into, _diff_into, diff
from dgalift.field import QQ, PrimeField
from dgalift.jop import JOperator
from dgalift.module import (
    Differential,
    DOpPair,
    GradedMap,
    bracket,
    bracket_diff,
    bracket_diff2,
    _derive_into,
    _finish,
    _product_into,
    compose,
    left_mult,
)
from dgalift.randgen import FixturePool, rand_diff, rand_dop, rand_map, rand_unit
from oracles import (
    after_reference,
    bracket_diff_reference,
    bracket_reference,
    compose_reference,
    derivative_reference,
    derive_entries_reference,
    diff_reference,
    dop_bracket_reference,
    dop_compose_reference,
    of_diff_reference,
    of_dop_reference,
    of_map_reference,
)

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5)]


def _same(new: GradedMap, old: GradedMap):
    assert new == old
    assert new.degree == old.degree
    assert all(not e.is_zero() for e in new.entries.values())


def _same_pair(new: DOpPair, old: DOpPair):
    _same(new.f, old.f)
    _same(new.g, old.g)


def _cases(pool, rng):
    """Each fixture module with its differentials: its own square-zero one
    and a conjugate of it where it has one, random ones (which do not
    square to zero) and the free one."""
    with_d = [(pool.N3, pool.d3), (pool.N1, pool.d1), (pool.NK, pool.dK), (pool.Nodd, pool.dodd)]
    without = [(mod, None) for mod in (pool.M2_S3, pool.M2_S1, pool.M2_odd)]
    for mod, d0 in with_d + without:
        diffs = [rand_diff(mod, rng), rand_diff(mod, rng, poly_bound=2), Differential.free(mod)]
        if d0 is not None:
            u = rand_unit(mod, rng)
            diffs += [d0, d0.conjugate(u)]
        yield mod, diffs


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_accumulator_matches_term_by_term_oracles(field):
    pool = FixturePool(field)
    rng = random.Random(4111)
    reached = {"g1 g2 d^2 in the subtracted half": 0, "cancelled entry": 0, "twisted j": 0}
    for mod, diffs in _cases(pool, rng):
        var = mod.sig.top_variable.name
        maps = [rand_map(mod, deg, rng) for deg in range(-3, 3)]
        maps += [GradedMap.zero(mod, 0), GradedMap.zero(mod, -1), maps[3].scale(-1)]
        for f in maps:
            for g in maps:
                new = bracket(f, g)
                _same(new, bracket_reference(f, g))
                reached["cancelled entry"] += any(
                    k not in new.entries for k in set(compose(f, g).entries) | set(compose(g, f).entries)
                )
        j = JOperator(mod, var)
        gammas = [GradedMap.zero(mod, j.degree), rand_map(mod, j.degree, rng), rand_map(mod, j.degree, rng, 2)]
        for d in diffs:
            sq = d.square()
            _same(sq, after_reference(d, d.matrix))
            d2 = diffs[0]
            want = bracket_diff_reference(d, d2.matrix) + derive_entries_reference(d.matrix, diff, -1)
            _same(bracket_diff2(d, d2), want)
            for f in maps:
                _same(d.after(f), after_reference(d, f))
                _same(bracket_diff(d, f), bracket_diff_reference(d, f))
            pairs = [rand_dop(mod, d, rng, deg) for deg in (-2, -1, 0, 1)]
            pairs += [DOpPair.of_diff(d), DOpPair.of_map(maps[2], d), pairs[0].scale(-1)]
            for a in pairs:
                for b in pairs:
                    _same_pair(a.compose(b), dop_compose_reference(a, b))
                    _same_pair(a.bracket(b), dop_bracket_reference(a, b))
                    if not (a.degree * b.degree) % 2:
                        b_g_a_g = compose(b.g, a.g)
                        reached["g1 g2 d^2 in the subtracted half"] += not compose(b_g_a_g, sq).is_zero()
            for gamma in gammas:
                for twisted in (JOperator(mod, var, gamma), JOperator(mod, var, -gamma)):
                    for f in maps:
                        _same(twisted.of_map(f), of_map_reference(twisted, f))
                        reached["twisted j"] += twisted.of_map(f) != j.of_map(f)
                    _same(twisted.of_diff(d), of_diff_reference(twisted, d))
                    for p in pairs:
                        _same_pair(twisted.of_dop(p), of_dop_reference(twisted, p))
    assert all(reached.values()), reached


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_of_dop_memo_follows_the_differential(field):
    """`of_dop` keeps ``Delta(d)`` for the last differential it met.  One
    twisted and one untwisted operator take turns on pairs over two
    different differentials and over a copy of the first that is equal but
    not the same object; each result must be the oracle's, over the pair's
    own differential, so a ``Delta(d)`` kept from another one cannot pass."""
    pool = FixturePool(field)
    rng = random.Random(4112)
    reached = {"twisted": 0, "inner variable": 0, "a stale Delta(d) differs": 0}
    for mod, d0 in [(pool.N3, pool.d3), (pool.NK, pool.dK), (pool.Nodd, pool.dodd), (pool.M2_S1, None)]:
        first = d0 or rand_diff(mod, rng)
        copy = Differential(GradedMap(mod, -1, dict(first.matrix.entries), check=False))
        assert copy == first and copy is not first
        diffs = [first, rand_diff(mod, rng, poly_bound=2), copy]
        f = rand_map(mod, 0, rng, density=1.0)
        pairs = [
            [DOpPair.of_map(f, d), DOpPair.of_diff(d), rand_dop(mod, d, rng, 0), rand_dop(mod, d, rng, -1)]
            for d in diffs
        ]
        for var in mod.sig.variables:
            plain = JOperator(mod, var.name)
            gamma = rand_map(mod, plain.degree, rng, 2, density=1.0)
            ops = [JOperator(mod, var.name, gamma), plain]
            reached["twisted"] += not gamma.is_zero()
            reached["inner variable"] += not plain.is_top
            for _ in range(2):
                for d, over_d in zip(diffs, pairs):
                    for p in over_d:
                        for op in ops:
                            got = op.of_dop(p)
                            _same_pair(got, of_dop_reference(op, p))
                            assert got.partial is d
                            stale = compose(p.g, op.of_diff(diffs[1]) - op.of_diff(first))
                            reached["a stale Delta(d) differs"] += not stale.is_zero()
    assert all(reached.values()), reached


def _is_constant(e) -> bool:
    return len(e.terms) == 1 and e.sig._unit in e.terms


def _powers(mod):
    """The left multiplications by ``X^(k)``, ``k = 1..4``, for each even
    variable ``X``: their products meet the binomials ``C(k + l, k)`` that
    vanish mod 2, 3 and 5."""
    sig = mod.sig
    return [
        left_mult(mod, sig.gen_power(var.name, k)) for var in sig.variables if not var.odd for k in range(1, 5)
    ]


def _kernel_maps(mod, rng):
    """Random maps of degrees -3 to 2, with one or several terms per entry;
    maps with constant entries (the identity, scalar multiples of it and a
    unit); and the zero map."""
    one = GradedMap.identity(mod)
    maps = [rand_map(mod, deg, rng, poly_bound=rng.randint(0, 2)) for deg in range(-3, 3)]
    return maps + [one, one.scale(-1), one.scale(3), rand_unit(mod, rng), GradedMap.zero(mod, 1)]


def _seeded(mod, degree, rng):
    """A random map of `degree` and its entries as an accumulator."""
    seed = rand_map(mod, degree, rng, density=0.5)
    return seed, {k: dict(e.terms) for k, e in seed.entries.items()}


def _kernel_modules(pool):
    return [pool.N3, pool.NK, pool.Nodd, pool.M2_S1, pool.M2_odd]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_product_into_matches_compose_reference(field):
    pool = FixturePool(field)
    rng = random.Random(2024)
    reached = {"constant left": 0, "constant right": 0, "cancelled to empty": 0}
    if field != QQ:
        reached["vanishing binomial"] = 0
    for mod in _kernel_modules(pool):
        powers = _powers(mod)
        maps = _kernel_maps(mod, rng) + powers
        for f in maps:
            for g in maps:
                degree = f.degree + g.degree
                want = compose_reference(f, g)
                for neg in (False, True):
                    seed, out = _seeded(mod, degree, rng)
                    _product_into(out, f, g, neg)
                    _same(_finish(mod, degree, out), seed - want if neg else seed + want)
                # adding -(f o g) onto f o g empties every entry it touches
                out = {k: dict(e.terms) for k, e in want.entries.items()}
                _product_into(out, f, g, True)
                assert not any(out.values())
                reached["cancelled to empty"] += bool(out)
                reached["constant left"] += any(map(_is_constant, f.entries.values())) and bool(g.entries)
                reached["constant right"] += any(map(_is_constant, g.entries.values())) and bool(f.entries)
                if "vanishing binomial" in reached:
                    both = any(f is p for p in powers) and any(g is p for p in powers)
                    reached["vanishing binomial"] += both and want.is_zero()
    assert all(reached.values()), reached


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_derive_into_matches_entrywise_references(field):
    pool = FixturePool(field)
    rng = random.Random(2025)
    reached = {"cancelled to empty": 0, "odd sign": 0}
    for mod in _kernel_modules(pool):
        sig = mod.sig
        derivations = [(_diff_into, diff_reference, -1, ())]
        for i, var in enumerate(sig.variables):
            derivations.append(
                (_derivative_into, lambda e, name=var.name: derivative_reference(e, name), -var.degree, (i,))
            )
        d = rand_diff(mod, rng)
        for f in _kernel_maps(mod, rng) + _powers(mod):
            for kernel, delta, n, args in derivations:
                degree = f.degree + n
                want = derive_entries_reference(f, delta, n)
                for neg in (False, True):
                    seed, out = _seeded(mod, degree, rng)
                    _derive_into(out, f, kernel, n, neg, *args)
                    _same(_finish(mod, degree, out), seed - want if neg else seed + want)
                out = {k: dict(e.terms) for k, e in want.entries.items()}
                _derive_into(out, f, kernel, n, True, *args)
                assert not any(out.values())
                reached["cancelled to empty"] += bool(out)
                reached["odd sign"] += n % 2 and any(deg % 2 for deg in mod.degrees) and bool(want.entries)
            # the two kernels inside the operators built on them
            _same(d.after(f), after_reference(d, f))
            j = JOperator(mod, sig.top_variable.name)
            _same(j.of_map(f), of_map_reference(j, f))
    assert all(reached.values()), reached
