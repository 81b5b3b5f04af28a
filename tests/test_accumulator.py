"""The accumulator in `dgalift.module` against the term-by-term oracles.

Every sum of products (`bracket`, `Differential.after`, `bracket_diff`,
`bracket_diff2`, `DOpPair.compose`/`bracket` and the j-operators with a
nonzero gamma) now adds its terms into one term map per entry.  The
oracles in `oracles.py` build each term as a map of its own and add or
subtract the maps; both must give the same degree and the same entries,
with no entry that cancelled to zero left stored.
"""

import random

import pytest

from dgalift.algebra import diff
from dgalift.field import QQ, PrimeField
from dgalift.jop import JOperator
from dgalift.module import (
    Differential,
    DOpPair,
    GradedMap,
    bracket,
    bracket_diff,
    bracket_diff2,
    compose,
    invert_unit,
)
from dgalift.randgen import FixturePool, rand_diff, rand_dop, rand_map, rand_unit
from oracles import (
    after_reference,
    bracket_diff_reference,
    bracket_reference,
    derive_entries_reference,
    dop_bracket_reference,
    dop_compose_reference,
    of_diff_reference,
    of_dop_reference,
    of_map_reference,
)


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
            diffs += [d0, d0.conjugate(u, invert_unit(u))]
        yield mod, diffs


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
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
