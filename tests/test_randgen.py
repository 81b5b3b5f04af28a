"""The seeded draws of `dgalift.randgen` against the oracles in `oracles.py`,
which draw through ``randint``/``randrange`` and add every term through
`_add_into`.

Every later instance of a seeded suite follows from the generator's state,
so each draw must give the oracle's element, map or pair and leave the
generator in the oracle's state.  The digest of the draws is pinned: it
does not depend on the interpreter version, so a draw that moves on any
supported Python fails here, where the benchmark's digests of the suites'
pass counts would not see it.  Run as a script,

    PYTHONPATH=src python tests/test_randgen.py

it makes the same comparison without pytest and prints the digest.
"""

import hashlib
import random

import pytest

from dgalift import format_expr
from dgalift.field import QQ, PrimeField
from dgalift.randgen import FixturePool, _below, rand_dop, rand_elem, rand_homogeneous, rand_map
from oracles import (
    rand_dop_reference,
    rand_elem_reference,
    rand_homogeneous_reference,
    rand_map_reference,
)

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5)]
SEEDS = range(60)
DEGREES = range(-1, 6)
# (poly_bound, max_terms) of the elements and (poly_bound, density) of the
# maps, one pair per seed in turn
ELEM_ARGS = [(pb, mt) for pb in range(3) for mt in range(1, 5)]
MAP_ARGS = [(pb, density) for pb in range(3) for density in (0.7, 1.0, 0.3)]
# (max_degree, poly_bound) of the homogeneous elements, one pair per seed
HOMOGENEOUS_ARGS = [(md, pb) for md in (0, 2, 4, 6) for pb in range(3)]
# `draws_digest()` as the `randint`/`choice` draws of `randgen` gave it
# before every draw went through `_below`
DIGEST = "21360 draws, sha256 89061c455236888f2cbda7bc5361e55ef5b56c4fc439079ee9a6e5f5cd6c0793"


def _pair(new_rng, old_rng, new, old) -> None:
    assert new == old, (new, old)
    assert new_rng.getstate() == old_rng.getstate(), (new, old)


def _draws(pool: FixturePool, seed: int) -> list:
    """The text of every draw of one seed, each checked against its oracle
    on a generator of the same seed."""
    new_rng, old_rng = random.Random(seed), random.Random(seed)
    out = []
    pb, mt = ELEM_ARGS[seed % len(ELEM_ARGS)]
    for sig in (pool.S3, pool.S1, pool.Sodd3, pool.S2):
        for degree in DEGREES:
            e = rand_elem(sig, degree, new_rng, pb, mt)
            _pair(new_rng, old_rng, e, rand_elem_reference(sig, degree, old_rng, pb, mt))
            out.append(format_expr(e))
    pb, density = MAP_ARGS[seed % len(MAP_ARGS)]
    for mod in (pool.N3, pool.N1, pool.NK, pool.Nodd, pool.M2_S3, pool.M2_S1, pool.M2_odd):
        for degree in DEGREES:
            f = rand_map(mod, degree, new_rng, pb, density)
            old = rand_map_reference(mod, degree, old_rng, pb, density)
            _pair(new_rng, old_rng, f, old)
            assert f.degree == old.degree and not any(e.is_zero() for e in f.entries.values())
            out.append(repr(f))
    md, pb = HOMOGENEOUS_ARGS[seed % len(HOMOGENEOUS_ARGS)]
    for sig in (pool.S3, pool.S1, pool.Sodd3, pool.S2):
        e = rand_homogeneous(sig, new_rng, md, pb)
        _pair(new_rng, old_rng, e, rand_homogeneous_reference(sig, old_rng, md, pb))
        out.append(format_expr(e))
    for mod, d in ((pool.N3, pool.d3), (pool.N1, pool.d1), (pool.NK, pool.dK), (pool.Nodd, pool.dodd)):
        for degree in (None, 0):
            p = rand_dop(mod, d, new_rng, degree)
            old = rand_dop_reference(mod, d, old_rng, degree)
            _pair(new_rng, old_rng, p, old)
            assert (p.f.degree, p.g.degree) == (old.f.degree, old.g.degree)
            out.append(f"{p.degree} {p!r}")
    return out


def draws_digest() -> str:
    lines = []
    for field in FIELDS:
        pool = FixturePool(field)
        for seed in SEEDS:
            lines += _draws(pool, seed)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return f"{len(lines)} draws, sha256 {digest}"


def test_draws_match_the_reference():
    assert draws_digest() == DIGEST


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_below_is_randrange(seed):
    """`_below` gives ``randrange(n)``'s value from the same bits, so it
    leaves the generator in the same state, for every ``n`` up to 70 (one
    to seven bits, with and without rejected draws)."""
    new_rng, old_rng = random.Random(seed), random.Random(seed)
    for n in range(1, 71):
        for _ in range(20):
            assert _below(new_rng.getrandbits, n) == old_rng.randrange(n)
        assert new_rng.getstate() == old_rng.getstate(), n


if __name__ == "__main__":
    print(draws_digest())
