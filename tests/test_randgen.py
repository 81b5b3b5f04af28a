"""The seeded draws of `dgalift.randgen` against the oracles in `oracles.py`,
which draw through ``randint``/``randrange`` and add every term through
`_add_into`.

Every later instance of a seeded suite follows from the generator's state,
so each draw must give the oracle's element or map and leave the
generator in the oracle's state.  Run as a script,

    PYTHONPATH=src python tests/test_randgen.py

it makes the same comparison without pytest and prints a digest of the
draws, which does not depend on the interpreter version.
"""

import hashlib
import random

from dgalift import format_expr
from dgalift.field import QQ, PrimeField
from dgalift.randgen import FixturePool, rand_elem, rand_map
from oracles import rand_elem_reference, rand_map_reference

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5)]
SEEDS = range(60)
DEGREES = range(-1, 6)
# (poly_bound, max_terms) of the elements and (poly_bound, density) of the
# maps, one pair per seed in turn
ELEM_ARGS = [(pb, mt) for pb in range(3) for mt in range(1, 5)]
MAP_ARGS = [(pb, density) for pb in range(3) for density in (0.7, 1.0, 0.3)]


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
    draws_digest()


if __name__ == "__main__":
    print(draws_digest())
