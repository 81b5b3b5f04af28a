"""Seeded property suites over both supported fields.

The heavy acceptance run lives in test_acceptance.py; this file keeps a
faster pass over every suite so ordinary development runs still exercise
all the identities.
"""

import hashlib
import random

import pytest

from dgalift import format_expr
from dgalift.field import QQ, PrimeField
from dgalift.randgen import FixturePool, rand_elem, rand_map, rand_unit
from dgalift.selftest import SUITES, run_suite

FIELDS = [QQ, PrimeField(5)]
_POOLS = {f.key(): FixturePool(f) for f in FIELDS}


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F5"])
@pytest.mark.parametrize("name", list(SUITES))
def test_suite(field, name):
    result = run_suite(name, field, seed=20240412, iters=60, pool=_POOLS[field.key()])
    assert result["failures"] == 0, result


def test_selftest_transcript_shape():
    from dgalift.selftest import run_selftest

    res = run_selftest(seed=5, iters=3)
    assert res["all_passed"]
    assert len(res["suites"]) == 2 * len(SUITES)
    # determinism of the whole transcript
    assert res == run_selftest(seed=5, iters=3)


def _seeded_draws(field) -> str:
    """The text of a fixed run of seeded random instances: elements, maps,
    units and conjugated differentials."""
    pool = FixturePool(field)
    rng = random.Random(17)
    out = []
    for sig in (pool.S3, pool.S1, pool.Sodd3, pool.S2):
        for degree in range(5):
            out.append(format_expr(rand_elem(sig, degree, rng, poly_bound=2, max_terms=4)))
    for mod in (pool.N3, pool.NK, pool.Nodd, pool.M2_S1):
        out += [repr(rand_map(mod, -1, rng)), repr(rand_unit(mod, rng, strict_raising=False))]
    for _ in range(4):
        out.append(repr(pool.square_zero_instance(rng)[1]))
    return "\n".join(out)


# sha256 of `_seeded_draws`, the same before and after `rand_elem` and
# `GradedMap.__add__` took their sums through `algebra._add_into`, and
# before and after `rand_elem`, `rand_map` and the deleted `rand_scalar`
# drew through `rng.choice` (which `test_randgen.py` checks draw by draw
# for the first two).  The seeded suites and the benchmark's `identities`
# digests count passes, so they do not see a draw that moves.
@pytest.mark.parametrize(
    "field, digest",
    [
        (QQ, "2939a0ea2748f97000e354c0af6576f0bea2a1faef40b1e3c0623096dcf81df6"),
        (PrimeField(5), "c02bdd8714c2dfffcf63cbf41c108ec72b27909c2e3c584aed1008d841bcc84b"),
    ],
    ids=["Q", "F5"],
)
def test_seeded_instances_do_not_move(field, digest):
    assert hashlib.sha256(_seeded_draws(field).encode()).hexdigest() == digest
