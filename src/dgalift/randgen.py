"""Seeded random instances for the property suites.

Unconstrained random matrices essentially never square to zero, so
square-zero differentials come from structured families: fixture matrices
over the variable-free subalgebra conjugated by random units.  Everything
is driven by an explicit `random.Random` so runs are reproducible.

Every integer draw but `rand_unit`'s ``shuffle`` goes through `_below`,
which copies CPython's ``Random._randbelow_with_getrandbits``:
``k = n.bit_length()`` and ``getrandbits(k)`` again until the result is
below ``n``.  On CPython ``randrange(n)``, ``randint(a, b)``
(``a + randrange(b - a + 1)``) and ``choice(seq)``
(``seq[randrange(len(seq))]``) each end in exactly that loop, so a draw
here gives the value the stdlib call gives and leaves the generator in
the same state, without the stdlib's Python frames around that loop.
`tests/test_randgen.py` checks this against ``randrange`` for every ``n``
up to 70, compares each draw and the generator's state after it with the
``randint`` oracles of `tests/oracles.py`, and pins the digest of the
draws.
"""

from __future__ import annotations

import random
from typing import Optional

from .algebra import AlgElem, Signature, _add_into, component_monomials
from .field import Field
from .module import Differential, DOpPair, FreeModule, GradedMap, _finish


def _below(getrandbits, n: int) -> int:
    """``randrange(n)`` of the generator whose ``getrandbits`` this is, for
    ``n >= 1``: the same value, from the same bits."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def rand_elem(
    sig: Signature,
    degree: int,
    rng: random.Random,
    poly_bound: int = 1,
    max_terms: int = 2,
) -> AlgElem:
    """The sum of one to `max_terms` random terms of the band (they may
    cancel), each with a coefficient in -3..3."""
    monos = component_monomials(sig, degree, poly_bound)
    if not monos:
        return sig.zero()
    field, bits = sig.field, rng.getrandbits
    out: dict = {}
    for _ in range(_below(bits, max_terms) + 1):
        m = monos[_below(bits, len(monos))]
        _add_into(field, out, {m: field.of_int(_below(bits, 7) - 3)})
    return AlgElem(sig, out)


def rand_homogeneous(sig, rng, max_degree: int = 4, poly_bound: int = 1) -> AlgElem:
    bits = rng.getrandbits
    for _ in range(6):
        e = rand_elem(sig, _below(bits, max_degree + 1), rng, poly_bound)
        if not e.is_zero():
            return e
    return sig.one()


def _entry_slots(module: FreeModule, degree: int, poly_bound: int) -> tuple:
    """The entries `rand_map` may draw, as ``((r, c), band)`` pairs in row
    order with the band of the entry's degree (empty when it has no
    monomials), and the field's scalars -3..3; kept in ``module._slots``."""
    key = (degree, poly_bound)
    memo = module._slots.get(key)
    if memo is None:
        sig, degs = module.sig, module.degrees
        slots = tuple(
            ((r, c), component_monomials(sig, dc + degree - dr, poly_bound))
            for r, dr in enumerate(degs)
            for c, dc in enumerate(degs)
            if dc + degree - dr >= 0
        )
        memo = module._slots[key] = (slots, tuple(map(sig.field.of_int, range(-3, 4))))
    return memo


def rand_map(
    module: FreeModule,
    degree: int,
    rng: random.Random,
    poly_bound: int = 1,
    density: float = 0.7,
) -> GradedMap:
    """Each entry allowed by the degrees is drawn with probability
    ``density``, as a one-term `rand_elem` of its degree."""
    slots, scalars = _entry_slots(module, degree, poly_bound)
    zero, bits, uniform = module.sig.field.zero, rng.getrandbits, rng.random
    out = {}
    for rc, monos in slots:
        if uniform() > density or not monos:
            continue
        while bits(1):  # the term count of a one-term `rand_elem`: randrange(1)
            pass
        m = monos[_below(bits, len(monos))]
        c = scalars[_below(bits, 7)]
        if c != zero:
            out[rc] = {m: c}
    return _finish(module, degree, out)


def rand_diff(module: FreeModule, rng: random.Random, poly_bound: int = 1) -> Differential:
    """A random element of the differential family (no square-zero promise)."""
    return Differential(rand_map(module, -1, rng, poly_bound))


def rand_dop(module: FreeModule, d: Differential, rng: random.Random, degree: Optional[int] = None) -> DOpPair:
    if degree is None:
        degree = _below(rng.getrandbits, 4) - 2
    return DOpPair(
        rand_map(module, degree, rng),
        rand_map(module, degree + 1, rng),
        d,
    )


def rand_unit(
    module: FreeModule,
    rng: random.Random,
    poly_bound: int = 1,
    strict_raising: bool = True,
) -> GradedMap:
    """Identity plus one nilpotent off-diagonal entry (square zero).

    The inverse is then the identity minus the same entry, so polygen
    degrees of the inverse match the unit; conjugations stay inside
    predictable solver bounds.
    """
    one = GradedMap.identity(module)
    spots = []
    for r in range(module.rank):
        for c in range(module.rank):
            if r == c:
                continue
            want = module.degrees[c] - module.degrees[r]
            if want < 0:
                continue
            if strict_raising and want == 0:
                continue
            spots.append((r, c, want))
    rng.shuffle(spots)
    for r, c, want in spots:
        e = rand_elem(module.sig, want, rng, poly_bound, max_terms=1)
        if not e.is_zero():
            return one + GradedMap(module, 0, {(r, c): e}, check=False)
    return one


class FixturePool:
    """Shared signatures, modules, and square-zero differentials per field."""

    def __init__(self, field: Field):
        self.field = field
        self.S3 = Signature(field, ["a"]).adjoin("X", 1, "a")
        base = Signature(field, ["a", "b"]).adjoin("W1", 1, "a").adjoin("W2", 1, "b")
        self.S1 = base.adjoin("X", 2, "b*W1 - a*W2")
        self.Sodd3 = self.S1.adjoin("Z", 3, "X + W1*W2")
        self.S2 = (
            Signature(field, ["a", "b", "c"])
            .adjoin("X1", 1, "a*b")
            .adjoin("X2", 1, "a*c")
            .adjoin("Y", 2, "c*X1 - b*X2")
        )

        self.N3 = FreeModule(self.S3, [("f0", 0), ("f1", 1), ("f2", 2)])
        self.d3 = Differential(
            GradedMap(
                self.N3,
                -1,
                {
                    (0, 1): self.S3.parse("a"),
                    (1, 2): self.S3.parse("a"),
                    (0, 2): -self.S3.parse("a*X"),
                },
            )
        )
        self.N1 = FreeModule(self.S1, [("e0", 0), ("e1", 3)])
        self.d1 = Differential(
            GradedMap(self.N1, -1, {(0, 1): self.S1.parse("X + W1*W2")})
        )
        self.NK = FreeModule(
            self.S1, [("k0", 0), ("k1", 1), ("k2", 1), ("k3", 2)]
        )
        self.dK = Differential(
            GradedMap(
                self.NK,
                -1,
                {
                    (0, 1): self.S1.parse("a"),
                    (0, 2): self.S1.parse("b"),
                    (1, 3): self.S1.parse("b"),
                    (2, 3): -self.S1.parse("a"),
                },
            )
        )
        self.Nodd = FreeModule(self.Sodd3, [("g0", 0), ("g1", 4)])
        self.dodd = Differential(
            GradedMap(self.Nodd, -1, {(0, 1): self.Sodd3.parse("b*X*W1 - a*X*W2")})
        )
        # small general-purpose modules for operator identities
        self.M2_S3 = FreeModule(self.S3, [("e0", 0), ("e1", 2)])
        self.M2_S1 = FreeModule(self.S1, [("e0", 0), ("e1", 2)])
        self.M2_odd = FreeModule(self.Sodd3, [("e0", 0), ("e1", 3)])

    def any_signature(self, rng: random.Random) -> Signature:
        return [self.S3, self.S1, self.Sodd3, self.S2][_below(rng.getrandbits, 4)]

    def module_with_var(self, rng: random.Random):
        """A module together with the top variable of its signature."""
        mod = [self.N3, self.M2_S3, self.M2_S1, self.M2_odd][_below(rng.getrandbits, 4)]
        return mod, mod.sig.top_variable.name

    def square_zero_instance(self, rng: random.Random):
        """A square-zero differential, conjugated into general position."""
        mod, d = [
            (self.N3, self.d3),
            (self.N1, self.d1),
            (self.NK, self.dK),
            (self.Nodd, self.dodd),
        ][_below(rng.getrandbits, 4)]
        u = rand_unit(mod, rng)
        if u == GradedMap.identity(mod):
            return mod, d, mod.sig.top_variable.name
        return mod, d.conjugate(u), mod.sig.top_variable.name
