import dataclasses
import random

import pytest

from dgalift.algebra import derivative
from dgalift.errors import SchemaError
from dgalift.field import QQ, PrimeField
from dgalift.lift import (
    construct_lift_even,
    construct_lift_odd,
    decide_naive_lift,
    verify_lift,
)
from dgalift.module import (
    Differential,
    FreeModule,
    GradedMap,
    ModuleElement,
    compose,
    invert_unit,
)
from oracles import lifted_matrix_reference, odd_coefficient_module
from dgalift.randgen import FixturePool, rand_diff, rand_elem, rand_unit
from dgalift.tensor import (
    NaiveTensor,
    OddSequence,
    odd_ses,
    rho_from_lift,
    split_by_powers,
    verify_splitting,
)


def test_split_by_powers_odd(S3):
    parts = split_by_powers(S3.parse("a + 2*a*X"), "X")
    assert parts[0] == S3.parse("a")
    assert parts[1] == S3.parse("2*a")


def test_split_by_powers_sign(S1):
    # W1*X = X*W1 for even X, no sign; odd case picks up the move sign
    parts = split_by_powers(S1.parse("W1*X"), "X")
    assert parts[1] == S1.parse("W1")
    parts = split_by_powers(S1.parse("a*W1*W2"), "W2")
    assert parts[1] == -S1.parse("a*W1")


def test_split_reassembles(S1):
    rng = random.Random(4)
    for _ in range(40):
        e = rand_elem(S1, rng.randint(0, 5), rng, poly_bound=2, max_terms=3)
        parts = split_by_powers(e, "X")
        total = S1.zero()
        for i, a in parts.items():
            total = total + S1.gen_power("X", i) * a
        assert total == e


def test_split_inner_variable_reassembles(S1):
    """For an odd variable followed by later factors, the sign only counts
    the factors it actually crosses."""
    sodd = S1.adjoin("Z", 3, "X + W1*W2")
    rng = random.Random(13)
    for var in ("W1", "W2", "Z"):
        for _ in range(30):
            e = rand_elem(sodd, rng.randint(0, 6), rng, poly_bound=1, max_terms=3)
            parts = split_by_powers(e, var)
            total = sodd.zero()
            for i, a in parts.items():
                total = total + sodd.gen_power(var, i) * a
            assert total == e, (var, e)
    # pinned case: W2 precedes the odd generator Z, no sign to cross
    assert split_by_powers(sodd.parse("W2*Z"), "W2")[1] == sodd.parse("Z")


def test_pi_on_slots(N3):
    mod, d = N3
    nt = NaiveTensor(mod, d, "X")
    assert nt.pi(nt.slot("f0", 0)) == mod.basis_elem("f0")
    assert nt.pi(nt.slot("f1", 1, "a")) == mod.elem([("f1", "a*X")])


def test_pi_is_chain_map(N3):
    mod, d = N3
    nt = NaiveTensor(mod, d, "X")
    for lam in range(mod.rank):
        for i in (0, 1):
            t = nt.slot(lam, i, "a")
            assert nt.pi(nt.diff(t)) == d.apply(nt.pi(t))


def test_tensor_diff_squares_to_zero(N3):
    mod, d = N3
    nt = NaiveTensor(mod, d, "X")
    for lam in range(mod.rank):
        for i in (0, 1):
            t = nt.slot(lam, i)
            assert nt.diff(nt.diff(t)).is_zero()


def test_odd_splitting_roundtrip(N3):
    mod, d = N3
    dec = decide_naive_lift(mod, d, "X", 0)
    lift = construct_lift_odd(mod, d, "X", dec.certificate)
    nt = NaiveTensor(lift.module, lift.ambient_diff, "X")
    assert verify_splitting(nt, lift).passed


def test_even_splitting_roundtrip(N1prime):
    mod, d, _, _ = N1prime
    dec = decide_naive_lift(mod, d, "X", 3)
    lift = construct_lift_even(mod, d, "X", dec.certificate)
    nt = NaiveTensor(mod, d, "X")
    rep = verify_splitting(nt, lift)
    assert rep.passed
    rho = rho_from_lift(nt, lift)
    rng = random.Random(6)
    for _ in range(10):
        x = mod.basis_elem(rng.randrange(mod.rank)).scale_right(
            rand_elem(mod.sig, rng.randint(0, 3), rng, poly_bound=1)
        )
        assert nt.pi(rho(x)) == x


def test_even_tensor_slots_unbounded(N1prime):
    mod, d, _, _ = N1prime
    nt = NaiveTensor(mod, d, "X")
    t = nt.slot("e0", 4, "a")
    assert nt.pi(t) == mod.elem([("e0", "a*X^(4)")])
    assert not nt.diff(t).is_zero()


def _section_of_pi(ses, x):
    """A degreewise linear section of the evaluation (not a chain map)."""
    out = ses.nt.zero()
    for lam, c in x.coeffs.items():
        out = out + ses.nt.slot(lam, 0, c)
    return out


def _retract(ses, t):
    """Read a kernel element back off its power-1 slots."""
    return ModuleElement(
        ses.kernel_module, {lam: b for (lam, i), b in t.terms.items() if i == 1}
    )


def test_odd_ses_checks(N3):
    mod, d = N3
    ses = odd_ses(mod, d, "X")
    assert ses.kernel_module.degrees == (1, 2, 3)
    assert ses.kernel_diff.square_zero
    rng = random.Random(8)
    samples = []
    nt = ses.nt
    for _ in range(15):
        lam = rng.randrange(mod.rank)
        i = rng.randint(0, 1)
        b = rand_elem(mod.sig, rng.randint(0, 3), rng, poly_bound=2)
        if b.is_zero():
            continue
        samples.append(nt.slot(lam, i, b))
    rep = ses.check()
    assert rep.passed, rep.failures
    # exactness in the middle: what pi kills is in the image of iota
    for t in samples:
        z = t - _section_of_pi(ses, nt.pi(t))
        assert nt.pi(z).is_zero()
        assert ses.iota(_retract(ses, z)) == z


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr
)
def test_odd_sequence_holds_for_every_differential(field):
    """`OddSequence.check` passes on every odd-top fixture module, with
    square-zero differentials conjugated into general position and with
    random ones that do not square to zero: the sequence exists for every
    ``d``, which is why ``lift`` reports it without a check.  A kernel
    differential with one nonzero entry negated is rejected (except over
    F2, where the sign is invisible)."""
    pool = FixturePool(field)
    rng = random.Random(23)
    odd_mod, odd_d = odd_coefficient_module(field)
    spread = FreeModule(odd_mod.sig, [(f"e{i}", i) for i in range(4)])
    settings = []
    for mod, d0 in [(pool.N3, pool.d3), (pool.Nodd, pool.dodd), (odd_mod, odd_d)]:
        settings.append((mod, d0))
        for _ in range(3):
            u = rand_unit(mod, rng, poly_bound=2)
            settings.append((mod, d0.conjugate(u)))
    for mod in (pool.N3, pool.M2_S3, pool.M2_odd, pool.Nodd, spread):
        for _ in range(4):
            settings.append((mod, rand_diff(mod, rng)))
    assert any(d.square_zero for _, d in settings)
    assert any(not d.square_zero for _, d in settings)
    sees_sign = field.neg(field.one) != field.one
    negated = 0
    for mod, d in settings:
        ses = odd_ses(mod, d, mod.sig.top_variable.name)
        assert ses.check().passed, d
        entries = dict(ses.kernel_diff.matrix.entries)
        if not sees_sign or not entries:
            continue
        key = rng.choice(sorted(entries))
        entries[key] = -entries[key]
        bad = Differential(GradedMap(ses.kernel_module, -1, entries))
        assert not OddSequence(ses.nt, ses.kernel_module, bad).check().passed, (d, key)
        negated += 1
    assert negated > 0 if sees_sign else negated == 0


def test_odd_ses_composite_zero(N3):
    mod, d = N3
    ses = odd_ses(mod, d, "X")
    for lam in range(ses.kernel_module.rank):
        assert ses.nt.pi(ses.iota(ses.kernel_module.basis_elem(lam))).is_zero()


def test_odd_ses_rejects_even_variable(N1prime):
    mod, d, _, _ = N1prime
    with pytest.raises(SchemaError):
        odd_ses(mod, d, "X")


def test_naive_tensor_requires_top_variable(S1):
    mod = FreeModule(S1, [("e0", 0)])
    with pytest.raises(SchemaError):
        NaiveTensor(mod, Differential.free(mod), "W1")


def _x_unit(lift):
    """The lift in the basis ``u o (1 + X E_rc)``, for the first spot where
    that puts the variable into the lifted matrix."""
    mod = lift.module
    x = mod.sig.gen(lift.var_name)
    for r in range(mod.rank):
        for c in range(mod.rank):
            if mod.degrees[c] - mod.degrees[r] != x.degree():
                continue
            u = compose(lift.u, GradedMap.identity(mod) + GradedMap(mod, 0, {(r, c): x}))
            lift_diff = Differential(lifted_matrix_reference(lift.ambient_diff, u, invert_unit(u)))
            entries = lift_diff.matrix.entries.values()
            if any(not derivative(e, lift.var_name).is_zero() for e in entries):
                return dataclasses.replace(lift, u=u, lift_diff=lift_diff)
    raise AssertionError("no basis change through the variable")


def _wrong_u(lift):
    """The lift with the first entry of ``u`` off its diagonal doubled, and
    ``lift_diff`` kept: ``u`` stays unipotent, but its columns no longer
    carry ``D'``."""
    u = lift.u
    key = min(k for k in u.entries if k[0] != k[1])
    entries = dict(u.entries) | {key: u.entries[key] + u.entries[key]}
    return dataclasses.replace(lift, u=GradedMap(lift.module, 0, entries, check=False))


@pytest.mark.parametrize(
    "mutate", [_x_unit, _wrong_u], ids=["x-dependent-entry", "wrong-u"]
)
def test_splitting_oracle_and_verify_lift_reject_mutated_lifts(N3, N1prime, mutate):
    """A basis change whose lifted matrix depends on the variable, and a
    wrong ``u`` with the lifted matrix kept: both `verify_splitting` and
    `verify_lift` reject each, for an odd and an even lift."""
    mod3, d3 = N3
    mod1, d1, _, _ = N1prime
    lifts = [
        construct_lift_odd(mod3, d3, "X", decide_naive_lift(mod3, d3, "X", 0).certificate),
        construct_lift_even(mod1, d1, "X", decide_naive_lift(mod1, d1, "X", 3).certificate),
    ]
    for lift in lifts:
        nt = NaiveTensor(lift.module, lift.ambient_diff, "X")
        assert verify_splitting(nt, lift).passed
        bad = mutate(lift)
        rep = verify_lift(bad.lift_diff, bad.u, bad.ambient_diff, "X")
        assert not rep.passed
        if mutate is _x_unit:  # conjugation still holds: only X-freeness fails
            assert all("depends on X" in f for f in rep.failures), rep.failures
        assert not verify_splitting(nt, bad).passed


def test_tensor_guards(N3):
    """Elements of two constructions, a differential or a lift of another
    module, and an odd slot past the first power."""
    mod, d = N3
    other = FreeModule(mod.sig, [("g0", 0), ("g1", 1), ("g2", 2)])  # N3's degrees, other names
    nt = NaiveTensor(mod, d, "X")
    nt_other = NaiveTensor(other, Differential.free(other), "X")
    for combine in (lambda s, t: s + t, lambda s, t: s - t):
        with pytest.raises(SchemaError) as raised:
            combine(nt.slot(0, 0), nt_other.slot(0, 0))
        assert str(raised.value) == "tensor elements from different constructions"
    with pytest.raises(SchemaError) as raised:
        NaiveTensor(other, d, "X")
    assert str(raised.value) == "differential acts on a different module"
    assert nt.slot("f1", 2, "a") == nt.zero() and nt.slot("f1", 2, "a").is_zero()
    lift = construct_lift_odd(mod, d, "X", decide_naive_lift(mod, d, "X", 0).certificate)
    with pytest.raises(SchemaError) as raised:
        rho_from_lift(nt_other, lift)
    assert str(raised.value) == "lift belongs to a different module"
