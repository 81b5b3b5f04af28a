import random

import pytest

from dgalift.errors import SchemaError
from dgalift.field import QQ, PrimeField
from dgalift.jop import JOperator, base_change_defect
from dgalift.lift import decide_naive_lift
from dgalift.module import (
    Differential,
    DOpPair,
    FreeModule,
    GradedMap,
    bracket,
    bracket_diff,
    compose,
    invert_unit,
    left_mult,
)
from dgalift.randgen import FixturePool, rand_diff, rand_dop, rand_map, rand_unit
from oracles import WeakJOp, characterization_check


def test_j_of_left_mult_variable(N3):
    mod, _ = N3
    j = JOperator(mod, "X")
    assert j.of_map(left_mult(mod, mod.sig.parse("X"))) == GradedMap.identity(mod)
    assert j.degree == -1


def test_j_kills_variable_free(N3):
    mod, _ = N3
    j = JOperator(mod, "X")
    assert j.of_map(left_mult(mod, mod.sig.parse("a"))).is_zero()


def test_j_entry_sign(S3):
    mod = FreeModule(S3, [("e0", 0), ("e1", 1), ("e2", 2)])
    j = JOperator(mod, "X")
    alpha = GradedMap.single(mod, "e0", "e2", -S3.parse("a*X"))
    assert j.of_map(alpha) == GradedMap.single(mod, "e0", "e2", -S3.parse("a"), degree=-2)


def test_j_of_free_differential(N3):
    mod, _ = N3
    j = JOperator(mod, "X")
    assert j.of_diff(Differential.free(mod)).is_zero()


def test_j_of_fixture_differentials(N3, N1):
    mod3, d3 = N3
    j3 = JOperator(mod3, "X")
    assert j3.of_diff(d3) == GradedMap.single(
        mod3, "f0", "f2", -mod3.sig.parse("a"), degree=-2
    )
    mod1, d1 = N1
    j1 = JOperator(mod1, "X")
    assert j1.of_diff(d1) == GradedMap.single(
        mod1, "e0", "e1", mod1.sig.one(), degree=-3
    )


def test_j_dop_cases(N3):
    mod, d = N3
    j = JOperator(mod, "X")
    f = GradedMap.single(mod, "f0", "f1", mod.sig.parse("X"), degree=0)
    p = DOpPair.of_map(f, d)
    jp = j.of_dop(p)
    assert jp.f == j.of_map(f) and jp.g.is_zero()
    jd = j.of_dop(DOpPair.of_diff(d))
    assert jd.f == j.of_diff(d) and jd.g.is_zero()


def test_j_top_flag(S1):
    mod = FreeModule(S1, [("e0", 0)])
    assert JOperator(mod, "X").is_top
    assert not JOperator(mod, "W1").is_top
    with pytest.raises(SchemaError):
        JOperator(mod, "nope")


def test_weakjop_zero_gamma_is_j(N3):
    mod, d = N3
    j = JOperator(mod, "X")
    delta = JOperator(mod, "X", GradedMap.zero(mod, -1))
    f = GradedMap.single(mod, "f0", "f2", mod.sig.parse("a*X"), degree=-1)
    assert delta.of_map(f) == j.of_map(f)
    assert delta.of_diff(d) == j.of_diff(d)


def test_weakjop_kills_variable_free_scalars(N3):
    mod, d = N3
    rng = random.Random(2)
    j = JOperator(mod, "X")
    delta = JOperator(mod, "X", -rand_map(mod, -1, rng))
    for text in ["a", "3*a^2"]:
        assert delta.of_map(left_mult(mod, mod.sig.parse(text))).is_zero()


def test_weakjop_certificate_kills_differential(N3):
    mod, d = N3
    j = JOperator(mod, "X")
    gamma = GradedMap.single(mod, "f0", "f1", -mod.sig.one(), degree=-1)
    delta = JOperator(mod, "X", -gamma)
    assert delta.of_diff(d).is_zero()


def test_weakjop_degree_validation(N3, S3):
    mod, _ = N3
    with pytest.raises(SchemaError):
        JOperator(mod, "X", GradedMap.single(mod, "f0", "f2", mod.sig.parse("a"), degree=-2))
    other = FreeModule(S3, [("f0", 0), ("f1", 1)])
    with pytest.raises(SchemaError):
        JOperator(mod, "X", GradedMap.single(other, "f0", "f1", S3.one(), degree=-1))


def test_base_change_defect_values(N3):
    mod, _ = N3
    j = JOperator(mod, "X")
    assert base_change_defect(j, GradedMap.identity(mod)).is_zero()
    # unit with all entries free of the variable: defect vanishes
    u_flat = GradedMap.identity(mod) + GradedMap.single(
        mod, "f1", "f1", mod.sig.one(), degree=0
    )
    assert base_change_defect(j, u_flat).is_zero()
    u = GradedMap.identity(mod) + GradedMap.single(mod, "f0", "f1", mod.sig.parse("X"))
    alpha = base_change_defect(j, u)
    assert alpha == GradedMap.single(mod, "f0", "f1", mod.sig.one(), degree=-1)


def test_base_change_defect_property(N3):
    mod, _ = N3
    rng = random.Random(9)
    j = JOperator(mod, "X")
    u = GradedMap.identity(mod) + GradedMap.single(
        mod, "f1", "f2", mod.sig.parse("a*X"), degree=0
    )
    ui = invert_unit(u)
    alpha = base_change_defect(j, u, ui)
    for _ in range(25):
        f = rand_map(mod, rng.randint(-2, 2), rng)
        transported = compose(compose(u, j.of_map(compose(compose(ui, f), u))), ui)
        assert j.of_map(f) - transported == bracket(alpha, f)
    # another basis shifts j by a commutator: u j(u^-1 f u) u^-1 = (j - [alpha, -])(f)
    shifted = 0
    for _ in range(4):
        v = rand_unit(mod, rng)
        vi = invert_unit(v)
        new_basis_op = JOperator(mod, "X", -base_change_defect(j, v, vi))
        shifted += not new_basis_op.gamma.is_zero()
        for _ in range(5):
            f = rand_map(mod, rng.randint(-2, 2), rng)
            transported = compose(compose(v, j.of_map(compose(compose(vi, f), v))), vi)
            assert transported == new_basis_op.of_map(f)
    assert shifted > 0


def test_characterization_accepts_j(N3):
    mod, _ = N3
    j = JOperator(mod, "X")
    assert characterization_check(lambda t: j(t), j).passed


def test_characterization_accepts_central_cycle_twist(N3):
    mod, d = N3
    sig = mod.sig
    j = JOperator(mod, "X")
    # gamma = left multiplication by a degree -|X| cycle is impossible here
    # (no negative-degree elements), so use ad of a cycle on the nose:
    lb = left_mult(mod, sig.parse("a"))

    def delta(t):
        out = j(t)
        br = (
            DOpPair.of_map(lb, d).bracket(t)
            if isinstance(t, DOpPair)
            else None
        )
        if isinstance(t, GradedMap):
            return out + bracket(lb, t)
        if isinstance(t, Differential):
            extra = bracket_diff(t, lb)
            return out - extra if lb.degree % 2 == 0 else out + extra
        return out + br

    # ad(l_a) vanishes identically on linear maps and on differentials of cycles
    rep = characterization_check(delta, j)
    assert rep.passed


def test_characterization_rejects_bad_twist(N3):
    mod, _ = N3
    j = JOperator(mod, "X")
    bad = GradedMap.single(mod, "f0", "f1", -mod.sig.one(), degree=-1)
    delta = JOperator(mod, "X", bad)
    rep = characterization_check(lambda t: delta(t), j)
    assert not rep.passed
    assert any("eps" in msg or "matrix unit" in msg for msg in rep.failures)


def test_even_divided_power_condition(S1):
    mod = FreeModule(S1, [("e0", 0), ("e1", 2), ("e2", 4)])
    j = JOperator(mod, "X")
    rep = characterization_check(lambda t: j(t), j)
    assert rep.passed
    sig = mod.sig
    for n in (1, 2, 3):
        got = j.of_map(left_mult(mod, sig.gen_power("X", n)))
        want = (
            GradedMap.identity(mod)
            if n == 1
            else left_mult(mod, sig.gen_power("X", n - 1))
        )
        assert got == want


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_joperator_matches_two_class_oracle(field):
    """``JOperator(mod, X, sign * gamma)`` agrees with the two-class oracle
    ``WeakJOp(JOperator(mod, X), sign, gamma)`` on maps, differentials and
    pairs: both signs, zero, random and certificate gamma, on every module
    of the fixture pool with its differential, a conjugate of it and a
    random one."""
    pool = FixturePool(field)
    rng = random.Random(29)
    cases = [(pool.N3, pool.d3), (pool.N1, pool.d1), (pool.NK, pool.dK), (pool.Nodd, pool.dodd)]
    cases += [(mod, None) for mod in (pool.M2_S3, pool.M2_S1, pool.M2_odd)]
    certificates = twisted = 0
    for mod, d0 in cases:
        var = mod.sig.top_variable.name
        j = JOperator(mod, var)
        diffs = [rand_diff(mod, rng)]
        if d0 is not None:
            u = rand_unit(mod, rng)
            diffs += [d0, d0.conjugate(u, invert_unit(u))]
        for d in diffs:
            gammas = [GradedMap.zero(mod, j.degree)]
            gammas += [rand_map(mod, j.degree, rng, poly_bound=2) for _ in range(2)]
            if d.square_zero:
                dec = decide_naive_lift(mod, d, var, 2)
                if dec.vanishes:
                    gammas.append(dec.certificate)
                    certificates += 1
            maps = [rand_map(mod, rng.randint(-2, 2), rng) for _ in range(3)]
            pairs = [rand_dop(mod, d, rng) for _ in range(2)]
            for gamma in gammas:
                for sign in (1, -1):
                    merged = JOperator(mod, var, gamma if sign > 0 else -gamma)
                    oracle = WeakJOp(j, sign, gamma)
                    for f in maps:
                        assert merged.of_map(f) == oracle.of_map(f)
                        twisted += merged.of_map(f) != j.of_map(f)
                    assert merged.of_diff(d) == oracle.of_diff(d)
                    for p in pairs:
                        assert merged.of_dop(p) == oracle.of_dop(p)
    assert certificates > 0 and twisted > 0
