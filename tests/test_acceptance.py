"""Acceptance criteria.

Every check is exact (zero tolerance); the only numeric limits are the
stated wall-clock budgets.  Each test prints one pass line so a verbose
run doubles as the acceptance transcript:

    pytest tests/test_acceptance.py -v -s
"""

import random
import time

from dgalift import QQ, PrimeField, Signature, derivative, is_boundary_up_to
from dgalift.algebra import AlgElem, component_monomials
from dgalift.jop import JOperator
from dgalift.lift import (
    construct_lift_even,
    construct_lift_odd,
    decide_naive_lift,
    solve_homotopy,
    obstruction,
    verify_lift,
)
from dgalift.module import (
    Differential,
    GradedMap,
    bracket_diff,
    invert_unit,
    left_mult,
    twofold_extension,
)
from dgalift.randgen import FixturePool, rand_unit
from dgalift.selftest import CORE_IDENTITY_SUITES, run_suite
from dgalift.tensor import NaiveTensor, verify_splitting
from oracles import unit_poly_degree

FIELDS = [QQ, PrimeField(5)]


def _report(criterion: str, detail: str):
    print(f"[acceptance] {criterion}: PASS ({detail})")


def test_a1_identity_suites():
    """A1: the core exact identities, 500 seeded instances per field each."""
    iters = 500
    start = time.perf_counter()
    total = 0
    for field in FIELDS:
        pool = FixturePool(field)
        for name in CORE_IDENTITY_SUITES:
            result = run_suite(name, field, seed=1202, iters=iters, pool=pool)
            assert result["failures"] == 0, result
            total += result["instances"]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"identity suites took {elapsed:.1f}s"
    _report(
        "A1 identity suites",
        f"{len(CORE_IDENTITY_SUITES)} identities x {iters} instances x "
        f"{len(FIELDS)} fields = {total} checks, exact, {elapsed:.1f}s",
    )


def test_a2_inner_variable_derivative(S2):
    """A2: the inner-variable derivative of the top cycle is not a boundary."""
    dy = S2.parse("c*X1 - b*X2")
    assert derivative(dy, "X1") == S2.parse("c")
    assert is_boundary_up_to(S2.parse("c"), 4) is None
    _report("A2 inner-variable reproduction", "derivative is c; no bounding element up to degree 4")


def test_a3_odd_weak_lift_roundtrip(N3):
    """A3: odd-variable certificate at bound 0 and a fully verified lift."""
    start = time.perf_counter()
    mod, d = N3
    dec = decide_naive_lift(mod, d, "X", 0)
    assert dec.vanishes
    lift = construct_lift_odd(mod, d, "X", dec.certificate)
    for e in lift.lift_diff.matrix.entries.values():
        assert derivative(e, "X").is_zero()
    assert lift.lift_diff.square_zero
    rep = verify_lift(lift.lift_diff, lift.u, lift.ambient_diff, "X", u_inv=lift.u_inv)
    assert rep.passed, rep.failures
    nt = NaiveTensor(lift.module, lift.ambient_diff, "X")
    assert verify_splitting(nt, lift).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"odd roundtrip took {elapsed:.1f}s"
    _report(
        "A3 odd weak lift roundtrip",
        f"rank-{lift.module.rank} lift over the polynomial subring, verified, {elapsed:.2f}s",
    )


def test_a4_even_non_lift(N1):
    """A4: the rank-two fixture has no certificate up to polygen degree 3.

    Independent oracle: the only admissible matrix slot produces bracket
    values with no constant term, while the obstruction has one; the
    assembled system is the unsolvable a*p + b*q = 1.
    """
    start = time.perf_counter()
    mod, d = N1
    sig = mod.sig
    h = obstruction(mod, d, "X")
    one_mono = ((0, 0), (0, 0, 0))
    assert h.entry("e0", "e1") == sig.one()

    # oracle by enumeration: no candidate unknown can reach the constant term
    gamma_degree = -2
    for r in range(mod.rank):
        for c in range(mod.rank):
            want = mod.degrees[c] + gamma_degree - mod.degrees[r]
            if want < 0:
                continue
            assert (r, c) == (0, 1) and want == 1
            for m in component_monomials(sig, want, 3):
                unit = GradedMap(
                    mod, gamma_degree, {(r, c): AlgElem(sig, {m: sig.field.one})}
                )
                img = bracket_diff(d, unit).entry("e0", "e1")
                assert one_mono not in img.terms, "oracle contradiction"

    assert solve_homotopy(mod, d, h, 3) is None
    assert not decide_naive_lift(mod, d, "X", 3).vanishes
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("A4 even non-lift", f"no certificate up to degree 3, oracle agrees, {elapsed:.2f}s")


def test_a5_even_lift_roundtrip(N1prime):
    """A5: the twisted fixture is recognized and its lift re-verified."""
    start = time.perf_counter()
    mod, d, m_flat, _ = N1prime
    dec = decide_naive_lift(mod, d, "X", 3)
    assert dec.vanishes
    lift = construct_lift_even(mod, d, "X", dec.certificate)
    rep = verify_lift(lift.lift_diff, lift.u, d, "X", u_inv=lift.u_inv)
    assert rep.passed, rep.failures
    assert lift.lift_diff == m_flat
    nt = NaiveTensor(mod, d, "X")
    assert verify_splitting(nt, lift).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("A5 even lift roundtrip", f"flat matrix recovered exactly, verified, {elapsed:.2f}s")


def test_a6_obstruction_invariance(N3, N1prime):
    """A6: verdicts are stable under 50 random basis changes per fixture."""
    rng = random.Random(606)
    settings = [
        ("N3", N3[0], N3[1], 0),
        ("N1prime", N1prime[0], N1prime[1], 3),
    ]
    checked = 0
    for label, mod, d, base_bound in settings:
        jop = JOperator(mod, "X")
        for _ in range(50):
            u = rand_unit(mod, rng, poly_bound=1)
            ui = invert_unit(u)
            d2 = d.conjugate(u, ui)
            assert d2.square_zero
            bound = base_bound + 2 * unit_poly_degree(u)
            dec = decide_naive_lift(mod, d2, "X", bound)
            assert dec.vanishes, (label, u)
            gamma = dec.certificate
            assert bracket_diff(d2, gamma) == jop.of_diff(d2)
            checked += 1
    _report("A6 obstruction invariance", f"{checked} conjugated instances, certificates exact")


def test_a7_divided_power_law(S1):
    """A7: the binomial structure constant over the rationals and mod 5."""
    assert S1.parse("X^(2)") * S1.parse("X^(3)") == S1.parse("10*X^(5)")
    s5 = (
        Signature(PrimeField(5), ["a", "b"])
        .adjoin("W1", 1, "a")
        .adjoin("W2", 1, "b")
        .adjoin("X", 2, "b*W1 - a*W2")
    )
    assert (s5.parse("X^(2)") * s5.parse("X^(3)")).is_zero()
    _report("A7 divided-power law", "10*X^(5) over Q, zero mod 5")


def test_a8_jop_anchors():
    """A8: operator anchors on every square-zero fixture, both fields."""
    count = 0
    for field in FIELDS:
        pool = FixturePool(field)
        fixtures = [
            (pool.N3, pool.d3),
            (pool.N1, pool.d1),
            (pool.NK, pool.dK),
            (pool.Nodd, pool.dodd),
        ]
        doubled, ds = twofold_extension(pool.N3, pool.d3, -1)
        fixtures.append((doubled, ds))
        for mod, d in fixtures:
            assert d.square_zero
            sig = mod.sig
            var = sig.top_variable.name
            j = JOperator(mod, var)
            assert j.of_map(left_mult(mod, sig.gen(var))) == GradedMap.identity(mod)
            assert j.of_map(left_mult(mod, sig.gen(sig.polygens[0]))).is_zero()
            assert j.of_diff(Differential.free(mod)).is_zero()
            assert bracket_diff(d, j.of_diff(d)).is_zero()
            count += 1
    _report("A8 operator anchors", f"{count} square-zero fixtures x 4 anchors, exact")
