import itertools
import random
import signal
import tempfile
import time
from operator import mul

import pytest

from dgalift import QQ, Signature, derivative, diff
from dgalift.algebra import AlgElem, component_monomials
from dgalift.errors import NotInvertibleError, SchemaError, VerificationError
import dgalift.lift as lift_module
import dgalift.solver as solver_module
from dgalift.field import PrimeField
from dgalift.io import load_json, matrix_to_doc, module_from_doc, signature_from_doc
from dgalift.jop import JOperator
from dgalift.lift import (
    _basis_change,
    _beta_sharp,
    _grading,
    _homotopy_columns,
    _Grading,
    _kernel,
    _row_keys,
    _unpack,
    construct_lift_even,
    construct_lift_odd,
    decide_naive_lift,
    obstruction,
    solve_homotopy,
    verify_lift,
)
from dgalift.module import (
    Differential,
    FreeModule,
    GradedMap,
    _flat_inverse,
    bracket,
    bracket_diff,
    compose,
    invert_unit,
    left_mult,
    sharp_map,
    twofold_extension,
)
from dgalift.randgen import (
    FixturePool,
    rand_diff,
    rand_elem,
    rand_homogeneous,
    rand_map,
    rand_unit,
)
from dgalift.solver import solve_exact
from oracles import (
    _coefficients,
    band_reference,
    basis_change_reference,
    block_filter,
    component_monomials_reference,
    decode_rows,
    grading_reference,
    grading_two_pass_reference,
    homotopy_columns_reference,
    idempotent,
    invert_unit_reference,
    is_scalar_cycle,
    kernel_reference,
    koszul,
    lifted_matrix_reference,
    monomial_class,
    ones_filter,
    series_plus_reference,
    solve_homotopy_reference,
    trivial_grading,
    unit_elementary,
    unit_poly_degree,
    var_weights_reference,
    verify_lift_inverse_free_reference,
    verify_lift_reference,
    weights_reference,
)
from test_cli_fuzz import CAP_S, _time_cap
from test_corpus import _gen as _corpus_gen, _inputs as _corpus_inputs
from test_kernel import _GRID, _no_polygen_signature


def _doubled_derivation(mod, d, gamma, var="X"):
    """``(d_sharp, j_sharp, g)`` with ``Gamma = j_sharp + [g, -]`` on the
    doubled module, built from a certificate as `construct_lift_odd` does."""
    jop = JOperator(mod, var)
    k = -jop.var.degree
    alpha = compose(gamma, gamma) - jop.of_map(gamma)
    doubled, d_sharp = twofold_extension(mod, d, k)
    g = _beta_sharp(doubled, mod, alpha, k) - sharp_map(gamma, doubled, k)
    return d_sharp, JOperator(doubled, var), g


def _squares_to_zero_on_units(big_gamma, d_sharp):
    """Reference check: ``Gamma^2`` applied to every matrix unit and to d."""
    dbl = d_sharp.module
    for lam in range(dbl.rank):
        for mu in range(dbl.rank):
            t = unit_elementary(dbl, lam, mu)
            if not big_gamma.of_map(big_gamma.of_map(t)).is_zero():
                return False
    return big_gamma.of_map(big_gamma.of_diff(d_sharp)).is_zero()


def _is_scalar_cycle_by_units(f, d):
    """Reference `is_scalar_cycle`: commutation with every matrix unit first."""
    module = f.module
    for lam in range(module.rank):
        for mu in range(module.rank):
            if not bracket(f, unit_elementary(module, lam, mu)).is_zero():
                return None
    if not bracket_diff(d, f).is_zero():
        return None
    if f.is_zero():
        return module.sig.zero()
    b = f.entry(0, 0)
    if (f.degree * module.degrees[0]) % 2:
        b = -b
    if f != left_mult(module, b) or not diff(b).is_zero():
        return None
    return b


def _assert_corrected_projections(mod, d, lift, var="X"):
    """The projections ``Gamma(l_X eps_i)`` behind an odd lift are orthogonal
    idempotents summing to the identity, and give the columns of ``u``."""
    d_sharp, _, g = _doubled_derivation(mod, d, lift.certificate, var)
    assert d_sharp == lift.ambient_diff
    dbl = lift.module
    big_gamma = JOperator(dbl, var, g)
    lx = left_mult(dbl, dbl.sig.gen(var))
    ps = [big_gamma.of_map(compose(lx, idempotent(dbl, i))) for i in range(dbl.rank)]
    total = GradedMap.zero(dbl, 0)
    for p in ps:
        total = total + p
    assert total == GradedMap.identity(dbl)
    for i, p in enumerate(ps):
        for k, q in enumerate(ps):
            assert compose(p, q) == (p if i == k else GradedMap.zero(dbl, 0))
        e = dbl.basis_elem(i)
        assert lift.u.apply(e) == p.apply(e)


def test_obstruction_values(N3, N1):
    mod3, d3 = N3
    h = obstruction(mod3, d3, "X")
    assert bracket_diff(d3, h).is_zero()
    assert h == GradedMap.single(mod3, "f0", "f2", -mod3.sig.parse("a"), degree=-2)
    mod1, d1 = N1
    want1 = GradedMap.single(mod1, "e0", "e1", mod1.sig.one(), degree=-3)
    assert obstruction(mod1, d1, "X") == want1


def test_obstruction_of_flat_differential(S1):
    mod = FreeModule(S1, [("e0", 0), ("e1", 1)])
    d = Differential(GradedMap(mod, -1, {(0, 1): S1.parse("a")}))
    assert obstruction(mod, d, "X").is_zero()


def test_obstruction_preconditions(S3, S1):
    mod = FreeModule(S3, [("e0", 0), ("e1", 2)])
    bad = Differential(GradedMap(mod, -1, {(0, 1): S3.parse("X")}))
    with pytest.raises(SchemaError):
        obstruction(mod, bad, "X")  # square is not zero
    degen = Signature(QQ, ["a"])
    dm = FreeModule(degen, [("e0", 0)])
    with pytest.raises(SchemaError):
        obstruction(dm, Differential.free(dm), "X")
    mod1 = FreeModule(S1, [("e0", 0)])
    with pytest.raises(SchemaError):
        obstruction(mod1, Differential.free(mod1), "W1")  # not the top variable


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_obstruction_is_a_cycle(field):
    """``[d, j(d)] = 0`` wherever ``d o d = 0``, which `obstruction` proves
    and does not check: on every `_grading_cases` and `_rung_cases` input,
    and on every corpus input over the field (`tests/test_corpus.py`; the
    benchmark draws them over Q and F5 only)."""
    pool = FixturePool(field)
    rng = random.Random(73)
    cases = _grading_cases(pool, rng) + _rung_cases(field, rng)
    with tempfile.TemporaryDirectory() as tmp:
        for _, sig_path, mod_path, _ in _corpus_inputs(tmp):
            sig = signature_from_doc(load_json(sig_path)[0])
            if sig.field == field:
                cases.append(module_from_doc(load_json(mod_path)[0], sig))
    nonzero = 0
    for mod, d in cases:
        h = obstruction(mod, d, mod.sig.top_variable.name)
        assert bracket_diff(d, h).is_zero()
        nonzero += not h.is_zero()
    assert nonzero > 0


def test_solve_homotopy_fixture(N3):
    mod, d = N3
    h = obstruction(mod, d, "X")
    gamma = solve_homotopy(mod, d, h, 0)
    assert gamma is not None
    # deterministic first solution of the documented unknown order
    assert gamma == GradedMap.single(mod, "f0", "f1", -mod.sig.one(), degree=-1)
    assert bracket_diff(d, gamma) == h


def test_solve_homotopy_not_found(N1, S3):
    mod, d = N1
    assert solve_homotopy(mod, d, obstruction(mod, d, "X"), 3) is None
    # X is odd, so no monomial has degree 2 and the system has no unknowns
    mod1 = FreeModule(S3, [("e0", 0)])
    h = GradedMap(mod1, 1, {(0, 0): S3.parse("X")})
    assert solve_homotopy(mod1, Differential.free(mod1), h, 2) is None


def test_solve_homotopy_rejects_foreign_module(N3, S3):
    mod, d = N3
    h = obstruction(mod, d, "X")
    other = FreeModule(S3, [("g0", 0), ("g1", 1), ("g2", 2)])
    d_other = Differential(GradedMap(other, -1, dict(d.matrix.entries)))
    h_other = GradedMap(other, h.degree, dict(h.entries))
    for dd, hh in ((d_other, h), (d, h_other), (d_other, h_other)):
        with pytest.raises(SchemaError, match="must act on the given module"):
            solve_homotopy(mod, dd, hh, 0)


def test_solve_homotopy_zero_obstruction(S1, S3):
    mod = FreeModule(S1, [("e0", 0), ("e1", 1)])
    d = Differential(GradedMap(mod, -1, {(0, 1): S1.parse("a")}))
    gamma = solve_homotopy(mod, d, obstruction(mod, d, "X"), 0)
    assert gamma is not None and gamma.is_zero()
    # rank 1: gamma has degree -|X| < 0, so the system has no unknowns
    mod1 = FreeModule(S3, [("e0", 0)])
    dec = decide_naive_lift(mod1, Differential.free(mod1), "X", 2)
    assert dec.vanishes and dec.certificate == GradedMap.zero(mod1, -1)


def test_zero_target_needs_no_search(N3, N1, monkeypatch):
    """A zero target is answered by the zero map of the homotopy's degree
    without a search (`_grading` is never called): the solution with
    every free unknown zero that the full system gives
    (`solve_homotopy_reference`), at target degrees -2 to 0 and bounds 0
    and 3, on the README example, ``N1`` and `_finer_rung`."""

    def refuse(*args):
        raise AssertionError("a zero target ran the search")

    monkeypatch.setattr(lift_module, "_grading", refuse)
    for mod, d in (N3, N1, _finer_rung(QQ, random.Random(3))):
        for degree, bound in itertools.product((-2, -1, 0), (0, 3)):
            zero = GradedMap.zero(mod, degree)
            want = solve_homotopy_reference(mod, d, zero, bound)
            assert solve_homotopy(mod, d, zero, bound) == want == GradedMap.zero(mod, degree + 1)


def test_decide_naive_lift(N3, N1):
    mod3, d3 = N3
    dec = decide_naive_lift(mod3, d3, "X", 0)
    assert dec.vanishes
    mod1, d1 = N1
    dec1 = decide_naive_lift(mod1, d1, "X", 3)
    assert not dec1.vanishes


def test_even_lift_trivial(S1):
    mod = FreeModule(S1, [("e0", 0), ("e1", 1)])
    d = Differential(GradedMap(mod, -1, {(0, 1): S1.parse("a")}))
    cert = decide_naive_lift(mod, d, "X", 0).certificate
    result = construct_lift_even(mod, d, "X", cert)
    assert result.u == GradedMap.identity(mod)
    assert result.lift_diff == d


def test_even_lift_roundtrip(N1prime):
    mod, d, m_flat, u0 = N1prime
    dec = decide_naive_lift(mod, d, "X", 3)
    assert dec.vanishes
    result = construct_lift_even(mod, d, "X", dec.certificate)
    for e in result.lift_diff.matrix.entries.values():
        assert derivative(e, "X").is_zero()
    assert result.lift_diff.square_zero
    rep = verify_lift(result.lift_diff, result.u, d, "X")
    assert rep.passed
    # this fixture was twisted from a known flat matrix; the pipeline finds it
    assert result.lift_diff == m_flat


def test_even_lift_rejects_bad_certificate(N1):
    mod, d = N1
    bogus = GradedMap.zero(mod, -2)
    with pytest.raises(VerificationError):
        construct_lift_even(mod, d, "X", bogus)


def test_odd_lift_roundtrip(N3):
    mod, d = N3
    dec = decide_naive_lift(mod, d, "X", 0)
    result = construct_lift_odd(mod, d, "X", dec.certificate)
    assert result.module.rank == 2 * mod.rank
    assert result.shift_k == -1
    for e in result.lift_diff.matrix.entries.values():
        assert derivative(e, "X").is_zero()
    assert result.lift_diff.square_zero
    rep = verify_lift(result.lift_diff, result.u, result.ambient_diff, "X")
    assert rep.passed
    _assert_corrected_projections(mod, d, result)


def test_odd_lift_flat_input(S3):
    mod = FreeModule(S3, [("e0", 0), ("e1", 1)])
    d = Differential(GradedMap(mod, -1, {(0, 1): S3.parse("a")}))
    cert = decide_naive_lift(mod, d, "X", 0).certificate
    assert cert.is_zero()
    result = construct_lift_odd(mod, d, "X", cert)
    for e in result.lift_diff.matrix.entries.values():
        assert derivative(e, "X").is_zero()


def test_odd_parity_guards(N3, N1prime):
    mod3, d3 = N3
    cert3 = decide_naive_lift(mod3, d3, "X", 0).certificate
    with pytest.raises(SchemaError):
        construct_lift_even(mod3, d3, "X", cert3)  # X is odd here
    mod, d, _, _ = N1prime
    cert = decide_naive_lift(mod, d, "X", 3).certificate
    with pytest.raises(SchemaError):
        construct_lift_odd(mod, d, "X", cert)  # X is even here


def test_odd_lift_rejects_bad_certificate(N3):
    """The zero map is no certificate here.  The lifted matrix is built free
    of ``X`` whatever ``gamma``, so the conjugation identity is what fails."""
    mod, d = N3
    assert not obstruction(mod, d, "X").is_zero()
    with pytest.raises(VerificationError, match=r"^odd lift failed verification: ") as failed:
        construct_lift_odd(mod, d, "X", GradedMap.zero(mod, -1))
    assert "depends on" not in str(failed.value)
    assert "conjugation identity fails on column" in str(failed.value)


def _nonzero_map(mod, degree, rng):
    for _ in range(100):
        f = rand_map(mod, degree, rng, poly_bound=1, density=1.0)
        if not f.is_zero():
            return f
    raise AssertionError(f"no nonzero map of degree {degree} on {mod!r}")


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
def test_construction_rejects_gamma_of_wrong_degree_or_module(field):
    """A nonzero ``gamma`` of a degree other than ``-|X|``, or one on another
    module of the same degrees, gets `SchemaError` with `JOperator`'s
    message from both constructions, before any arithmetic could fail on
    it in another way."""
    pool = FixturePool(field)
    rng = random.Random(97)
    for mod, d, construct in ((pool.NK, pool.dK, construct_lift_even), (pool.N3, pool.d3, construct_lift_odd)):
        degree = JOperator(mod, "X").degree
        for wrong in (degree + 1, degree + 2):
            gamma = _nonzero_map(mod, wrong, rng)
            with pytest.raises(SchemaError, match=f"^gamma must have degree {degree}, found {wrong}$"):
                construct(mod, d, "X", gamma)
        other = FreeModule(mod.sig, [(name + "o", deg) for name, deg in zip(mod.names, mod.degrees)])
        with pytest.raises(SchemaError, match="^gamma acts on a different module$"):
            construct(mod, d, "X", _nonzero_map(other, degree, rng))


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_construction_succeeds_exactly_on_certificates(field):
    """No certificate check runs apart from `verify_lift`, and none is
    missing: on `square_zero_instance` inputs a construction succeeds
    exactly when ``Delta(d) = 0`` for ``Delta = JOperator(mod, X, gamma)``
    (even) or ``JOperator(mod, X, -gamma)`` (odd), and then its ``u`` is
    the per-column basis change.  Otherwise it fails `verify_lift`: the
    lifted matrix is free of ``X`` whatever ``gamma``, so no entry is named
    as depending on ``X``, and the conjugation identity fails on at least
    one column.  The candidates are the bound-2
    certificate, that certificate plus a random degree ``-|X|`` map, and a
    random one; both outcomes occur for each parity."""
    pool = FixturePool(field)
    rng = random.Random(103)
    seen = set()
    for _ in range(500):
        mod, d, var = pool.square_zero_instance(rng)
        odd = mod.sig.var(var).odd
        degree = JOperator(mod, var).degree
        gammas = [rand_map(mod, degree, rng, poly_bound=1)]
        cert = decide_naive_lift(mod, d, var, 2).certificate
        if cert is not None:
            gammas += [cert, cert + rand_map(mod, degree, rng, poly_bound=1)]
        construct = construct_lift_odd if odd else construct_lift_even
        for gamma in gammas:
            solves = JOperator(mod, var, -gamma if odd else gamma).of_diff(d).is_zero()
            seen.add((odd, solves))
            if solves:
                lift = construct(mod, d, var, gamma)
                g = _doubled_derivation(mod, d, gamma, var)[2] if odd else gamma
                assert lift.u == basis_change_reference(lift.module, var, g)
                continue
            with pytest.raises(VerificationError) as failed:
                construct(mod, d, var, gamma)
            head, notes = str(failed.value).split(": ", 1)
            assert head == ("odd" if odd else "even") + " lift failed verification"
            notes = notes.split("; ")
            assert not any("depends on" in note for note in notes), notes
            assert any(note.startswith("conjugation identity fails on column ") for note in notes), notes
    assert seen == {(odd, solves) for odd in (False, True) for solves in (False, True)}, seen


def test_verify_lift_catches_tampering(N3):
    mod, d = N3
    dec = decide_naive_lift(mod, d, "X", 0)
    result = construct_lift_odd(mod, d, "X", dec.certificate)
    tampered = GradedMap(
        result.module,
        -1,
        dict(result.lift_diff.matrix.entries) | {
            (0, 3): result.module.sig.parse("2*a")
        },
        check=False,
    )
    rep = verify_lift(Differential(tampered), result.u, result.ambient_diff, "X")
    assert not rep.passed
    assert any("column" in f or "square" in f for f in rep.failures)


def test_flat_differentials_always_vanish(S1, S3):
    """A differential with variable-free entries has zero obstruction."""
    rng = random.Random(23)
    from dgalift.randgen import rand_elem

    for sig, degrees in [(S3, (0, 1, 2)), (S1, (0, 1, 3))]:
        mod = FreeModule(sig, [(f"e{i}", d) for i, d in enumerate(degrees)])
        var = sig.top_variable.name
        pos = sig.var_pos(var)
        entries = {}
        for r in range(mod.rank):
            for c in range(mod.rank):
                want = mod.degrees[c] - 1 - mod.degrees[r]
                if want < 0:
                    continue
                e = rand_elem(sig, want, rng, poly_bound=1)
                e = type(e)(sig, {m: q for m, q in e.terms.items() if not m[1][pos]})
                if not e.is_zero():
                    entries[(r, c)] = e
        d = Differential(GradedMap(mod, -1, entries))
        if not d.square_zero:
            continue  # only square-zero instances are in scope
        dec = decide_naive_lift(mod, d, var, 0)
        assert dec.vanishes and dec.certificate.is_zero()


def test_verify_lift_trivial_flat(S1):
    mod = FreeModule(S1, [("e0", 0), ("e1", 1)])
    d = Differential(GradedMap(mod, -1, {(0, 1): S1.parse("a")}))
    assert verify_lift(d, GradedMap.identity(mod), d, "X").passed


def test_doubled_derivation_squares_to_zero_on_random_pairs(N3):
    """The corrected derivation on the doubled module kills its own square
    on random operator pairs, not just on the spanning family."""
    from dgalift.randgen import rand_dop

    mod, d = N3
    rng = random.Random(31)
    cert = decide_naive_lift(mod, d, "X", 0).certificate
    d_sharp, _, g = _doubled_derivation(mod, d, cert)
    big_gamma = JOperator(d_sharp.module, "X", g)
    for _ in range(20):
        t = rand_dop(d_sharp.module, d_sharp, rng)
        assert big_gamma.of_dop(big_gamma.of_dop(t)).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pipelines_over_prime_fields(p):
    """Both constructions, prime coefficients, conjugated fixtures."""
    from dgalift.tensor import NaiveTensor, verify_splitting

    pool = FixturePool(PrimeField(p))
    rng = random.Random(p)
    u = rand_unit(pool.N3, rng)
    d = pool.d3.conjugate(u)
    dec = decide_naive_lift(pool.N3, d, "X", 2)
    assert dec.vanishes
    lift = construct_lift_odd(pool.N3, d, "X", dec.certificate)
    _assert_corrected_projections(pool.N3, d, lift)
    assert verify_splitting(
        NaiveTensor(lift.module, lift.ambient_diff, "X"), lift
    ).passed

    sig = pool.S1
    u2 = GradedMap.identity(pool.NK) + GradedMap(
        pool.NK, 0, {(0, 3): sig.parse("X")}
    )
    d2 = pool.dK.conjugate(u2)
    dec2 = decide_naive_lift(pool.NK, d2, "X", 2)
    assert dec2.vanishes
    lift2 = construct_lift_even(pool.NK, d2, "X", dec2.certificate)
    assert verify_splitting(NaiveTensor(pool.NK, d2, "X"), lift2).passed


def test_even_lift_multi_step_series(S1):
    """A certificate whose correction series genuinely iterates.

    The fixture's differential carries second divided powers, and the
    certificate is gauge-shifted by a commutator image until the squared
    derivation acts nontrivially on some basis projection; the construction
    must succeed for any valid certificate.
    """
    from dgalift.module import compose as mcompose
    from dgalift.randgen import rand_map
    from dgalift.tensor import NaiveTensor, verify_splitting

    mod = FreeModule(S1, [("m0", 0), ("m1", 2), ("m2", 4)])
    t = S1.parse("b*W1 - a*W2")
    flat = Differential(GradedMap(mod, -1, {(0, 1): t, (1, 2): t}))
    assert flat.square_zero
    u = mcompose(
        GradedMap.identity(mod) + GradedMap(mod, 0, {(0, 2): S1.parse("X^(2)")}),
        GradedMap.identity(mod)
        + GradedMap(mod, 0, {(0, 1): S1.parse("X"), (1, 2): S1.parse("X")}),
    )
    d = flat.conjugate(u)
    dec = decide_naive_lift(mod, d, "X", 2)
    assert dec.vanishes
    j = JOperator(mod, "X")
    rng = random.Random(99)
    gamma = dec.certificate
    for _ in range(60):
        gauge = bracket_diff(d, rand_map(mod, -1, rng, poly_bound=1))
        if gauge.is_zero():
            continue
        gamma2 = gamma + gauge
        assert bracket_diff(d, gamma2) == j.of_diff(d)
        delta = JOperator(mod, "X", gamma2)
        if any(
            not delta.of_map(delta.of_map(idempotent(mod, i))).is_zero()
            for i in range(mod.rank)
        ):
            break
    else:
        pytest.fail("no gauge produced a multi-step series")
    lift = construct_lift_even(mod, d, "X", gamma2)
    rep = verify_lift(lift.lift_diff, lift.u, d, "X")
    assert rep.passed, rep.failures
    assert verify_splitting(NaiveTensor(mod, d, "X"), lift).passed


def test_odd_lift_of_an_already_doubled_module(N3):
    """Doubling twice must not collide basis names, and negative basis
    degrees are fine."""
    from dgalift.tensor import NaiveTensor, odd_ses, verify_splitting

    mod, d = N3
    dbl, dd = twofold_extension(mod, d, 2)
    assert min(dbl.degrees) < 0
    dec = decide_naive_lift(dbl, dd, "X", 1)
    assert dec.vanishes
    lift = construct_lift_odd(dbl, dd, "X", dec.certificate)
    assert lift.module.rank == 12
    assert len(set(lift.module.names)) == 12
    _assert_corrected_projections(dbl, dd, lift)
    assert verify_splitting(
        NaiveTensor(lift.module, lift.ambient_diff, "X"), lift
    ).passed
    assert odd_ses(dbl, dd, "X").check().passed


def test_corrected_basis_realizes_the_derivation(N3, N1prime):
    """In the corrected basis the entrywise operator equals the certificate
    derivation on random maps, for both parities.

    This is the structural content behind the constructions: the new basis
    is chosen so that the derivation becomes the basis operator itself.
    """
    rng = random.Random(55)

    mod, d, _, _ = N1prime
    dec = decide_naive_lift(mod, d, "X", 3)
    lift = construct_lift_even(mod, d, "X", dec.certificate)
    j = JOperator(mod, "X")
    delta = JOperator(mod, "X", dec.certificate)
    u, ui = lift.u, invert_unit(lift.u)
    for _ in range(25):
        f = rand_map(mod, rng.randint(-2, 2), rng)
        new_basis_op = compose(compose(u, j.of_map(compose(compose(ui, f), u))), ui)
        assert new_basis_op == delta.of_map(f)

    mod3, d3 = N3
    dec3 = decide_naive_lift(mod3, d3, "X", 0)
    lift3 = construct_lift_odd(mod3, d3, "X", dec3.certificate)
    dbl = lift3.module
    _, j_sh, g = _doubled_derivation(mod3, d3, dec3.certificate)
    big_gamma = JOperator(dbl, "X", g)
    u, ui = lift3.u, invert_unit(lift3.u)
    for _ in range(25):
        f = rand_map(dbl, rng.randint(-2, 2), rng)
        new_basis_op = compose(compose(u, j_sh.of_map(compose(compose(ui, f), u))), ui)
        assert new_basis_op == big_gamma.of_map(f)


def test_integration_fuzz_random_instances():
    """Decide-construct-verify on random square-zero instances, both fields.

    Verdicts may be inconclusive (one fixture family is genuinely
    non-liftable); every constructed lift must verify and split.
    """
    from dgalift.field import QQ, PrimeField
    from dgalift.randgen import FixturePool
    from dgalift.tensor import NaiveTensor, verify_splitting

    lifted = 0
    for field in (QQ, PrimeField(5)):
        pool = FixturePool(field)
        rng = random.Random(2024)
        for _ in range(30):
            mod, d, var = pool.square_zero_instance(rng)
            dec = decide_naive_lift(mod, d, var, 2)
            if not dec.vanishes:
                continue
            if mod.sig.var(var).degree % 2 == 0:
                lift = construct_lift_even(mod, d, var, dec.certificate)
            else:
                lift = construct_lift_odd(mod, d, var, dec.certificate)
            nt = NaiveTensor(lift.module, lift.ambient_diff, var)
            assert verify_splitting(nt, lift).passed
            lifted += 1
    assert lifted >= 20


def test_certificate_transport_under_conjugation(N3, N1prime):
    """The solvability verdict survives a basis change, with the adjusted
    certificate re-verifying exactly at the enlarged bound.

    The basis-dependence matrix of the unit enters the transported witness
    with a parity-dependent sign: plus for an odd variable, minus for an
    even one.
    """
    rng = random.Random(17)
    settings = [
        (N3[0], N3[1], 0, +1),
        (N1prime[0], N1prime[1], 3, -1),
    ]
    for mod, d, base_bound, sign in settings:
        j = JOperator(mod, "X")
        base = decide_naive_lift(mod, d, "X", base_bound)
        assert base.vanishes
        for _ in range(10):
            u = rand_unit(mod, rng, poly_bound=1)
            ui = invert_unit(u)
            d2 = d.conjugate(u)
            assert d2.square_zero
            bound = base_bound + 2 * unit_poly_degree(u)
            dec = decide_naive_lift(mod, d2, "X", bound)
            assert dec.vanishes
            defect = compose(j.of_map(u), ui)
            transported = compose(compose(u, base.certificate), ui) + (
                defect if sign > 0 else -defect
            )
            assert bracket_diff(d2, transported) == j.of_diff(d2)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_square_check_matches_unit_loop(field):
    """The O(r) square check (``j(g) + g^2`` is left multiplication by a
    cycle) agrees with ``Gamma^2 = 0`` on every matrix unit and on d, for
    the certificate, gauge-shifted certificates and perturbed ``g``."""
    pool = FixturePool(field)
    rng = random.Random(field.key().__repr__())
    mod3, d3 = pool.N3, pool.d3
    settings = [(mod3, d3, 0), (*twofold_extension(mod3, d3, 2), 1)]
    verdicts = []
    for mod, d, bound in settings:
        gamma = decide_naive_lift(mod, d, "X", bound).certificate
        gammas = [gamma]
        for _ in range(2):
            gammas.append(gamma + bracket_diff(d, rand_map(mod, gamma.degree + 1, rng)))
        for gam in gammas:
            d_sharp, j_sharp, g = _doubled_derivation(mod, d, gam)
            candidates = [g] + [
                g + rand_map(d_sharp.module, g.degree, rng, poly_bound=1) for _ in range(2)
            ]
            for h in candidates:
                new = is_scalar_cycle(j_sharp.of_map(h) + compose(h, h)) is not None
                old = _squares_to_zero_on_units(JOperator(d_sharp.module, "X", h), d_sharp)
                assert new == old
                verdicts.append(new)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_construction_identities_hold_for_every_gamma(field):
    """The identities the constructions do not check at run time, on
    conjugated odd and even fixtures with certificates, gauge-shifted
    certificates and random gamma.

    Odd: ``Delta(alpha) = 0``, ``Gamma(l_X) = id`` and ``j#(g) + g^2`` a
    scalar cycle for every gamma; ``Gamma(d#) = 0`` exactly when
    ``Delta(d) = 0``, which implies ``[d, alpha] = 0``.  Even: each
    corrected projection lies in ``ker Delta`` for every gamma; a module
    of degree spread 4 makes the series take more than one step.
    """
    pool = FixturePool(field)
    rng = random.Random(61)
    t = pool.S1.parse("b*W1 - a*W2")
    spread4 = FreeModule(pool.S1, [("m0", 0), ("m1", 2), ("m2", 4)])
    fixtures = [
        (pool.N3, pool.d3),
        (pool.Nodd, pool.dodd),
        (pool.NK, pool.dK),
        (pool.N1, pool.d1),
        (spread4, Differential(GradedMap(spread4, -1, {(0, 1): t, (1, 2): t}))),
    ]
    certified = []
    multi_step = 0
    for mod, d0 in fixtures:
        var = mod.sig.top_variable.name
        j = JOperator(mod, var)
        units = [rand_unit(mod, rng, poly_bound=2) for _ in range(2)]
        units += [  # units through the variable itself, where degrees allow one
            GradedMap.identity(mod) + GradedMap(mod, 0, {(r, c): mod.sig.gen(var)})
            for r in range(mod.rank)
            for c in range(mod.rank)
            if mod.degrees[c] - mod.degrees[r] == j.var.degree
        ][:1]
        for u in units:
            d = d0.conjugate(u)
            gammas = [rand_map(mod, j.degree, rng, poly_bound=2) for _ in range(4)]
            dec = decide_naive_lift(mod, d, var, 2)
            if dec.vanishes:
                gamma = dec.certificate
                for _ in range(2):
                    gammas.append(gamma + bracket_diff(d, rand_map(mod, gamma.degree + 1, rng)))
                gammas.append(gamma)
            for gamma in gammas:
                if not j.var.odd:
                    delta = JOperator(mod, var, gamma)
                    for lam in range(mod.rank):
                        eps = idempotent(mod, lam)
                        eps0 = eps - series_plus_reference(delta, eps)
                        assert delta.of_map(eps0).is_zero()
                        multi_step += not delta.of_map(delta.of_map(eps)).is_zero()
                    continue
                delta = JOperator(mod, var, -gamma)
                solves = delta.of_diff(d).is_zero()
                alpha = compose(gamma, gamma) - j.of_map(gamma)
                assert delta.of_map(alpha).is_zero()
                d_sharp, j_sharp, g = _doubled_derivation(mod, d, gamma, var)
                dbl = d_sharp.module
                big_gamma = JOperator(dbl, var, g)
                lx = left_mult(dbl, mod.sig.gen(var))
                assert big_gamma.of_map(lx) == GradedMap.identity(dbl)
                assert is_scalar_cycle(j_sharp.of_map(g) + compose(g, g)) is not None
                assert big_gamma.of_diff(d_sharp).is_zero() == solves
                assert not solves or bracket_diff(d, alpha).is_zero()
                certified.append(solves)
    assert True in certified and False in certified
    assert multi_step > 0


def _koszul_rung(sig, n, rng):
    """The Koszul complex on ``a0..a_{n-1}``, conjugated by a unit with the
    top variable in two entries, as the benchmark's rungs are."""
    mod, d = koszul(sig, [sig.parse(f"a{i}") for i in range(n)])
    x = sig.gen(sig.top_variable.name)
    spots = [
        (r, c)
        for r, c in itertools.product(range(mod.rank), repeat=2)
        if mod.degrees[c] - mod.degrees[r] == sig.top_variable.degree
    ]
    u = GradedMap.identity(mod)
    for r, c in rng.sample(spots, 2):
        u = u + GradedMap(mod, 0, {(r, c): x})
    return mod, d.conjugate(u)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_basis_change_matches_per_column_oracle(field):
    """The closed form ``u = sum_n (-1)^n X^(n) A_n``, ``A_0 = 1``,
    ``A_(n+1) = j(A_n) + g A_n``, equals the basis change built one basis
    element at a time (`basis_change_reference`), for every ``g``.

    Certificates go through `construct_lift_even` and `construct_lift_odd`,
    whose ``u`` is compared with the oracle on a ``g`` built here; random
    gamma, which solve nothing, go through `_basis_change`.  The modules are
    the `FixturePool` lifting modules, plain and conjugated by `rand_unit`,
    Koszul rungs of both parities, and chains of degree spread 4 and 6 over
    an even variable of degree 2, where the even series takes two and three
    steps.  The test asserts that it reached a nonzero ``A_2``, an ``A_3``
    that tells ``g A_2`` from ``A_2 g``, and a ``j(A_n)`` that is not zero.
    """
    pool = FixturePool(field)
    rng = random.Random(71)
    t = pool.S1.parse("b*W1 - a*W2")
    fixtures = []
    for top in (2, 3):
        mod = FreeModule(pool.S1, [(f"m{i}", 2 * i) for i in range(top + 1)])
        fixtures.append((mod, Differential(GradedMap(mod, -1, {(i, i + 1): t for i in range(top)}))))
    for parity in ("odd", "even"):
        sig = Signature(field, [f"a{i}" for i in range(3)])
        if parity == "odd":
            sig = sig.adjoin("X", 1, "a0")
        else:
            sig = sig.adjoin("W0", 1, "a0").adjoin("W1", 1, "a1").adjoin("X", 2, "a1*W0 - a0*W1")
        fixtures.append(_koszul_rung(sig, 3, rng))
    for mod, d in [(pool.N3, pool.d3), (pool.N1, pool.d1), (pool.NK, pool.dK), (pool.Nodd, pool.dodd)]:
        fixtures.append((mod, d))
        u = rand_unit(mod, rng, poly_bound=1)
        fixtures.append((mod, d.conjugate(u)))
    lifted = {"odd": 0, "even": 0}
    reached = {"A_2": 0, "g A_2 != A_2 g": 0, "j(A_n)": 0}
    for mod, d in fixtures:
        var = mod.sig.top_variable.name
        j = JOperator(mod, var)
        odd = j.var.odd
        gammas = [rand_map(mod, j.degree, rng, poly_bound=2, density=1.0) for _ in range(6)]
        dec = decide_naive_lift(mod, d, var, 2)
        if dec.certificate is not None:
            gammas.append(dec.certificate)
        for gamma in gammas:
            if odd:
                d_sharp, j_sharp, g = _doubled_derivation(mod, d, gamma, var)
                dbl = d_sharp.module
            else:
                dbl, j_sharp, g = mod, j, gamma
                a2 = j.of_map(g) + compose(g, g)
                a3 = j.of_map(a2) + compose(g, a2)
                reached["A_2"] += not a2.is_zero()
                reached["g A_2 != A_2 g"] += not a3.is_zero() and compose(g, a2) != compose(a2, g)
                reached["j(A_n)"] += not (j.of_map(g).is_zero() and j.of_map(a2).is_zero())
            want = basis_change_reference(dbl, var, g)
            assert _basis_change(dbl, var, g) == want
            if gamma is dec.certificate:
                construct = construct_lift_odd if odd else construct_lift_even
                assert construct(mod, d, var, gamma).u == want
                lifted["odd" if odd else "even"] += 1
    assert all(lifted.values()), lifted
    assert all(reached.values()), reached


def test_is_scalar_cycle_matches_unit_loop(N3, N1prime):
    """Dropping the matrix-unit loop from `is_scalar_cycle` keeps every
    verdict: random maps, left multiplications (cycles or not) and their
    perturbations, over Q and F5."""
    rng = random.Random(7)
    cases = [N3, N1prime[:2]]
    pool = FixturePool(PrimeField(5))
    cases += [(pool.N3, pool.d3), (pool.NK, pool.dK)]
    outcomes = []
    for mod, d in cases:
        for _ in range(12):
            b = rand_homogeneous(mod.sig, rng, max_degree=3)
            lb = left_mult(mod, b)
            for f in (
                lb,
                lb + rand_map(mod, lb.degree, rng),
                rand_map(mod, rng.randint(-2, 2), rng),
                GradedMap.zero(mod, 0),
            ):
                got = is_scalar_cycle(f)
                assert got == _is_scalar_cycle_by_units(f, d)
                outcomes.append(got is not None)
    assert True in outcomes and False in outcomes


def _homotopy_columns_by_bracket(mod, d, degree, bound):
    """The unknowns and images as one ``bracket_diff`` per monomial matrix
    unit computes them: the oracle for `_homotopy_columns`."""
    sig = mod.sig
    unknowns, columns = [], []
    for r in range(mod.rank):
        for c in range(mod.rank):
            want = mod.degrees[c] + degree - mod.degrees[r]
            for m in component_monomials(sig, want, bound):
                unit = GradedMap(mod, degree, {(r, c): AlgElem(sig, {m: sig.field.one})})
                unknowns.append((r, c, m))
                columns.append(_coefficients(bracket_diff(d, unit)))
    return unknowns, columns


def _column_cases(field):
    """``(module, differential)`` pairs for the homotopy-system tests:
    fixture, free and random differentials (some not square-zero), odd and
    even top variables, rank 1."""
    pool = FixturePool(field)
    rng = random.Random(41)
    cases = [
        (pool.N3, [pool.d3]),
        (pool.N1, [pool.d1]),
        (pool.NK, [pool.dK]),
        (pool.Nodd, [pool.dodd]),
        (pool.M2_S3, []),
        (pool.M2_S1, []),
        (pool.M2_odd, []),
        (FreeModule(pool.Sodd3, [("g", 3)]), []),
        (FreeModule(pool.S2, [("s0", 0), ("s1", 1), ("s2", 3)]), []),
    ]
    out = []
    for mod, fixtures in cases:
        diffs = fixtures + [
            Differential.free(mod),
            rand_diff(mod, rng),
            rand_diff(mod, rng, poly_bound=2),
        ]
        out += [(mod, d) for d in diffs]
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_homotopy_columns_match_bracket_diff(field):
    """The closed-form images ``[d, m E_rc]`` of `solve_homotopy` equal one
    ``bracket_diff`` per unknown on `_column_cases`, target degrees -3..1
    and bounds 0-2."""
    zero = field.zero
    compared = not_square_zero = 0
    for mod, d in _column_cases(field):
        not_square_zero += not d.square_zero
        for h_degree in range(-3, 2):
            for bound in range(3):
                every = trivial_grading(mod), 0
                unknowns, columns, ids = _homotopy_columns(mod, d, h_degree + 1, bound, every)
                columns = decode_rows(mod, ids, columns)
                want = _homotopy_columns_by_bracket(mod, d, h_degree + 1, bound)
                assert unknowns == want[0]
                for col, want_col in zip(columns, want[1]):
                    assert {k: v for k, v in col.items() if v != zero} == want_col
                compared += sum(1 for col in columns if col)
    assert compared > 1000 and not_square_zero > 0


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_homotopy_columns_match_element_reference(field):
    """`_homotopy_columns`, whose products are taken on term maps, gives the
    unknowns and columns of `homotopy_columns_reference`, which takes them
    on elements: equal lists, and each column with the same items in the
    same order.  The instances of the ``bracket_diff`` test, on the full
    system (the trivial grading) and, where `_grading` finds a finer one
    for a zero target, on the blocks of the first four classes the
    unknowns have (the reference enumerates every band whole and keeps
    the unknowns of the block's class)."""
    compared = blocks = 0
    for mod, d in _column_cases(field):
        trivial = trivial_grading(mod)
        for h_degree in range(-3, 2):
            for bound in range(3):
                degree = h_degree + 1
                shapes = [(trivial, 0)]
                grading, _ = _grading(mod, d, GradedMap.zero(mod, h_degree), bound)
                if grading != trivial:
                    full = _homotopy_columns(mod, d, degree, bound, (trivial, 0))[0]
                    basis = grading.basis
                    classes = {basis[r] + monomial_class(grading, m) - basis[c] for r, c, m in full}
                    shapes += [(grading, w) for w in sorted(classes)[:4]]
                for block in shapes:
                    unknowns, columns, ids = _homotopy_columns(mod, d, degree, bound, block)
                    columns = decode_rows(mod, ids, columns)
                    want_unknowns, want_columns = homotopy_columns_reference(
                        mod, d, degree, bound, block_filter(block)
                    )
                    assert unknowns == want_unknowns
                    assert [list(col.items()) for col in columns] == [
                        list(col.items()) for col in want_columns
                    ]
                    compared += sum(1 for col in columns if col)
                    blocks += block[0] != trivial and bool(columns)
    assert compared > 1000 and blocks > 0


def _s2_koszul(pool):
    """``K(a, ab, c)`` over ``S2``, where ``dX1 = a*b`` gives ``X1`` weight 2
    and degree 1, and ``Y`` weight 3 and degree 2."""
    sig = pool.S2
    return koszul(sig, [sig.parse(t) for t in ("a", "a*b", "c")])


def _grading_cases(pool, rng):
    """The `FixturePool` lifting modules and a Koszul complex over ``S2``,
    plain and conjugated by random units (graded or not) and by units with
    the top variable in one entry, `_conjugated_nk` and `_finer_rung`,
    where only a finer grading than the all-ones one holds."""
    fixtures = [
        (pool.N3, pool.d3),
        (pool.N1, pool.d1),
        (pool.NK, pool.dK),
        (pool.Nodd, pool.dodd),
        _s2_koszul(pool),
    ]
    out = [_conjugated_nk(pool), _finer_rung(pool.field, rng)]
    for mod, d in fixtures:
        var = mod.sig.top_variable.name
        units = [rand_unit(mod, rng, strict_raising=k % 2 == 0) for k in range(4)]
        # units with the top variable in one entry put it into the differential
        x = mod.sig.gen(var)
        top = mod.sig.variables[-1].degree
        for r, c in itertools.product(range(mod.rank), repeat=2):
            if mod.degrees[c] - mod.degrees[r] == top:
                for t in (x, x * mod.sig.parse("a"), x * rand_homogeneous(mod.sig, rng, 0)):
                    units.append(GradedMap.identity(mod) + GradedMap(mod, 0, {(r, c): t}))
        out += [(mod, d)] + [(mod, d.conjugate(u)) for u in units]
    return out


def _conjugated_nk(pool):
    """``NK`` conjugated by ``1 + a E_12``: ``k1`` and ``k2`` both weigh 1,
    so the entry ``a`` between them breaks the all-ones grading, but
    ``a -> 1, b -> 2`` grades the result."""
    u = GradedMap.identity(pool.NK) + GradedMap(pool.NK, 0, {(1, 2): pool.S1.parse("a")})
    return pool.NK, pool.dK.conjugate(u)


def _finer_rung(field, rng):
    """An even Koszul rung ``K(a0, a1, a2)`` shaped as the benchmark's
    (`_koszul_rung`), conjugated once more by ``1 + a0 E_12``: as in
    `_conjugated_nk` the all-ones grading breaks and a finer one holds,
    and here the obstruction is not 0."""
    sig = Signature(field, ["a0", "a1", "a2"]).adjoin("W0", 1, "a0").adjoin("W1", 1, "a1")
    sig = sig.adjoin("X", 2, "a1*W0 - a0*W1")
    mod, d = _koszul_rung(sig, 3, rng)
    u = GradedMap.identity(mod) + GradedMap(mod, 0, {(1, 2): sig.parse("a0")})
    return mod, d.conjugate(u)


def _rung_cases(field, rng):
    """Koszul rungs shaped as the benchmark's over three and four polygens,
    odd and even, and two whose ``dX`` has terms of two multidegrees:
    ``a + b`` joins the two polygens, ``a + b^2`` weighs ``a`` twice ``b``
    and breaks the all-ones grading."""
    cases = []
    for parity in ("odd", "even"):
        for n in (3, 4):
            sig = Signature(field, [f"a{i}" for i in range(n)])
            if parity == "odd":
                sig = sig.adjoin("X", 1, "a0")
            else:
                sig = sig.adjoin("W0", 1, "a0").adjoin("W1", 1, "a1")
                sig = sig.adjoin("X", 2, "a1*W0 - a0*W1")
            cases.append(_koszul_rung(sig, n, rng))
    for dx in ("a0 + a1", "a0 + a1^2"):
        sig = Signature(field, ["a0", "a1"]).adjoin("X", 1, dx)
        cases.append(_koszul_rung(sig, 2, rng))
    return cases


def _huge_conjugates(pool):
    """``K(a^100000, b^60000)`` over ``S1`` and ``K(a^100000, b^60000, c)``
    over ``S2``, each conjugated by ``1 + a^40000 E_12``, whose inverse is
    ``1 - a^40000 E_12``: the conflict ``140000a - 60000b`` leaves exponents
    past what a few bits per weight would hold."""
    out = []
    for sig, gens in ((pool.S1, ("a^100000", "b^60000")), (pool.S2, ("a^100000", "b^60000", "c"))):
        mod, d = koszul(sig, [sig.parse(t) for t in gens])
        e12 = GradedMap(mod, 0, {(1, 2): sig.parse("a^40000")})
        out.append((mod, d.conjugate(GradedMap.identity(mod) + e12)))
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_weight_block_search_matches_full_search(field):
    """`solve_homotopy`, which solves only the block of the class of ``h``
    in the finest grading, gives the certificate of the full system and
    that of the all-ones weight block (`solve_homotopy_reference` on every
    unknown and on `ones_filter`), or None with both: `_grading_cases` at
    bounds 0-3, with ``h = j(d)`` and with ``h`` plus a boundary, most
    often of several classes.  Each catches a fault of its own: a block
    class not read from ``h``, variables weighted by degree (``S2``), a
    term of ``D`` left out of the grading, the bound not capping the
    block, a kernel vector that misses a conflict."""
    pool = FixturePool(field)
    rng = random.Random(53)
    kinds = {"all-ones": 0, "finer only": 0, "trivial": 0}
    found = 0
    for mod, d in _grading_cases(pool, rng):
        var = mod.sig.top_variable.name
        h = obstruction(mod, d, var)
        if weights_reference(mod, d) is not None:
            kinds["all-ones"] += 1
        else:
            trivial = _grading(mod, d, h, 0)[0] == trivial_grading(mod)
            kinds["trivial" if trivial else "finer only"] += 1
        mixed = h + bracket_diff(d, rand_map(mod, h.degree + 1, rng))
        for target, bound in itertools.product((h, mixed), range(4)):
            got = solve_homotopy(mod, d, target, bound)
            want = solve_homotopy_reference(mod, d, target, bound)
            ones = solve_homotopy_reference(mod, d, target, bound, ones_filter(mod, d, target))
            assert (got is None) == (want is None) == (ones is None)
            if got is not None:
                assert matrix_to_doc(got) == matrix_to_doc(want) == matrix_to_doc(ones)
                found += 1
    assert all(kinds.values()) and found > 0, kinds


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_block_holds_the_target(field):
    """Under the grading `_grading` returns, every term of the target has
    the block's class ``w``: on the inputs of
    `test_weight_block_search_matches_full_search` (the same seed and
    draws) at bounds 0-3, with ``h = j(d)`` and with ``h`` plus a boundary.
    Every term of ``j(d)`` has the class of ``-X``, so with ``h = j(d)``
    the block is the one the target-blind search (`grading_reference`)
    solves, and so are its unknowns.  With a boundary added the unknowns
    are a subset of that search's, and fewer on some inputs, where the
    target spans two classes of the grading of ``D`` alone."""
    pool = FixturePool(field)
    rng = random.Random(53)
    smaller = 0
    for mod, d in _grading_cases(pool, rng):
        h = obstruction(mod, d, mod.sig.top_variable.name)
        mixed = h + bracket_diff(d, rand_map(mod, h.degree + 1, rng))
        for target, bound in itertools.product((h, mixed), range(4)):
            block = grading, w = _grading(mod, d, target, bound)
            for (r, c), e in target.entries.items():
                for m in e.terms:
                    assert grading.basis[r] + monomial_class(grading, m) - grading.basis[c] == w
            blind = grading_reference(mod, d, target, bound)
            if target is h:
                assert block == blind
                continue
            got = _homotopy_columns(mod, d, h.degree + 1, bound, block)[0]
            want = _homotopy_columns(mod, d, h.degree + 1, bound, blind)[0]
            assert set(got) <= set(want)
            smaller += len(got) < len(want)
    assert smaller > 0


def test_weights():
    """Basis weights: degrees on the Koszul rungs the benchmark draws, other
    values over ``S2``, None for a unit entry of the wrong weight, one
    offset per connected component, and variables with zero differential."""
    for parity in ("odd", "even"):
        sig = Signature(QQ, [f"a{i}" for i in range(4)])
        if parity == "odd":
            sig = sig.adjoin("X", 1, "a0")
        else:
            sig = sig.adjoin("W0", 1, "a0").adjoin("W1", 1, "a1").adjoin("X", 2, "a1*W0 - a0*W1")
        assert var_weights_reference(sig) == tuple(v.degree for v in sig.variables)
        mod, d = koszul(sig, [sig.parse(f"a{i}") for i in range(4)])
        top = sig.top_variable.degree
        u = GradedMap.identity(mod)
        for r, c in [(0, 4), (1, 5), (11, 15)] if parity == "odd" else [(0, 5), (1, 11), (5, 15)]:
            assert mod.degrees[c] - mod.degrees[r] == top
            u = u + GradedMap(mod, 0, {(r, c): sig.parse("2*X")})
        rung = d.conjugate(u)
        assert not obstruction(mod, rung, "X").is_zero()
        assert weights_reference(mod, rung) == list(mod.degrees)

    pool = FixturePool(QQ)
    assert var_weights_reference(pool.S2) == (2, 2, 3)
    assert weights_reference(*_s2_koszul(pool)) == [0, 1, 2, 1, 3, 2, 3, 4]
    # k1 and k2 both weigh 1, so a unit entry `a` between them weighs 1, not 0
    assert weights_reference(pool.NK, pool.dK) == [0, 1, 1, 2]
    assert weights_reference(*_conjugated_nk(pool)) is None

    # two components: N3 and g0 <- g1 by a^2, each starting from weight 0
    S3 = pool.S3
    mod = FreeModule(S3, [("f0", 0), ("f1", 1), ("f2", 2), ("g0", 0), ("g1", 1)])
    entries = dict(pool.d3.matrix.entries)
    entries[3, 4] = S3.parse("a^2")
    d = Differential(GradedMap(mod, -1, entries))
    assert weights_reference(mod, d) == [0, 1, 2, 0, 2]

    # T has zero differential and weighs 0
    sig = Signature(QQ, ["a"]).adjoin("T", 2, "0").adjoin("X", 1, "a")
    assert var_weights_reference(sig) == (0, 1)
    mod = FreeModule(sig, [("f0", 0), ("f1", 1), ("f2", 2), ("f3", 3)])
    texts = {(0, 1): "a", (1, 2): "a", (0, 2): "-a*X", (0, 3): "a*T"}
    d = Differential(GradedMap(mod, -1, {key: sig.parse(t) for key, t in texts.items()}))
    assert weights_reference(mod, d) == [0, 1, 2, 1]
    h = obstruction(mod, d, "X")
    for bound in range(3):
        got = solve_homotopy(mod, d, h, bound)
        assert got is not None
        assert matrix_to_doc(got) == matrix_to_doc(solve_homotopy_reference(mod, d, h, bound))


def _ones(grading, cls):
    """Coordinate 0 of a class: its all-ones weight when `grading.ones`
    holds."""
    return _unpack(cls, grading.bits, 1)[0]


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_grading_makes_every_term_homogeneous(field):
    """Under `_grading`, every term of ``D`` has class 0 as a map and every
    term of each ``dX`` the class of ``X``; `grading.ones` holds exactly
    where the all-ones grading does (`weights_reference`), and coordinate
    0 then gives its basis weights, the variable weights
    (`var_weights_reference`) and 1 for every polygen; `_grading` finds a
    grading other than the trivial one wherever it does.  On
    `_grading_cases`, `_column_cases` (some not square-zero) and
    `_rung_cases`."""
    pool = FixturePool(field)
    rng = random.Random(59)
    cases = _grading_cases(pool, rng) + _column_cases(field) + _rung_cases(field, rng)
    graded = ones = 0
    for mod, d in cases:
        grading, w = _grading(mod, d, GradedMap.zero(mod, -1), 2)
        assert w == 0
        reference = weights_reference(mod, d)
        graded += grading != trivial_grading(mod)
        for (r, c), e in d.matrix.entries.items():
            for m in e.terms:
                assert grading.basis[r] + monomial_class(grading, m) - grading.basis[c] == 0
        sig = mod.sig
        for var, cls in zip(sig.variables, grading.var):
            for p, v in var.diff.terms:
                pad = (0,) * (len(sig.variables) - len(v))
                assert monomial_class(grading, (p, v + pad)) == cls
        assert grading.ones == (reference is not None)
        if grading.ones:
            ones += 1
            assert [_ones(grading, x) for x in grading.basis] == reference
            assert tuple(_ones(grading, x) for x in grading.var) == var_weights_reference(sig)
            assert [_ones(grading, x) for x in grading.poly] == [1] * len(sig.polygens)
    assert graded > ones > 0


def test_finest_grading_separates_what_no_conflict_joins(monkeypatch):
    """Examples of the finest grading: on a Koszul complex every polygen is
    a weight of its own, so distinct exponent vectors get distinct classes;
    on ``NK`` conjugated by ``1 + a E_12`` the one conflict ``2a - b``
    leaves ``b`` weighing twice ``a``; on `_finer_rung`, whose obstruction
    is not 0, `solve_homotopy` solves a block smaller than the full
    system, which it solved whole before; over ``S3`` a conjugation by
    ``1 + a X E_02`` joins ``a`` with 0, and only the trivial grading
    holds."""
    sig = Signature(QQ, ["a0", "a1", "a2"]).adjoin("X", 1, "a0")
    mod, d = koszul(sig, [sig.parse(f"a{i}") for i in range(3)])
    grading, _ = _grading(mod, d, GradedMap.zero(mod, -1), 0)
    vectors = list(itertools.product(range(3), repeat=3))
    assert len({monomial_class(grading, (p, (0,))) for p in vectors}) == len(vectors)

    pool = FixturePool(QQ)
    mod, d = _conjugated_nk(pool)
    grading, _ = _grading(mod, d, obstruction(mod, d, "X"), 3)
    a, b = (monomial_class(grading, pool.S1.parse(t).terms.popitem()[0]) for t in ("a", "b"))
    assert a != 0 and b == 2 * a and not grading.ones
    sizes = _solver_sizes(monkeypatch)
    mod, d = _finer_rung(QQ, random.Random(3))
    h = obstruction(mod, d, "X")
    assert not h.is_zero() and weights_reference(mod, d) is None
    for bound in range(4):
        got = solve_homotopy(mod, d, h, bound)
        full = len(_homotopy_columns(mod, d, h.degree + 1, bound, (trivial_grading(mod), 0))[0])
        assert 0 < sizes[-1][0] < full
        assert matrix_to_doc(got) == matrix_to_doc(solve_homotopy_reference(mod, d, h, bound))

    # the same with exponents past what a few bits per weight would hold
    (mod, d), (mod3, d3) = _huge_conjugates(pool)
    sig = mod.sig
    h = obstruction(mod, d, "X")
    grading, _ = _grading(mod, d, h, 0)
    a, b = (monomial_class(grading, sig.parse(t).terms.popitem()[0]) for t in ("a", "b"))
    assert a != 0 and 3 * b == 7 * a and not grading.ones
    assert grading.basis == [0, 100000 * a, 60000 * b, 100000 * a + 60000 * b]
    got = solve_homotopy(mod, d, h, 0)
    assert matrix_to_doc(got) == matrix_to_doc(solve_homotopy_reference(mod, d, h, 0))
    # with c as well the kernel has two coordinates, and each class unpacks
    # into the weights its exponents give: the packing holds them apart
    mod, d = mod3, d3
    grading, _ = _grading(mod, d, GradedMap.zero(mod, -1), 0)
    unit = [_unpack(x, grading.bits, 2) for x in grading.poly]
    assert 3 * unit[1][0] == 7 * unit[0][0] and unit[2] != [0, 0] and not grading.ones
    for r, name in enumerate(mod.names):  # k<s>: the product of the gens in s
        s = int(name[1:])
        exps = [100000 * (s & 1), 60000 * (s >> 1 & 1), s >> 2 & 1]
        want = [sum(e * u[k] for e, u in zip(exps, unit)) for k in range(2)]
        assert _unpack(grading.basis[r], grading.bits, 2) == want

    mod, d = pool.N3, pool.d3
    u = GradedMap.identity(mod) + GradedMap(mod, 0, {(0, 1): pool.S3.parse("a*X")})
    d = d.conjugate(u)
    assert _grading(mod, d, obstruction(mod, d, "X"), 0) == (trivial_grading(mod), 0)


def test_kernel_of_integer_rows():
    """`_kernel` returns integer vectors orthogonal to every row, as many as
    the columns less the rank of the rows (taken over the rationals here),
    and independent, and as many pivot columns as that rank, in
    increasing order: each vector is positive at a free column of its
    own, in the order of those columns, and 0 at the others.  It equals
    the integer elimination `kernel_reference`.  Random rows of 0-6
    vectors in 1-5 columns, with repeated and dependent rows, and rows in
    no column."""
    from fractions import Fraction

    def rank(rows):
        rows = [[Fraction(x) for x in row] for row in rows]
        out = 0
        for col in range(len(rows[0]) if rows else 0):
            pivot = next((r for r in rows[out:] if r[col]), None)
            if pivot is None:
                continue
            rows.remove(pivot)
            rows.insert(out, pivot)
            for r in rows[out + 1 :]:
                f = r[col] / pivot[col]
                r[:] = [x - f * y for x, y in zip(r, pivot)]
            out += 1
        return out

    rng = random.Random(61)
    for _ in range(400):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 6))]
        if rows and rng.random() < 0.5:
            rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])])
        kernel, pivots = _kernel(rows, n)
        assert all(sum(map(mul, v, row)) == 0 for v in kernel for row in rows)
        assert len(kernel) == n - rank(rows) == rank(kernel)
        assert len(pivots) == rank(rows) and pivots == sorted(set(pivots))
        free = [f for f in range(n) if f not in pivots]
        for f, v in zip(free, kernel):
            assert v[f] > 0 and all(v[g] == 0 for g in free if g != f)
        assert (kernel, pivots) == kernel_reference(rows, n)
    unit = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _kernel([], 3) == kernel_reference([], 3) == (unit, [])
    assert _kernel([[], []], 0) == kernel_reference([[], []], 0) == ([], [])


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_kernel_of_conflicts_matches_integer_elimination(field, monkeypatch):
    """On the conflict rows `_grading` hands `_kernel`, with ``j(d)`` and a
    zero target at bounds 0 and 2, `_kernel` equals `kernel_reference`:
    every `_grading_cases` and `_rung_cases` input, where the rows have
    pivots and free columns both, and rational solutions on some."""
    seen = []

    def spy(rows, n):
        seen.append((rows, n))
        return _kernel(rows, n)

    monkeypatch.setattr(lift_module, "_kernel", spy)
    pool = FixturePool(field)
    rng = random.Random(71)
    for mod, d in _grading_cases(pool, rng) + _rung_cases(field, rng):
        h = obstruction(mod, d, mod.sig.top_variable.name)
        for target, bound in itertools.product((h, GradedMap.zero(mod, h.degree)), (0, 2)):
            _grading(mod, d, target, bound)
    pivoted = fractional = 0
    for rows, n in seen:
        kernel, pivots = _kernel(rows, n)
        assert (kernel, pivots) == kernel_reference(rows, n)
        pivoted += bool(pivots) and bool(kernel)
        free = [f for f in range(n) if f not in pivots]
        fractional += any(v[f] > 1 for f, v in zip(free, kernel))
    assert pivoted > 0 and fractional > 0, (pivoted, fractional)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_grading_runs_one_elimination_and_no_solve(field, monkeypatch):
    """Each `_grading` takes its kernel from exactly one elimination pass
    of the solver and makes no `solve_exact` call, with conflicts or
    without: every `_grading_cases` and `_rung_cases` input, with ``j(d)``
    and a zero target."""
    passes = []
    eliminate = solver_module._eliminate

    def spy(f, ranked):
        passes.append(len(ranked))
        return eliminate(f, ranked)

    def refuse(*args):
        raise AssertionError("_grading called solve_exact")

    monkeypatch.setattr(solver_module, "_eliminate", spy)
    monkeypatch.setattr(lift_module, "solve_exact", refuse)
    monkeypatch.setattr(solver_module, "solve_exact", refuse)
    pool = FixturePool(field)
    rng = random.Random(71)
    graded = 0
    for mod, d in _grading_cases(pool, rng) + _rung_cases(field, rng):
        h = obstruction(mod, d, mod.sig.top_variable.name)
        for target in (h, GradedMap.zero(mod, h.degree)):
            passes.clear()
            grading, _ = _grading(mod, d, target, 0)
            assert passes == [len(mod.sig.polygens)]
            graded += grading.pivots != []
    assert graded > 0


def _boundary_modules(sigs, rng):
    """``(module, differential, [targets])`` for the searches of
    `is_boundary_up_to`: the free module of rank one with zero
    differential, and as targets the differentials of seeded elements and
    seeded homogeneous elements."""
    out = []
    for sig in sigs:
        mod = FreeModule(sig, [("e", 0)])
        targets = []
        for _ in range(6):
            b = rand_elem(sig, rng.randint(1, 4), rng, poly_bound=2, max_terms=4)
            for elem in (diff(b), rand_homogeneous(sig, rng, 3)):
                if not elem.is_zero():
                    targets.append(GradedMap(mod, elem.degree(), {(0, 0): elem}, check=False))
        out.append((mod, Differential.free(mod), targets))
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_one_propagation_matches_the_two_pass_grading(field):
    """`_grading`, which propagates once on unit polygen weights and maps
    the weights it finds to those of the block, returns the block of
    `grading_two_pass_reference`, which propagates a second time on the
    block's polygen weights: the whole ``(grading, w)`` pair, at bounds 0,
    2 and 5.  With ``j(d)``, ``j(d)`` plus a boundary, a zero target and
    a seeded target on `_grading_cases`, `_rung_cases`, `_finer_rung` and
    `_huge_conjugates`, with a zero and a seeded target on `_column_cases`
    (some not square-zero), with the targets `is_boundary_up_to` builds on its
    rank-one modules over every `FixturePool` signature and one with no
    polygens, and on a Koszul complex, which meets no conflict."""
    pool = FixturePool(field)
    rng = random.Random(79)
    cases = []
    lifting = _grading_cases(pool, rng) + _rung_cases(field, rng) + _huge_conjugates(pool)
    for mod, d in lifting + [_finer_rung(field, rng)]:
        h = obstruction(mod, d, mod.sig.top_variable.name)
        cases.append((mod, d, [h, h + bracket_diff(d, rand_map(mod, h.degree + 1, rng))]))
    cases += [(mod, d, []) for mod, d in _column_cases(field)]
    sigs = [pool.S3, pool.S1, pool.Sodd3, pool.S2, _no_polygen_signature(field)]
    cases += _boundary_modules(sigs, rng)
    sig = Signature(field, ["a0", "a1", "a2"]).adjoin("X", 1, "a0")
    mod, d = koszul(sig, [sig.parse(f"a{i}") for i in range(3)])
    cases.append((mod, d, []))
    kinds = set()
    for mod, d, targets in cases:
        targets = targets + [GradedMap.zero(mod, -1), rand_map(mod, -1, rng)]
        for h, bound in itertools.product(targets, (0, 2, 5)):
            got = _grading(mod, d, h, bound)
            assert got == grading_two_pass_reference(mod, d, h, bound)
            grading = got[0]
            n = len(grading.poly)
            unit = [[int(i == j) for j in range(n)] for i in range(n)]
            if not n:
                kinds.add("no polygens")
            elif (grading.kernel, grading.pivots) == (unit, []):
                kinds.add("no conflict")
            else:
                kinds.add("all-ones" if grading.ones else "finer" if grading.kernel else "trivial")
    assert kinds == {"no polygens", "no conflict", "all-ones", "finer", "trivial"}


def test_grading_propagates_once(monkeypatch):
    """`_grading` walks ``D`` once: one `_propagate` per grading on
    `_finer_rung` and on `_conjugated_nk`, whose targets ``j(d)`` meet
    conflicts (each grading has pivot polygens)."""
    calls = []
    propagate = lift_module._propagate

    def spy(*args):
        calls.append(args)
        return propagate(*args)

    monkeypatch.setattr(lift_module, "_propagate", spy)
    for mod, d in (_finer_rung(QQ, random.Random(3)), _conjugated_nk(FixturePool(QQ))):
        calls.clear()
        grading, _ = _grading(mod, d, obstruction(mod, d, "X"), 2)
        assert grading.pivots and len(calls) == 1


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_bands_match_the_slice_and_filter_rule(field):
    """`_Grading.band`, which enumerates the pivot exponents of a class and
    solves for the rest, equals `band_reference`, which slices the
    all-ones weight or takes the band whole and filters it by class.

    On every ``(degree, class)`` that `_homotopy_columns` asks for, one
    degree below and above it, and at that degree the class plus 1 (under
    the all-ones grading, an all-ones weight the other coordinates do not
    give) and plus one past the last coordinate (no class of the packing),
    at bounds 0-3: the blocks of ``j(d)`` and of zero targets on
    `_grading_cases`, `_rung_cases` and `_huge_conjugates`, and of zero
    targets on `_column_cases`, which cover the trivial grading, the
    all-ones one with and without pivots and finer-only ones.  And on each `FixturePool` signature under one
    coordinate that weighs every polygen 1 and the variables their
    all-ones weights, 0 or 1, at weights -1 to 8 over `_GRID`: the
    monomials of the band of that weight (`component_monomials_reference`).
    """
    pool = FixturePool(field)
    rng = random.Random(67)
    cases = [
        (mod, d, [obstruction(mod, d, mod.sig.top_variable.name)])
        for mod, d in _grading_cases(pool, rng) + _rung_cases(field, rng) + _huge_conjugates(pool)
    ]
    cases += [(mod, d, []) for mod, d in _column_cases(field)]
    kinds = set()
    nonempty = 0
    for mod, d, targets in cases:
        degs = mod.degrees
        for h, bound in itertools.product(targets + [GradedMap.zero(mod, -1)], range(4)):
            grading, w = _grading(mod, d, h, bound)
            kind = "all-ones" if grading.ones else "finer" if grading.kernel else "trivial"
            kinds.add((kind, bool(grading.pivots)))
            asked = {
                (degs[c] - degs[r] + h.degree + 1, grading.basis[c] - grading.basis[r] + w)
                for r, c in itertools.product(range(mod.rank), repeat=2)
            }
            past = 1 << grading.bits * (grading.ones + len(grading.kernel))
            for degree, cls in asked:
                near = [(degree + k, cls) for k in (-1, 0, 1)] + [(degree, cls + 1), (degree, cls + past)]
                for deg, c in near:
                    got = grading.band(deg, bound, c)
                    assert got == band_reference(grading, deg, bound, c)
                    nonempty += bool(got)
    assert kinds == {("all-ones", False), ("all-ones", True), ("finer", True), ("trivial", True)}
    assert nonempty > 1000

    for sig in (pool.S3, pool.S1, pool.Sodd3, pool.S2):
        n = len(sig.polygens)
        ones = var_weights_reference(sig)
        for var in (ones, (0,) * len(ones), (1,) * len(ones)):
            grading = _Grading(sig, [0], [1] * n, list(var), 8, False, [[1] * n], list(range(1, n)))
            for (degree, bound), cls in itertools.product(_GRID, range(-1, 9)):
                got = grading.band(degree, bound, cls)
                assert got == band_reference(grading, degree, bound, cls)
                assert got == component_monomials_reference(sig, degree, bound, (cls, var))


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_finer_only_search_costs_its_pivots_not_its_bands():
    """`_finer_rung` has only a finer grading than the all-ones one, so no
    weight caps the polygen degree of its bands; at bound 200 its search
    enumerates the exponents of its two pivot polygens in each class, not
    every band up to the bound, and finishes under the time cap with the
    unknowns and the certificate of bound 3."""
    mod, d = _finer_rung(QQ, random.Random(3))
    h = obstruction(mod, d, "X")
    found = []
    for bound in (3, 200):
        with _time_cap(CAP_S):
            block = _grading(mod, d, h, bound)
            unknowns = _homotopy_columns(mod, d, h.degree + 1, bound, block)[0]
            found.append((unknowns, matrix_to_doc(solve_homotopy(mod, d, h, bound))))
    assert found[0] == found[1] and len(found[0][0]) == 8


def _solver_sizes(monkeypatch) -> list:
    """The sizes (unknowns, rows, nonzeros) of each homotopy system
    `solve_homotopy` hands the solver from now on, in order; `_kernel`
    takes its vectors from `dependencies` and adds none."""
    sizes = []

    def spy(field, columns, rhs):
        rows = {key for col in columns for key in col} | set(rhs)
        sizes.append((len(columns), len(rows), sum(len(col) for col in columns)))
        return solve_exact(field, columns, rhs)

    monkeypatch.setattr(lift_module, "solve_exact", spy)
    return sizes


def _bench_rungs(seed, workload="decide_large"):
    """``(name, module, differential, bound)`` for the ops of one benchmark
    workload (the `decide-large` rungs by default; `lift-small` puts the
    README example first) and seed, read from the documents `bench/gen.py`
    writes."""
    gen = _corpus_gen()
    with tempfile.TemporaryDirectory() as tmp:
        for op in getattr(gen, workload)(seed, tmp):
            args = dict(zip(op.argv[1::2], op.argv[2::2]))
            sig = signature_from_doc(load_json(args["--sig"])[0])
            mod, d = module_from_doc(load_json(args["--mod"])[0], sig)
            yield op.name, mod, d, int(args["--bound"])


def test_bench_rungs_solve_the_finest_block(monkeypatch):
    """The `decide-large` rungs of seed 0: the sizes of the system that
    `solve_homotopy` hands the solver (unknowns, rows, nonzeros), which
    the finest grading cuts on the rank-32 rung and on both misses, the
    block of the target-blind search (`grading_reference`), and a
    certificate equal to the full system's and the all-ones block's (None
    with both on the misses), at the rung's bound and one more."""
    sizes = _solver_sizes(monkeypatch)
    at_bound = {}
    for name, mod, d, bound in _bench_rungs(0):
        h = obstruction(mod, d, "X")
        for b in (bound, bound + 1):
            assert _grading(mod, d, h, b) == grading_reference(mod, d, h, b)
            got = solve_homotopy(mod, d, h, b)
            if b == bound:
                at_bound[name] = sizes[-1]
            want = solve_homotopy_reference(mod, d, h, b)
            ones = solve_homotopy_reference(mod, d, h, b, ones_filter(mod, d, h))
            assert (got is None) == (want is None) == (ones is None) == name.endswith("-miss")
            if got is not None:
                assert matrix_to_doc(got) == matrix_to_doc(want) == matrix_to_doc(ones)
    assert at_bound == {
        "naive-odd-q-r16-b0": (84, 141, 316),
        "naive-odd-f5-r32-b0": (126, 294, 592),  # all-ones block: 330 unknowns
        "naive-even-q-r16-b1": (46, 40, 96),
        "naive-even-q-r18-b1-miss": (36, 33, 78),  # all-ones block: 62
        "naive-even-q-r10-b2-miss": (8, 5, 8),  # all-ones block: 13
    }


def test_bench_rungs_key_rows_by_positive_ints():
    """The `decide-large` rungs of seed 0 of rank 16 to 34 (odd over Q and
    F5, even, and the even miss), at bounds 0 and 1: the block that
    `solve_homotopy` assembles has the unknowns of
    `homotopy_columns_reference` and, decoded (`decode_rows`), its
    columns item for item; every row key is a positive int (`bench`'s
    tracer counts the truthy keys); the target's keys decode to its
    coefficients; and `solve_homotopy` gives `solve_homotopy_reference`'s
    certificate, None on the miss."""
    misses = 0
    for name, mod, d, _ in _bench_rungs(0):
        if mod.rank < 16:
            continue
        h = obstruction(mod, d, "X")
        for bound in (0, 1):
            block = _grading(mod, d, h, bound)
            unknowns, columns, ids = _homotopy_columns(mod, d, h.degree + 1, bound, block)
            assert all(type(key) is int and key > 0 for col in columns for key in col)
            want_unknowns, want_columns = homotopy_columns_reference(
                mod, d, h.degree + 1, bound, block_filter(block)
            )
            assert unknowns == want_unknowns
            assert [list(col.items()) for col in decode_rows(mod, ids, columns)] == [
                list(col.items()) for col in want_columns
            ]
            rhs = decode_rows(mod, ids, [_row_keys(mod, ids, h)])[0]
            assert list(rhs.items()) == list(_coefficients(h).items())
            got = solve_homotopy(mod, d, h, bound)
            want = solve_homotopy_reference(mod, d, h, bound)
            assert (got is None) == (want is None), (name, bound)
            if got is not None:
                assert matrix_to_doc(got) == matrix_to_doc(want)
            if name.endswith("-miss"):
                assert got is None
                misses += 1
    assert misses == 2


def test_homogeneous_search_costs_the_same_at_any_bound(N3, monkeypatch):
    """The README example needs polygen degree 0; its weight block is the
    same at bound 10**6, where the full system would be out of reach.  So
    are the blocks of the `decide-large` rungs of seed 0, over three to five
    polygens, where the all-ones weight of each class caps the exponents
    of its pivot polygens: the same certificate (None on the misses) and
    the same solver sizes as at each rung's bound, each in under a
    second."""
    mod, d = N3
    start = time.perf_counter()
    far = decide_naive_lift(mod, d, "X", 10**6)
    assert time.perf_counter() - start < 1.0
    assert far.certificate == decide_naive_lift(mod, d, "X", 0).certificate

    sizes = _solver_sizes(monkeypatch)
    for name, mod, d, bound in _bench_rungs(0):
        near = decide_naive_lift(mod, d, "X", bound).certificate
        start = time.perf_counter()
        far = decide_naive_lift(mod, d, "X", 10**6).certificate
        assert time.perf_counter() - start < 1.0, name
        assert sizes[-1] == sizes[-2], name
        assert (far is None) == name.endswith("-miss")
        assert far == near, name


def _pool_lifts(field, rng):
    """Lifts of the `FixturePool` lifting modules, plain and conjugated by
    `rand_unit`, and of Koszul rungs; both parities occur."""
    pool = FixturePool(field)
    fixtures = []
    for mod, d in [(pool.N3, pool.d3), (pool.NK, pool.dK), (pool.Nodd, pool.dodd)]:
        fixtures.append((mod, d))
        u = rand_unit(mod, rng, poly_bound=1)
        fixtures.append((mod, d.conjugate(u)))
    for parity in ("odd", "even"):
        sig = Signature(field, [f"a{i}" for i in range(3)])
        if parity == "odd":
            sig = sig.adjoin("X", 1, "a0")
        else:
            sig = sig.adjoin("W0", 1, "a0").adjoin("W1", 1, "a1").adjoin("X", 2, "a1*W0 - a0*W1")
        fixtures.append(_koszul_rung(sig, 3, rng))
    lifts, parities = [], {"odd": 0, "even": 0}
    for mod, d in fixtures:
        var = mod.sig.top_variable.name
        cert = decide_naive_lift(mod, d, var, 2).certificate
        assert cert is not None
        odd = mod.sig.var(var).odd
        lifts.append((construct_lift_odd if odd else construct_lift_even)(mod, d, var, cert))
        parities["odd" if odd else "even"] += 1
    assert all(parities.values()), parities
    return lifts


def _mutate_entry(f: GradedMap, rng, double: bool) -> GradedMap:
    """``f`` with one entry, drawn by `rng`, dropped or doubled."""
    entries = dict(f.entries)
    key = rng.choice(sorted(entries))
    entries[key] = entries[key] + entries[key] if double else f.module.sig.zero()
    return GradedMap(f.module, f.degree, entries, check=False)


def _x_dependent_entry(mod, var):
    """A degree -1 entry ``(r, c)`` with a monomial in which ``var`` occurs,
    or None when no slot of the module takes one."""
    sig = mod.sig
    pos = sig.var_pos(var)
    for r, c in itertools.product(range(mod.rank), repeat=2):
        for m in component_monomials(sig, mod.degrees[c] - 1 - mod.degrees[r], 1):
            if m[1][pos]:
                return (r, c), AlgElem(sig, {m: sig.field.one})
    return None


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_verify_lift_matches_column_oracle(field, monkeypatch):
    """The one matrix identity ``D u + d(u) = u D'`` gives the report of the
    inverse-free per-column check (`verify_lift_inverse_free_reference`),
    the same verdict and the same failures in the same order: on lifts of
    both parities, and on each with one entry of ``lift_diff`` or ``u``
    dropped or doubled, with an entry in the variable added to
    ``lift_diff``, and, where two basis elements share a degree, in the
    basis ``u v`` for ``v = 1 + E_ij`` between them, with ``lift_diff`` kept
    and with it moved to ``v^{-1} D' v``.  Wherever ``u`` is invertible the
    verdict is also that of the check through ``u^{-1}``
    (`verify_lift_reference`).  The test asserts that some reports name some columns but not all, that
    some name two or more (their order is compared), that some name an
    entry in the variable, that some basis changes are refused as not
    invertible, and that some basis changes whose flat part is not 1 pass.
    `verify_lift` never calls `invert_unit`, so those pass with
    `dgalift.module.invert_unit` raising once the lifts are built (the
    oracles hold their own reference to it)."""
    rng = random.Random(83)
    lifts = _pool_lifts(field, rng)

    def refuse(*_):
        raise AssertionError("invert_unit called")

    monkeypatch.setattr("dgalift.module.invert_unit", refuse)
    seen = {"passed": 0, "some columns": 0, "two columns": 0, "entry": 0, "not invertible": 0,
            "flat not 1 and passed": 0}
    for lift in lifts:
        mod, var, d = lift.module, lift.var_name, lift.ambient_diff
        dl, u = lift.lift_diff.matrix, lift.u
        cases = [(dl, u)]
        for double in (False, True):
            cases += [(_mutate_entry(dl, rng, double), u), (dl, _mutate_entry(u, rng, double))]
        slot = _x_dependent_entry(mod, var)
        if slot is not None:
            key, x = slot
            cases.append((dl + GradedMap(mod, -1, {key: x}, check=False), u))
        pair = next((p for p in itertools.permutations(range(mod.rank), 2)
                     if mod.degrees[p[0]] == mod.degrees[p[1]]), None)
        if pair is not None:
            one, e = GradedMap.identity(mod), unit_elementary(mod, *pair)
            uv = compose(u, one + e)
            cases += [(dl, uv), (compose(compose(one - e, dl), one + e), uv)]
        for m, uu in cases:
            args = (Differential(m), uu, d, var)
            want = verify_lift_inverse_free_reference(*args)
            got = verify_lift(*args)
            assert (got.passed, got.failures) == (want.passed, want.failures)
            invertible = not any("invertible" in f for f in want.failures)
            if invertible:
                assert verify_lift_reference(*args).passed == want.passed
            columns = [f for f in want.failures if "column" in f]
            seen["passed"] += want.passed
            seen["some columns"] += 0 < len(columns) < mod.rank
            seen["two columns"] += len(columns) >= 2
            seen["entry"] += any("depends on" in f for f in want.failures)
            seen["not invertible"] += not invertible
            seen["flat not 1 and passed"] += want.passed and _flat_inverse(uu) is not None
    assert all(seen.values()), seen


def test_verify_lift_reports_a_singular_basis_change(N3, monkeypatch):
    """A basis change whose flat part is singular (``a`` on the diagonal)
    is reported as not invertible.  `_invert_flat` runs only on a basis
    change whose flat part is not 1, and an error of any other kind inside
    it is a fault and propagates."""
    mod, d = N3
    lift = construct_lift_odd(mod, d, "X", decide_naive_lift(mod, d, "X", 0).certificate)
    dbl, dl, d = lift.module, lift.lift_diff, lift.ambient_diff
    u = lift.u + GradedMap(dbl, 0, {(1, 1): dbl.sig.parse("a")})
    assert verify_lift(dl, lift.u, d, "X").passed
    rep = verify_lift(dl, u, d, "X")
    assert not rep.passed
    assert rep.failures == [
        "basis change is not invertible: degree-level part of the unit is singular"
    ]

    def broken(_):
        raise TypeError("a fault")

    monkeypatch.setattr("dgalift.module._invert_flat", broken)
    assert verify_lift(dl, lift.u, d, "X").passed  # flat part 1: nothing solved
    with pytest.raises(TypeError):
        verify_lift(dl, u, d, "X")


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_flat_inverse_decides_as_invert_unit(field):
    """`verify_lift` refuses a basis change as not invertible, with the
    message of `invert_unit`, exactly when `invert_unit` raises
    `NotInvertibleError`; `invert_unit` stays the oracle.  The basis
    changes on each lift's module: `rand_unit` draws (strictly raising or
    not, polygen bound 1 and 2), each also summed with a second draw that
    may join basis elements of one degree both ways (a flat part such as
    ``[[1, x], [y, 1]]``, singular or not), a polygen ``a`` and ``1 + a``
    on a diagonal, and a map of degree 1.  Where ``u`` is invertible, the
    flat part of ``u^{-1}`` is what `_flat_inverse` gives, 1 for None."""
    rng = random.Random(97)
    seen = {"refused": 0, "flat 1": 0, "flat not 1": 0}
    for lift in _pool_lifts(field, rng):
        mod, var = lift.module, lift.var_name
        one, sig = GradedMap.identity(mod), mod.sig
        units = []
        for poly_bound, strict in itertools.product((1, 2), (True, False)):
            u = rand_unit(mod, rng, poly_bound=poly_bound, strict_raising=strict)
            units += [u, u + rand_unit(mod, rng, strict_raising=False) - one]
        a = sig.gen(sig.polygens[0])
        lam = rng.randrange(mod.rank)
        units += [one + GradedMap(mod, 0, {(lam, lam): x}) for x in (a - sig.one(), a)]
        units.append(rand_map(mod, 1, rng))
        for u in units:
            try:
                inv, want = invert_unit(u), []
            except NotInvertibleError as ex:
                inv, want = None, [f"basis change is not invertible: {ex}"]
            report = verify_lift(lift.lift_diff, u, lift.ambient_diff, var)
            assert [f for f in report.failures if "invertible" in f] == want
            if inv is None:
                seen["refused"] += 1
                continue
            flat = _flat_inverse(u)
            degs = mod.degrees
            inv_flat = {k: e for k, e in inv.entries.items() if degs[k[0]] == degs[k[1]]}
            assert inv_flat == (one if flat is None else flat).entries
            seen["flat 1" if flat is None else "flat not 1"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_invert_unit_matches_series_oracle(field, monkeypatch):
    """`invert_unit` equals the series with the flat inverse in every
    product (`invert_unit_reference`): on `rand_unit` units with and
    without equal-degree entries, and on the basis changes of odd and even
    lifts.  Every lift unit has the identity as its flat part, so that it
    takes the path that solves nothing; some random units do not.
    `invert_unit` checks ``u inv = 1`` only, so ``inv u = 1`` is checked
    here on every unit."""
    import dgalift.module as module

    solved = []
    invert_flat = module._invert_flat
    monkeypatch.setattr(
        module, "_invert_flat", lambda f: solved.append(f) or invert_flat(f)
    )
    rng = random.Random(89)
    pool = FixturePool(field)
    units = []
    for mod in (pool.N3, pool.NK, pool.Nodd, pool.N1, pool.M2_S1):
        for k in range(8):
            unit = rand_unit(mod, rng, poly_bound=2, strict_raising=k % 2 == 0)
            units.append(unit + (rand_unit(mod, rng, poly_bound=1) - GradedMap.identity(mod)))
    for u in units:
        inv = invert_unit(u)
        assert inv == invert_unit_reference(u)
        assert compose(inv, u) == GradedMap.identity(u.module)  # the side not checked
    assert solved
    solved.clear()
    lifts = _pool_lifts(field, rng)
    for lift in lifts:
        inv = invert_unit(lift.u)
        assert inv == invert_unit_reference(lift.u)
        assert compose(inv, lift.u) == GradedMap.identity(lift.module)
    assert not solved


def _construct(mod, d, var, gamma):
    construct = construct_lift_odd if mod.sig.var(var).odd else construct_lift_even
    return construct(mod, d, var, gamma)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_lifted_matrix_matches_conjugation_oracle(field):
    """The closed form ``D' = [D]_0 - eps_r d(X) [g]_0`` of a construction
    equals the conjugation ``u^{-1} (D u + d(u))`` (`lifted_matrix_reference`)
    exactly, on every lift of `_pool_lifts`, of both parities."""
    lifts = _pool_lifts(field, random.Random(107))
    for lift in lifts:
        want = lifted_matrix_reference(lift.ambient_diff, lift.u, invert_unit(lift.u))
        assert lift.lift_diff.matrix == want
    assert any(lift.u != GradedMap.identity(lift.module) for lift in lifts)


def test_lifted_matrix_matches_conjugation_oracle_on_bench_rungs():
    """The same on the 49 `lift-small` ops of benchmark seed 0, the README
    example among them, and on the three `decide-large` rungs of seed 0
    that lift, at their own bound.  The even rank-16 rung is the one whose
    certificate has terms free of ``X`` in rows of odd degree, where
    ``eps_r = -1``."""
    names = []
    for name, mod, d, bound in itertools.chain(_bench_rungs(0, "lift_small"), _bench_rungs(0)):
        if name.endswith("-miss"):
            continue
        var = mod.sig.top_variable.name
        lift = _construct(mod, d, var, decide_naive_lift(mod, d, var, bound).certificate)
        assert lift.lift_diff.matrix == lifted_matrix_reference(lift.ambient_diff, lift.u, invert_unit(lift.u)), name
        names.append(name)
    assert len(names) == 52 and names[0] == "lift-readme-s3-n3"
    assert "naive-even-q-r16-b1" in names


def _x_free_unit(mod, var, rng):
    """A degree-0 unit free of `var`: a diagonal of nonzero scalars times a
    `rand_unit` (degree-raising, or with one entry between equal degrees)
    whose terms in `var` are dropped."""
    sig, field = mod.sig, mod.sig.field
    pos = sig.var_pos(var)
    u = rand_unit(mod, rng, poly_bound=1, strict_raising=rng.random() < 0.5)
    free = {k: AlgElem(sig, {m: c for m, c in e.terms.items() if not m[1][pos]}) for k, e in u.entries.items()}
    scalars = [x for x in map(field.of_int, range(1, 5)) if x != field.zero]
    diag = {(i, i): sig.scalar(rng.choice(scalars)) for i in range(mod.rank)}
    return compose(GradedMap(mod, 0, diag, check=False), GradedMap(mod, 0, free))


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_certificate_conjugates_with_a_unit_free_of_the_variable(field):
    """For a degree-0 unit ``v`` free of ``X``, ``j(v) = 0``, so the
    obstruction of ``d' = v d v^{-1}`` is ``v j(d) v^{-1}`` and
    ``v gamma v^{-1}`` is a certificate for ``d'`` whenever ``gamma`` is one
    for ``d``.  On the `FixturePool` lifting modules and Koszul rungs of both
    parities: ``[d', v gamma v^{-1}] = j(d')``, and the construction on
    ``d'`` with that certificate passes `verify_lift`, with the lifted
    matrix of `lifted_matrix_reference`.  Some units of each parity have
    an entry off the diagonal."""
    pool = FixturePool(field)
    rng = random.Random(109)
    fixtures = [(pool.N3, pool.d3), (pool.NK, pool.dK), (pool.Nodd, pool.dodd)]
    for parity in ("odd", "even"):
        sig = Signature(field, [f"a{i}" for i in range(3)])
        if parity == "odd":
            sig = sig.adjoin("X", 1, "a0")
        else:
            sig = sig.adjoin("W0", 1, "a0").adjoin("W1", 1, "a1").adjoin("X", 2, "a1*W0 - a0*W1")
        fixtures.append(_koszul_rung(sig, 3, rng))
    moved = {"odd": 0, "even": 0}
    for mod, d in fixtures:
        var = mod.sig.top_variable.name
        gamma = decide_naive_lift(mod, d, var, 2).certificate
        assert gamma is not None
        for _ in range(4):
            v = _x_free_unit(mod, var, rng)
            vi = invert_unit(v)
            d2 = d.conjugate(v)
            gamma2 = compose(compose(v, gamma), vi)
            assert bracket_diff(d2, gamma2) == obstruction(mod, d2, var)
            lift = _construct(mod, d2, var, gamma2)
            assert verify_lift(lift.lift_diff, lift.u, lift.ambient_diff, var).passed
            assert lift.lift_diff.matrix == lifted_matrix_reference(lift.ambient_diff, lift.u, invert_unit(lift.u))
            moved["odd" if mod.sig.var(var).odd else "even"] += any(r != c for r, c in v.entries)
    assert all(moved.values()), moved
