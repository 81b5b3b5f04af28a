"""Seeded identity suites.

Each suite draws random instances from the fixture pool and checks one
exact identity; a failure is a counterexample, never a tolerance issue.
The same suites back the library tests, the acceptance run, and the
command-line ``selftest``; with a fixed seed the transcript is
bit-identical across runs.
"""

from __future__ import annotations

import random

from .algebra import diff, derivative
from .field import Field, PrimeField, QQ
from .jop import JOperator
from .lift import is_boundary_up_to
from .module import (
    Differential,
    DOpPair,
    GradedMap,
    bracket,
    bracket_diff,
    compose,
    dop_normalize,
    invert_unit,
    left_mult,
    twofold_extension,
)
from .randgen import (
    FixturePool,
    rand_diff,
    rand_dop,
    rand_elem,
    rand_homogeneous,
    rand_map,
    rand_unit,
)


def _pair(pool: FixturePool, rng: random.Random):
    sig = pool.any_signature(rng)
    x = rand_homogeneous(sig, rng)
    y = rand_homogeneous(sig, rng)
    return sig, x, y


# -- algebra-level identities -------------------------------------------------


def check_graded_commutativity(pool, rng) -> bool:
    sig, x, y = _pair(pool, rng)
    xy = x * y
    yx = y * x
    if (x.degree() * y.degree()) % 2:
        yx = -yx
    return xy == yx


def check_diff_square_zero(pool, rng) -> bool:
    sig = pool.any_signature(rng)
    x = rand_elem(sig, rng.randint(0, 5), rng, poly_bound=2, max_terms=3)
    return diff(diff(x)).is_zero()


def check_diff_leibniz(pool, rng) -> bool:
    sig, x, y = _pair(pool, rng)
    lhs = diff(x * y)
    rhs = diff(x) * y
    t = x * diff(y)
    rhs = rhs + (-t if x.degree() % 2 else t)
    return lhs == rhs


def check_derivative_product_rule(pool, rng) -> bool:
    sig, x, y = _pair(pool, rng)
    var = sig.top_variable
    lhs = derivative(x * y, var.name)
    rhs = derivative(x, var.name) * y
    t = x * derivative(y, var.name)
    if (x.degree() * var.degree) % 2:
        t = -t
    return lhs == rhs + t


def check_derivative_diff_commute(pool, rng) -> bool:
    sig = pool.any_signature(rng)
    var = sig.top_variable
    x = rand_elem(sig, rng.randint(0, 5), rng, poly_bound=2, max_terms=3)
    lhs = derivative(diff(x), var.name)
    rhs = diff(derivative(x, var.name))
    if var.degree % 2:
        rhs = -rhs
    return lhs == rhs


def check_derivative_kernel(pool, rng) -> bool:
    sig = pool.any_signature(rng)
    var = sig.top_variable
    x = rand_elem(sig, rng.randint(0, 5), rng, poly_bound=2, max_terms=3)
    pos = sig.var_pos(var.name)
    has_var = any(m[1][pos] for m in x.terms)
    return derivative(x, var.name).is_zero() == (not has_var)


def check_format_parse_roundtrip(pool, rng) -> bool:
    from .algebra import format_expr

    sig = pool.any_signature(rng)
    e = rand_elem(sig, rng.randint(0, 5), rng, poly_bound=2, max_terms=3)
    return sig.parse(format_expr(e)) == e


def check_boundary_witness(pool, rng) -> bool:
    sig = pool.any_signature(rng)
    b = rand_elem(sig, rng.randint(1, 4), rng, poly_bound=1, max_terms=2)
    target = diff(b)
    if target.is_zero():
        return True
    witness = is_boundary_up_to(target, b.poly_degree() + 1)
    return witness is not None and diff(witness) == target


# -- module-level identities ----------------------------------------------------


def check_b_linearity(pool, rng) -> bool:
    mod, _ = pool.module_with_var(rng)
    f = rand_map(mod, rng.randint(-2, 2), rng)
    x = mod.basis_elem(rng.randrange(mod.rank)).scale_right(
        rand_homogeneous(mod.sig, rng)
    )
    b = rand_homogeneous(mod.sig, rng)
    return f.apply(x.scale_right(b)) == f.apply(x).scale_right(b)


def check_module_leibniz(pool, rng) -> bool:
    mod, _ = pool.module_with_var(rng)
    d = rand_diff(mod, rng)
    lam = rng.randrange(mod.rank)
    c = rand_homogeneous(mod.sig, rng)
    b = rand_homogeneous(mod.sig, rng)
    x = mod.basis_elem(lam).scale_right(c)
    deg = mod.degrees[lam] + c.degree()  # c is never zero
    lhs = d.apply(x.scale_right(b))
    t = x.scale_right(diff(b))
    rhs = d.apply(x).scale_right(b) + (-t if deg % 2 else t)
    return lhs == rhs


def check_bracket_scalar(pool, rng) -> bool:
    mod, _ = pool.module_with_var(rng)
    d = rand_diff(mod, rng)
    b = rand_homogeneous(mod.sig, rng)
    return bracket_diff(d, left_mult(mod, b)) == left_mult(mod, diff(b))


def check_jacobi(pool, rng) -> bool:
    mod, _ = pool.module_with_var(rng)
    f, g, h = (rand_map(mod, rng.randint(-2, 2), rng) for _ in range(3))
    lhs = bracket(bracket(f, g), h)
    rhs = bracket(f, bracket(g, h))
    corr = bracket(g, bracket(f, h))
    if (f.degree * g.degree) % 2:
        rhs = rhs + corr
    else:
        rhs = rhs - corr
    return lhs == rhs


def check_scalar_bracket_of_composites(pool, rng) -> bool:
    mod, _ = pool.module_with_var(rng)
    d = rand_diff(mod, rng)
    f = rand_map(mod, rng.randint(-2, 2), rng)
    b = rand_homogeneous(mod.sig, rng)
    ldb = left_mult(mod, diff(b))
    lb = DOpPair.of_map(left_mult(mod, b), d)
    fd = DOpPair.of_map(f, d).compose(DOpPair.of_diff(d))
    df = DOpPair.of_diff(d).compose(DOpPair.of_map(f, d))
    t = compose(f, ldb)
    want1 = DOpPair.of_map(t, d)
    want2 = DOpPair.of_map(-t if f.degree % 2 else t, d)
    return fd.bracket(lb) == want1 and df.bracket(lb) == want2


def check_square_linear(pool, rng) -> bool:
    mod, _ = pool.module_with_var(rng)
    d = rand_diff(mod, rng)
    s = d.square()
    lam = rng.randrange(mod.rank)
    x = mod.basis_elem(lam).scale_right(rand_homogeneous(mod.sig, rng))
    if d.apply(d.apply(x)) != s.apply(x):
        return False
    b = rand_homogeneous(mod.sig, rng)
    return bracket(s, left_mult(mod, b)).is_zero()


def check_bracket_diff_linear(pool, rng) -> bool:
    from .module import bracket_diff2

    mod, _ = pool.module_with_var(rng)
    d = rand_diff(mod, rng)
    d2 = rand_diff(mod, rng)
    f = rand_map(mod, rng.randint(-2, 2), rng)
    br = bracket_diff(d, f)
    x = mod.basis_elem(rng.randrange(mod.rank)).scale_right(
        rand_homogeneous(mod.sig, rng)
    )
    t = f.apply(d.apply(x))
    if f.degree % 2:
        t = -t
    if d.apply(f.apply(x)) - t != br.apply(x):
        return False
    lhs = d.apply(d2.apply(x)) + d2.apply(d.apply(x))
    return lhs == bracket_diff2(d, d2).apply(x)


def check_dop_normalize(pool, rng) -> bool:
    mod, _ = pool.module_with_var(rng)
    d = rand_diff(mod, rng)
    f = rand_map(mod, -1, rng)
    g = rand_map(mod, -1, rng)
    p = dop_normalize([[d, f], [g, d], [f, g]], d)
    x = mod.basis_elem(rng.randrange(mod.rank)).scale_right(
        rand_homogeneous(mod.sig, rng)
    )
    direct = d.apply(f.apply(x)) + g.apply(d.apply(x)) + f.apply(g.apply(x))
    return p.apply(x) == direct


def check_twofold_square_zero(pool, rng) -> bool:
    mod, d, var = pool.square_zero_instance(rng)
    k = rng.choice([-1, -2, -3, 1, 2])
    _, ds = twofold_extension(mod, d, k)
    return ds.square_zero


def check_invert_unit(pool, rng) -> bool:
    mod, _ = pool.module_with_var(rng)
    u = rand_unit(mod, rng)
    ui = invert_unit(u)
    one = GradedMap.identity(mod)
    return compose(u, ui) == one and compose(ui, u) == one


# -- derivation identities ------------------------------------------------------


def check_lr_for_e(pool, rng) -> bool:
    mod, var = pool.module_with_var(rng)
    j = JOperator(mod, var)
    f = rand_map(mod, rng.randint(-2, 2), rng)
    g = rand_map(mod, rng.randint(-2, 2), rng)
    lhs = j.of_map(compose(f, g))
    rhs = compose(j.of_map(f), g)
    t = compose(f, j.of_map(g))
    if (j.var.degree * f.degree) % 2:
        t = -t
    return lhs == rhs + t


def check_lr_general(pool, rng) -> bool:
    mod, var = pool.module_with_var(rng)
    j = JOperator(mod, var)
    d = rand_diff(mod, rng)
    h = rand_map(mod, rng.randint(-2, 2), rng)
    g = h.scale(-1) if h.degree % 2 == 0 else h
    dh = DOpPair.of_diff(d).compose(DOpPair.of_map(h, d))
    f = -dh.f
    total = DOpPair.of_map(f, d) + DOpPair.of_map(g, d).compose(DOpPair.of_diff(d)) + dh
    if not total.is_zero():
        return False
    jd = j.of_diff(d)
    xdeg = j.var.degree
    term1 = DOpPair.of_map(j.of_map(f), d)
    term2 = DOpPair.of_map(j.of_map(g), d).compose(DOpPair.of_diff(d))
    t3 = compose(g, jd)
    if (xdeg * g.degree) % 2:
        t3 = -t3
    term3 = DOpPair.of_map(t3, d)
    term4 = DOpPair.of_map(compose(jd, h), d)
    term5 = DOpPair.of_diff(d).compose(DOpPair.of_map(j.of_map(h), d))
    if xdeg % 2:
        term5 = -term5
    return (term1 + term2 + term3 + term4 + term5).is_zero()


def check_lr_for_d(pool, rng) -> bool:
    mod, var = pool.module_with_var(rng)
    j = JOperator(mod, var)
    d = rand_diff(mod, rng)
    a = rand_dop(mod, d, rng)
    b = rand_dop(mod, d, rng)
    if rng.random() < 0.4:
        # exercise the other representation: d-on-the-left summand
        b = DOpPair.of_diff(d).compose(DOpPair.of_map(rand_map(mod, rng.randint(-2, 1), rng), d))
    lhs = j.of_dop(a.compose(b))
    rhs = j.of_dop(a).compose(b)
    t = a.compose(j.of_dop(b))
    if (j.var.degree * a.degree) % 2:
        t = -t
    return lhs == rhs + t


def check_derivation_ad_compat(pool, rng) -> bool:
    mod, var = pool.module_with_var(rng)
    j = JOperator(mod, var)
    d = rand_diff(mod, rng)
    gamma = rand_map(mod, j.degree, rng)
    if rng.choice([1, -1]) < 0:
        gamma = -gamma
    delta = JOperator(mod, var, gamma)
    f = rand_map(mod, rng.randint(-2, 2), rng)
    t = rand_dop(mod, d, rng)
    fd = DOpPair.of_map(f, d)
    lhs = delta.of_dop(fd.bracket(t))
    t2 = fd.bracket(delta.of_dop(t))
    if (delta.degree * f.degree) % 2:
        t2 = -t2
    lhs = lhs - t2
    rhs = DOpPair.of_map(delta.of_map(f), d).bracket(t)
    return lhs == rhs


def check_weak_square_is_ad(pool, rng) -> bool:
    """Square of a derivation in the family, odd variable.

    For ``j + [gamma, -]`` the square is the commutator with
    ``j(gamma) + gamma^2`` exactly; the opposite sign convention flips the
    derivative term (replace gamma by -gamma).
    """
    candidates = [
        (pool.N3, "X"),
        (pool.M2_S3, "X"),
        (pool.M2_odd, "Z"),
    ]
    mod, var = candidates[rng.randrange(len(candidates))]
    j = JOperator(mod, var)
    d = rand_diff(mod, rng)
    gamma = rand_map(mod, j.degree, rng)
    t = rand_dop(mod, d, rng)
    gamma_sq = compose(gamma, gamma)
    j_gamma = j.of_map(gamma)
    plus = JOperator(mod, var, gamma)
    lhs = plus.of_dop(plus.of_dop(t))
    if lhs != DOpPair.of_map(j_gamma + gamma_sq, d).bracket(t):
        return False
    minus = JOperator(mod, var, -gamma)
    lhs = minus.of_dop(minus.of_dop(t))
    return lhs == DOpPair.of_map(gamma_sq - j_gamma, d).bracket(t)


def check_j_anchors(pool, rng) -> bool:
    mod, var = pool.module_with_var(rng)
    sig = mod.sig
    j = JOperator(mod, var)
    if j.of_map(left_mult(mod, sig.gen(var))) != GradedMap.identity(mod):
        return False
    a_free = rand_elem(sig, 0, rng, poly_bound=2, max_terms=2)
    if not j.of_map(left_mult(mod, a_free)).is_zero():
        return False
    return j.of_diff(Differential.free(mod)).is_zero()


def check_j_square_zero_bracket(pool, rng) -> bool:
    mod, d, var = pool.square_zero_instance(rng)
    j = JOperator(mod, var)
    return bracket_diff(d, j.of_diff(d)).is_zero()


def check_base_change(pool, rng) -> bool:
    from .jop import base_change_defect

    mod, var = pool.module_with_var(rng)
    j = JOperator(mod, var)
    u = rand_unit(mod, rng)
    ui = invert_unit(u)
    alpha = base_change_defect(j, u, ui)
    f = rand_map(mod, rng.randint(-2, 2), rng)
    transported = compose(compose(u, j.of_map(compose(compose(ui, f), u))), ui)
    return j.of_map(f) - transported == bracket(alpha, f)


SUITES = {
    "graded_commutativity": check_graded_commutativity,
    "diff_square_zero": check_diff_square_zero,
    "diff_leibniz": check_diff_leibniz,
    "derivative_product_rule": check_derivative_product_rule,
    "derivative_diff_commute": check_derivative_diff_commute,
    "derivative_kernel": check_derivative_kernel,
    "format_parse_roundtrip": check_format_parse_roundtrip,
    "boundary_witness_reverifies": check_boundary_witness,
    "map_is_linear_over_algebra": check_b_linearity,
    "module_leibniz": check_module_leibniz,
    "diff_bracket_scalar": check_bracket_scalar,
    "jacobi": check_jacobi,
    "scalar_bracket_of_composites": check_scalar_bracket_of_composites,
    "square_is_linear": check_square_linear,
    "bracket_diff_linear": check_bracket_diff_linear,
    "dop_normalize_sound": check_dop_normalize,
    "twofold_square_zero": check_twofold_square_zero,
    "invert_unit_roundtrip": check_invert_unit,
    "leibniz_on_endomorphisms": check_lr_for_e,
    "leibniz_on_zero_combination": check_lr_general,
    "leibniz_on_operator_pairs": check_lr_for_d,
    "derivation_ad_compat": check_derivation_ad_compat,
    "weak_square_is_ad": check_weak_square_is_ad,
    "j_anchors": check_j_anchors,
    "j_of_diff_is_cycle": check_j_square_zero_bracket,
    "base_change_defect": check_base_change,
}

# The identity batch pinned by the acceptance gate.
CORE_IDENTITY_SUITES = [
    "derivative_product_rule",
    "derivative_diff_commute",
    "jacobi",
    "scalar_bracket_of_composites",
    "square_is_linear",
    "leibniz_on_endomorphisms",
    "leibniz_on_zero_combination",
    "leibniz_on_operator_pairs",
    "derivation_ad_compat",
    "weak_square_is_ad",
]


def run_suite(name: str, field: Field, seed: int, iters: int, pool: FixturePool) -> dict:
    check = SUITES[name]
    rng = random.Random((seed, name, field.key().__repr__()).__repr__())
    failures = 0
    for _ in range(iters):
        if not check(pool, rng):
            failures += 1
    return {
        "suite": name,
        "field": field.to_doc(),
        "instances": iters,
        "failures": failures,
    }


def run_selftest(seed: int, iters: int, fields=None) -> dict:
    """Run the suites over the requested fields; deterministic per seed."""
    if fields is None:
        fields = [QQ, PrimeField(5)]
    results = []
    for field in fields:
        pool = FixturePool(field)
        for name in SUITES:
            results.append(run_suite(name, field, seed, iters, pool))
    return {
        "seed": seed,
        "iters": iters,
        "suites": results,
        "all_passed": all(r["failures"] == 0 for r in results),
    }
