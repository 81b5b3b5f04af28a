import itertools
import random

import pytest

from dgalift import (
    QQ,
    PrimeField,
    Signature,
    component_monomials,
    derivative,
    diff,
    is_boundary_up_to,
    is_cycle,
)
from dgalift.algebra import monomial_sort_key
from dgalift.errors import SchemaError
from dgalift.lift import _grading, _homotopy_columns
from dgalift.module import Differential, FreeModule, GradedMap
from dgalift.randgen import FixturePool, rand_elem, rand_homogeneous
from oracles import grading_reference, is_boundary_reference, trivial_grading


def test_divided_power_product(S1):
    assert S1.parse("X^(2)") * S1.parse("X^(3)") == S1.parse("10*X^(5)")


def test_divided_power_product_mod5():
    s = (
        Signature(PrimeField(5), ["a", "b"])
        .adjoin("W1", 1, "a")
        .adjoin("W2", 1, "b")
        .adjoin("X", 2, "b*W1 - a*W2")
    )
    assert (s.parse("X^(2)") * s.parse("X^(3)")).is_zero()


def test_koszul_sign(S1):
    w1, w2 = S1.parse("W1"), S1.parse("W2")
    assert w1 * w2 == -(w2 * w1)
    assert (w1 * w1).is_zero()
    x = S1.parse("X")
    assert x * w1 == w1 * x  # even element commutes on the nose


def test_linear_ops(S1):
    x = S1.parse("X^(2)*a - 3*W1*W2")
    assert (x + (-x)).is_zero()
    assert x.scale(1) == x
    aw = S1.parse("a*W1")
    assert aw + aw == S1.parse("2*a*W1")


def test_degree_queries(S1):
    assert S1.parse("X^(2)*a").degree() == 4
    mixed = S1.parse("W1 + a")
    assert not mixed.is_homogeneous()
    with pytest.raises(ValueError):
        mixed.degree()
    assert S1.zero().degree() is None
    assert S1.zero().is_homogeneous()


def test_diff_divided_power(S1):
    assert diff(S1.parse("X^(3)")) == S1.parse("X^(2)") * S1.parse("b*W1 - a*W2")


def test_diff_cycle_by_hand(S2):
    # Leibniz by hand: d(c*X1) = c*a*b and d(b*X2) = b*a*c cancel
    assert diff(S2.parse("c*X1 - b*X2")).is_zero()


def test_diff_polygen(S1):
    assert diff(S1.parse("a")).is_zero()


def test_diff_squares_to_zero(S1, S2):
    for sig, text in [
        (S1, "X^(3)*W1*a + 2*W2*X - b^2"),
        (S2, "Y^(2)*X1 + a*X1*X2 - c*Y"),
    ]:
        assert diff(diff(sig.parse(text))).is_zero()


def test_derivative_inner_variable(S2):
    assert derivative(S2.parse("c*X1 - b*X2"), "X1") == S2.parse("c")


def test_derivative_even(S1):
    assert derivative(S1.parse("X^(5)"), "X") == S1.parse("X^(4)")


def test_derivative_kills_subalgebra(S1):
    assert derivative(S1.parse("a*W1*W2"), "X").is_zero()


def test_derivative_odd_sign(S1):
    # moving W2 across W1 flips the sign
    assert derivative(S1.parse("W1*W2"), "W2") == -S1.parse("W1")
    assert derivative(S1.parse("W1*W2"), "W1") == S1.parse("W2")


def test_is_cycle(S1):
    base = Signature(QQ, ["a", "b"]).adjoin("W1", 1, "a").adjoin("W2", 1, "b")
    assert is_cycle(base.parse("b*W1 - a*W2"))
    assert not is_cycle(base.parse("W1"))
    with pytest.raises(ValueError):
        is_cycle(base.parse("W1 + a"))


def test_boundary_found():
    base = Signature(QQ, ["a", "b"]).adjoin("W1", 1, "a").adjoin("W2", 1, "b")
    t = base.parse("b*W1 - a*W2")
    w = is_boundary_up_to(t, 1)
    assert w is not None
    assert diff(w) == t
    # hand witness: d(-W1*W2) = b*W1 - a*W2
    assert diff(base.parse("- W1*W2")) == t


def test_boundary_not_found(S2, S3):
    assert is_boundary_up_to(S2.parse("c"), 4) is None
    # X is odd, so no monomial has degree 2: there is no candidate at all
    assert is_boundary_up_to(S3.parse("a*X"), 3) is None


def test_boundary_zero(S1):
    assert is_boundary_up_to(S1.zero(), 0).is_zero()


def test_boundary_rejects_inhomogeneous(S1):
    with pytest.raises(ValueError):
        is_boundary_up_to(S1.parse("W1 + a"), 2)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(5)], ids=repr)
def test_boundary_search_matches_reference(field):
    """`is_boundary_up_to`, which is `solve_homotopy` on the free module of
    rank one, gives the witness of the system over every monomial of the
    band (`is_boundary_reference`), or None with it: on the differentials
    of seeded elements, their terms of polygen degree 0-2 mixed, and on
    seeded homogeneous elements, over every `FixturePool` signature at
    bounds 0-2.  Some of these targets span two classes of the grading of
    the algebra alone, where the target-blind search (`grading_reference`)
    took the whole band; on those the block is a subset of the band, and on
    ``a^2 + b^3`` over README's even signature at bound 3 it is 2 of the 20
    monomials."""
    pool = FixturePool(field)
    rng = random.Random(101)
    found = missed = spans = 0
    for sig in (pool.S3, pool.S1, pool.Sodd3, pool.S2):
        for _ in range(10):
            b = rand_elem(sig, rng.randint(1, 4), rng, poly_bound=2, max_terms=4)
            for elem in (diff(b), rand_homogeneous(sig, rng, 3)):
                for bound in range(3):
                    got = is_boundary_up_to(elem, bound)
                    assert got == is_boundary_reference(elem, bound)
                    found += got is not None and not elem.is_zero()
                    missed += got is None
                    if elem.is_zero():
                        continue
                    block, band, spanned = _boundary_blocks(elem, bound)
                    assert set(block) <= set(band)
                    spans += spanned
    assert found > 10 and missed > 10 and spans > 0, (found, missed, spans)
    elem = pool.S1.parse("a^2 + b^3")
    block, band, spanned = _boundary_blocks(elem, 3)
    assert spanned and (len(block), len(band)) == (2, 20)
    assert is_boundary_up_to(elem, 3) == is_boundary_reference(elem, 3) == pool.S1.parse(
        "a*W1 + b^2*W2"
    )


def _boundary_blocks(elem, bound):
    """The monomials of the block `is_boundary_up_to` solves for `elem`,
    those of the whole band, and whether `elem` spans two classes of the
    grading of the algebra alone (the target-blind search of
    `grading_reference` then takes the whole band)."""
    sig = elem.sig
    module = FreeModule(sig, [("e", 0)])
    d = Differential.free(module)
    h = GradedMap(module, elem.degree(), {(0, 0): elem}, check=False)
    trivial = trivial_grading(module), 0
    blind = grading_reference(module, d, GradedMap.zero(module, h.degree), bound)
    spanned = blind != trivial and grading_reference(module, d, h, bound) == trivial
    unknowns, _ = _homotopy_columns(module, d, h.degree + 1, bound, _grading(module, d, h, bound))
    return [m for _, _, m in unknowns], component_monomials(sig, h.degree + 1, bound), spanned


def _brute_force_monomials(sig, degree, poly_bound):
    """Independent enumeration: all exponent tuples within hard caps."""
    ranges = []
    for v in sig.variables:
        top = 1 if v.degree % 2 else (degree // v.degree if v.degree <= degree else 0)
        ranges.append(range(top + 1))
    out = set()
    for v_exps in itertools.product(*ranges):
        if sum(e * v.degree for e, v in zip(v_exps, sig.variables)) != degree:
            continue
        for p_exps in itertools.product(*(range(poly_bound + 1),) * len(sig.polygens)):
            if sum(p_exps) <= poly_bound:
                out.add((tuple(p_exps), tuple(v_exps)))
    return out


@pytest.mark.parametrize("degree,poly_bound", [(0, 2), (1, 1), (2, 0), (2, 2), (3, 1), (4, 2)])
def test_component_monomials_complete(S1, degree, poly_bound):
    got = component_monomials(S1, degree, poly_bound)
    assert set(got) == _brute_force_monomials(S1, degree, poly_bound)
    keys = [monomial_sort_key(m) for m in got]
    assert keys == sorted(keys)
    assert len(set(got)) == len(got)


def test_component_monomials_frozen(S1, S3):
    def names(sig, ms):
        from dgalift.algebra import _format_monomial

        return [_format_monomial(sig, m) for m in ms]

    assert names(S1, component_monomials(S1, 2, 0)) == ["X", "W1*W2"]
    assert names(S1, component_monomials(S1, 1, 1)) == [
        "W1",
        "W2",
        "a*W1",
        "a*W2",
        "b*W1",
        "b*W2",
    ]
    # by the definition (degree 1, polygen degree <= 1) a*X qualifies too
    assert names(S3, component_monomials(S3, 1, 1)) == ["X", "a*X"]


def test_tate_adjoin_builds_fixture(S1, S3):
    base = Signature(QQ, ["a", "b"]).adjoin("W1", 1, "a").adjoin("W2", 1, "b")
    assert base.adjoin("X", 2, "b*W1 - a*W2") == S1
    assert Signature(QQ, ["a"]).adjoin("X", 1, "a") == S3


def test_tate_adjoin_errors(S3):
    with pytest.raises(SchemaError):
        S3.adjoin("Z", 2, "X")  # dX = a != 0, not a cycle
    with pytest.raises(SchemaError):
        S3.adjoin("Z", 1, "X")  # degree mismatch as well
    with pytest.raises(SchemaError):
        S3.adjoin("X", 2, "a*a")  # duplicate name
    with pytest.raises(SchemaError, match="unique"):
        S3.adjoin("X", 1, "a")  # duplicate name with a valid cycle
    for name in (5, ["Z"], "", "1Z"):
        with pytest.raises(SchemaError, match="bad generator name"):
            S3.adjoin(name, 1, "a")
    with pytest.raises(SchemaError):
        S3.adjoin("Z", 3, "a")  # wrong degree for the cycle
    with pytest.raises(SchemaError, match="homogeneous"):
        S3.adjoin("Z", 1, "a + X")  # inhomogeneous


def test_degenerate_flag():
    assert Signature(QQ, ["a"]).degenerate
    s = Signature(QQ, ["a"]).adjoin("W", 1, "0")
    assert s.degenerate
    assert not Signature(QQ, ["a"]).adjoin("X", 1, "a").degenerate


def test_signature_mismatch(S1, S2):
    with pytest.raises(SchemaError):
        S1.parse("a") + S2.parse("a")


def test_fp_signature_arithmetic():
    s = Signature(PrimeField(5), ["a"]).adjoin("X", 1, "a")
    e = s.parse("3*X + 4*X")
    assert e == s.parse("2*X")
    assert diff(e) == s.parse("2*a")


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=repr)
def test_adjoin_key_matches_a_fresh_signature(field):
    # `adjoin` keeps the earlier variables, each with its differential in
    # its own stage, so the key built by the constructor is that of a fresh
    # signature on the same variables
    pool = FixturePool(field)
    for sig in (pool.S3, pool.S1, pool.Sodd3, pool.S2):
        step = Signature(field, sig.polygens)
        for var in sig.variables:
            step = step.adjoin(var.name, var.degree, str(var.diff))
            assert step.key() == Signature(field, step.polygens, step.variables).key()
        assert step == sig
