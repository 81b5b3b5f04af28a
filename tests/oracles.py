"""Reference checks that only the tests use."""

from math import comb
from typing import Optional

from dgalift.algebra import AlgElem, _poly_tuples, _var_tuples, diff, monomial_sort_key
from dgalift.module import GradedMap, ModuleElement, left_mult


def is_scalar_cycle(f: GradedMap) -> Optional[AlgElem]:
    """Test whether ``f`` is left multiplication by a cycle.

    Reads ``b`` off the first diagonal entry and checks ``f = left_mult(b)``
    and ``diff(b) = 0``; on success returns ``b``, otherwise None.  A left
    multiplication graded-commutes with every matrix unit (its row signs
    cancel the Koszul sign), and since every module differential ``d``
    follows the Leibniz rule, ``[d, left_mult(b)] = left_mult(diff(b))``;
    so neither a commutation test nor ``[d, f] = 0`` needs checking apart,
    and the answer holds for every differential on the module.
    """
    module = f.module
    if f.is_zero():
        return module.sig.zero()
    b = f.entry(0, 0)
    if (f.degree * module.degrees[0]) % 2:
        b = -b
    if f != left_mult(module, b) or not diff(b).is_zero():
        return None
    return b


# -- the algebra kernel before the shared product routine --------------------


def mul_reference(x: AlgElem, y: AlgElem) -> AlgElem:
    """The graded product, one monomial pair and one variable at a time."""
    sig = x.sig
    field = sig.field
    variables = sig.variables
    out: dict = {}
    for (p1, v1), c1 in x.terms.items():
        for (p2, v2), c2 in y.terms.items():
            coeff = field.mul(c1, c2)
            vprod = []
            dead = False
            flips = 0
            for i, var in enumerate(variables):
                e1, e2 = v1[i], v2[i]
                if var.odd:
                    if e1 + e2 > 1:
                        dead = True
                        break
                    vprod.append(e1 + e2)
                else:
                    if e1 and e2:
                        b = field.of_int(comb(e1 + e2, e1))
                        if b == field.zero:
                            dead = True
                            break
                        coeff = field.mul(coeff, b)
                    vprod.append(e1 + e2)
            if dead:
                continue
            # odd factors of y move left past the later odd factors of x
            for j, varj in enumerate(variables):
                if v2[j] and varj.odd:
                    for i in range(j + 1, len(variables)):
                        if v1[i] and variables[i].odd:
                            flips += v1[i]
            if flips % 2:
                coeff = field.neg(coeff)
            m = (tuple(a + b for a, b in zip(p1, p2)), tuple(vprod))
            s = field.add(out.get(m, field.zero), coeff)
            if s == field.zero:
                out.pop(m, None)
            else:
                out[m] = s
    return AlgElem(sig, out)


def diff_reference(elem: AlgElem) -> AlgElem:
    """Leibniz rule as ``sign * left * d(X^(e)) * right``, term by term."""
    sig = elem.sig
    field = sig.field
    out = sig.zero()
    for (p, v), c in elem.terms.items():
        left_deg = 0
        for i, var in enumerate(sig.variables):
            e = v[i]
            if e == 0:
                continue
            left = (p, tuple(v[j] if j < i else 0 for j in range(len(v))))
            right = ((0,) * len(p), tuple(v[j] if j > i else 0 for j in range(len(v))))
            dfac = var.diff
            if not var.odd:
                power = tuple(e - 1 if j == i else 0 for j in range(len(v)))
                dfac = mul_reference(AlgElem(sig, {((0,) * len(p), power): field.one}), dfac)
            term = mul_reference(AlgElem(sig, {left: c}), dfac)
            term = mul_reference(term, AlgElem(sig, {right: field.one}))
            out = out + term.scale(-1 if left_deg % 2 else 1)
            left_deg += e * var.degree
    return out


def component_monomials_reference(sig, degree: int, poly_bound: int) -> list:
    """The band enumerated and sorted afresh on every call."""
    if degree < 0 or poly_bound < 0:
        return []
    out = []
    for v in _var_tuples(sig, degree):
        for p in _poly_tuples(len(sig.polygens), poly_bound):
            out.append((p, v))
    out.sort(key=lambda m: monomial_sort_key(sig, m))
    return out


def compose_reference(f: GradedMap, g: GradedMap) -> GradedMap:
    """The matrix product as a sum of `mul_reference` products per entry."""
    out: dict = {}
    for (r, m), fv in f.entries.items():
        for (m2, c), gv in g.entries.items():
            if m2 == m:
                out[r, c] = out.get((r, c), f.module.sig.zero()) + mul_reference(fv, gv)
    return GradedMap(f.module, f.degree + g.degree, out, check=False)


def apply_reference(f: GradedMap, x: ModuleElement) -> ModuleElement:
    """``f(x)`` as a sum of `mul_reference` products per row."""
    out: dict = {}
    for (r, c), e in f.entries.items():
        if c in x.coeffs:
            out[r] = out.get(r, f.module.sig.zero()) + mul_reference(e, x.coeffs[c])
    return ModuleElement(f.module, out)
