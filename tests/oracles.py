"""Reference checks, and a fixture they need, that only the tests use."""

from heapq import heapify, heappop, heappush
from itertools import product
from math import comb, gcd, lcm
from operator import add, mul
from typing import Callable, Optional

from dgalift.algebra import (
    AlgElem,
    Signature,
    _add_into,
    _format_monomial,
    _poly_tuples,
    _var_product,
    _var_tuples,
    component_monomials,
    derivative,
    diff,
    monomial_sort_key,
)
from dgalift.errors import ExprSyntaxError, NotInvertibleError, SchemaError, VerificationError
from dgalift.jop import CheckReport, JOperator
from dgalift.lift import (
    _Grading,
    _homotopy_columns,
    _kernel,
    _propagate,
    _unpack,
)
from dgalift.module import (
    Differential,
    DOpPair,
    FreeModule,
    GradedMap,
    ModuleElement,
    compose,
    invert_unit,
    left_mult,
)
from dgalift.solver import solve_exact


def idempotent(module: FreeModule, lam) -> GradedMap:
    """The projection onto one basis line."""
    i = lam if isinstance(lam, int) else module.index(lam)
    return GradedMap(module, 0, {(i, i): module.sig.one()}, check=False)


def unit_elementary(module: FreeModule, lam, mu) -> GradedMap:
    """Matrix unit sending ``e_mu`` to ``e_lam`` and other basis lines to 0."""
    r = lam if isinstance(lam, int) else module.index(lam)
    c = mu if isinstance(mu, int) else module.index(mu)
    deg = module.degrees[r] - module.degrees[c]
    return GradedMap(module, deg, {(r, c): module.sig.one()}, check=False)


def unit_poly_degree(u: GradedMap) -> int:
    """The largest polygen degree of an entry of ``u``."""
    return max((v.poly_degree() for v in u.entries.values()), default=0)


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


def mul_into_reference(sig: Signature, out: dict, a: dict, b: dict, neg: bool = False) -> None:
    """`_mul_into` without its constant path: every pair of terms, a
    constant one too, looks its variable parts up in ``sig._var_products``
    and adds the polygen sum and the coefficient product into ``out``."""
    field = sig.field
    zero, one, mul, fadd = field.zero, field.one, field.mul, field.add
    table = sig._var_products
    for (p1, v1), c1 in a.items():
        if neg:
            c1 = field.neg(c1)
        for (p2, v2), c2 in b.items():
            try:
                entry = table[v1, v2]
            except KeyError:
                entry = _var_product(sig, v1, v2)
            if entry is None:
                continue
            v, f = entry
            coeff = mul(c1, c2) if f == one else mul(mul(c1, c2), f)
            m = (tuple(map(add, p1, p2)), v)
            s = out.get(m)
            if s is None:
                out[m] = coeff
            else:
                s = fadd(s, coeff)
                if s == zero:
                    del out[m]
                else:
                    out[m] = s


def mul_into_pair_reference(sig: Signature, out: dict, a: dict, b: dict, neg: bool = False) -> None:
    """The product kernel before the per-signature tables: add ``a * b``
    (``-(a * b)`` when `neg`) into ``out``, working out the Koszul sign and
    the divided-power binomials of every pair of terms afresh."""
    field = sig.field
    zero, mul, fadd = field.zero, field.mul, field.add
    seed = 1 if neg else 0
    for (p1, v1), c1 in a.items():
        later, count = [], 0  # (odd position j, odd factors of v1 after j)
        for j in reversed(sig._odd):
            later.append((j, count))
            count += v1[j]
        evens = [(i, v1[i]) for i in sig._even if v1[i]]
        for (p2, v2), c2 in b.items():
            coeff = mul(c1, c2)
            flips = seed
            for j, k in later:
                if v2[j]:
                    if v1[j]:
                        break
                    flips += k
            else:
                for i, e1 in evens:
                    e2 = v2[i]
                    if e2:
                        coeff = mul(coeff, field.binomial(e1 + e2, e1))
                        if coeff == zero:
                            break
                else:
                    if flips % 2:
                        coeff = field.neg(coeff)
                    m = (tuple(map(add, p1, p2)), tuple(map(add, v1, v2)))
                    s = out.get(m)
                    if s is None:
                        out[m] = coeff
                    else:
                        s = fadd(s, coeff)
                        if s == zero:
                            del out[m]
                        else:
                            out[m] = s


def derivative_reference(elem: AlgElem, var_name: str) -> AlgElem:
    """`derivative` with the Koszul sign of an odd variable summed over
    the variables before it, term by term."""
    sig = elem.sig
    i = sig.var_pos(var_name)
    out: dict = {}
    for (p, v), c in elem.terms.items():
        if v[i] == 0:
            continue
        if sig.variables[i].odd and sum(v[j] * sig.variables[j].degree for j in range(i)) % 2:
            c = sig.field.neg(c)
        out[p, v[:i] + (v[i] - 1,) + v[i + 1 :]] = c
    return AlgElem(sig, out)


def format_expr_reference(elem: AlgElem) -> str:
    """`format_expr` with every element's terms sorted, one term or many,
    by degree summed over the variables and then `monomial_sort_key`."""
    sig = elem.sig
    if elem.is_zero():
        return "0"

    def degree(m):
        return sum(e * var.degree for e, var in zip(m[1], sig.variables))

    items = sorted(elem.terms.items(), key=lambda it: (degree(it[0]), monomial_sort_key(it[0])))
    pieces = []
    for m, c in items:
        mono = _format_monomial(sig, m)
        txt = sig.field.fmt(c)
        negative = txt.startswith("-")
        if negative:
            txt = txt[1:]
        if mono:
            body = mono if txt == "1" else f"{txt}*{mono}"
        else:
            body = txt
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)


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
            # d(X) is an element of the stage before X: pad its exponents
            dfac = AlgElem(sig, {(q, w + (0,) * (len(v) - i)): c for (q, w), c in var.diff.terms.items()})
            if not var.odd:
                power = tuple(e - 1 if j == i else 0 for j in range(len(v)))
                dfac = mul_reference(AlgElem(sig, {((0,) * len(p), power): field.one}), dfac)
            term = mul_reference(AlgElem(sig, {left: c}), dfac)
            term = mul_reference(term, AlgElem(sig, {right: field.one}))
            out = out + term.scale(-1 if left_deg % 2 else 1)
            left_deg += e * var.degree
    return out


def monomial_sort_key_reference(sig, m):
    """The monomial order as first written: total polygen degree, the
    polygen word (generator indices with multiplicity), the number of
    variable factors, the variable word.  Each word is as long as its
    exponents add up to, so only small exponents may be passed."""
    p, v = m
    poly_word = tuple(i for i, e in enumerate(p) for _ in range(e))
    var_word = tuple(i for i, e in enumerate(v) for _ in range(e))
    return (sum(p), poly_word, len(var_word), var_word)


def var_weights_reference(sig: Signature) -> Optional[tuple]:
    """The weights of the adjoined variables when every polygen weighs 1.

    A variable weighs what each term of its differential weighs, and 0
    when its differential is zero; the differential then preserves
    weight.  None when some differential has terms of two weights.
    """
    weights: list = []
    for var in sig.variables:
        # a differential only mentions earlier variables: zip stops there
        found = {sum(p) + sum(map(mul, v, weights)) for p, v in var.diff.terms}
        if len(found) > 1:
            return None
        weights.append(found.pop() if found else 0)
    return tuple(weights)


def monomial_weight(var: tuple, m) -> int:
    """Total polygen exponent plus the exponent of each variable times its
    weight in `var`."""
    return sum(m[0]) + sum(map(mul, m[1], var))


def component_monomials_reference(sig, degree: int, poly_bound: int, weight=None) -> list:
    """The band found by trying every exponent tuple in a box, kept when its
    degree, polygen degree and weight ``(n, var)`` (when given: its
    `monomial_weight` under ``var`` is ``n``) fit, and sorted afresh, by
    the word order, on every call."""
    if degree < 0 or poly_bound < 0:
        return []
    var_ranges = [range(2 if var.odd else degree // var.degree + 1) for var in sig.variables]
    polys = [p for p in product(range(poly_bound + 1), repeat=len(sig.polygens)) if sum(p) <= poly_bound]
    out = [
        (p, v)
        for v in product(*var_ranges)
        if sum(e * var.degree for e, var in zip(v, sig.variables)) == degree
        for p in polys
    ]
    if weight is not None:
        n, var = weight
        out = [m for m in out if monomial_weight(var, m) == n]
    out.sort(key=lambda m: monomial_sort_key_reference(sig, m))
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


def odd_coefficient_module(field):
    """A square-zero module over ``k[a, b]<W1, W2, X>``, all three odd of
    degree 1 with ``dX = a``, whose one entry ``(X - W1)(a W2 - b W1)`` (a
    product of two cycles) has an X-coefficient of odd degree.  The
    `FixturePool` modules have none such.  Liftable at bound 0."""
    sig = (
        Signature(field, ["a", "b"])
        .adjoin("W1", 1, "a")
        .adjoin("W2", 1, "b")
        .adjoin("X", 1, "a")
    )
    mod = FreeModule(sig, [("e0", 0), ("e1", 3)])
    entry = (sig.gen("X") - sig.gen("W1")) * sig.parse("a*W2 - b*W1")
    return mod, Differential(GradedMap(mod, -1, {(0, 1): entry}))


def koszul(sig, gens):
    """The Koszul complex on the degree-0 cycles `gens`, of rank
    ``2^len(gens)``: square-zero and free of the variables."""
    n = len(gens)
    subsets = sorted(range(1 << n), key=lambda s: (bin(s).count("1"), s))
    mod = FreeModule(sig, [(f"k{s}", bin(s).count("1")) for s in subsets])
    pos = {s: k for k, s in enumerate(subsets)}
    entries = {}
    for s in subsets:
        sign = 1
        for i, g in enumerate(gens):
            if s >> i & 1:
                entries[pos[s & ~(1 << i)], pos[s]] = g.scale(sign)
                sign = -sign
    return mod, Differential(GradedMap(mod, -1, entries))


# -- the j-operator family before the merged constructor ----------------------


class WeakJOp:
    """``j + sign * [gamma, -]`` on top of a bare `JOperator`: the two-class
    family with its sign knob, each method adding the signed commutator to
    ``j`` unconditionally."""

    def __init__(self, jop: JOperator, sign: int, gamma: GradedMap):
        if sign not in (1, -1):
            raise SchemaError("sign must be +1 or -1")
        if gamma.module != jop.module:
            raise SchemaError("gamma acts on a different module")
        if not gamma.is_zero() and gamma.degree != jop.degree:
            raise SchemaError(f"gamma must have degree {jop.degree}, found {gamma.degree}")
        self.jop = jop
        self.sign = sign
        self.gamma = gamma
        self.degree = jop.degree

    def of_map(self, f: GradedMap) -> GradedMap:
        br = bracket_reference(self.gamma, f)
        return j_reference(self.jop, f) + (br if self.sign > 0 else -br)

    def of_diff(self, d: Differential) -> GradedMap:
        # [gamma, d] = -(-1)^{|gamma|} [d, gamma]
        br = bracket_diff_reference(d, self.gamma)
        s = self.sign * (1 if self.gamma.degree % 2 else -1)
        return j_reference(self.jop, d.matrix) + (br if s > 0 else -br)

    def of_dop(self, p: DOpPair) -> DOpPair:
        br = dop_bracket_reference(DOpPair.of_map(self.gamma, p.partial), p)
        return of_dop_reference(self.jop, p) + (br if self.sign > 0 else -br)


# -- sums of products before the shared accumulator ---------------------------
#
# Each term below is a map of its own, added or subtracted with the map
# arithmetic; the accumulator in `dgalift.module` must agree entry for entry.


def derive_entries_reference(f: GradedMap, delta: Callable, n: int) -> GradedMap:
    """A degree-``n`` derivation on every entry, row ``r`` signed by
    ``(-1)^{n |e_r|}``."""
    degs = f.module.degrees
    entries = {}
    for (r, c), e in f.entries.items():
        de = delta(e)
        if not de.is_zero():
            entries[(r, c)] = -de if (n * degs[r]) % 2 else de
    return GradedMap(f.module, f.degree + n, entries, check=False)


def bracket_reference(f: GradedMap, g: GradedMap) -> GradedMap:
    fg = compose(f, g)
    gf = compose(g, f)
    if (f.degree * g.degree) % 2:
        return fg + gf
    return fg - gf


def after_reference(d: Differential, f: GradedMap) -> GradedMap:
    """``d o f = D f + d(f)``."""
    return compose(d.matrix, f) + derive_entries_reference(f, diff, -1)


def bracket_diff_reference(d: Differential, f: GradedMap) -> GradedMap:
    t = compose(f, d.matrix)
    df = after_reference(d, f)
    return df + t if f.degree % 2 else df - t


def dop_compose_reference(a: DOpPair, b: DOpPair) -> DOpPair:
    d = a.partial
    f1, g1 = a.f, a.g
    f2, g2 = b.f, b.g
    e_part = compose(f1, f2)
    c_part = compose(f1, g2)
    if not g1.is_zero():
        if not f2.is_zero():
            e_part = e_part + compose(g1, bracket_diff_reference(d, f2))
            t = compose(g1, f2)
            c_part = c_part + (-t if f2.degree % 2 else t)
        if not g2.is_zero():
            c_part = c_part + compose(g1, bracket_diff_reference(d, g2))
            sq = after_reference(d, d.matrix)
            if not sq.is_zero():
                t = compose(compose(g1, g2), sq)
                e_part = e_part + (-t if g2.degree % 2 else t)
    return DOpPair(e_part, c_part, d)


def dop_bracket_reference(a: DOpPair, b: DOpPair) -> DOpPair:
    ab = dop_compose_reference(a, b)
    ba = dop_compose_reference(b, a)
    if (a.degree * b.degree) % 2:
        return ab + ba
    return ab - ba


def j_reference(jop: JOperator, alpha: GradedMap) -> GradedMap:
    """The bare ``j`` (``gamma`` ignored)."""
    return derive_entries_reference(alpha, lambda e: derivative(e, jop.var_name), jop.degree)


def of_map_reference(jop: JOperator, alpha: GradedMap) -> GradedMap:
    out = j_reference(jop, alpha)
    if jop.gamma.is_zero():
        return out
    return out + bracket_reference(jop.gamma, alpha)


def of_diff_reference(jop: JOperator, d: Differential) -> GradedMap:
    out = j_reference(jop, d.matrix)
    if jop.gamma.is_zero():
        return out
    br = bracket_diff_reference(d, jop.gamma)
    return out + br if jop.gamma.degree % 2 else out - br


def of_dop_reference(jop: JOperator, p: DOpPair) -> DOpPair:
    jd = j_reference(jop, p.partial.matrix)
    e_part = j_reference(jop, p.f)
    if not p.g.is_zero() and not jd.is_zero():
        t = compose(p.g, jd)
        if (jop.var.degree * p.g.degree) % 2:
            t = -t
        e_part = e_part + t
    out = DOpPair(e_part, j_reference(jop, p.g), p.partial)
    if jop.gamma.is_zero():
        return out
    return out + dop_bracket_reference(DOpPair.of_map(jop.gamma, p.partial), p)


# -- the characterisation of j ------------------------------------------------


def characterization_check(delta: Callable, jop: JOperator) -> CheckReport:
    """Decide whether a candidate derivation is the basis operator.

    ``delta`` is any callable on GradedMap / Differential values.  The
    check evaluates the two defining conditions (action on the variable
    powers, vanishing on the basis idempotents) and then compares against
    the operator on all matrix units and on the free differential.
    Divided powers are checked up to the index bound the module's degree
    spread makes meaningful.
    """
    module = jop.module
    sig = module.sig
    var = jop.var
    report = CheckReport()
    ident = GradedMap.identity(module)

    if var.odd:
        got = delta(left_mult(module, sig.gen(var.name)))
        if got != ident:
            report.note(f"delta(l_{var.name}) != identity")
    else:
        n_max = max(1, module.spread() // var.degree + 1)
        for n in range(1, n_max + 1):
            got = delta(left_mult(module, sig.gen_power(var.name, n)))
            want = (
                ident
                if n == 1
                else left_mult(module, sig.gen_power(var.name, n - 1))
            )
            if got != want:
                report.note(f"delta(l_{var.name}^({n})) is wrong")
    for lam in range(module.rank):
        got = delta(idempotent(module, lam))
        if not got.is_zero():
            report.note(f"delta(eps_{module.names[lam]}) != 0")
    if not report.passed:
        return report

    for lam in range(module.rank):
        for mu in range(module.rank):
            unit = unit_elementary(module, lam, mu)
            if delta(unit) != jop.of_map(unit):
                report.note(
                    f"disagrees with the basis operator on the matrix unit "
                    f"({module.names[lam]},{module.names[mu]})"
                )
    free = Differential.free(module)
    if delta(free) != jop.of_diff(free):
        report.note("disagrees with the basis operator on the free differential")
    return report


# -- the homotopy system on elements, and the row-form solvers --------------------


def _coefficients(f: GradedMap) -> dict:
    """The monomial coefficients of a map, keyed by ``((row, col), monomial)``."""
    return {(key, m): c for key, e in f.entries.items() for m, c in e.terms.items()}


def decode_rows(module: FreeModule, ids: dict, columns: list) -> list:
    """The columns of `_homotopy_columns` with each int row key
    ``(1 + i) * rank^2 + r * rank + c`` mapped back through `divmod` to
    ``((r, c), m)``, ``m`` the monomial of id ``(1 + i) * rank^2`` in
    `ids`; a key that is not an int (a term of a target that no column
    reaches, see `_row_keys`) is kept, and so is the order of each
    column's items."""
    rank = module.rank
    square = rank * rank
    monos = {k // square: m for m, k in ids.items()}
    out = []
    for col in columns:
        decoded = {}
        for key, x in col.items():
            if type(key) is int:
                i, rc = divmod(key, square)
                key = divmod(rc, rank), monos[i]
            decoded[key] = x
        out.append(decoded)
    return out


def homotopy_columns_reference(
    module: FreeModule, d: Differential, degree: int, bound: int, keep=None
):
    """`_homotopy_columns` with every product and sign taken on `AlgElem`s:
    ``D[a, r] * m``, ``m * D[c, b]`` negated as an element, and ``d(m)`` and
    ``-d(m)`` as elements.  Each band is enumerated whole, up to `bound`,
    and an unknown ``(r, c, m)`` enters when ``keep(r, c, m)`` holds (every
    unknown without `keep`): for a block of `_homotopy_columns` the same
    unknowns, order and coefficients."""
    sig = module.sig
    field = sig.field
    degs = module.degrees
    by_col: dict = {}
    by_row: dict = {}
    for (a, b), e in d.matrix.entries.items():
        by_col.setdefault(b, []).append((a, e))
        by_row.setdefault(a, []).append((b, e))
    subtract = degree % 2 == 0
    monos: dict = {}
    lefts: dict = {}
    rights: dict = {}
    unknowns = []
    columns = []
    for r in range(module.rank):
        for c in range(module.rank):
            for m in component_monomials(sig, degs[c] - degs[r] + degree, bound):
                if keep is not None and not keep(r, c, m):
                    continue
                if m not in monos:
                    unit = AlgElem(sig, {m: field.one})
                    dm = diff(unit)
                    monos[m] = unit, (dm.terms, (-dm).terms)
                unit, dms = monos[m]
                if (r, m) not in lefts:
                    lefts[r, m] = [(a, (e * unit).terms) for a, e in by_col.get(r, ())]
                if (c, m) not in rights:
                    products = [(b, unit * e) for b, e in by_row.get(c, ())]
                    rights[c, m] = [(b, (-p if subtract else p).terms) for b, p in products]
                parts = [((a, c), t) for a, t in lefts[r, m]]
                parts.append(((r, c), dms[degs[r] % 2]))
                parts += [((r, b), t) for b, t in rights[c, m]]
                unknowns.append((r, c, m))
                columns.append({(key, mono): x for key, t in parts for mono, x in t.items()})
    return unknowns, columns


def monomial_class(grading: _Grading, m) -> int:
    """The class of a monomial under `grading`: its polygen exponents times
    `grading.poly` plus its variable exponents times `grading.var`."""
    return sum(map(mul, m[0], grading.poly)) + sum(map(mul, m[1], grading.var))


def block_filter(block):
    """The `keep` of `homotopy_columns_reference` for a block
    ``(grading, w)`` of `_homotopy_columns`."""
    grading, w = block
    return lambda r, c, m: grading.basis[r] + monomial_class(grading, m) - grading.basis[c] == w


def solve_exact_reference(field, columns: list, rhs: dict) -> Optional[list]:
    """`solve_exact` by rows, eliminated in the order they are first seen
    (column by column, then the right-hand side): each row is reduced by
    the pivot rows so far and, if anything is left, becomes a pivot row on
    its smallest column."""
    zero = field.zero
    rows: dict = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            if c != zero:
                rows.setdefault(key, {})[j] = c
    for key in rhs:
        rows.setdefault(key, {})
    pivots: dict = {}
    for key, row in rows.items():
        b = rhs.get(key, zero)
        heap = list(row)
        heapify(heap)
        while heap:
            col = heappop(heap)
            if col not in row or col not in pivots:
                continue
            factor = row.pop(col)
            rest, pb = pivots[col]
            for k, v in rest.items():
                x = field.sub(row.get(k, zero), field.mul(factor, v))
                if x == zero:
                    row.pop(k, None)
                    continue
                if k not in row:
                    heappush(heap, k)
                row[k] = x
            b = field.sub(b, field.mul(factor, pb))
        if not row:
            if b != zero:
                return None
            continue
        lead = min(row)
        inv = field.inv(row.pop(lead))
        pivots[lead] = ({k: field.mul(inv, v) for k, v in row.items()}, field.mul(inv, b))
    x = [zero] * len(columns)
    for lead in sorted(pivots, reverse=True):
        rest, b = pivots[lead]
        for k, v in rest.items():
            if x[k] != zero:
                b = field.sub(b, field.mul(v, x[k]))
        x[lead] = b
    return x


def solve_row_form_reference(field, columns: list, rhs: dict) -> Optional[list]:
    """The row-form `solve_exact` that the column-echelon pass replaced.

    The columns are transposed once into ``[row, b]`` pairs, taken fewest
    entries first (rows only the right-hand side reaches come first, so
    ``0 = b`` is refused before any step).  Reducing by a pivot row that
    is its lead alone is done at once; a longer one adds entries right of
    its lead, which go through a heap in increasing column order.  A pivot
    row keeps the negated rest of its row scaled to a leading one."""
    zero, add, sub, mul = field.zero, field.add, field.sub, field.mul
    rows: dict = {}  # row key -> [row, its right-hand side]
    for j, col in enumerate(columns):
        for key, c in col.items():
            if c != zero:
                pair = rows.get(key)
                if pair is None:
                    rows[key] = [{j: c}, zero]
                else:
                    pair[0][j] = c
    for key, b in rhs.items():
        pair = rows.get(key)
        if pair is None:
            rows[key] = [{}, b]
        else:
            pair[1] = b
    # pivot column -> (minus the rest of its row scaled to a leading one, rhs)
    pivots: dict = {}
    for row, b in sorted(rows.values(), key=lambda pair: len(pair[0])):
        heap = []
        for col in [col for col in row if col in pivots]:
            rest, pb = pivots[col]
            if rest:
                heap.append(col)
            else:
                b = sub(b, mul(row.pop(col), pb))
        if heap:
            heapify(heap)
        while heap:
            col = heappop(heap)
            factor = row.pop(col, None)
            if factor is None:
                continue
            rest, pb = pivots[col]
            b = sub(b, mul(factor, pb))
            for k, v in rest.items():
                x = row.get(k)
                if x is not None:
                    x = add(x, mul(factor, v))
                    if x == zero:
                        del row[k]
                    else:
                        row[k] = x
                    continue
                x = mul(factor, v)
                pivot = pivots.get(k)
                if pivot is None:
                    row[k] = x
                elif pivot[0]:
                    row[k] = x
                    heappush(heap, k)
                else:
                    b = sub(b, mul(x, pivot[1]))
        if not row:
            if b != zero:
                return None
            continue
        lead = min(row)
        inv = field.inv(row.pop(lead))
        minus = field.neg(inv)
        pivots[lead] = ({k: mul(minus, v) for k, v in row.items()}, mul(inv, b))
    x = [zero] * len(columns)
    for lead in sorted(pivots, reverse=True):
        rest, b = pivots[lead]
        for k, v in rest.items():
            if x[k] != zero:
                b = add(b, mul(v, x[k]))
        x[lead] = b
    return x


# -- the homotopy search before the finest grading -----------------------------------


def trivial_grading(module: FreeModule) -> _Grading:
    """The grading with every weight 0, which every differential has: its
    one class 0 holds every monomial, and every polygen is a pivot."""
    sig = module.sig
    n = len(sig.polygens)
    return _Grading(
        sig, [0] * module.rank, [0] * n, [0] * len(sig.variables), 1, False, [], list(range(n))
    )


def band_reference(grading: _Grading, degree: int, bound: int, cls: int) -> list:
    """`_Grading.band` by slicing and filtering: under the all-ones grading
    only the polygen degree that coordinate 0 of `cls` leaves each
    variable part, otherwise every polygen degree up to `bound`; then the
    monomials of class `cls` among them."""
    sig = grading.sig
    if degree < 0 or bound < 0:
        return []
    ones = [_unpack(x, grading.bits, 1)[0] for x in [cls] + grading.var]
    out = []
    for v in _var_tuples(sig, degree):
        if grading.ones:
            n = ones[0] - sum(map(mul, v, ones[1:]))
            totals = (n,) if 0 <= n <= bound else ()
        else:
            totals = range(bound + 1)
        out += [(p, v) for n in totals for p in _poly_tuples(len(sig.polygens), n)]
    out.sort(key=monomial_sort_key)
    return [m for m in out if monomial_class(grading, m) == cls]


def _cancel(row: list, pivot: list, col: int) -> list:
    """`row` with its entry at `col` cancelled against `pivot`, divided by
    the gcd of its entries."""
    f, g = row[col], pivot[col]
    out = [g * x - f * y for x, y in zip(row, pivot)]
    k = gcd(*out)
    return [x // k for x in out] if k else out


def kernel_reference(rows: list, n: int) -> tuple:
    """`lift._kernel` by integer Gauss-Jordan elimination, with no rational
    ever formed: each pivot row is zero at the pivot columns of the
    others, so each free column ``f`` gives the kernel vector that is
    ``L`` at ``f``, 0 at the other free columns and ``-L row[f] / row[p]``
    at the pivot column ``p`` of each row, ``L`` the lcm of the pivots;
    the vectors come in the order of their free columns, each positive
    there, and the pivot columns in increasing order."""
    pivots: dict = {}  # pivot column -> row
    for row in rows:
        for col, pivot in pivots.items():
            if row[col]:
                row = _cancel(row, pivot, col)
        col = next((i for i, x in enumerate(row) if x), None)
        if col is None:
            continue
        for c, pivot in pivots.items():
            if pivot[col]:
                pivots[c] = _cancel(pivot, row, col)
        pivots[col] = row
    scale = lcm(*(row[col] for col, row in pivots.items()))
    out = []
    for f in range(n):
        if f in pivots:
            continue
        v = [0] * n
        v[f] = scale
        for col, row in pivots.items():
            v[col] = -row[f] * (scale // row[col])
        k = gcd(*v)
        out.append([x // k for x in v])
    return out, sorted(pivots)


def _reach(module: FreeModule, d: Differential, h: GradedMap, bound: int) -> int:
    """The bound on each weight coordinate that `lift._grading` packs by."""
    norms: list = []
    for v in module.sig.variables:
        norms.append(max((sum(p) + sum(map(mul, e, norms)) for p, e in v.diff.terms), default=0))
    terms = [m for f in (d.matrix, h) for x in f.entries.values() for m in x.terms]
    top = max((sum(p) + sum(map(mul, e, norms)) for p, e in set(terms)), default=0)
    return max(
        4 * (len(terms) + 1) * max(top, *norms, 0),
        bound + max(module.spread() + h.degree + 1, 0) * max(norms, default=0),
    )


def grading_two_pass_reference(
    module: FreeModule, d: Differential, h: GradedMap, bound: int
) -> tuple:
    """`lift._grading` by two propagations: the first on polygen weights
    whose coordinate 0 is 1 and whose other coordinates make unit
    vectors, and, where it meets conflicts, a second on the weights of
    the kernel (after the all-ones vector when every conflict sums to 0),
    which meets none; the same block, field for field."""
    n = len(module.sig.polygens)
    reach = _reach(module, d, h, bound)
    bits = (reach + 1).bit_length() + 1
    poly = [1 + (1 << bits * (i + 1)) for i in range(n)]
    basis, var, conflicts, w = _propagate(module, d, h, poly)
    rows = [_unpack(x, bits, n + 1) for x in sorted(conflicts)]
    kernel, pivots = _kernel([row[1:] for row in rows], n)
    ones = all(row[0] == 0 for row in rows)
    if conflicts:
        coords = ([[1] * n] if ones else []) + kernel  # coordinate 0: all-ones weight
        bits = ((reach + 1) * max((abs(x) for v in coords for x in v), default=0)).bit_length() + 1
        poly = [sum(v[i] << bits * j for j, v in enumerate(coords)) for i in range(n)]
        basis, var, _, w = _propagate(module, d, h, poly)
    return _Grading(module.sig, basis, poly, var, bits, ones, kernel, pivots), w


def grading_reference(module: FreeModule, d: Differential, h: GradedMap, bound: int) -> tuple:
    """The block ``(grading, w)`` that `solve_homotopy` solved before the
    classes of the target joined the conflicts: the finest grading of
    ``D`` alone, by the same propagation as `grading_two_pass_reference`
    and the kernel of `kernel_reference`, and the class of ``h`` in it,
    or the trivial grading's one class when ``h`` has terms of two
    classes (0 as well for a zero ``h``)."""
    sig = module.sig
    n = len(sig.polygens)
    if n == 0:
        return trivial_grading(module), 0
    reach = _reach(module, d, h, bound)
    zero = GradedMap.zero(module, h.degree)
    bits = (reach + 1).bit_length() + 1
    poly = [1 + (1 << bits * (i + 1)) for i in range(n)]
    basis, var, conflicts, _ = _propagate(module, d, zero, poly)
    rows = [_unpack(x, bits, n + 1) for x in sorted(conflicts)]
    kernel, pivots = kernel_reference([row[1:] for row in rows], n)
    ones = all(row[0] == 0 for row in rows)
    if conflicts:
        coords = ([[1] * n] if ones else []) + kernel
        if not coords:
            return trivial_grading(module), 0
        bits = ((reach + 1) * max(abs(x) for v in coords for x in v)).bit_length() + 1
        poly = [sum(v[i] << bits * j for j, v in enumerate(coords)) for i in range(n)]
        basis, var, _, _ = _propagate(module, d, zero, poly)
    grading = _Grading(sig, basis, poly, var, bits, ones, kernel, pivots)
    found = {
        basis[r] + monomial_class(grading, m) - basis[c]
        for (r, c), e in h.entries.items()
        for m in e.terms
    }
    if len(found) > 1:
        return trivial_grading(module), 0
    return grading, found.pop() if found else 0


def weights_reference(module: FreeModule, d: Differential) -> Optional[list]:
    """Basis weights that make every term of ``D`` weigh 0 as a map when
    every polygen weighs 1, or None: the all-ones grading.

    Variables weigh `var_weights_reference`.  Each term ``t`` of an entry
    ``D[a, b]`` asks for ``w(e_b) = w(e_a) + w(t)``; the weights are
    propagated along these terms from weight 0 at the first basis element
    of each connected component, one free offset per component.  None
    when a variable differential or an entry of ``D`` has no single
    weight, or when two terms ask for different weights.
    """
    var = var_weights_reference(module.sig)
    if var is None:
        return None
    links: list = [[] for _ in range(module.rank)]
    for (a, b), e in d.matrix.entries.items():
        found = {monomial_weight(var, m) for m in e.terms}
        if len(found) > 1:
            return None
        for w in found:
            links[a].append((b, w))
            links[b].append((a, -w))
    weights: list = [None] * module.rank
    for start in range(module.rank):
        if weights[start] is not None:
            continue
        weights[start] = 0
        todo = [start]
        while todo:
            a = todo.pop()
            for b, w in links[a]:
                want = weights[a] + w
                if weights[b] is None:
                    weights[b] = want
                    todo.append(b)
                elif weights[b] != want:
                    return None
    return weights


def ones_filter(module: FreeModule, d: Differential, h: GradedMap):
    """The `keep` of the all-ones weight block of ``h``, or None (every
    unknown) when `weights_reference` grades nothing or ``h`` has terms of
    two weights: the block `solve_homotopy` solved before the finest
    grading."""
    weights = weights_reference(module, d)
    if weights is None:
        return None
    var = var_weights_reference(module.sig)
    found = {
        weights[r] + monomial_weight(var, m) - weights[c]
        for (r, c), e in h.entries.items()
        for m in e.terms
    }
    if len(found) > 1:
        return None
    w = found.pop() if found else 0
    return lambda r, c, m: weights[r] + monomial_weight(var, m) - weights[c] == w


def solve_homotopy_reference(
    module: FreeModule, d: Differential, h: GradedMap, bound: int, keep=None
) -> Optional[GradedMap]:
    """`solve_homotopy` on the full system, every unknown of polygen degree
    at most `bound` in every entry, or on the unknowns of it that `keep`
    holds for (see `homotopy_columns_reference`); the columns decoded to
    ``((row, col), monomial)`` keys (`decode_rows`), and no re-check."""
    sig = module.sig
    every = trivial_grading(module), 0
    unknowns, columns, ids = _homotopy_columns(module, d, h.degree + 1, bound, every)
    columns = decode_rows(module, ids, columns)
    if keep is not None:
        kept = [k for k, (r, c, m) in enumerate(unknowns) if keep(r, c, m)]
        unknowns, columns = [unknowns[k] for k in kept], [columns[k] for k in kept]
    sol = solve_exact(sig.field, columns, _coefficients(h))
    if sol is None:
        return None
    entries: dict = {}
    for (r, c, m), x in zip(unknowns, sol):
        if x != sig.field.zero:
            entries.setdefault((r, c), {})[m] = x
    return GradedMap(
        module, h.degree + 1, {key: AlgElem(sig, t) for key, t in entries.items()}
    )


def is_boundary_reference(elem: AlgElem, poly_bound: int) -> Optional[AlgElem]:
    """`is_boundary_up_to` as its own system: one unknown per monomial of
    degree ``deg(elem) + 1`` and polygen degree at most `poly_bound`, with
    column ``d(m)``; no grading and no re-check."""
    sig = elem.sig
    field = sig.field
    if elem.is_zero():
        return sig.zero()
    candidates = component_monomials(sig, elem.degree() + 1, poly_bound)
    columns = [diff(AlgElem(sig, {m: field.one})).terms for m in candidates]
    sol = solve_exact(field, columns, elem.terms)
    if sol is None:
        return None
    return AlgElem(sig, {m: c for m, c in zip(candidates, sol) if c != field.zero})


# -- the basis change one basis element at a time ------------------------------------


def series_plus_reference(delta: JOperator, f: GradedMap) -> GradedMap:
    """The correction ``X Delta(f) - X^(2) Delta^2(f) + ...`` (finite)."""
    module = f.module
    sig = module.sig
    total = GradedMap.zero(module, f.degree)
    cur = delta.of_map(f)
    n = 1
    cap = module.spread() // delta.var.degree + 2
    while not cur.is_zero():
        term = compose(left_mult(module, sig.gen_power(delta.var_name, n)), cur)
        total = total + term if n % 2 else total - term
        cur = delta.of_map(cur)
        n += 1
        if n > cap + 1:
            raise VerificationError("idempotent correction series failed to terminate")
    return total


def basis_change_reference(module: FreeModule, var_name: str, g: GradedMap) -> GradedMap:
    """`lift._basis_change` one basis element at a time, as the constructions
    built it before its closed form.

    With ``Delta = JOperator(module, X, g)``, column ``c`` of ``u`` is column
    ``c`` of ``eps_c - X Delta(eps_c) + X^(2) Delta^2(eps_c) - ...`` for an
    even variable, and of ``Delta(l_X eps_c)`` for an odd one (there
    ``module`` is the doubled module and ``Delta`` the derivation ``Gamma``).
    """
    delta = JOperator(module, var_name, g)
    lx = left_mult(module, module.sig.gen(var_name))
    entries = {}
    for c in range(module.rank):
        eps = idempotent(module, c)
        if delta.var.odd:
            col = delta.of_map(compose(lx, eps))
        else:
            col = eps - series_plus_reference(delta, eps)
        entries.update({key: v for key, v in col.entries.items() if key[1] == c})
    return GradedMap(module, 0, entries)


# -- the lift checks before their matrix forms ---------------------------------------


def invert_flat_reference(u_flat: GradedMap) -> GradedMap:
    """`module._invert_flat` with every monomial of polygen degree up to
    ``(k - 1) * max_poly`` as a candidate, for ``k`` the largest block of
    one basis degree and ``max_poly`` the largest polygen degree of an
    entry."""
    module = u_flat.module
    sig = module.sig
    field = sig.field
    max_poly = max((v.poly_degree() for v in u_flat.entries.values()), default=0)
    blocks: dict = {}
    for i, d in enumerate(module.degrees):
        blocks.setdefault(d, []).append(i)
    max_block = max(len(b) for b in blocks.values())
    bound = max(0, (max_block - 1) * max_poly)
    cand = component_monomials(sig, 0, bound)
    cand_elems = [AlgElem(sig, {m: field.one}) for m in cand]
    one_mono = ((0,) * len(sig.polygens), (0,) * len(sig.variables))
    inv_entries: dict = {}
    for idxs in blocks.values():
        k = len(idxs)
        unknowns = []
        columns = []
        for a in range(k):
            entries = [(r, u_flat.entries.get((idxs[r], idxs[a]))) for r in range(k)]
            products = [
                [(r, (e * unit).terms) for r, e in entries if e is not None]
                for unit in cand_elems
            ]
            for b in range(k):
                for m, images in zip(cand, products):
                    unknowns.append((a, b, m))
                    columns.append(
                        {(r, b, mono): c for r, terms in images for mono, c in terms.items()}
                    )
        rhs = {(a, a, one_mono): field.one for a in range(k)}
        sol = solve_exact(field, columns, rhs)
        if sol is None:
            raise NotInvertibleError("degree-level part of the unit is singular")
        for (a, b, m), cval in zip(unknowns, sol):
            if cval != field.zero:
                inv_entries.setdefault((idxs[a], idxs[b]), {})[m] = cval
    return GradedMap(module, 0, {key: AlgElem(sig, t) for key, t in inv_entries.items()})


def invert_unit_reference(u: GradedMap) -> GradedMap:
    """`invert_unit` with the flat inverse ``v`` always in the products:
    ``u^{-1} = (1 - w + w^2 - ...) v`` with ``w = v u_rest``, one term map
    per power, and no two-sided check."""
    if u.degree != 0:
        raise NotInvertibleError("only degree-0 maps can be inverted")
    module = u.module
    one = GradedMap.identity(module)
    degs = module.degrees
    flat = {k: x for k, x in u.entries.items() if degs[k[0]] == degs[k[1]]}
    rest = {k: x for k, x in u.entries.items() if degs[k[0]] != degs[k[1]]}
    u_flat = GradedMap(module, 0, flat, check=False)
    v = one if u_flat == one else invert_flat_reference(u_flat)
    w = compose(v, GradedMap(module, 0, rest, check=False))
    total = GradedMap.zero(module, 0)
    power, steps = one, 0
    while not power.is_zero():
        term = compose(power, v)
        total = total - term if steps % 2 else total + term
        power = compose(power, w)
        steps += 1
        if steps > module.spread() + 3:
            raise VerificationError("nilpotent correction failed to terminate")
    return total


def verify_lift_reference(
    lift_diff: Differential,
    u: GradedMap,
    d: Differential,
    var_name: str,
    u_inv: Optional[GradedMap] = None,
) -> CheckReport:
    """The lift check through the inverse, one basis column at a time:
    ``u (d' (u^{-1} e_lam)) = d(e_lam)`` through the module actions, with
    ``d'`` squared and `u_inv` taken unchecked when given (else from
    `invert_unit`).  Where ``u`` is invertible and `u_inv` is its inverse it
    passes exactly when `verify_lift` does."""
    report = CheckReport()
    module = lift_diff.module
    for (r, c), e in lift_diff.matrix.entries.items():
        if not derivative(e, var_name).is_zero():
            report.note(
                f"entry ({module.names[r]},{module.names[c]}) depends on {var_name}"
            )
    if not lift_diff.square_zero:
        report.note("lifted differential does not square to zero")
    try:
        if u_inv is None:
            u_inv = invert_unit(u)
    except (NotInvertibleError, VerificationError) as ex:
        report.note(f"basis change is not invertible: {ex}")
        return report
    for lam in range(module.rank):
        e = module.basis_elem(lam)
        if u.apply(lift_diff.apply(u_inv.apply(e))) != d.apply(e):
            report.note(f"conjugation identity fails on column {module.names[lam]}")
    return report


def verify_lift_inverse_free_reference(
    lift_diff: Differential, u: GradedMap, d: Differential, var_name: str
) -> CheckReport:
    """`verify_lift` one basis column at a time, with no inverse in the
    identity: ``d(u e_lam) = u (d'(e_lam))`` through the module actions.
    Entries in the variable are found by `derivative`, ``d'`` squares to
    zero when ``d`` does, and `invert_unit` decides invertibility on every
    ``u``."""
    report = CheckReport()
    module = lift_diff.module
    for (r, c), e in lift_diff.matrix.entries.items():
        if not derivative(e, var_name).is_zero():
            report.note(
                f"entry ({module.names[r]},{module.names[c]}) depends on {var_name}"
            )
    if not d.square_zero:
        report.note("lifted differential does not square to zero")
    try:
        invert_unit(u)
    except (NotInvertibleError, VerificationError) as ex:
        report.note(f"basis change is not invertible: {ex}")
        return report
    for lam in range(module.rank):
        e = module.basis_elem(lam)
        if d.apply(u.apply(e)) != u.apply(lift_diff.apply(e)):
            report.note(f"conjugation identity fails on column {module.names[lam]}")
    return report


def lifted_matrix_reference(d: Differential, u: GradedMap, u_inv: GradedMap) -> GradedMap:
    """The matrix of ``d`` in the basis of the columns of ``u``, by
    conjugation: ``D' = u^{-1} (D u + d(u))``, as the construction built it
    before `lift._lifted_differential` gave it in closed form."""
    return compose(u_inv, d.after(u))


# -- the expression parser, by recursive descent over a character loop -------------


def tokenize_reference(source: str) -> list:
    """`parser._tokenize` by a loop over the characters and their `str`
    predicates, with each token's kind and position: ``(kind, text, pos)``,
    closed by ``("end", "", len(source))``."""
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            tokens.append(("int", source[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _ReferenceParser:
    """The recursive-descent parser that `parser.parse_expr` replaced: a
    method per grammar rule, `peek` and `take` per token, the terms added
    into one term map and every product, the integer coefficient's too,
    by ``AlgElem.__mul__`` from the left."""

    def __init__(self, text: str, sig: Signature):
        self.sig = sig
        self.tokens = tokenize_reference(text)
        self.i = 0

    def peek(self) -> tuple:
        return self.tokens[self.i]

    def take(self, kind=None) -> tuple:
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind} but found {tok[1] or 'end of input'!r}", tok[2])
        self.i += 1
        return tok

    def parse(self) -> AlgElem:
        result = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r}", pos)
        return result

    def expr(self) -> AlgElem:
        field = self.sig.field
        total: dict = {}
        neg = self.peek()[0] in ("+", "-") and self.take()[0] == "-"
        _add_into(field, total, self.term().terms, neg)
        while self.peek()[0] in ("+", "-"):
            neg = self.take()[0] == "-"
            _add_into(field, total, self.term().terms, neg)
        return AlgElem(self.sig, total)

    def term(self) -> AlgElem:
        sig = self.sig
        if self.peek()[0] == "int":
            num = int(self.take()[1])
            den = 1
            if self.peek()[0] == "/":
                self.take()
                _, text, pos = self.take("int")
                den = int(text)
                if sig.field.of_int(den) == sig.field.zero:
                    raise ExprSyntaxError("zero denominator", pos)
            result = sig.scalar(sig.field.of_fraction(num, den))
        else:
            result = self.factor()
        while self.peek()[0] == "*":
            self.take()
            result = result * self.factor()
        return result

    def factor(self) -> AlgElem:
        sig = self.sig
        kind, name, pos = self.take()
        if kind != "name":
            raise ExprSyntaxError(
                f"expected a generator name, found {name or 'end of input'!r}", pos
            )
        is_poly = name in sig._poly_index
        is_var = name in sig._var_index
        if not is_poly and not is_var:
            raise ExprSyntaxError(f"unknown generator {name!r}", pos)
        if self.peek()[0] != "^":
            return sig.gen(name)
        caret = self.take()[2]
        if self.peek()[0] == "(":
            self.take()
            exponent = self.take("int")[1]
            self.take(")")
            if not is_var or sig.var(name).odd:
                raise ExprSyntaxError(
                    f"divided-power notation requires an even variable, not {name!r}", caret
                )
            return sig.gen_power(name, int(exponent))
        exponent = self.take("int")[1]
        if not is_poly:
            raise ExprSyntaxError(
                f"caret powers apply to polynomial generators only, not {name!r}", caret
            )
        return sig.gen_power(name, int(exponent))


def parse_reference(text: str, sig: Signature) -> AlgElem:
    """`parser.parse_expr` as it was before its one-pass loop."""
    return _ReferenceParser(text, sig).parse()


# -- the seeded draws, through randint/randrange and one `_add_into` per term ------


def rand_scalar_reference(field, rng, nonzero: bool = False):
    while True:
        c = field.of_int(rng.randint(-3, 3))
        if not nonzero or c != field.zero:
            return c


def rand_elem_reference(
    sig: Signature, degree: int, rng, poly_bound: int = 1, max_terms: int = 2
) -> AlgElem:
    monos = component_monomials(sig, degree, poly_bound)
    if not monos:
        return sig.zero()
    out: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        m = monos[rng.randrange(len(monos))]
        _add_into(sig.field, out, {m: rand_scalar_reference(sig.field, rng)})
    return AlgElem(sig, out)


def rand_map_reference(
    module: FreeModule, degree: int, rng, poly_bound: int = 1, density: float = 0.7
) -> GradedMap:
    entries = {}
    for r in range(module.rank):
        for c in range(module.rank):
            want = module.degrees[c] + degree - module.degrees[r]
            if want < 0 or rng.random() > density:
                continue
            e = rand_elem_reference(module.sig, want, rng, poly_bound, max_terms=1)
            if not e.is_zero():
                entries[(r, c)] = e
    return GradedMap(module, degree, entries, check=False)


def rand_homogeneous_reference(sig: Signature, rng, max_degree: int = 4, poly_bound: int = 1) -> AlgElem:
    for _ in range(6):
        e = rand_elem_reference(sig, rng.randint(0, max_degree), rng, poly_bound)
        if not e.is_zero():
            return e
    return sig.one()


def rand_dop_reference(module: FreeModule, d: Differential, rng, degree: Optional[int] = None) -> DOpPair:
    if degree is None:
        degree = rng.randint(-2, 1)
    return DOpPair(
        rand_map_reference(module, degree, rng),
        rand_map_reference(module, degree + 1, rng),
        d,
    )
