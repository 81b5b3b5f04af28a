"""Graded-commutative algebras with adjoined exterior and divided-power
variables, over an exact coefficient field.

An algebra here is described by a `Signature`: a coefficient field, a list
of degree-0 polynomial generators, and an ordered list of adjoined
variables.  Each adjoined variable has positive degree and a prescribed
differential, which must be a cycle of the stage built so far.  Odd
variables square to zero; even variables come with the full family of
divided-power basis symbols ``X^(m)`` multiplying by binomial structure
constants.

Elements (`AlgElem`) are sparse sums of normal-form monomials.  A monomial
is a pair of exponent tuples, one over the polynomial generators and one
over the adjoined variables, kept in signature order; all Koszul signs are
produced by the arithmetic below, never stored.

Conventions:
  * product of homogeneous elements: ``x*y == (-1)^(|x||y|) * y*x``;
  * odd generators square to zero exactly;
  * ``X^(m) * X^(l) == comb(m+l, m) * X^(m+l)`` for an even variable,
    with the binomial reduced into the coefficient field;
  * the differential obeys ``d(xy) = d(x)y + (-1)^|x| x d(y)`` and
    ``d(X^(m)) = X^(m-1) * d(X)``.

Three term-level kernels add into an output term map in place, each
negated by a ``neg`` flag, with no intermediate element: `_mul_into` adds
``a * b`` of two term maps, `_diff_into` adds ``d(a)`` and
`_derivative_into` the derivative of ``a`` by one variable.
`AlgElem.__mul__`, `diff` and `derivative` are wrappers over them, and
`GradedMap.apply` and the module accumulator (`module._product_into` and
`module._derive_into`: `compose`, brackets, ``d o f``, j-operators) add
straight into each matrix entry through them.  Each kernel call unpacks
the field's ``(zero, one, mul, add, neg)`` from the one tuple
``sig._ops`` instead of looking the five up on the field.  A factor
that is one constant term ``c*1`` (the unit entries of a basis change
``u``, of ``u^-1`` and of the identity) scales the other factor term by
term.  For the rest, polygens have degree 0, commute with everything and
are cycles, so ``x^v1 * x^v2 = f(v1, v2) * x^(v1+v2)`` and
``d(p x^v) = p d(x^v)``: a
`Signature` works out each ``f(v1, v2)`` and each ``d(x^v)`` once, in
tables keyed by variable exponent vectors only (``_var_products``,
``_var_diffs``; at most 191 entries per signature over an `identities`
benchmark batch).  It memoises each band of `component_monomials` as a
tuple in ``_bands``, keyed by degree and polygen bound, and the term map
of each generator the parser has read in ``_gens``, keyed by name.
Memos keyed by whole monomials were tried and dropped: they raised the
peak RSS of that benchmark from 23.3 to 29.7 MB (pair products) and from
23.7 to 25.9 MB (``d(m)``), for a bound of 10%.

Everything is immutable after construction, apart from these memos, which
only gain entries, and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul
from typing import Iterable, Iterator, Optional

from .errors import SchemaError
from .field import Field

# A monomial is (poly_exps, var_exps); both plain int tuples.
Monomial = tuple


@dataclass(frozen=True)
class Variable:
    """An adjoined variable: name, positive degree, and its differential.

    ``diff`` is an element of the stage the variable was adjoined over: the
    signature of the generators before it, where it is a cycle.  It never
    refers to a signature that holds the variable, so a signature is freed,
    memos and all, as soon as it is unreachable, without waiting for the
    cycle collector.
    """

    name: str
    degree: int
    diff: "AlgElem"

    @property
    def odd(self) -> bool:
        return self.degree % 2 == 1


class Signature:
    """The generator data of one algebra.

    Build the base ring with ``Signature(field, polygens)`` and extend it
    one variable at a time with :meth:`adjoin`, which checks the cycle
    condition of the new differential.  ``degenerate`` is true when the
    total differential is zero; lifting routines refuse such signatures
    because the operator calculus degenerates with them.
    """

    def __init__(self, field: Field, polygens: Iterable[str], _variables: tuple = ()):
        self.field = field
        self.polygens = tuple(polygens)
        self.variables: tuple[Variable, ...] = _variables
        names = list(self.polygens) + [v.name for v in self.variables]
        for n in names:
            if not isinstance(n, str) or not (n[:1].isalpha() or n[:1] == "_") or not all(
                c.isalnum() or c == "_" for c in n
            ):
                raise SchemaError(f"bad generator name {n!r}")
        if len(set(names)) != len(names):
            raise SchemaError("generator names must be unique")
        self._poly_index = {n: i for i, n in enumerate(self.polygens)}
        self._var_index = {v.name: i for i, v in enumerate(self.variables)}
        self._var_degrees = tuple(v.degree for v in self.variables)
        self._odd = tuple(i for i, v in enumerate(self.variables) if v.odd)
        self._even = tuple(i for i, v in enumerate(self.variables) if not v.odd)
        self._bands: dict = {}  # (degree, poly_bound) -> component_monomials
        self._var_products: dict = {}  # (v1, v2) -> (v1 + v2, factor) or None
        self._var_diffs: dict = {}  # v -> the terms of d(x^v)
        self._gens: dict = {}  # name -> the terms of the generator, for the parser
        self._unit = ((0,) * len(self.polygens), (0,) * len(self.variables))  # the monomial 1
        self._ops = (field.zero, field.one, field.mul, field.add, field.neg)  # for the kernels
        self._key = (
            field.key(),
            self.polygens,
            tuple(
                (v.name, v.degree, frozenset(v.diff.terms.items()))
                for v in self.variables
            ),
        )

    # -- identity ---------------------------------------------------------

    def key(self):
        return self._key

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Signature) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        vs = ", ".join(f"{v.name}:{v.degree}" for v in self.variables)
        return f"Signature({self.field!r}[{', '.join(self.polygens)}]<{vs}>)"

    # -- basic queries ----------------------------------------------------

    @property
    def degenerate(self) -> bool:
        """True when the total differential of the algebra is zero."""
        return all(v.diff.is_zero() for v in self.variables)

    def var(self, name: str) -> Variable:
        return self.variables[self.var_pos(name)]

    def var_pos(self, name: str) -> int:
        try:
            return self._var_index[name]
        except KeyError:
            raise SchemaError(f"unknown adjoined variable {name!r}") from None

    @property
    def top_variable(self) -> Variable:
        if not self.variables:
            raise SchemaError("signature has no adjoined variables")
        return self.variables[-1]

    def is_top(self, name: str) -> bool:
        return bool(self.variables) and self.variables[-1].name == name

    def monomial_degree(self, m: Monomial) -> int:
        return sum(map(mul, m[1], self._var_degrees))

    # -- element constructors ----------------------------------------------

    def zero(self) -> "AlgElem":
        return AlgElem(self, {})

    def one(self) -> "AlgElem":
        return self.scalar(self.field.one)

    def scalar(self, c) -> "AlgElem":
        if c == self.field.zero:
            return self.zero()
        return AlgElem(self, {self._unit: c})

    def gen(self, name: str) -> "AlgElem":
        """The generator `name` as an element (``X`` means ``X^(1)``)."""
        return self.gen_power(name, 1)

    def gen_power(self, name: str, e: int) -> "AlgElem":
        """``name^e`` for a polygen, ``name^(e)`` for an adjoined variable."""
        if e < 0:
            raise SchemaError("exponents must be non-negative")
        p = [0] * len(self.polygens)
        v = [0] * len(self.variables)
        if name in self._poly_index:
            p[self._poly_index[name]] = e
        elif name in self._var_index:
            i = self._var_index[name]
            if self.variables[i].odd and e > 1:
                return self.zero()
            v[i] = e
        else:
            raise SchemaError(f"unknown generator {name!r}")
        if e == 0:
            return self.one()
        return AlgElem(self, {(tuple(p), tuple(v)): self.field.one})

    def parse(self, text: str) -> "AlgElem":
        from .parser import parse_expr

        return parse_expr(text, self)

    # -- extension ----------------------------------------------------------

    def adjoin(self, name: str, degree: int, t: "AlgElem | str") -> "Signature":
        """Extend by one variable of the given degree killing the cycle `t`.

        `t` may be an element of this signature or expression text over it.
        It must be homogeneous of degree ``degree - 1`` and a cycle.
        """
        if isinstance(degree, bool) or not isinstance(degree, int):
            raise SchemaError(f"degree of {name} must be an integer, found {degree!r}")
        if degree < 1:
            raise SchemaError("adjoined variables must have positive degree")
        if isinstance(t, str):
            t = self.parse(t)
        if t.sig != self:
            raise SchemaError("cycle lives in a different signature")
        if {self.monomial_degree(m) for m in t.terms} - {degree - 1}:
            raise SchemaError(
                f"differential of {name} must be homogeneous of degree {degree - 1}"
            )
        if not diff(t).is_zero():
            raise SchemaError(f"differential of {name} is not a cycle")
        new_var = Variable(name, degree, AlgElem(self, t.terms))
        return Signature(self.field, self.polygens, self.variables + (new_var,))


class AlgElem:
    """A sparse element: finite map from normal-form monomials to nonzero
    coefficients.  Equality is map equality; arithmetic is exact.  ``*``
    is the graded product of two elements; a field scalar (or a plain int)
    multiplies through `scale`."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig: Signature, terms: dict):
        self.sig = sig
        self.terms = terms

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        """Zero counts as homogeneous of every degree."""
        degs = {self.sig.monomial_degree(m) for m in self.terms}
        return len(degs) <= 1

    def degree(self) -> Optional[int]:
        """Degree of a homogeneous element; None for zero.

        Raises ValueError on an inhomogeneous element.
        """
        degs = {self.sig.monomial_degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    def poly_degree(self) -> int:
        """Largest total polygen exponent over the support (0 for zero)."""
        return max((sum(m[0]) for m in self.terms), default=0)

    # -- linear arithmetic ---------------------------------------------------

    def _check(self, other: "AlgElem"):
        if self.sig is not other.sig and self.sig != other.sig:
            raise SchemaError("elements belong to different signatures")

    def __add__(self, other: "AlgElem") -> "AlgElem":
        self._check(other)
        out = dict(self.terms)
        _add_into(self.sig.field, out, other.terms)
        return AlgElem(self.sig, out)

    def __neg__(self) -> "AlgElem":
        field = self.sig.field
        return AlgElem(self.sig, {m: field.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "AlgElem") -> "AlgElem":
        return self + (-other)

    def scale(self, c) -> "AlgElem":
        """Multiply by a field scalar (accepts plain ints)."""
        field = self.sig.field
        if isinstance(c, int):
            c = field.of_int(c)
        if c == field.zero:
            return self.sig.zero()
        return AlgElem(self.sig, {m: field.mul(c, q) for m, q in self.terms.items()})

    # -- graded product --------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, AlgElem):
            return NotImplemented
        self._check(other)
        out: dict = {}
        _mul_into(self.sig, out, self.terms, other.terms)
        return AlgElem(self.sig, out)

    # -- comparisons -------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, AlgElem)
            and self.sig == other.sig
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.sig, frozenset(self.terms.items())))

    def __repr__(self):
        return f"<{format_expr(self)}>"

    def __str__(self):
        return format_expr(self)


# -- monomial helpers ------------------------------------------------------------


def _add_into(field: Field, out: dict, a: dict, neg: bool = False) -> None:
    """Add the term map ``a`` (``-a`` when `neg`) into ``out``, in place."""
    zero, fadd = field.zero, field.add
    for m, c in a.items():
        s = fadd(out.get(m, zero), field.neg(c) if neg else c)
        if s == zero:
            out.pop(m, None)
        else:
            out[m] = s


def _var_product(sig: Signature, v1: tuple, v2: tuple):
    """The table entry of ``x^v1 * x^v2``: ``(v1 + v2, f)`` with the factor
    ``f`` of ``x^v1 x^v2 = f x^(v1+v2)``, or None when the product vanishes.

    An odd variable in both kills the product; an even variable in both
    contributes the binomial ``C(e1 + e2, e1)``, computed in the field
    (`Field.binomial`), and kills the product when that vanishes; the
    Koszul sign counts, for each odd factor of ``x^v2``, the odd factors of
    ``x^v1`` at later positions.  A binomial the field refuses raises
    `ValueError` and stores nothing.
    """
    field = sig.field
    f, flips, later = field.one, 0, 0  # later: odd factors of v1 after j
    entry = None
    for j in reversed(sig._odd):
        if v2[j]:
            if v1[j]:
                break
            flips += later
        later += v1[j]
    else:
        for i in sig._even:
            if v1[i] and v2[i]:
                f = field.mul(f, field.binomial(v1[i] + v2[i], v1[i]))
                if f == field.zero:
                    break
        else:
            entry = (tuple(map(add, v1, v2)), field.neg(f) if flips % 2 else f)
    sig._var_products[v1, v2] = entry
    return entry


def _mul_into(sig: Signature, out: dict, a: dict, b: dict, neg: bool = False) -> None:
    """Add the product ``a * b`` of two term maps (``-(a * b)`` when `neg`)
    into ``out``, in place; a coefficient that cancels is deleted.

    A factor that is one constant term ``c*1`` (key ``sig._unit``) scales
    the other factor term by term: ``x^0 x^v = x^v`` with no sign or
    binomial, and scalars are central, so a constant on the right swaps to
    the left.  For every other product: polygens have degree 0 and commute
    with everything, so a product of monomials factors as
    ``(p1 x^v1)(p2 x^v2) = f(v1, v2) p1 p2 x^(v1+v2)`` where the sign and
    binomials ``f(v1, v2)`` depend on the variable parts only.  Each pair
    of variable parts is worked out once per signature by `_var_product`
    and kept in ``sig._var_products`` (a table per signature object, like
    ``_bands``, holding None for a product that vanishes); a pair of
    non-constant terms then costs one lookup, the polygen sum and the
    coefficient product.
    """
    zero, one, mul, fadd, fneg = sig._ops
    unit = sig._unit
    if len(b) == 1 and unit in b:
        a, b = b, a
    if len(a) == 1 and unit in a:
        c = fneg(a[unit]) if neg else a[unit]
        scaled = c != one
        for m, x in b.items():
            if scaled:
                x = mul(c, x)
            s = out.get(m)
            if s is None:
                out[m] = x
            else:
                s = fadd(s, x)
                if s == zero:
                    del out[m]
                else:
                    out[m] = s
        return
    table = sig._var_products
    for (p1, v1), c1 in a.items():
        if neg:
            c1 = fneg(c1)
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


def _var_diff(sig: Signature, v: tuple) -> dict:
    """The terms of ``d(x^v)``, stored in ``sig._var_diffs``.

    A monomial ``L X^(e) R``, with ``L`` its variables before ``X`` and
    ``R`` the variables after, contributes ``(-1)^{|L|} (L X^(e-1)) d(X) R``;
    ``X^(e-1)`` is even (or 1), so it joins ``L`` without a sign.
    ``d(X)`` lives in the stage before ``X``, so its exponents are padded
    with zeros; ``(L X^(e-1)) d(X)`` only has variables up to ``X``, and
    ``R`` only after it, so their product is the concatenation of the
    exponents, with no sign and no binomial.
    """
    one = sig.field.one
    nvars = len(sig.variables)
    no_poly = sig._unit[0]
    out: dict = {}
    left_deg = 0
    for i, var in enumerate(sig.variables):
        e = v[i]
        if e == 0:
            continue
        pad = (0,) * (nvars - i)
        dx = {(q, w + pad): c for (q, w), c in var.diff.terms.items()}
        mid: dict = {}
        left = {(no_poly, v[:i] + (e - 1,) + pad[1:]): one}
        _mul_into(sig, mid, left, dx, left_deg % 2)
        _add_into(sig.field, out, {(q, w[: i + 1] + v[i + 1 :]): c for (q, w), c in mid.items()})
        left_deg += e * var.degree
    sig._var_diffs[v] = out
    return out


def _diff_into(sig: Signature, out: dict, terms: dict, neg: bool = False) -> None:
    """Add ``d`` of the term map ``terms`` (``-d(terms)`` when `neg`) into
    ``out``, in place; a coefficient that cancels is deleted.

    Polygens are cycles of degree 0, so ``d(p x^v) = p d(x^v)``: the terms
    of ``d(x^v)`` are worked out once per signature by `_var_diff` and kept
    in ``sig._var_diffs`` (a table per signature object, like ``_bands``),
    and each term costs one lookup plus a polygen sum and a coefficient
    product per term of its ``d(x^v)``.
    """
    zero, _, mul, fadd, fneg = sig._ops
    table = sig._var_diffs
    for (p, v), c in terms.items():
        dv = table.get(v)
        if dv is None:
            dv = _var_diff(sig, v)
        if neg:
            c = fneg(c)
        for (q, w), e in dv.items():
            m = (tuple(map(add, p, q)), w)
            coeff = mul(c, e)
            s = out.get(m)
            if s is None:
                out[m] = coeff
            else:
                s = fadd(s, coeff)
                if s == zero:
                    del out[m]
                else:
                    out[m] = s


def diff(elem: AlgElem) -> AlgElem:
    """The differential of the algebra, extended by the Leibniz rule."""
    out: dict = {}
    _diff_into(elem.sig, out, elem.terms)
    return AlgElem(elem.sig, out)


def _derivative_into(sig: Signature, out: dict, terms: dict, neg: bool, i: int) -> None:
    """Add the derivative of the term map ``terms`` by the variable at
    position ``i`` (negated when `neg`) into ``out``, in place.

    For an even variable every divided-power index drops by one (terms
    without the variable die).  For an odd variable the factor is removed
    after moving it to the leftmost position, which contributes the Koszul
    sign of that move.  Lowering one exponent is injective on the monomials
    with the variable: no two terms of ``terms`` meet, but a term may meet
    one already in ``out``.
    """
    zero, _, _, fadd, fneg = sig._ops
    left_degs = sig._var_degrees[:i] if sig._var_degrees[i] % 2 else ()
    for (p, v), c in terms.items():
        e = v[i]
        if e == 0:
            continue
        if neg ^ sum(map(mul, v, left_degs)) % 2:
            c = fneg(c)
        m = (p, v[:i] + (e - 1,) + v[i + 1 :])
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = fadd(s, c)
            if s == zero:
                del out[m]
            else:
                out[m] = s


def derivative(elem: AlgElem, var_name: str) -> AlgElem:
    """The derivative with respect to one adjoined variable (see
    `_derivative_into`); zero exactly when the element lies in the
    subalgebra generated without the variable."""
    out: dict = {}
    _derivative_into(elem.sig, out, elem.terms, False, elem.sig.var_pos(var_name))
    return AlgElem(elem.sig, out)


def is_cycle(elem: AlgElem) -> bool:
    if not elem.is_homogeneous():
        raise ValueError("is_cycle expects a homogeneous element")
    return diff(elem).is_zero()


# -- monomial enumeration and ordering ----------------------------------------------


def monomial_sort_key(m: Monomial):
    """Documented total order on monomials.

    Order: total polygen degree, then the polygen word (generator indices
    with multiplicity, lexicographic), then the number of variable
    factors, then the variable word.  Deterministic and
    signature-independent given the generator order.

    Words are only compared at equal length, and there the word order is
    the descending order of the exponent tuples, so the key holds the
    negated exponents instead of the words: its size does not grow with
    the exponents.
    """
    p, v = m
    return (sum(p), tuple(-e for e in p), sum(v), tuple(-e for e in v))


def _poly_tuples(ngens: int, total: int) -> Iterator[tuple]:
    """The polygen exponent tuples adding up to `total`."""
    if ngens == 0:
        if total == 0:
            yield ()
        return
    if ngens == 1:
        yield (total,)
        return
    for e in range(total + 1):
        for rest in _poly_tuples(ngens - 1, total - e):
            yield (e,) + rest


def _var_tuples(sig: Signature, target: int) -> Iterator[tuple]:
    """The variable exponent tuples of total degree `target`.

    An exponent is tried only when the variables after it can make up the
    rest of the degree: past the last even variable only odd ones are
    left, each worth its degree at most once, so the exponents of that
    even variable start where they can.  With one even variable the tries
    then follow the tuples found, whatever the degree (one per exponent of
    ``X`` was 5 * 10^11 tries for a band of degree 10^12); each even
    variable before the last still tries all of its exponents.
    """
    variables = sig.variables
    # reach[i]: the most degree the variables from i on add up to, None
    # when an even one is among them
    reach: list = [0] * (len(variables) + 1)
    for i in reversed(range(len(variables))):
        more = reach[i + 1]
        reach[i] = more + variables[i].degree if variables[i].odd and more is not None else None

    def rec(i: int, remaining: int):
        if i == len(variables):
            if remaining == 0:
                yield ()
            return
        deg, more = variables[i].degree, reach[i + 1]
        top = min(1, remaining // deg) if variables[i].odd else remaining // deg
        low = 0 if more is None else max(0, -((more - remaining) // deg))  # ceil
        for e in range(low, top + 1):
            for rest in rec(i + 1, remaining - e * deg):
                yield (e,) + rest

    yield from rec(0, target)


def component_monomials(sig: Signature, degree: int, poly_bound: int) -> tuple:
    """All monomials of the given total degree with total polygen exponent
    at most `poly_bound`, in the documented order.

    Each band is built once per signature and the same tuple is returned
    on every later call; with `poly_bound` 0 it lists the variable parts
    of the degree, which `lift._Grading.band` completes by class.
    """
    if degree < 0 or poly_bound < 0:
        return ()
    key = (degree, poly_bound)
    band = sig._bands.get(key)
    if band is None:
        out = []
        for v in _var_tuples(sig, degree):
            out += [(p, v) for n in range(poly_bound + 1) for p in _poly_tuples(len(sig.polygens), n)]
        out.sort(key=monomial_sort_key)
        band = sig._bands[key] = tuple(out)
    return band


# -- formatting -----------------------------------------------------------------


def _format_monomial(sig: Signature, m: Monomial) -> str:
    p, v = m
    parts = []
    for name, e in zip(sig.polygens, p):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    for var, e in zip(sig.variables, v):
        if e == 0:
            continue
        if var.odd:
            parts.append(var.name)
        elif e == 1:
            parts.append(var.name)
        else:
            parts.append(f"{var.name}^({e})")
    return "*".join(parts)


def format_expr(elem: AlgElem) -> str:
    """Canonical text form; reparses to an equal element."""
    sig = elem.sig
    field = sig.field
    if elem.is_zero():
        return "0"
    items = elem.terms.items()
    if len(items) > 1:
        items = sorted(
            items, key=lambda it: (sig.monomial_degree(it[0]), monomial_sort_key(it[0]))
        )
    pieces = []
    for m, c in items:
        mono = _format_monomial(sig, m)
        txt = field.fmt(c)
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
