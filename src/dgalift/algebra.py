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

Every product goes through one kernel, `_mul_into`, which adds ``a * b``
of two term maps into an output map in place: `AlgElem.__mul__`, the
module `compose` and `GradedMap.apply` accumulate through it without an
intermediate element, and `diff` builds each Leibniz term with it.  A
`Signature` holds the odd and even variable positions, so the Koszul sign
is a suffix count over the odd positions, and it memoises each band of
`component_monomials` as a tuple.  Nothing is memoised per monomial or per
pair of monomials: the fixture signatures of the identity suites live for
a whole run, and in a trial such memos raised the peak RSS of that
benchmark from 23.3 to 29.7 MB (pair products) and from 23.7 to 25.9 MB
(``d(m)``), for a bound of 10%.

Everything is immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import add
from typing import Iterable, Iterator, Optional

from .errors import SchemaError, VerificationError
from .field import Field
from .solver import solve_exact

# A monomial is (poly_exps, var_exps); both plain int tuples.
Monomial = tuple


@dataclass(frozen=True)
class Variable:
    """An adjoined variable: name, positive degree, and its differential.

    ``diff`` is an element of the full owning signature whose monomials
    only mention strictly earlier generators.
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
        try:
            return self.variables[self._var_index[name]]
        except KeyError:
            raise SchemaError(f"unknown adjoined variable {name!r}") from None

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
        v = m[1]
        return sum(e * d for e, d in zip(v, self._var_degrees))

    def monomial_poly_degree(self, m: Monomial) -> int:
        return sum(m[0])

    # -- element constructors ----------------------------------------------

    def zero(self) -> "AlgElem":
        return AlgElem(self, {})

    def one(self) -> "AlgElem":
        return self.scalar(self.field.one)

    def scalar(self, c) -> "AlgElem":
        m = (
            (0,) * len(self.polygens),
            (0,) * len(self.variables),
        )
        if c == self.field.zero:
            return self.zero()
        return AlgElem(self, {m: c})

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
        if degree < 1:
            raise SchemaError("adjoined variables must have positive degree")
        if isinstance(t, str):
            t = self.parse(t)
        if t.sig != self:
            raise SchemaError("cycle lives in a different signature")
        if not t.is_zero() and t.degree() != degree - 1:
            raise SchemaError(
                f"differential of {name} must be homogeneous of degree {degree - 1}"
            )
        if not diff(t).is_zero():
            raise SchemaError(f"differential of {name} is not a cycle")
        new_vars = []
        for v in self.variables:
            new_vars.append(Variable(v.name, v.degree, _extend(v.diff)))
        new_vars.append(Variable(name, degree, _extend(t)))
        sig = Signature(self.field, self.polygens, tuple(new_vars))
        # re-home the stored differentials to the extended signature; the
        # term maps are shared, so the key built above stays valid
        for v in sig.variables:
            object.__setattr__(v, "diff", AlgElem(sig, v.diff.terms))
        return sig


def _extend(elem: "AlgElem") -> "AlgElem":
    """Append a zero exponent slot for a freshly adjoined variable."""
    terms = {(p, v + (0,)): c for (p, v), c in elem.terms.items()}
    return AlgElem(elem.sig, terms)  # signature fixed up by the caller


class AlgElem:
    """A sparse element: finite map from normal-form monomials to nonzero
    coefficients.  Equality is map equality; arithmetic is exact."""

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

    def homogeneous_part(self, n: int) -> "AlgElem":
        return AlgElem(
            self.sig,
            {m: c for m, c in self.terms.items() if self.sig.monomial_degree(m) == n},
        )

    # -- linear arithmetic ---------------------------------------------------

    def _check(self, other: "AlgElem"):
        if self.sig is not other.sig and self.sig != other.sig:
            raise SchemaError("elements belong to different signatures")

    def __add__(self, other: "AlgElem") -> "AlgElem":
        self._check(other)
        field = self.sig.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = field.add(out.get(m, field.zero), c)
            if s == field.zero:
                out.pop(m, None)
            else:
                out[m] = s
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

    def __rmul__(self, c):
        if isinstance(c, int):
            return self.scale(c)
        return NotImplemented

    # -- graded product --------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
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


def _mul_into(sig: Signature, out: dict, a: dict, b: dict) -> None:
    """Add the product ``a * b`` of two term maps into ``out``, in place.

    Per pair of monomials: an odd variable in both kills the term; an even
    variable in both contributes the binomial ``comb(e1 + e2, e1)`` reduced
    in the field, and kills the term when that vanishes; the Koszul sign
    counts, for each odd factor of the right monomial, the odd factors of
    the left one at later positions.
    """
    field = sig.field
    zero, mul, fadd = field.zero, field.mul, field.add
    for (p1, v1), c1 in a.items():
        later, count = [], 0  # (odd position j, odd factors of v1 after j)
        for j in reversed(sig._odd):
            later.append((j, count))
            count += v1[j]
        evens = [(i, v1[i]) for i in sig._even if v1[i]]
        for (p2, v2), c2 in b.items():
            coeff = mul(c1, c2)
            flips = 0
            for j, k in later:
                if v2[j]:
                    if v1[j]:
                        break
                    flips += k
            else:
                for i, e1 in evens:
                    e2 = v2[i]
                    if e2:
                        coeff = mul(coeff, field.of_int(comb(e1 + e2, e1)))
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


def diff(elem: AlgElem) -> AlgElem:
    """The differential of the algebra, extended by the Leibniz rule.

    A monomial ``L X^(e) R``, with ``L`` its polygens and variables before
    ``X`` and ``R`` the variables after, contributes
    ``(-1)^{|L|} (L X^(e-1)) d(X) R``; ``X^(e-1)`` is even (or 1), so it
    joins ``L`` without a sign.
    """
    sig = elem.sig
    one = sig.field.one
    nvars = len(sig.variables)
    no_poly = (0,) * len(sig.polygens)
    out: dict = {}
    for (p, v), c in elem.terms.items():
        left_deg = 0
        for i, var in enumerate(sig.variables):
            e = v[i]
            if e == 0:
                continue
            left = (p, v[:i] + (e - 1,) + (0,) * (nvars - i - 1))
            mid: dict = {}
            _mul_into(sig, mid, {left: sig.field.neg(c) if left_deg % 2 else c}, var.diff.terms)
            _mul_into(sig, out, mid, {(no_poly, (0,) * (i + 1) + v[i + 1 :]): one})
            left_deg += e * var.degree
    return AlgElem(sig, out)


def derivative(elem: AlgElem, var_name: str) -> AlgElem:
    """The derivative with respect to one adjoined variable.

    For an even variable every divided-power index drops by one (terms
    without the variable die).  For an odd variable the factor is removed
    after moving it to the leftmost position, which contributes the Koszul
    sign of that move.  The result is zero exactly when the element lies in
    the subalgebra generated without the variable.
    """
    sig = elem.sig
    field = sig.field
    i = sig.var_pos(var_name)
    var = sig.variables[i]
    out: dict = {}
    for (p, v), c in elem.terms.items():
        e = v[i]
        if e == 0:
            continue
        new_v = v[:i] + (e - 1,) + v[i + 1 :]
        if var.odd:
            left_deg = sum(
                v[j] * sig.variables[j].degree for j in range(i)
            )
            if left_deg % 2:
                c = field.neg(c)
        m = (p, new_v)
        s = field.add(out.get(m, field.zero), c)
        if s == field.zero:
            out.pop(m, None)
        else:
            out[m] = s
    return AlgElem(sig, out)


def is_cycle(elem: AlgElem) -> bool:
    if not elem.is_homogeneous():
        raise ValueError("is_cycle expects a homogeneous element")
    return diff(elem).is_zero()


# -- monomial enumeration and ordering ----------------------------------------------


def monomial_sort_key(sig: Signature, m: Monomial):
    """Documented total order on monomials.

    Key: total polygen degree, then the polygen word (generator indices
    with multiplicity, lexicographic), then the number of variable
    factors, then the variable word.  Deterministic and
    signature-independent given the generator order.
    """
    p, v = m
    poly_word = tuple(i for i, e in enumerate(p) for _ in range(e))
    var_word = tuple(i for i, e in enumerate(v) for _ in range(e))
    return (sum(p), poly_word, len(var_word), var_word)


def _poly_tuples(ngens: int, max_total: int) -> Iterator[tuple]:
    if ngens == 0:
        yield ()
        return
    if ngens == 1:
        for e in range(max_total + 1):
            yield (e,)
        return
    for e in range(max_total + 1):
        for rest in _poly_tuples(ngens - 1, max_total - e):
            yield (e,) + rest


def _var_tuples(sig: Signature, target: int) -> Iterator[tuple]:
    def rec(i: int, remaining: int):
        if i == len(sig.variables):
            if remaining == 0:
                yield ()
            return
        var = sig.variables[i]
        top = 1 if var.odd else remaining // var.degree
        for e in range(min(top, remaining // var.degree) + 1):
            for rest in rec(i + 1, remaining - e * var.degree):
                yield (e,) + rest

    yield from rec(0, target)


def component_monomials(sig: Signature, degree: int, poly_bound: int) -> tuple:
    """All monomials of the given total degree with total polygen exponent
    at most `poly_bound`, in the documented order.

    Each band is built once per signature and the same tuple is returned
    on every later call.
    """
    if degree < 0 or poly_bound < 0:
        return ()
    band = sig._bands.get((degree, poly_bound))
    if band is None:
        polys = list(_poly_tuples(len(sig.polygens), poly_bound))
        out = [(p, v) for v in _var_tuples(sig, degree) for p in polys]
        out.sort(key=lambda m: monomial_sort_key(sig, m))
        band = sig._bands[degree, poly_bound] = tuple(out)
    return band


def is_boundary_up_to(elem: AlgElem, poly_bound: int):
    """Search for b with diff(b) == elem among elements supported on
    monomials of degree ``deg(elem) + 1`` and polygen degree <= poly_bound.

    Returns a witness `AlgElem` (re-verified exactly) or None.  None is
    conclusive only up to the bound.
    """
    sig = elem.sig
    field = sig.field
    if elem.is_zero():
        return sig.zero()
    n = elem.degree()  # raises on inhomogeneous input
    candidates = component_monomials(sig, n + 1, poly_bound)
    columns = [diff(AlgElem(sig, {m: field.one})).terms for m in candidates]
    sol = solve_exact(field, columns, elem.terms)
    if sol is None:
        return None
    witness = AlgElem(
        sig, {m: c for m, c in zip(candidates, sol) if c != field.zero}
    )
    if diff(witness) != elem:
        raise VerificationError("boundary witness failed its exact re-check")
    return witness


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
    items = sorted(
        elem.terms.items(),
        key=lambda it: (
            sig.monomial_degree(it[0]),
            monomial_sort_key(sig, it[0]),
        ),
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
