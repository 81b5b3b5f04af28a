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

Everything is immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
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
        # re-home the stored differentials to the extended signature
        for v in sig.variables:
            object.__setattr__(v, "diff", AlgElem(sig, v.diff.terms))
        sig._key = (
            sig.field.key(),
            sig.polygens,
            tuple((v.name, v.degree, frozenset(v.diff.terms.items())) for v in sig.variables),
        )
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
        sig = self.sig
        field = sig.field
        variables = sig.variables
        out: dict = {}
        for (p1, v1), c1 in self.terms.items():
            for (p2, v2), c2 in other.terms.items():
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
                # Koszul sign: odd factors of `other` move left past the odd
                # factors of `self` that sit strictly later in signature order.
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


def _single_var_elem(sig: Signature, i: int, e: int) -> AlgElem:
    p = (0,) * len(sig.polygens)
    v = [0] * len(sig.variables)
    v[i] = e
    if e == 0:
        return sig.one()
    return AlgElem(sig, {(p, tuple(v)): sig.field.one})


def _split_monomial(sig: Signature, m: Monomial, i: int):
    """Split m as (left, e_i, right): factors before / after variable i.

    The polygen part goes to the left factor.
    """
    p, v = m
    nvars = len(v)
    left_v = tuple(v[j] if j < i else 0 for j in range(nvars))
    right_v = tuple(v[j] if j > i else 0 for j in range(nvars))
    left = (p, left_v)
    right = ((0,) * len(p), right_v)
    return left, v[i], right


def diff(elem: AlgElem) -> AlgElem:
    """The differential of the algebra, extended by the Leibniz rule."""
    sig = elem.sig
    field = sig.field
    out = sig.zero()
    for m, c in elem.terms.items():
        p, v = m
        left_deg = 0
        for i, var in enumerate(sig.variables):
            e = v[i]
            if e == 0:
                continue
            left, _, right = _split_monomial(sig, m, i)
            if var.odd:
                dfac = var.diff
            else:
                dfac = _single_var_elem(sig, i, e - 1) * var.diff
            sign = -1 if left_deg % 2 else 1
            term = AlgElem(sig, {left: c}) * dfac * AlgElem(sig, {right: field.one})
            out = out + term.scale(sign)
            left_deg += e * var.degree
    return out


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


def component_monomials(sig: Signature, degree: int, poly_bound: int) -> list:
    """All monomials of the given total degree with total polygen exponent
    at most `poly_bound`, in the documented order."""
    if degree < 0 or poly_bound < 0:
        return []
    out = []
    for v in _var_tuples(sig, degree):
        for p in _poly_tuples(len(sig.polygens), poly_bound):
            out.append((p, v))
    out.sort(key=lambda m: monomial_sort_key(sig, m))
    return out


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
