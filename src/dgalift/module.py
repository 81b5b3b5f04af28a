"""Finite-rank graded free right modules and their operator calculus.

A `FreeModule` is an ordered basis with integer degrees over one
signature.  Maps are stored as sparse matrices in the right-module
convention ``f(e_col) = sum_row e_row * entry[row, col]``; with this
convention composition is a plain matrix product and every Koszul sign
lives in the left-multiplication operators and in differentials.

A `Differential` holds the matrix ``D`` of its values on basis elements; the
action on a general element adds the termwise Leibniz part
``(-1)^{|e|} e * d(coeff)``.  On matrices this is one rule,
``d o f = D f + d(f)``, with ``d(f)`` the algebra differential of every
entry under the row sign ``(-1)^{|e_row|}`` (`derive_entries`, the loop the
basis operator ``j`` of `jop` uses with ``d/dX``); ``[d, f]``, ``d o d`` and
``u o d o u^{-1}`` follow in closed form.  Composites mixing matrices with
one reference differential normalize into `DOpPair` values ``f + g o d``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .algebra import AlgElem, Signature, _mul_into, component_monomials, diff
from .errors import NotInvertibleError, SchemaError, VerificationError
from .solver import solve_exact


class FreeModule:
    """Ordered free basis (name, degree) over a signature."""

    def __init__(self, sig: Signature, basis: Iterable[tuple]):
        self.sig = sig
        basis = list(basis)
        self.names = tuple(n for n, _ in basis)
        self.degrees = tuple(int(d) for _, d in basis)
        for n in self.names:
            if not isinstance(n, str):
                raise SchemaError(f"module basis name {n!r} is not a string")
        if len(set(self.names)) != len(self.names):
            raise SchemaError("module basis names must be unique")
        if not self.names:
            raise SchemaError("module basis must be non-empty")
        self._index = {n: i for i, n in enumerate(self.names)}
        self._key = (sig.key(), self.names, self.degrees)

    @property
    def rank(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"unknown basis element {name!r}") from None

    def spread(self) -> int:
        return max(self.degrees) - min(self.degrees)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, FreeModule) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "FreeModule(%s)" % ", ".join(
            f"{n}:{d}" for n, d in zip(self.names, self.degrees)
        )

    # -- elements -------------------------------------------------------

    def zero_elem(self) -> "ModuleElement":
        return ModuleElement(self, {})

    def basis_elem(self, name_or_idx) -> "ModuleElement":
        i = name_or_idx if isinstance(name_or_idx, int) else self.index(name_or_idx)
        return ModuleElement(self, {i: self.sig.one()})

    def elem(self, pairs: Iterable[tuple]) -> "ModuleElement":
        """Build an element from (basis name, coefficient) pairs."""
        out = self.zero_elem()
        for name, coeff in pairs:
            if isinstance(coeff, str):
                coeff = self.sig.parse(coeff)
            out = out + ModuleElement(self, {self.index(name): coeff} if not coeff.is_zero() else {})
        return out


class ModuleElement:
    """Finite sum of basis elements with algebra coefficients."""

    __slots__ = ("module", "coeffs")

    def __init__(self, module: FreeModule, coeffs: dict):
        self.module = module
        self.coeffs = {i: c for i, c in coeffs.items() if not c.is_zero()}

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "ModuleElement"):
        if self.module != other.module:
            raise SchemaError("elements belong to different modules")

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        self._check(other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            s = out.get(i)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(i, None)
            else:
                out[i] = s
        return ModuleElement(self.module, out)

    def __neg__(self) -> "ModuleElement":
        return ModuleElement(self.module, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale_right(self, b: AlgElem) -> "ModuleElement":
        """Right action ``x * b``."""
        return ModuleElement(self.module, {i: c * b for i, c in self.coeffs.items()})

    def homogeneous_degree(self) -> Optional[int]:
        """Common degree of all terms; None for zero; ValueError if mixed."""
        degs = set()
        for i, c in self.coeffs.items():
            d = c.degree()  # raises if the coefficient itself is mixed
            degs.add(d + self.module.degrees[i])
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("module element is not homogeneous")
        return degs.pop()

    def __eq__(self, other):
        return (
            isinstance(other, ModuleElement)
            and self.module == other.module
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.module, frozenset((i, c) for i, c in self.coeffs.items())))

    def __repr__(self):
        if self.is_zero():
            return "<0>"
        names = self.module.names
        return "<" + " + ".join(f"{names[i]}*({c})" for i, c in sorted(self.coeffs.items())) + ">"


class GradedMap:
    """A degree-homogeneous endomorphism matrix over the algebra.

    Entries are kept sparse; every stored entry must be homogeneous of
    degree ``|e_col| + n - |e_row|``.  Zero maps still carry their formal
    degree (needed for sign bookkeeping) but compare equal by entries.
    """

    __slots__ = ("module", "degree", "entries")

    def __init__(self, module: FreeModule, degree: int, entries: dict, check: bool = True):
        self.module = module
        self.degree = degree
        self.entries = {k: v for k, v in entries.items() if not v.is_zero()}
        if check:
            degs = module.degrees
            for (r, c), e in self.entries.items():
                if e.sig != module.sig:
                    raise SchemaError("entry from a different signature")
                want = degs[c] + degree - degs[r]
                if e.degree() != want:
                    raise SchemaError(
                        f"entry ({module.names[r]},{module.names[c]}) must be "
                        f"homogeneous of degree {want}"
                    )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(module: FreeModule, degree: int) -> "GradedMap":
        return GradedMap(module, degree, {}, check=False)

    @staticmethod
    def identity(module: FreeModule) -> "GradedMap":
        one = module.sig.one()
        return GradedMap(
            module, 0, {(i, i): one for i in range(module.rank)}, check=False
        )

    @staticmethod
    def single(module: FreeModule, row, col, value: AlgElem, degree: Optional[int] = None) -> "GradedMap":
        r = row if isinstance(row, int) else module.index(row)
        c = col if isinstance(col, int) else module.index(col)
        if degree is None:
            if value.is_zero():
                raise SchemaError("degree required for a zero single entry")
            degree = module.degrees[r] + value.degree() - module.degrees[c]
        return GradedMap(module, degree, {(r, c): value})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.entries

    def entry(self, row, col) -> AlgElem:
        r = row if isinstance(row, int) else self.module.index(row)
        c = col if isinstance(col, int) else self.module.index(col)
        return self.entries.get((r, c), self.module.sig.zero())

    def _check(self, other: "GradedMap"):
        if self.module != other.module:
            raise SchemaError("maps act on different modules")

    def __add__(self, other: "GradedMap") -> "GradedMap":
        self._check(other)
        if not self.is_zero() and not other.is_zero() and self.degree != other.degree:
            raise SchemaError("cannot add maps of different degrees")
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = out.get(k)
            s = v if s is None else s + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        deg = self.degree if not self.is_zero() else other.degree
        return GradedMap(self.module, deg, out, check=False)

    def __neg__(self) -> "GradedMap":
        return GradedMap(
            self.module, self.degree, {k: -v for k, v in self.entries.items()}, check=False
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "GradedMap":
        return GradedMap(
            self.module,
            self.degree,
            {k: v.scale(c) for k, v in self.entries.items()},
            check=False,
        )

    def apply(self, x: ModuleElement) -> ModuleElement:
        if x.module != self.module:
            raise SchemaError("element belongs to a different module")
        sig = self.module.sig
        out: dict = {}
        for (r, c), e in self.entries.items():
            b = x.coeffs.get(c)
            if b is not None:
                _mul_into(sig, out.setdefault(r, {}), e.terms, b.terms)
        return ModuleElement(self.module, {r: AlgElem(sig, t) for r, t in out.items()})

    def __eq__(self, other):
        return (
            isinstance(other, GradedMap)
            and self.module == other.module
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.module, frozenset(self.entries.items())))

    def __repr__(self):
        if self.is_zero():
            return f"GradedMap(0, deg {self.degree})"
        names = self.module.names
        body = ", ".join(
            f"({names[r]},{names[c]})={v}" for (r, c), v in sorted(self.entries.items())
        )
        return f"GradedMap(deg {self.degree}: {body})"


def compose(f: GradedMap, g: GradedMap) -> GradedMap:
    """Matrix product ``f o g``; no extra signs in this convention."""
    f._check(g)
    sig = f.module.sig
    out: dict = {}
    # index g's entries by column-of-f (= row of g)
    by_row: dict = {}
    for (r, c), v in g.entries.items():
        by_row.setdefault(r, []).append((c, v.terms))
    for (r, m), fv in f.entries.items():
        for c, gv in by_row.get(m, ()):
            _mul_into(sig, out.setdefault((r, c), {}), fv.terms, gv)
    entries = {k: AlgElem(sig, t) for k, t in out.items()}
    return GradedMap(f.module, f.degree + g.degree, entries, check=False)


def derive_entries(f: GradedMap, delta: Callable, n: int) -> GradedMap:
    """Apply a degree-``n`` derivation of the algebra to every entry.

    Row ``r`` carries the sign ``(-1)^{n |e_r|}``, the Koszul sign of moving
    the derivation past the basis element ``e_r``.
    """
    degs = f.module.degrees
    entries = {}
    for (r, c), e in f.entries.items():
        de = delta(e)
        if de.is_zero():
            continue
        entries[(r, c)] = -de if (n * degs[r]) % 2 else de
    return GradedMap(f.module, f.degree + n, entries, check=False)


def bracket(f: GradedMap, g: GradedMap) -> GradedMap:
    """Graded commutator ``[f, g] = f o g - (-1)^(|f||g|) g o f``."""
    fg = compose(f, g)
    gf = compose(g, f)
    if (f.degree * g.degree) % 2:
        return fg + gf
    return fg - gf


def left_mult(module: FreeModule, b: AlgElem) -> GradedMap:
    """Left multiplication by a homogeneous element, as a matrix."""
    if b.sig != module.sig:
        raise SchemaError("element from a different signature")
    if b.is_zero():
        return GradedMap.zero(module, 0)
    n = b.degree()
    if n is None or not b.is_homogeneous():
        raise SchemaError("left multiplication needs a homogeneous element")
    entries = {}
    for i, d in enumerate(module.degrees):
        entries[(i, i)] = b.scale(-1) if (n * d) % 2 else b
    return GradedMap(module, n, entries, check=False)


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


class Differential:
    """A map obeying the module Leibniz rule, stored by its basis matrix.

    The stored matrix is the whole data: the action on ``e * b`` is the
    matrix part times ``b`` plus ``(-1)^{|e|} e * d(b)``.  ``square_zero``
    reports whether the (always linear-over-the-algebra) square vanishes.
    """

    __slots__ = ("matrix", "_square")

    def __init__(self, matrix: GradedMap):
        if matrix.degree != -1 and not matrix.is_zero():
            raise SchemaError("a differential matrix must have degree -1")
        if matrix.degree != -1:
            matrix = GradedMap.zero(matrix.module, -1)
        self.matrix = matrix
        self._square = None

    @staticmethod
    def free(module: FreeModule) -> "Differential":
        """The differential vanishing on every basis element."""
        return Differential(GradedMap.zero(module, -1))

    @property
    def module(self) -> FreeModule:
        return self.matrix.module

    def apply(self, x: ModuleElement) -> ModuleElement:
        out = self.matrix.apply(x)
        module = self.module
        extra: dict = {}
        for i, c in x.coeffs.items():
            dc = diff(c)
            if dc.is_zero():
                continue
            if module.degrees[i] % 2:
                dc = -dc
            prev = extra.get(i)
            extra[i] = dc if prev is None else prev + dc
        return out + ModuleElement(module, extra)

    def after(self, f: GradedMap) -> GradedMap:
        """The composite ``d o f`` as a matrix, ``D f + d(f)``."""
        return compose(self.matrix, f) + derive_entries(f, diff, -1)

    def square(self) -> GradedMap:
        """The composite ``d o d`` as a matrix."""
        if self._square is None:
            self._square = self.after(self.matrix)
        return self._square

    @property
    def square_zero(self) -> bool:
        return self.square().is_zero()

    def conjugate(self, u: GradedMap, u_inv: Optional[GradedMap] = None) -> "Differential":
        """The differential ``u o d o u^{-1}``."""
        if u_inv is None:
            u_inv = invert_unit(u)
        return Differential(compose(u, self.after(u_inv)))

    def __eq__(self, other):
        return isinstance(other, Differential) and self.matrix == other.matrix

    def __hash__(self):
        return hash(("Differential", self.matrix))

    def __repr__(self):
        return f"Differential({self.matrix!r})"


def bracket_diff(d: Differential, f: GradedMap) -> GradedMap:
    """``[d, f] = d o f - (-1)^{|f|} f o d`` (it is linear over the algebra)."""
    t = compose(f, d.matrix)
    df = d.after(f)
    return df + t if f.degree % 2 else df - t


def bracket_diff2(d: Differential, d2: Differential) -> GradedMap:
    """``[d, d'] = d o d' + d' o d``: the bracket of ``d`` with the matrix of
    ``d'`` plus the Leibniz part ``d'`` adds on ``D``."""
    return bracket_diff(d, d2.matrix) + derive_entries(d.matrix, diff, -1)


class DOpPair:
    """A value ``f + g o d`` for one reference differential ``d``.

    The pair is the canonical representative produced by rewriting
    ``d o g`` as ``[d, g] + (-1)^{|g|} g o d`` and ``d o d`` as the square
    matrix; composition and sums stay in this normal form.
    """

    __slots__ = ("f", "g", "partial")

    def __init__(self, f: GradedMap, g: GradedMap, partial: Differential):
        if (not f.is_zero() or not g.is_zero()) and f.degree != g.degree - 1:
            # normalize formal degrees of zero components
            if f.is_zero():
                f = GradedMap.zero(f.module, g.degree - 1)
            elif g.is_zero():
                g = GradedMap.zero(g.module, f.degree + 1)
            else:
                raise SchemaError("pair components have inconsistent degrees")
        self.f = f
        self.g = g
        self.partial = partial

    @staticmethod
    def of_map(f: GradedMap, partial: Differential) -> "DOpPair":
        return DOpPair(f, GradedMap.zero(f.module, f.degree + 1), partial)

    @staticmethod
    def of_diff(partial: Differential) -> "DOpPair":
        module = partial.module
        return DOpPair(GradedMap.zero(module, -1), GradedMap.identity(module), partial)

    @property
    def degree(self) -> int:
        return self.f.degree

    @property
    def module(self) -> FreeModule:
        return self.f.module

    def is_zero(self) -> bool:
        return self.f.is_zero() and self.g.is_zero()

    def apply(self, x: ModuleElement) -> ModuleElement:
        return self.f.apply(x) + self.g.apply(self.partial.apply(x))

    def _check(self, other: "DOpPair"):
        if self.partial is not other.partial and self.partial != other.partial:
            raise SchemaError("pairs refer to different differentials")

    def __add__(self, other: "DOpPair") -> "DOpPair":
        self._check(other)
        return DOpPair(self.f + other.f, self.g + other.g, self.partial)

    def __neg__(self) -> "DOpPair":
        return DOpPair(-self.f, -self.g, self.partial)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "DOpPair":
        return DOpPair(self.f.scale(c), self.g.scale(c), self.partial)

    def compose(self, other: "DOpPair") -> "DOpPair":
        """Normalized composite ``self o other``."""
        self._check(other)
        d = self.partial
        f1, g1 = self.f, self.g
        f2, g2 = other.f, other.g
        e_part = compose(f1, f2)
        c_part = compose(f1, g2)
        if not g1.is_zero():
            if not f2.is_zero():
                e_part = e_part + compose(g1, bracket_diff(d, f2))
                t = compose(g1, f2)
                c_part = c_part + (-t if f2.degree % 2 else t)
            if not g2.is_zero():
                c_part = c_part + compose(g1, bracket_diff(d, g2))
                sq = d.square()
                if not sq.is_zero():
                    t = compose(compose(g1, g2), sq)
                    e_part = e_part + (-t if g2.degree % 2 else t)
        return DOpPair(e_part, c_part, d)

    def bracket(self, other: "DOpPair") -> "DOpPair":
        ab = self.compose(other)
        ba = other.compose(self)
        if (self.degree * other.degree) % 2:
            return ab + ba
        return ab - ba

    def __eq__(self, other):
        return (
            isinstance(other, DOpPair)
            and self.f == other.f
            and self.g == other.g
            and self.partial == other.partial
        )

    def __repr__(self):
        return f"DOpPair(f={self.f!r}, g={self.g!r})"


def dop_normalize(summands: Iterable, partial: Differential) -> DOpPair:
    """Normalize a sum of composition chains into a pair.

    `summands` is an iterable of chains; a chain is a list whose items are
    GradedMap values or the reference differential itself.
    """
    total = None
    for chain in summands:
        acc = None
        for item in chain:
            if isinstance(item, Differential):
                p = DOpPair.of_diff(partial)
                if item is not partial and item != partial:
                    raise SchemaError("chains may only use the reference differential")
            elif isinstance(item, GradedMap):
                p = DOpPair.of_map(item, partial)
            elif isinstance(item, DOpPair):
                p = item
            else:
                raise SchemaError(f"cannot normalize item {item!r}")
            acc = p if acc is None else acc.compose(p)
        if acc is None:
            continue
        total = acc if total is None else total + acc
    if total is None:
        z = GradedMap.zero(partial.module, 0)
        return DOpPair(z, GradedMap.zero(partial.module, 1), partial)
    return total


# -- units ---------------------------------------------------------------------


def invert_unit(u: GradedMap) -> GradedMap:
    """Exact two-sided inverse of a degree-0 unit.

    Splits ``u`` into the part at equal basis degrees (entries in the
    polynomial subring) and the strictly degree-raising rest; the first is
    inverted by exact linear algebra on polygen coefficients, the second is
    nilpotent and handled by a terminating geometric series.  The result is
    verified against the identity on both sides.
    """
    if u.degree != 0:
        raise NotInvertibleError("only degree-0 maps can be inverted")
    module = u.module
    one = GradedMap.identity(module)
    flat = {k: v for k, v in u.entries.items() if module.degrees[k[0]] == module.degrees[k[1]]}
    rest = {k: v for k, v in u.entries.items() if module.degrees[k[0]] != module.degrees[k[1]]}
    u_flat = GradedMap(module, 0, flat, check=False)
    u_rest = GradedMap(module, 0, rest, check=False)

    v = _invert_flat(u_flat)
    w = compose(v, u_rest)
    # geometric series in the nilpotent w: (1 + w)^{-1} = 1 - w + w^2 - ...
    series = one
    power = w
    sign = -1
    steps = 0
    cap = module.spread() + 2
    while not power.is_zero():
        series = series + power.scale(sign)
        power = compose(power, w)
        sign = -sign
        steps += 1
        if steps > cap:
            raise VerificationError("nilpotent correction failed to terminate")
    inv = compose(series, v)
    if compose(u, inv) != one or compose(inv, u) != one:
        raise VerificationError("unit inverse failed verification")
    return inv


def _invert_flat(u_flat: GradedMap) -> GradedMap:
    """Invert the equal-degree part (polygen entries) by coefficient solving."""
    module = u_flat.module
    sig = module.sig
    field = sig.field
    one = GradedMap.identity(module)
    if u_flat == one:
        return one
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
        unknowns = []  # (a, b, monomial) for v[a][b]
        columns = []  # per unknown: (r, b, monomial) -> coefficient in (u v)[r][b]
        for a in range(k):
            # the products u[r][a] * m do not depend on b: one per (r, a, m)
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
                key = (idxs[a], idxs[b])
                prev = inv_entries.get(key, sig.zero())
                inv_entries[key] = prev + AlgElem(sig, {m: cval})
    return GradedMap(module, 0, inv_entries, check=False)


# -- builders ----------------------------------------------------------------


def shift(module: FreeModule, k: int, suffix: str = "_s") -> FreeModule:
    """The shifted module: basis degrees drop by ``k``.

    With ``k = 0`` the module itself is returned; otherwise basis names get
    a suffix so the two modules stay distinguishable.
    """
    if k == 0:
        return module
    return FreeModule(
        module.sig,
        [(n + suffix, d - k) for n, d in zip(module.names, module.degrees)],
    )


def direct_sum(m1: FreeModule, m2: FreeModule) -> FreeModule:
    if m1.sig != m2.sig:
        raise SchemaError("modules over different signatures")
    if set(m1.names) & set(m2.names):
        raise SchemaError("direct sum requires disjoint basis names")
    return FreeModule(
        m1.sig,
        list(zip(m1.names, m1.degrees)) + list(zip(m2.names, m2.degrees)),
    )


def fresh_suffix(module: FreeModule, base: str = "_s") -> str:
    """A name suffix whose application stays disjoint from the basis."""
    suffix = base
    names = set(module.names)
    while any(n + suffix in names for n in module.names):
        suffix += base.lstrip("_") or "s"
    return suffix


def twofold_extension(module: FreeModule, d: Differential, k: int):
    """``N + N(k)`` with the block-diagonal differential diag(d, (-1)^k d).

    Returns ``(doubled module, doubled differential)``.  Requires a
    square-zero differential; the result is square-zero again.
    """
    if not d.square_zero:
        raise SchemaError("two-fold extension requires a square-zero differential")
    suffix = fresh_suffix(module)
    shifted = FreeModule(
        module.sig, [(n + suffix, deg - k) for n, deg in zip(module.names, module.degrees)]
    )
    doubled = direct_sum(module, shifted)
    r = module.rank
    entries = {}
    sign = -1 if k % 2 else 1
    for (i, j), v in d.matrix.entries.items():
        entries[(i, j)] = v
        entries[(i + r, j + r)] = v.scale(sign)
    return doubled, Differential(GradedMap(doubled, -1, entries, check=False))


def sharp_map(m: GradedMap, doubled: FreeModule, k: int) -> GradedMap:
    """Embed a map diagonally into the doubled module.

    The second block carries the sign ``(-1)^{|m| k}``, matching how left
    multiplications act on the shifted summand.
    """
    r = m.module.rank
    if doubled.rank != 2 * r:
        raise SchemaError("doubled module has unexpected rank")
    sign = -1 if (m.degree * k) % 2 else 1
    entries = {}
    for (i, j), v in m.entries.items():
        entries[(i, j)] = v
        entries[(i + r, j + r)] = v.scale(sign)
    return GradedMap(doubled, m.degree, entries, check=False)
