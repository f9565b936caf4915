"""Lie algebras given by structure equations, and exact structural predicates.

A Lie algebra is stored through the Chevalley-Eilenberg differential of its
dual coframe: ``d f^i`` as exact rational 2-forms.  The sign convention is

    d alpha(X, Y) = -alpha([X, Y]),

so ``df^1 = f^35`` means ``[f_3, f_5] = -f_1``.  Structure equations are
written in the usual shorthand tuple notation, e.g.::

    (f35+f16, f45-f26, f36, -f46, 0, 0)

with optional symbolic coefficients resolved through a parameter binding,
e.g. ``"(pf16+f26, ...)"`` with ``{"p": Fraction(1, 2)}``.

The structural predicates work in the ambient basis of g.  Every subspace is
kept as its reduced-echelon basis (:func:`span_basis`), in which a vector's
coordinates are its entries at the pivot columns, so membership and
coordinates need no solve.  One descending-series loop gives the lower
central series of g, the series n^{k+1} = [n, n^k] of an ideal n and the
derived series.  Each n^k is an ideal of g, so the trace of ad_X on the
quotient n^k / n^{k+1} is tr(ad_X|n^k) - tr(ad_X|n^{k+1}), and strong
unimodularity asks that tr(ad_X|n^k) vanish on every layer.
"""

from __future__ import annotations

import itertools
import re
from typing import Mapping, Optional, Sequence

from . import linalg
from .forms import Antiderivation, Form
from .scalars import GR_ONE, GR_ZERO, GaussianRational


class LieAlgebra:
    """Finite-dimensional real Lie algebra in a fixed basis ``f_1..f_dim``."""

    def __init__(self, dim: int, d1: Sequence[Form], name: Optional[str] = None):
        if len(d1) != dim:
            raise ValueError("need one differential per coframe element")
        self.dim = dim
        self.d1 = list(d1)
        self.name = name
        for i, df in enumerate(self.d1):
            if df.dim != dim or df.degree != 2:
                raise ValueError(f"d f^{i + 1} must be a 2-form on the same coframe")
        self._d = Antiderivation(self.d1)
        self._closed_one_forms = None  # filled by herm.closed_one_forms on first use
        self._pairs = None  # filled by bracket on first use

    # -- structure constants ------------------------------------------
    def structure_constant(self, i: int, j: int, k: int) -> GaussianRational:
        """c^i_{jk} with [f_j, f_k] = sum_i c^i_{jk} f_i."""
        c = self.d1[i - 1].coeff(j, k)
        c = GaussianRational.coerce(c) if not isinstance(c, GaussianRational) else c
        return -c

    def bracket(self, u: Sequence, v: Sequence) -> list:
        """Bracket of vectors given by exact or symbolic components.

        A table, built on the first call, lists for each pair j < k the nonzero
        c^i_jk; w = u_j v_k - u_k v_j is formed from its nonzero factors only."""
        if self._pairs is None:
            self._pairs = {}
            for i, df in enumerate(self.d1):
                for (j, k), c in df.coeffs.items():
                    self._pairs.setdefault((j - 1, k - 1), []).append((i, -c))
        out = [GR_ZERO] * self.dim
        for (j, k), terms in self._pairs.items():
            w = u[j] * v[k] if u[j] and v[k] else None
            if u[k] and v[j]:
                w = -(u[k] * v[j]) if w is None else w - u[k] * v[j]
            if w:
                for i, c in terms:
                    out[i] = out[i] + c * w
        return out

    def __repr__(self):
        label = self.name or f"dim {self.dim}"
        return f"LieAlgebra({label}: {print_structure_equations(self)})"


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg differential


def ce_differential(g: LieAlgebra, form: Form) -> Form:
    """d of a left-invariant form, extended as an antiderivation."""
    return g._d(form)


def jacobi_holds(g: LieAlgebra) -> bool:
    """d^2 = 0 on the coframe, equivalent to the Jacobi identity."""
    return all(not ce_differential(g, df) for df in g.d1)


# ---------------------------------------------------------------------------
# parsing and printing of structure equations

_TOKEN = re.compile(
    r"\s*(?:(?P<form>f\d+)|(?P<num>\d+)|(?P<name>[a-zA-Z_][a-zA-Z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot tokenize {text[pos:]!r}")
        pos = m.end()
        kind = m.lastgroup
        val = m.group(kind)
        if kind == "name":
            # split identifiers that run into a basis symbol, e.g. "pf16"
            fm = re.search(r"f\d", val)
            if fm and fm.start() > 0:
                head = val[: fm.start()]
                tokens.append(("name", head))
                rest = val[fm.start():]
                if not re.fullmatch(r"f\d+", rest):
                    raise ValueError(f"bad token {val!r}")
                tokens.append(("form", rest))
                continue
            if re.fullmatch(r"f\d+", val):
                kind = "form"
        tokens.append((kind, val))
    return tokens


#: the most bits a power in parsed text may need (the stock texts only square)
_MAX_POWER_BITS = 4096
#: the deepest parentheses parsed text may nest (the stock texts nest 3 deep);
#: each level costs the recursive-descent parser three stack frames
_MAX_NESTING = 100


class _Parser:
    """Recursive-descent parser for one structure-equation entry."""

    def __init__(self, tokens: list, params: Mapping[str, object], degree: int = 2):
        self.tokens = tokens
        self.pos = 0
        self.params = params
        self.degree = degree
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, val: str):
        kind, v = self.take()
        if v != val:
            raise ValueError(f"expected {val!r}, got {v!r}")

    # expression -> sum of (coefficient, indices) terms
    def parse_entry(self, dim: int) -> Form:
        out = Form.zero(dim, self.degree)
        sign = GR_ONE
        first = True
        while True:
            kind, val = self.peek()
            if kind is None or val in (",", ")"):
                if first:
                    raise ValueError("empty entry")
                return out
            if val == "+":
                self.take()
                sign = GR_ONE
            elif val == "-":
                self.take()
                sign = -GR_ONE
            elif not first:
                raise ValueError(f"expected + or - before {val!r}")
            coeff, indices = self.parse_term()
            if indices is None:
                # bare scalar entry; only literal 0 is allowed
                if coeff:
                    raise ValueError(f"a term without a basis symbol must be 0, got {coeff}")
                first = False
                continue
            out = out + Form(dim, self.degree, {indices: sign * coeff})
            first = False
            sign = GR_ONE

    def parse_term(self):
        """A coefficient product, optionally ending in f<jk>; returns
        ``(coeff, indices)`` with ``indices`` None for a bare coefficient."""
        coeff = GR_ONE if self.peek()[0] == "form" else self.parse_product()
        kind, val = self.peek()
        if kind != "form":
            return coeff, None
        self.take()
        if len(val) - 1 != self.degree:
            raise ValueError(f"expected a degree-{self.degree} symbol, got {val!r}")
        return coeff, tuple(int(d) for d in val[1:])

    def parse_atom(self) -> GaussianRational:
        kind, val = self.take()
        if kind == "num":
            out = GaussianRational(int(val))
        elif kind == "name":
            if val not in self.params:
                raise ValueError(f"unbound parameter {val!r}")
            out = GaussianRational.coerce(self.params[val])
        elif val == "(":
            if self.depth == _MAX_NESTING:
                raise ValueError(f"parentheses nested more than {_MAX_NESTING} deep")
            self.depth += 1
            out = self.parse_sum()
            self.expect(")")
            self.depth -= 1
        else:
            raise ValueError(f"unexpected token {val!r}")
        while self.peek()[1] == "^":
            self.take()
            k2, v2 = self.take()
            if k2 != "num":
                raise ValueError("exponent must be an integer")
            n = int(v2)
            # out = (a + b i)/d: the parts of out ** n are at most |a + b i|^n
            # and d^n, so this bounds twice the bits they need from above
            a, b, d = out._a, out._b, out._d
            bits2 = max((a * a + b * b - 1).bit_length(), 2 * (d - 1).bit_length())
            if out and n * bits2 > 2 * _MAX_POWER_BITS:
                raise ValueError(f"power too large: ^{v2} could need more "
                                 f"than {_MAX_POWER_BITS} bits")
            out = out ** n
        return out

    def parse_sum(self) -> GaussianRational:
        out = GaussianRational(0)
        sign = GR_ONE
        first = True
        while True:
            kind, val = self.peek()
            if val == "+":
                self.take()
                sign = GR_ONE
            elif val == "-":
                self.take()
                sign = -GR_ONE
            elif not first and (kind is None or val in (")", ",")):
                return out
            term = self.parse_product()
            out = out + sign * term
            first = False
            sign = GR_ONE

    def parse_product(self) -> GaussianRational:
        """Factors side by side or joined by ``*`` or ``/``; a ``*`` before a
        basis symbol (``2*f1``) ends the product."""
        out = self.parse_atom()
        while True:
            kind, val = self.peek()
            if val == "*":
                self.take()
                if self.peek()[0] == "form":
                    return out
                out = out * self.parse_atom()
            elif val == "/":
                self.take()
                out = out / self.parse_atom()
            elif kind in ("num", "name") or val == "(":
                out = out * self.parse_atom()
            else:
                return out


def parse_structure_equations(
    text: str,
    params: Optional[Mapping[str, object]] = None,
    name: Optional[str] = None,
    dim: int = 6,
) -> LieAlgebra:
    """Parse tuple-notation structure equations into a :class:`LieAlgebra`."""
    params = dict(params or {})
    tokens = _tokenize(text)
    if not tokens or tokens[0][1] != "(":
        raise ValueError("structure equations must start with '('")
    parser = _Parser(tokens, params)
    parser.expect("(")
    entries = []
    while True:
        entries.append(parser.parse_entry(dim))
        kind, val = parser.take()
        if val == ")":
            break
        if val != ",":
            raise ValueError(f"expected ',' or ')', got {val!r}")
    if parser.pos != len(tokens):
        raise ValueError("trailing input after ')'")
    if len(entries) != dim:
        raise ValueError(f"expected {dim} entries, got {len(entries)}")
    return LieAlgebra(dim, entries, name=name)


def parse_form(
    text: str,
    params: Optional[Mapping[str, object]] = None,
    degree: int = 2,
    dim: int = 6,
) -> Form:
    """Parse a single form expression such as ``"f12+4f34"`` or ``"-2f6"``."""
    parser = _Parser(_tokenize(text), dict(params or {}), degree=degree)
    form = parser.parse_entry(dim)
    if parser.pos != len(parser.tokens):
        raise ValueError("trailing input in form expression")
    return form


def parse_scalar(text: str, params: Optional[Mapping[str, object]] = None) -> GaussianRational:
    """Parse a coefficient expression like ``"-1/p"`` or ``"2(1+q)^2"``."""
    parser = _Parser(_tokenize(text), dict(params or {}))
    value = parser.parse_sum()
    if parser.pos != len(parser.tokens):
        raise ValueError("trailing input in scalar expression")
    return value


def _coeff_str(c: GaussianRational) -> str:
    if not c.is_real():
        raise ValueError("structure constants must be real")
    return str(c.re)


def print_structure_equations(g: LieAlgebra) -> str:
    """Tuple notation inverse to :func:`parse_structure_equations`."""
    entries = []
    for df in g.d1:
        if not df:
            entries.append("0")
            continue
        parts = []
        for (j, k) in sorted(df.coeffs):
            c = GaussianRational.coerce(df.coeffs[(j, k)])
            s = _coeff_str(c)
            sym = f"f{j}{k}"
            if s == "1":
                term = sym
            elif s == "-1":
                term = f"-{sym}"
            elif s.startswith("-"):
                term = f"-{s[1:]}{sym}"
            else:
                term = f"{s}{sym}"
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        entries.append("".join(parts))
    return "(" + ", ".join(entries) + ")"


# ---------------------------------------------------------------------------
# subspaces and structural predicates

Subspace = list  # list of vectors (components in f_1..f_dim)


def span_basis(vectors: Sequence[Sequence]) -> Subspace:
    """Row-reduce a spanning set to its reduced-echelon basis."""
    if not vectors:
        return []
    r, pivots = linalg.rref(vectors)
    return [r[i] for i in range(len(pivots))]


def _coordinates(basis: Subspace, v: Sequence) -> Optional[list]:
    """Coordinates of v in a reduced-echelon basis, or None if v is outside
    its span: they are v's entries at the pivot columns, and v is in the span
    exactly when they rebuild its other entries too."""
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    coords = [v[p] for p in pivots]
    for j, x in enumerate(v):
        if j not in pivots and x != sum(
                (c * row[j] for c, row in zip(coords, basis) if c and row[j]), GR_ZERO):
            return None
    return coords


def bracket_span(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    # [a, a] is spanned by the brackets of distinct pairs, by antisymmetry
    pairs = itertools.combinations(a, 2) if a is b else itertools.product(a, b)
    vecs = [g.bracket(u, v) for u, v in pairs]
    return span_basis([v for v in vecs if any(v)])


def full_space(g: LieAlgebra) -> Subspace:
    return linalg.identity(g.dim)


def _descending_series(g: LieAlgebra, top: Subspace, derived: bool) -> list[Subspace]:
    """top, then [top, last] (or [last, last] when ``derived``) until a term
    is 0 or no smaller than the last, which ends the loop for any ``top``."""
    series = [top]
    while series[-1]:
        last = series[-1]
        nxt = bracket_span(g, last if derived else top, last)
        if len(nxt) >= len(last):
            break
        series.append(nxt)
    return series


def lower_central_series(g: LieAlgebra) -> list[Subspace]:
    """g^0 = g, g^{k+1} = [g, g^k]; stops when stationary."""
    return _descending_series(g, full_space(g), derived=False)


def derived_series(g: LieAlgebra) -> list[Subspace]:
    return _descending_series(g, full_space(g), derived=True)


def is_nilpotent(g: LieAlgebra) -> bool:
    return not lower_central_series(g)[-1]


def is_solvable(g: LieAlgebra) -> bool:
    return not derived_series(g)[-1]


def _ad_coordinates(g: LieAlgebra, layer: Subspace) -> list:
    """Coordinates in ``layer`` of ad_X v, for every basis vector X of g (rows)
    and v of ``layer`` (columns); None where ad_X v leaves its span."""
    return [[_coordinates(layer, g.bracket(x, v)) for v in layer] for x in full_space(g)]


def is_ideal(g: LieAlgebra, basis: Subspace) -> bool:
    return all(c is not None for row in _ad_coordinates(g, span_basis(basis)) for c in row)


def verify_nilradical(g: LieAlgebra, basis: Subspace) -> dict:
    """Certify a candidate nilradical.

    A nilpotent ideal of codimension one in a non-nilpotent solvable algebra
    is automatically the nilradical (it is contained in it, and the
    nilradical of a non-nilpotent algebra is proper).  The report also says
    whether g itself is nilpotent, so a caller needs no second lower central
    series.
    """
    n = span_basis(basis)
    ad = _ad_coordinates(g, n)
    ideal = all(c is not None for row in ad for c in row)
    series = _descending_series(g, n, derived=False)
    nilp = ideal and not series[-1]
    codim = g.dim - len(n)
    g_nilpotent = is_nilpotent(g)
    return {
        "is_ideal": ideal,
        "is_nilpotent_ideal": nilp,
        "codimension": codim,
        "algebra_nilpotent": g_nilpotent,
        "certified_nilradical": nilp and codim == 1 and not g_nilpotent,
        "lower_central_series": series,  # with ad_coordinates, for _strongly_unimodular_on
        "ad_coordinates": ad,
    }


def is_strongly_unimodular(g: LieAlgebra, nilradical: Optional[Subspace] = None) -> bool:
    """tr(ad_X) vanishes on every quotient n^k / n^{k+1} of the nilradical.

    Each n^k is an ideal, so that trace is tr(ad_X|n^k) - tr(ad_X|n^{k+1}),
    and all of them vanish exactly when tr(ad_X|n^k) does on every layer.
    """
    n = span_basis(find_nilradical(g) if nilradical is None else nilradical)
    return _strongly_unimodular_on(g, _descending_series(g, n, derived=False),
                                  _ad_coordinates(g, n))


def _strongly_unimodular_on(g: LieAlgebra, series: list, ad: list) -> bool:
    """:func:`is_strongly_unimodular` given the lower central series of the
    nilradical and the ad coordinates on it, as :func:`verify_nilradical` reports."""
    for k, layer in enumerate(series):
        # coordinates of ad_X v_i for every X, checked before any trace
        images = ad if k == 0 else _ad_coordinates(g, layer)
        if any(c is None for row in images for c in row):
            raise ValueError("ad does not preserve the lower central series layer")
        if any(sum((c[i] for i, c in enumerate(row)), GR_ZERO) for row in images):
            return False
    return True


def find_nilradical(g: LieAlgebra) -> Subspace:
    """Nilradical for the algebras handled here.

    If g is nilpotent it is g itself.  Otherwise try coordinate codimension-one
    subspaces (dropping one basis vector at a time, last first), which covers
    every almost nilpotent algebra presented with the nilradical spanned by an
    initial segment of the basis.
    """
    if is_nilpotent(g):
        return full_space(g)
    for drop in range(g.dim - 1, -1, -1):
        basis = [
            [GR_ONE if t == i else GR_ZERO for t in range(g.dim)]
            for i in range(g.dim)
            if i != drop
        ]
        if is_ideal(g, basis) and not _descending_series(g, basis, derived=False)[-1]:
            return basis
    raise ValueError("no codimension-one nilpotent ideal found")
