"""Exterior algebra of left-invariant forms on a fixed basis.

A :class:`Form` is a homogeneous element of the exterior algebra over a
coframe ``f^1, ..., f^dim``: a dict mapping strictly increasing index tuples
to exact coefficients, :class:`~hermlie.scalars.GaussianRational` (ints and
Fractions mix in) or :class:`~hermlie.scalars.Poly` for symbolic families.
The dict never holds a zero, so ``bool(form)`` is "is nonzero": every sum
of coefficients goes through :func:`~hermlie.scalars.add_term`, and
:meth:`Form._of` wraps a dict built that way without checking it again.

A :class:`MonomialMap` is a linear map of forms fixed by the image of each
basis monomial, computed once and cached: :class:`Antiderivation` is d, and
:class:`BasisChange` is a change of coframe.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import combinations
from typing import Sequence

from .scalars import add_term


def merge_sign(a: tuple, b: tuple):
    """Merge two strictly increasing tuples; return (sign, merged) or (0, None)."""
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return 0, None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a)-i entries of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def sort_sign(indices: Sequence[int]):
    """Sort an index tuple; return (sign, sorted_tuple) or (0, None) on repeats."""
    idx = list(indices)
    sign = 1
    # insertion sort, counting swaps
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return 0, None
    return sign, tuple(idx)


class Form:
    __slots__ = ("dim", "degree", "coeffs")

    def __init__(self, dim: int, degree: int, coeffs: Mapping[tuple, object] = ()):
        self.dim = dim
        self.degree = degree
        self.coeffs: dict[tuple, object] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for idx, c in items:
            if not c:
                continue
            sign, key = sort_sign(tuple(idx))
            if sign == 0:
                continue
            if len(key) != degree:
                raise ValueError(f"index tuple {idx} has wrong degree (expected {degree})")
            if key and (key[0] < 1 or key[-1] > dim):
                raise ValueError(f"index out of range in {idx} (dim={dim})")
            add_term(self.coeffs, key, -c if sign == -1 else c)

    # -- constructors --------------------------------------------------
    @classmethod
    def _of(cls, dim: int, degree: int, coeffs: dict) -> "Form":
        """Wrap ``coeffs`` unchecked: its keys must be sorted, in range and of
        length ``degree``, and it must hold no zero."""
        out = object.__new__(cls)
        out.dim = dim
        out.degree = degree
        out.coeffs = coeffs
        return out

    @classmethod
    def zero(cls, dim: int, degree: int) -> "Form":
        return cls._of(dim, degree, {})

    @classmethod
    def basis(cls, dim: int, indices: Sequence[int], coeff=1) -> "Form":
        return cls(dim, len(indices), {tuple(indices): coeff})

    # -- predicates ----------------------------------------------------
    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.dim, self.degree, frozenset(self.coeffs.items())))

    def coeff(self, *indices):
        """Coefficient of the (possibly unsorted) index tuple."""
        sign, key = sort_sign(indices)
        if sign == 0:
            return 0
        c = self.coeffs.get(key, 0)
        return -c if sign == -1 and c else c

    # -- linear structure ---------------------------------------------
    def _check_compatible(self, other: "Form"):
        if self.dim != other.dim or self.degree != other.degree:
            raise ValueError("forms of different dimension or degree")

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        self._check_compatible(other)
        coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            add_term(coeffs, k, c)
        return Form._of(self.dim, self.degree, coeffs)

    def __neg__(self) -> "Form":
        return Form._of(self.dim, self.degree, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self.__add__(-other)

    def __mul__(self, scalar) -> "Form":
        if isinstance(scalar, Form):
            raise TypeError("use wedge() for products of forms")
        if not scalar:
            return Form.zero(self.dim, self.degree)
        return Form._of(self.dim, self.degree,
                        {k: v for k, c in self.coeffs.items() if (v := c * scalar)})

    __rmul__ = __mul__

    # -- multiplicative structure ---------------------------------------
    def wedge(self, other: "Form") -> "Form":
        if self.dim != other.dim:
            raise ValueError("forms over different coframes")
        coeffs: dict[tuple, object] = {}
        for ka, ca in self.coeffs.items():
            for kb, cb in other.coeffs.items():
                sign, key = merge_sign(ka, kb)
                if sign == 0:
                    continue
                term = ca * cb
                add_term(coeffs, key, -term if sign == -1 else term)
        return Form._of(self.dim, self.degree + other.degree, coeffs)

    # -- display --------------------------------------------------------
    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for key in sorted(self.coeffs):
            c = self.coeffs[key]
            label = "f" + "".join(str(i) for i in key) if key else "1"
            parts.append(f"({c!r})*{label}" if key else f"({c!r})")
        return " + ".join(parts)


class MonomialMap:
    """A linear map of forms given by the image of each basis monomial.

    A subclass supplies ``_monomial(dim, key)``.  Each image is computed the
    first time it is needed and kept on the instance, so the cache lives
    exactly as long as the algebra, frame or complexification that owns it.
    """

    shift = 0  # degree of the image minus degree of the argument

    def __init__(self):
        self._images: dict[tuple, Form] = {}

    def __call__(self, form: Form) -> Form:
        coeffs: dict[tuple, object] = {}
        for key, c in form.coeffs.items():
            image = self._images.get(key)
            if image is None:
                image = self._images[key] = self._monomial(form.dim, key)
            for k, x in image.coeffs.items():
                add_term(coeffs, k, x * c)
        return Form._of(form.dim, form.degree + self.shift, coeffs)


class Antiderivation(MonomialMap):
    """The degree-one antiderivation d with ``d f^i = d1[i - 1]`` (2-forms).

    d of a monomial ``f^K`` is expanded by the Leibniz rule into one
    coefficient dict: ``d f^K = sum_t (-1)^t f^{K[:t]} ^ d f^{K[t]} ^
    f^{K[t+1:]}``, and since ``d f^{K[t]}`` has even degree it commutes past
    ``f^{K[t+1:]}``, so the term ``c f^J`` of ``d f^{K[t]}`` adds
    ``(-1)^t * s * c`` at ``merged``, where ``(s, merged) =
    merge_sign(K minus K[t], J)``."""

    shift = 1

    def __init__(self, d1: Sequence[Form]):
        super().__init__()
        self.d1 = d1

    def _monomial(self, dim: int, key: tuple) -> Form:
        coeffs: dict[tuple, object] = {}
        for t, i in enumerate(key):
            rest = key[:t] + key[t + 1:]
            for j, c in self.d1[i - 1].coeffs.items():
                sign, merged = merge_sign(rest, j)
                if sign == 0:
                    continue
                add_term(coeffs, merged, -c if (sign == -1) != (t % 2 == 1) else c)
        return Form._of(dim, len(key) + 1, coeffs)


class BasisChange(MonomialMap):
    """The algebra map ``f^i -> images[i]`` (1-forms), as between the real
    coframe and a complex coframe; indices absent from ``images`` are kept
    as themselves.  A monomial's image is the wedge of its factors' images."""

    def __init__(self, images: Mapping[int, Form]):
        super().__init__()
        self.images = images

    def _monomial(self, dim: int, key: tuple) -> Form:
        out = Form(dim, 0, {(): 1})
        for i in key:
            image = self.images.get(i)
            out = out.wedge(Form.basis(dim, (i,)) if image is None else image)
        return out


def all_index_tuples(dim: int, degree: int):
    return list(combinations(range(1, dim + 1), degree))
