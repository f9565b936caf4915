"""Exact scalar types used throughout the package.

Two exact coefficient rings:

* :class:`GaussianRational` -- complex numbers with rational real and
  imaginary part.  A field, so exact Gaussian elimination works.  A value is
  stored as three ints, (a + b*i)/d with d > 0 and gcd(a, b, d) = 1, so every
  value has exactly one representation; each operation works on the ints and
  reduces once, by a single gcd.
* :class:`Poly` -- sparse multivariate polynomials over the Gaussian
  rationals, with built-in complex conjugation.  Variables are declared on a
  :class:`PolyRing` either as *real* (fixed by conjugation, e.g. metric
  coefficients ``lambda1`` or a real family parameter) or as *complex*, in
  which case a partner variable holding the conjugate is created
  automatically.

Both store exact coefficients in sparse dicts that never hold a zero: a
:class:`Poly`'s terms and a :class:`~hermlie.forms.Form`'s coefficients.
:func:`add_term` is the one place that adds into such a dict and drops a
zero sum.

Mixed arithmetic coerces upward: ``int``/``Fraction`` -> ``GaussianRational``
-> ``Poly``.  A Python float or complex never mixes with them: the operation
raises ``TypeError``, so an exact value cannot silently become a float.  The
numeric code converts with ``complex(x)`` at its own boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

Rational = Union[int, Fraction]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


_new = object.__new__


def _make(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b*i)/d for d > 0, reduced to lowest terms, without ``__init__``."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    x = _new(GaussianRational)
    x._a = a
    x._b = b
    x._d = d
    return x


def _reduced(a: int, b: int, d: int) -> "GaussianRational":
    """Like :func:`_make` for a triple already in lowest terms."""
    x = _new(GaussianRational)
    x._a = a
    x._b = b
    x._d = d
    return x


def add_term(coeffs: dict, key, term) -> None:
    """Add ``term`` at ``key`` of the sparse ``coeffs``; drop the key if the
    sum is zero, so ``coeffs`` never holds a zero."""
    s = coeffs.get(key)
    if s is not None:
        term = s + term
    if term:
        coeffs[key] = term
    else:
        coeffs.pop(key, None)


def _power(base, n: int, one):
    """``base ** n`` by square-and-multiply from ``one``, squaring only below the top bit."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("only nonnegative integer powers")
    out = one
    while True:
        if n & 1:
            out = out * base
        n >>= 1
        if not n:
            return out
        base = base * base


class GaussianRational:
    """a + b*i with a, b rational, stored as (a + b*i)/d over ints."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re = _as_fraction(re)
        im = _as_fraction(im)
        d = lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- constructors -------------------------------------------------
    @classmethod
    def coerce(cls, x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if type(x) is int:
            return _reduced(x, 0, 1)
        if isinstance(x, (int, Fraction, str)):
            return cls(x)
        raise TypeError(f"cannot coerce {x!r} to GaussianRational")

    # -- predicates ---------------------------------------------------
    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def is_real(self) -> bool:
        return self._b == 0

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if isinstance(other, GaussianRational):
            d, e = self._d, other._d
            if d == e:
                return _make(self._a + other._a, self._b + other._b, d)
            return _make(self._a * e + other._a * d, self._b * e + other._b * d, d * e)
        if isinstance(other, int):
            return _reduced(self._a + other * self._d, self._b, self._d)
        if isinstance(other, Fraction):
            q = other.denominator
            return _make(self._a * q + other.numerator * self._d, self._b * q, self._d * q)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            d, e = self._d, other._d
            if d == e:
                return _make(self._a - other._a, self._b - other._b, d)
            return _make(self._a * e - other._a * d, self._b * e - other._b * d, d * e)
        if isinstance(other, (int, Fraction)):
            return self.__add__(-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            a, b, c, e = self._a, self._b, other._a, other._b
            return _make(a * c - b * e, a * e + b * c, self._d * other._d)
        if isinstance(other, int):
            return _make(self._a * other, self._b * other, self._d)
        if isinstance(other, Fraction):
            p = other.numerator
            return _make(self._a * p, self._b * p, self._d * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _make(a * d, -b * d, n)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if isinstance(other, GaussianRational):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other) * self.inverse()
        return NotImplemented

    def __pow__(self, n: int):
        return _power(self, n, GaussianRational(1))

    def conj(self) -> "GaussianRational":
        return _reduced(self._a, -self._b, self._d)

    # -- conversions / comparisons ------------------------------------
    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (self._b == 0 and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        if not self._b:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{abs(im)}*i)"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials


class PolyRing:
    """Polynomial ring over the Gaussian rationals with conjugation.

    ``real_vars`` are fixed by conjugation.  Every name in ``complex_vars``
    gets a companion variable ``name + "~"`` representing its complex
    conjugate; conjugating a polynomial swaps the pair and conjugates the
    coefficients.
    """

    def __init__(self, real_vars: Iterable[str] = (), complex_vars: Iterable[str] = ()):
        self.names: list[str] = []
        self.conj_index: list[int] = []
        self._index: dict[str, int] = {}
        for name in real_vars:
            self._add(name, real=True)
        for name in complex_vars:
            self._add(name, real=False)

    def _add(self, name: str, real: bool):
        if name in self._index:
            raise ValueError(f"duplicate variable {name!r}")
        idx = len(self.names)
        self.names.append(name)
        self._index[name] = idx
        if real:
            self.conj_index.append(idx)
        else:
            cname = name + "~"
            if cname in self._index:
                raise ValueError(f"duplicate variable {cname!r}")
            cidx = idx + 1
            self.names.append(cname)
            self._index[cname] = cidx
            self.conj_index.append(cidx)
            self.conj_index.append(idx)

    # -- element constructors ----------------------------------------
    def var(self, name: str) -> "Poly":
        idx = self._index[name]
        return Poly(self, {((idx, 1),): GR_ONE})

    def constant(self, c) -> "Poly":
        c = GaussianRational.coerce(c)
        return Poly(self, {(): c} if c else {})

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.constant(1)

    def coerce(self, x) -> "Poly":
        if isinstance(x, Poly):
            if x.ring is not self:
                raise ValueError("polynomial from a different ring")
            return x
        return self.constant(GaussianRational.coerce(x))


Monomial = tuple  # tuple of (var_index, exponent) pairs, sorted by var_index


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for idx, e in b:
        d[idx] = d.get(idx, 0) + e
    return tuple(sorted(d.items()))


class Poly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict[Monomial, GaussianRational]):
        # ``terms`` holds no zero: sums go through add_term, and the other
        # operations send nonzero coefficients to nonzero ones
        self.ring = ring
        self.terms = terms

    # -- predicates ----------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms.get((), GR_ZERO)

    # -- arithmetic ----------------------------------------------------
    def _coerce_other(self, other):
        if isinstance(other, Poly):
            if other.ring is not self.ring:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.ring.constant(GaussianRational.coerce(other))
        return None

    def __add__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in o.terms.items():
            add_term(terms, m, c)
        return Poly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                add_term(terms, _mono_mul(m1, m2), c1 * c2)
        return Poly(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, self.ring.one())

    def conj(self) -> "Poly":
        # conjugation permutes the variables, so monomials map one to one
        ci = self.ring.conj_index
        return Poly(self.ring, {tuple(sorted((ci[idx], e) for idx, e in m)): c.conj()
                                for m, c in self.terms.items()})

    # -- substitution --------------------------------------------------
    def substitute(self, values: Mapping[str, object]) -> "Poly":
        """Substitute polynomials/constants for variables (by name).

        Substituting for a complex variable does *not* automatically
        substitute for its conjugate partner; pass both explicitly.
        """
        idx_values: dict[int, Poly] = {}
        for name, v in values.items():
            idx_values[self.ring._index[name]] = self.ring.coerce(v)
        terms: dict = {}
        for m, c in self.terms.items():
            term = self.ring.constant(c)
            for idx, e in m:
                if idx in idx_values:
                    term = term * idx_values[idx] ** e
                else:
                    term = term * Poly(self.ring, {((idx, e),): GR_ONE})
            for k, x in term.terms.items():
                add_term(terms, k, x)
        return Poly(self.ring, terms)

    def evaluate(self, values: Mapping[str, object]) -> GaussianRational:
        """Fully evaluate; ``values`` must cover every variable that occurs."""
        return self.substitute(values).constant_value()

    def variables(self) -> set:
        return {self.ring.names[idx] for m in self.terms for idx, _ in m}

    # -- comparisons / display ----------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = self.ring.constant(GaussianRational.coerce(other))
        if isinstance(other, Poly):
            return self.ring is other.ring and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (sum(e for _, e in m), m)):
            c = self.terms[m]
            factors = "*".join(
                f"{self.ring.names[idx]}^{e}" if e > 1 else self.ring.names[idx]
                for idx, e in m
            )
            if not factors:
                parts.append(repr(c))
            elif c == GR_ONE:
                parts.append(factors)
            else:
                parts.append(f"{c!r}*{factors}")
        return " + ".join(parts)


def conj_scalar(s):
    """Complex conjugation dispatch for every supported scalar type."""
    if isinstance(s, (GaussianRational, Poly)):
        return s.conj()
    if isinstance(s, (int, Fraction)):
        return s
    raise TypeError(f"cannot conjugate {type(s).__name__}")


def re_part(x):
    """Real part (x + conj x)/2 of an exact scalar or a polynomial."""
    return (x + conj_scalar(x)) * GaussianRational(Fraction(1, 2))


def im_part(x):
    """Imaginary part (x - conj x)/(2i) of an exact scalar or a polynomial."""
    return (x - conj_scalar(x)) * GaussianRational(0, Fraction(-1, 2))
