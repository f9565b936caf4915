"""Almost complex structures, integrability, and complex coframes.

Two coordinate worlds coexist here:

* the *real* basis ``f_1..f_6``, in which Lie algebras and J matrices live;
* the *complex* coframe basis, a 6-element indexing of
  ``(alpha^1, alpha^2, alpha^3, conj alpha^1, conj alpha^2, conj alpha^3)``
  as indices 1..6.  A monomial's bidegree (p, q) counts indices <= 3 versus
  indices > 3.

:class:`ComplexFrame` carries complex structure equations directly in the
second world -- the coefficients may be exact Gaussian rationals or symbolic
polynomials -- and provides d, del, dbar.
:class:`Complexification` ties a frame to an actual real Lie algebra with an
integrable J given on it.  The named families of :func:`instantiate_family`
are complex structure equations only, so they are bare frames.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from . import linalg
from .forms import Antiderivation, BasisChange, Form, sort_sign
from .liealg import LieAlgebra, ce_differential
from .scalars import (GR_I, GR_ONE, GR_ZERO, GaussianRational, Poly, PolyRing, _mono_mul,
                      add_term, conj_scalar, im_part, re_part)

HOLO = 3  # indices 1..3 are (1,0), indices 4..6 their conjugates


# ---------------------------------------------------------------------------
# almost complex structures on a real algebra


def squares_to_minus_id(J: Sequence[Sequence]) -> bool:
    """Whether ``J^2 = -Id`` exactly; computes ``J^2`` one entry at a time
    and stops at the first that is not ``-delta_ij``."""
    n = len(J)
    for i, row in enumerate(J):
        for j in range(n):
            acc = sum((row[k] * J[k][j] for k in range(n) if row[k] and J[k][j]), GR_ZERO)
            if GaussianRational.coerce(acc) != (-GR_ONE if i == j else GR_ZERO):
                return False
    return True


def j_from_images(images: Mapping[int, Sequence], dim: int = 6) -> list:
    """Build a J matrix from images of basis vectors, closing under J^2 = -Id.

    ``images[j]`` is the component vector of ``J f_j``; for each given image
    that is itself ``c * f_k`` the inverse image ``J f_k = -(1/c) f_j`` is
    filled in automatically.
    """
    cols: dict[int, list] = {}
    for j, img in images.items():
        if not 1 <= j <= dim:
            raise ValueError(f"no basis vector f{j} in dimension {dim}")
        cols[j] = [GaussianRational.coerce(x) for x in img]
    for j, img in list(cols.items()):
        support = [k for k, x in enumerate(img) if x]
        if len(support) == 1:
            k = support[0] + 1
            if k not in cols:
                inv = img[support[0]].inverse()
                v = [GR_ZERO] * dim
                v[j - 1] = -inv
                cols[k] = v
    if len(cols) != dim:
        raise ValueError("underdetermined J; give images for all basis vectors")
    return [[cols[j + 1][i] for j in range(dim)] for i in range(dim)]


def nijenhuis(g: LieAlgebra, J: Sequence[Sequence]) -> dict:
    """Nijenhuis tensor as {(a, b): component vector of N(f_a, f_b)}, a < b.

    N(X, Y) = [X, Y] + J[JX, Y] + J[X, JY] - [JX, JY], so N(f_a, f_b)^i is
    c^i_ab + sum c^p_qb J_qa J_ip + sum c^p_as J_sb J_ip - sum c^i_qs J_qa J_sb
    over the nonzero c^i_jk of ``g.d1`` (both orders of j, k) and entries of J;
    one loop gives both middle sums, as J[f_a, J f_b] = -J[J f_b, f_a].  Each
    product goes straight into a term dict per component, a scalar entry being
    a constant term: ``GaussianRational`` results for a scalar J, else ``Poly``."""
    n = g.dim
    ring = next((x.ring for row in J for x in row if isinstance(x, Poly)), None)
    terms = [[list(x.terms.items()) if isinstance(x, Poly)
              else [((), GaussianRational.coerce(x))] if x else [] for x in row] for row in J]
    rows = [[(a, t) for a, t in enumerate(row) if t] for row in terms]
    cols = [[(i, terms[i][p]) for i in range(n) if terms[i][p]] for p in range(n)]
    acc = {(a, b): [{} for _ in range(n)] for a in range(n) for b in range(a + 1, n)}

    def add(a, b, i, s, x, y):  # s * x * y into N(f_a, f_b)^i, or -s into N(f_b, f_a)^i
        comp, s = (acc[a, b][i], s) if a < b else (acc[b, a][i], -s)
        for m1, c1 in x:
            c1 = s * c1
            for m2, c2 in y:
                add_term(comp, _mono_mul(m1, m2), c1 * c2)

    for p, df in enumerate(g.d1):
        for (j, k), v in df.coeffs.items():
            c = GaussianRational.coerce(v)  # c^p_jk = -v for j < k
            for q, r, s in ((j - 1, k - 1, -c), (k - 1, j - 1, c)):  # s = c^p_qr
                if q < r:
                    add_term(acc[q, r][p], (), s)  # [f_q, f_r]
                for a, x in rows[q]:
                    for b, y in rows[r]:  # -[J f_a, J f_b]
                        if a < b:
                            add(a, b, p, -s, x, y)
                    if a != r:  # J[J f_a, f_r], and J[f_r, J f_a] = -J[J f_a, f_r]
                        for i, y in cols[p]:
                            add(a, r, i, s, x, y)
    wrap = (lambda d: d.get((), GR_ZERO)) if ring is None else (lambda d: Poly(ring, d))
    return {(a + 1, b + 1): [wrap(d) for d in N] for (a, b), N in acc.items()}


def generic_j_ring(dim: int = 6) -> tuple[PolyRing, list]:
    """A fully generic J matrix with symbolic real entries J11..Jnn."""
    names = [f"J{i}{j}" for i in range(1, dim + 1) for j in range(1, dim + 1)]
    ring = PolyRing(real_vars=names)
    J = [[ring.var(f"J{i}{j}") for j in range(1, dim + 1)] for i in range(1, dim + 1)]
    return ring, J


def is_integrable(g: LieAlgebra, J: Sequence[Sequence]) -> Optional["Complexification"]:
    """The complexification of (g, J) if J^2 = -Id and N = 0, else None.

    N = 0 is cross-checked against d(Lambda^{1,0}) having no (0,2) part, and
    the frame passes the check of :meth:`Complexification.from_real`, so a
    caller builds no second one."""
    if not squares_to_minus_id(J):
        return None
    vanishes = all(not any(v) for v in nijenhuis(g, J).values())
    cx = Complexification(g, J, coframe_from_J(g, J))
    if vanishes != all(not cx.frame.project(cx.frame.d_alpha[k], 0, 2) for k in range(HOLO)):
        raise AssertionError("integrability cross-check failed")
    if vanishes and not cx.frame.integrable():  # d^2 = 0 too, as from_real checks
        raise ValueError("J is not integrable")
    return cx if vanishes else None


def coframe_from_J(g: LieAlgebra, J: Sequence[Sequence]) -> list[Form]:
    """Three independent (1,0)-forms: solutions of a(J X) = i a(X)."""
    n = g.dim
    Jt = [[GaussianRational.coerce(J[j][i]) for j in range(n)] for i in range(n)]
    mat = [[Jt[i][j] - (GR_I if i == j else GR_ZERO) for j in range(n)] for i in range(n)]
    kernel = linalg.nullspace(mat)
    if len(kernel) != n // 2:
        raise ValueError("J does not have the right eigenstructure")
    return [Form(n, 1, {(i + 1,): v[i] for i in range(n)}) for v in kernel]


# ---------------------------------------------------------------------------
# the complex coframe world


def conj_alpha(form: Form) -> Form:
    """Conjugation in the alpha basis: conjugate coefficients, swap k <-> k+3."""
    # the swap permutes the monomials, so each one is written exactly once
    out: dict[tuple, object] = {}
    for key, c in form.coeffs.items():
        mapped = tuple((i + HOLO) if i <= HOLO else (i - HOLO) for i in key)
        sign, sorted_key = sort_sign(mapped)
        out[sorted_key] = conj_scalar(c) if sign == 1 else -conj_scalar(c)
    return Form._of(form.dim, form.degree, out)


def monomial_type(key: tuple) -> tuple[int, int]:
    p = sum(1 for i in key if i <= HOLO)
    return p, len(key) - p


class ComplexFrame:
    """Structure equations of an integrable J in a (1,0)-coframe.

    ``d_alpha[k]`` is d of alpha^{k+1} (k = 0..2) as a 2-form in alpha
    indexing; d of the conjugates follows by conjugation.
    """

    def __init__(self, d10: Sequence[Form]):
        if len(d10) != HOLO:
            raise ValueError("need d of the three (1,0) coframe elements")
        self.d_alpha: list[Form] = list(d10) + [conj_alpha(f) for f in d10]
        self._d = Antiderivation(self.d_alpha)

    def d(self, form: Form) -> Form:
        return self._d(form)

    @staticmethod
    def project(form: Form, p: int, q: int) -> Form:
        """The (p, q) part of ``form``: its monomials of that type."""
        return Form._of(form.dim, form.degree, {
            key: c for key, c in form.coeffs.items() if monomial_type(key) == (p, q)})

    def del_(self, form: Form) -> Form:
        """(p+1, q) part of d of a pure-type form."""
        p, q = self._type_of(form)
        return self.project(self.d(form), p + 1, q)

    def dbar(self, form: Form) -> Form:
        p, q = self._type_of(form)
        return self.project(self.d(form), p, q + 1)

    @staticmethod
    def _type_of(form: Form) -> tuple[int, int]:
        types = {monomial_type(k) for k in form.coeffs}
        if len(types) > 1:
            raise ValueError("form is not of pure type")
        return types.pop() if types else (0, form.degree)

    def integrable(self) -> bool:
        """No (0,2) component in d alpha^k, and d^2 = 0."""
        return not any(self.project(self.d_alpha[k], 0, 2) or self.d(self.d_alpha[k])
                       for k in range(HOLO))


# ---------------------------------------------------------------------------
# tying frames to real algebras


class Complexification:
    """A real algebra with integrable J plus the induced complex coframe.

    Attributes: ``g`` (real :class:`LieAlgebra`), ``J`` (matrix), ``alphas``
    (three (1,0)-forms in the real coframe), ``frame``
    (:class:`ComplexFrame`), plus the change-of-basis maps ``to_alpha`` /
    ``to_real``, each a :class:`~hermlie.forms.BasisChange` that caches the
    image of every monomial it has mapped.
    """

    def __init__(self, g: LieAlgebra, J, alphas: Sequence[Form]):
        self.g = g
        self.J = J
        self.alphas = list(alphas)
        n = g.dim
        rows = [[a.coeff(i) for i in range(1, n + 1)] for a in alphas]
        rows += [[conj_scalar(GaussianRational.coerce(x)) for x in r] for r in rows]
        M = linalg.coerce_matrix(rows)        # alpha = M . f
        Minv = linalg.inverse(M)              # f = Minv . alpha
        self._to_alpha = BasisChange({
            i + 1: Form(n, 1, {(k + 1,): Minv[i][k] for k in range(n)}) for i in range(n)
        })
        self._to_real = BasisChange({
            k + 1: Form(n, 1, {(i + 1,): M[k][i] for i in range(n)}) for k in range(n)
        })
        self._lee = None  # (omega, theta) of the last herm.lee_form call
        d10 = [self.to_alpha(ce_differential(g, a)) for a in self.alphas]
        self.frame = ComplexFrame(d10)

    def to_alpha(self, form: Form) -> Form:
        return self._to_alpha(form)

    def to_real(self, form: Form) -> Form:
        return self._to_real(form)

    @classmethod
    def from_real(cls, g: LieAlgebra, J) -> "Complexification":
        """The complexification of (g, J); ValueError unless it is integrable."""
        cx = cls(g, J, coframe_from_J(g, J))
        if not cx.frame.integrable():
            raise ValueError("J is not integrable")
        return cx


def standard_j(dim: int = 6) -> list:
    """J e_{2k-1} = e_{2k}."""
    J = [[GR_ZERO] * dim for _ in range(dim)]
    for k in range(dim // 2):
        J[2 * k + 1][2 * k] = GR_ONE
        J[2 * k][2 * k + 1] = -GR_ONE
    return J


# ---------------------------------------------------------------------------
# families of complex structure equations

def _two(idx, coeff=1):
    """2-form c * alpha^{idx[0]} ^ alpha^{idx[1]} in alpha indexing."""
    return Form(6, 2, {tuple(idx): coeff})


def _alpha_k_wedge_re3(k: int, coeff=1) -> Form:
    """coeff * alpha^k ^ (alpha^3 - conj alpha^3)."""
    return _two((k, 3), coeff) - _two((k, 6), coeff)


def _alpha_k_wedge_re1(k: int, coeff=1) -> Form:
    """coeff * alpha^k ^ (alpha^1 - conj alpha^1)."""
    return _two((k, 1), coeff) - _two((k, 4), coeff)


def _unit_circle(params: dict):
    """params['c'], standing for e^{i theta}: a symbolic Poly, or an exact
    value that must lie on the unit circle."""
    c = params["c"]
    if isinstance(c, Poly):
        return c
    c = GaussianRational.coerce(c)
    if c * c.conj() != GR_ONE:
        raise ValueError("c must lie on the unit circle")
    return c


def _heis_family(family_id: str, params: dict) -> list[Form]:
    """Complex equations for the Heisenberg-type families (nilradical h3 + R^2)."""
    p = params
    if family_id == "HT-h3+s3.3^0":
        eps = p["eps"]
        return [_two((3, 6), GR_I * eps), -_alpha_k_wedge_re1(2), Form.zero(6, 2)]
    if family_id == "HT-s4.7+R2":
        eps = p["eps"]
        return [_two((2, 5), GR_I * eps), -_alpha_k_wedge_re1(2), Form.zero(6, 2)]
    if family_id == "HT-s6.44":
        eps = p["eps"]
        d2 = -_alpha_k_wedge_re1(2) - _alpha_k_wedge_re1(3, GR_I)
        return [_two((3, 6), GR_I * eps), d2, -_alpha_k_wedge_re1(3)]
    if family_id == "HT-s6.52":
        delta, eps, q = p["delta"], p["eps"], p["q"]
        return [
            _two((2, 5), GR_I * delta),
            -_alpha_k_wedge_re1(2),
            -_alpha_k_wedge_re1(3, eps * q),
        ]
    if family_id == "HT-s6.159":
        delta, eps = p["delta"], p["eps"]
        return [
            _two((2, 5), GR_I * delta) + _two((3, 6), GR_I * eps),
            -_alpha_k_wedge_re1(2),
            Form.zero(6, 2),
        ]
    if family_id == "HT-s6.162^1":
        return [
            _two((2, 6)) - _two((3, 5)),
            -_alpha_k_wedge_re1(2, GR_I),
            _alpha_k_wedge_re1(3, GR_I),
        ]
    if family_id == "HT-s6.165":
        pp = p["p"]
        return [
            _two((2, 6)) - _two((3, 5)),
            -_alpha_k_wedge_re1(2, 1 + GR_I * pp),
            -_alpha_k_wedge_re1(3, 1 - GR_I * pp),
        ]
    if family_id == "HT-s6.166":
        delta, eps, pp = p["delta"], p["eps"], p["p"]
        return [
            _two((2, 5), GR_I * delta) + _two((3, 6), GR_I * (eps * delta)),
            -_alpha_k_wedge_re1(2),
            -_alpha_k_wedge_re1(3, eps * pp),
        ]
    if family_id == "HT-s6.167":
        eps, x = p["eps"], p["x"]
        d2 = -_alpha_k_wedge_re1(2) - _alpha_k_wedge_re1(3, GR_I)
        return [
            _two((2, 6), eps) - _two((3, 5), eps) + _two((3, 6), GR_I * x),
            d2,
            -_alpha_k_wedge_re1(3),
        ]
    raise KeyError(family_id)


def _aa_family(family_id: str, params: dict) -> list[Form]:
    """Complex equations for the almost abelian families.

    All carry inhomogeneous z (or z1, z2) alpha^{1 conj1} terms; the metric
    is restricted to the w2 = w3 = 0 shape for these.
    """
    p = params
    i = GR_I

    def a11(c):
        return _two((1, 4), c)

    def d_scaled(k, c, z):
        """c * alpha^k ^ (alpha^1 - conj alpha^1) + z alpha^{1 conj 1}."""
        return _alpha_k_wedge_re1(k, c) + a11(z)

    if family_id == "AA-s3.3^0+R3":
        return [Form.zero(6, 2), d_scaled(2, -i, p["z"]), Form.zero(6, 2)]
    if family_id == "AA-s4.3+R2":
        return [a11(i), d_scaled(2, i * GaussianRational("1/2"), p["z1"]), a11(p["z2"])]
    if family_id == "AA-s4.5+R2":
        pp = p["p"]
        return [
            a11(i * pp),
            d_scaled(2, -(1 + i * GaussianRational("1/2") * pp), p["z1"]),
            a11(p["z2"]),
        ]
    if family_id == "AA-s5.4^0+R":
        return [Form.zero(6, 2), d_scaled(2, -1, p["z1"]), a11(p["z2"])]
    if family_id == "AA-s5.8^0+R":
        d2 = -_alpha_k_wedge_re1(2) - _alpha_k_wedge_re1(3, i) + a11(p["z1"])
        return [Form.zero(6, 2), d2, d_scaled(3, -1, p["z2"])]
    if family_id == "AA-s5.9+R":
        return [Form.zero(6, 2), d_scaled(2, -1, p["z1"]), d_scaled(3, i, p["z2"])]
    if family_id == "AA-s5.11+R":
        pp = p["p"]
        return [
            Form.zero(6, 2),
            d_scaled(2, -i * pp, p["z1"]),
            d_scaled(3, -1 + i * pp, p["z2"]),
        ]
    if family_id == "AA-s5.13+R":
        pp, r, eps = p["p"], p["r"], p["eps"]
        return [
            Form.zero(6, 2),
            d_scaled(2, -(1 + i * pp), p["z1"]),
            d_scaled(3, -eps * r + i * pp, p["z2"]),
        ]
    if family_id == "AA-s6.14":
        q = GaussianRational("1/4")
        d2 = (
            _alpha_k_wedge_re1(2, i * q)
            - _alpha_k_wedge_re1(3, i)
            + a11(p["z1"])
        )
        return [a11(i), d2, d_scaled(3, i * q, p["z2"])]
    if family_id == "AA-s6.16":
        pp = p["p"]
        d2 = (
            -_alpha_k_wedge_re1(2, i * (pp - i))
            - _alpha_k_wedge_re1(3, i)
            + a11(p["z1"])
        )
        return [a11(-4 * i * pp), d2, d_scaled(3, -(1 + i * pp), p["z2"])]
    if family_id == "AA-s6.17":
        q = p["q"]
        return [
            a11(-2 * i * (1 + q)),
            d_scaled(2, -i, p["z1"]),
            d_scaled(3, -i * q, p["z2"]),
        ]
    if family_id == "AA-s6.18":
        return [
            a11(i),
            d_scaled(2, -i, p["z1"]),
            d_scaled(3, GaussianRational("3/2") * i, p["z2"]),
        ]
    if family_id == "AA-s6.19":
        pp, q = p["p"], p["q"]
        return [
            a11(i * q),
            d_scaled(2, -i * pp, p["z1"]),
            d_scaled(3, i * (pp + q * GaussianRational("1/2")) - 1, p["z2"]),
        ]
    if family_id == "AA-s6.20":
        pp = p["p"]
        return [
            a11(i * pp),
            d_scaled(2, -i * pp, p["z1"]),
            d_scaled(3, -(1 + GaussianRational("3/2") * i * pp), p["z2"]),
        ]
    if family_id == "AA-s6.21":
        pp, q, r, eps = p["p"], p["q"], p["r"], p["eps"]
        return [
            a11(-2 * i * (pp + q)),
            d_scaled(2, -(eps + i * pp), p["z1"]),
            d_scaled(3, -(r + i * q), p["z2"]),
        ]
    raise KeyError(family_id)


def _n5_family(family_id: str, params: dict) -> list[Form]:
    """Complex equations on the algebras with five-dimensional nilradical
    n5.1 / n5.2 and first Betti number two of the nilradical."""
    p = params
    i = GR_I
    half = GaussianRational("1/2")
    if family_id in ("N51-145", "N51-147-a"):
        nu = p["nu"]
        if family_id == "N51-145":
            c = _unit_circle(p)
            c23, c23b = c, conj_scalar(c)
        else:
            z = p["z"]
            c23, c23b = 1 + z, 1 - z
        d1 = (
            _alpha_k_wedge_re3(1)
            + _two((2, 3), c23)
            + _two((2, 6), c23b)
            + _two((3, 6), nu)
        )
        return [d1, _alpha_k_wedge_re3(2), Form.zero(6, 2)]
    if family_id in ("N51-147-b", "N51-147-c"):
        zc = p["z"] if family_id == "N51-147-b" else p["x"]
        d1 = (
            _alpha_k_wedge_re3(1)
            + _alpha_k_wedge_re3(2, zc)
            - _two((3, 5))
        )
        if family_id == "N51-147-b":
            d1 = d1 + _two((3, 6))
        return [d1, -_alpha_k_wedge_re3(2), Form.zero(6, 2)]
    if family_id == "N52-152-a":
        z1, z2, delta = p["z1"], p["z2"], p["delta"]
        rez2 = re_part(z2)
        d1 = (
            _two((1, 2))
            + _two((1, 3), -rez2)
            - _two((1, 5))
            + _two((1, 6), rez2)
            + _two((2, 3), z1)
            + _two((2, 5), z2)
            + _two((2, 6), -(rez2 * z2 + i * delta))
            + _two((3, 5), z1 - rez2 * z2)
            + _two((3, 6), rez2 * rez2 * z2 - rez2 * z1 + i * half * delta * conj_scalar(z2))
        )
        d2 = (
            _two((2, 3), rez2)
            + _two((3, 5), rez2)
            - _two((3, 6), rez2 * rez2 + i * half * delta)
        )
        d3 = _two((2, 3)) + _two((3, 5)) - _two((3, 6), rez2)
        return [d1, d2, d3]
    if family_id in ("N52-152-b", "N52-154"):
        # Shared coefficient shape; for the z2-parameterized branch the slots
        # are X = delta * Im(z2) (real) and Y = z2 (complex), while the
        # (z, x, y) branch takes X = x, Y = y real with x != 0.
        if family_id == "N52-152-b":
            z, delta = p["z1"], p["delta"]
            X = delta * im_part(p["z2"])
            Y = p["z2"]
        else:
            z, X, Y = p["z"], p["x"], p["y"]
        rez, imz = re_part(z), im_part(z)
        X2 = X * X
        inv2X2 = _inv(2 * X2)
        c23 = inv2X2 * (z * conj_scalar(z) - X * (Y + i))
        c22b = _inv(X2) * z
        c23b = -(_inv(X2) * rez * z)
        c32b = -(inv2X2 * (z * z + X * (Y - i)))
        c33b = inv2X2 * (rez * z * z + X * Y * rez - X * imz)
        d1 = (
            _two((1, 2))
            + _two((1, 3), -rez)
            - _two((1, 5))
            + _two((1, 6), rez)
            + _two((2, 3), c23)
            + _two((2, 5), c22b)
            + _two((2, 6), c23b)
            + _two((3, 5), c32b)
            + _two((3, 6), c33b)
        )
        d2 = (
            _two((2, 3), -rez)
            - _two((3, 5), rez)
            + _two((3, 6), rez * rez + i * half * X)
        )
        d3 = -_two((2, 3)) - _two((3, 5)) + _two((3, 6), rez)
        return [d1, d2, d3]
    raise KeyError(family_id)


def _inv(z) -> GaussianRational:
    return GaussianRational.coerce(z).inverse()


def instantiate_family(family_id: str, params: Optional[Mapping] = None) -> ComplexFrame:
    """Complex structure equations of a named family at parameter values.

    Parameter values may be exact (int/Fraction/GaussianRational) or
    symbolic (:class:`~hermlie.scalars.Poly`); a parameter that a family
    divides by must be exact.
    """
    params = dict(params or {})
    if family_id.startswith("AA-"):
        d10 = _aa_family(family_id, params)
    elif family_id.startswith("HT-"):
        d10 = _heis_family(family_id, params)
    elif family_id.startswith("N5"):
        d10 = _n5_family(family_id, params)
    else:
        raise KeyError(f"unknown family {family_id!r}")
    return ComplexFrame(d10)
