"""Hermitian metrics and the special-structure checkers.

All checkers work on a :class:`~hermlie.cpx.Complexification` (real algebra +
integrable J + complex coframe) and a fundamental form given in the complex
coframe basis.  The fundamental form of a metric with diagonal coefficients
``lambda1..lambda3`` and off-diagonal ``w1..w3`` is

    omega = i(l1 a^{1 conj1} + l2 a^{2 conj2} + l3 a^{3 conj3})
            + w1 a^{2 conj3} - conj(w1) a^{3 conj2}
            + w2 a^{1 conj3} - conj(w2) a^{3 conj1}
            + w3 a^{1 conj2} - conj(w3) a^{2 conj1}

and is positive iff the associated 3x3 Hermitian matrix is positive definite.

Conventions: the torsion 3-form is ``H = d^c omega = i (dbar - del) omega``,
which agrees with ``d^c omega (X,Y,Z) = -d omega (JX, JY, JZ)``; the Lee form
``theta`` is the unique 1-form with ``d omega^2 = theta ^ omega^2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import linalg
from .cpx import HOLO, Complexification, ComplexFrame, monomial_type
from .forms import Form, all_index_tuples
from .liealg import ce_differential
from .scalars import GR_I, GR_ONE, GR_ZERO, GaussianRational, conj_scalar

# index helper: a^{j conjk} lives at (j, k+3) in the complex coframe basis


def _bar(k: int) -> int:
    return k + HOLO


@dataclass
class HermitianMetric:
    """Metric coefficients relative to a fixed (1,0)-coframe."""

    lams: Sequence  # three real scalars
    ws: Sequence    # three complex scalars


def fundamental_form(metric: HermitianMetric) -> Form:
    l1, l2, l3 = metric.lams
    w1, w2, w3 = metric.ws
    i = GR_I
    return Form(6, 2, {
        (1, _bar(1)): i * l1,
        (2, _bar(2)): i * l2,
        (3, _bar(3)): i * l3,
        (2, _bar(3)): w1,
        (3, _bar(2)): -conj_scalar(w1),
        (1, _bar(3)): w2,
        (3, _bar(1)): -conj_scalar(w2),
        (1, _bar(2)): w3,
        (2, _bar(1)): -conj_scalar(w3),
    })


def metric_from_alpha_form(omega: Form) -> HermitianMetric:
    """Read the coefficient data off a (1,1)-form in the complex coframe."""
    i_inv = -GR_I

    def g(j, k):
        return GaussianRational.coerce(omega.coeff(j, _bar(k)))

    lams = [i_inv * g(k, k) for k in (1, 2, 3)]
    return HermitianMetric(lams, [g(2, 3), g(1, 3), g(1, 2)])


def is_positive(metric: HermitianMetric) -> bool:
    """Exact positivity of the associated Hermitian matrix (leading minors)."""
    l1, l2, l3 = (GaussianRational.coerce(l) for l in metric.lams)
    w1, w2, w3 = (GaussianRational.coerce(w) for w in metric.ws)
    for l in (l1, l2, l3):
        if l.im:
            raise ValueError("diagonal coefficients must be real")

    def norm(w):
        return (w * w.conj()).re

    c1 = l1.re > 0
    c2 = l1.re * l2.re > norm(w3)
    c3 = l2.re * l3.re > norm(w1)
    c4 = l1.re * l3.re > norm(w2)
    cross = (GR_I * w1.conj() * w2 * w3.conj()).re
    c5 = (l1.re * l2.re * l3.re + 2 * cross
          > l1.re * norm(w1) + l2.re * norm(w2) + l3.re * norm(w3))
    return bool(c1 and c2 and c3 and c4 and c5)


def is_positive_form(omega: Form) -> bool:
    """Exact positivity of a real 2-form given in the complex coframe: it is
    of type (1,1), i.e. J-invariant, and its Hermitian matrix is positive."""
    if any(monomial_type(key) != (1, 1) for key in omega.coeffs):
        return False
    return is_positive(metric_from_alpha_form(omega))


# ---------------------------------------------------------------------------
# derived quantities


def torsion_H(frame: ComplexFrame, omega: Form) -> Form:
    """H = d^c omega = i (dbar - del) omega for a (1,1)-form omega."""
    d = frame.d(omega)
    del_part = frame.project(d, 2, 1)
    dbar_part = frame.project(d, 1, 2)
    return (dbar_part - del_part) * GR_I


def lee_form(cx: Complexification, omega: Form) -> Form:
    """Unique real 1-form theta with d omega^2 = theta ^ omega^2.

    omega is given in the complex coframe and theta is returned in the real
    one.  The system is solved in the complex coframe, where omega^2 is of
    type (2,2): the six columns alpha^i ^ omega^2 fill the (3,2) and (2,3)
    monomials, three each, and only theta is mapped to the real coframe.
    The last (omega, theta) pair is kept on ``cx``, so ``check_lck`` reuses
    the theta ``check_lcb`` solved for; it is served only while omega
    equals the copy taken when theta was solved, so an omega mutated in
    place since is solved again.
    """
    if cx._lee is not None and cx._lee[0] == omega:
        return cx._lee[1]
    n = omega.dim
    om2 = omega.wedge(omega)
    cols = [Form.basis(n, (i,)).wedge(om2) for i in range(1, n + 1)]
    sol = linalg.solve(*_system(cols, cx.frame.d(om2)))
    if sol is None:
        raise ValueError("omega^2 is degenerate; no Lee form")
    theta = cx.to_real(Form(n, 1, {(i + 1,): sol[i] for i in range(n)}))
    cx._lee = (Form(omega.dim, omega.degree, omega.coeffs), theta)
    return theta


def _system(cols: Sequence[Form], target: Form) -> tuple[list, list]:
    """Matrix and right-hand side of ``sum_j x_j cols[j] = target``, one row
    per monomial that occurs in a column or in the target."""
    keys = sorted({k for c in cols for k in c.coeffs} | set(target.coeffs))
    mat = [[c.coeffs.get(k, GR_ZERO) for c in cols] for k in keys]
    rhs = [target.coeffs.get(k, GR_ZERO) for k in keys]
    return mat, rhs


def closed_one_forms(cx: Complexification) -> list[Form]:
    """Basis of closed real 1-forms on the algebra, solved once per algebra."""
    g = cx.g
    if g._closed_one_forms is None:
        rows = [
            [GaussianRational.coerce(g.d1[i].coeffs.get(key, GR_ZERO)) for i in range(g.dim)]
            for key in all_index_tuples(g.dim, 2)
        ]
        kernel = linalg.nullspace(rows, ncols=g.dim)
        g._closed_one_forms = [
            Form(g.dim, 1, {(i + 1,): v[i] for i in range(g.dim)}) for v in kernel
        ]
    return list(g._closed_one_forms)


# ---------------------------------------------------------------------------
# condition reports


@dataclass
class ConditionReport:
    condition: str
    holds: bool
    certificate: dict = field(default_factory=dict)
    notes: str = ""

    def __bool__(self):
        return self.holds


def check_kahler(cx: Complexification, omega: Form) -> ConditionReport:
    d = cx.frame.d(omega)
    return ConditionReport("kahler", not d,
                           certificate={} if d else {"d_omega": "0"})


def check_skt(cx: Complexification, omega: Form) -> ConditionReport:
    H = torsion_H(cx.frame, omega)
    dH = cx.frame.d(H)
    return ConditionReport("skt", not dH,
                           certificate={"H_zero": not H})


def check_balanced(cx: Complexification, omega: Form) -> ConditionReport:
    om2 = omega.wedge(omega)
    return ConditionReport("balanced", not cx.frame.d(om2))


def check_lcb(cx: Complexification, omega: Form) -> ConditionReport:
    theta = lee_form(cx, omega)
    dtheta = ce_differential(cx.g, theta)
    return ConditionReport("lcb", not dtheta,
                           certificate={"lee_form": repr(theta)})


def check_lck(cx: Complexification, omega: Form) -> ConditionReport:
    """d omega = (1/2) theta ^ omega with theta the (closed) Lee form.

    Cross-checked against the formulation "exists a closed 1-form mu with
    d omega = mu ^ omega" (solved exactly); the two must agree.
    """
    theta = lee_form(cx, omega)
    om_real = cx.to_real(omega)
    dom = ce_differential(cx.g, om_real)
    resid = dom - theta.wedge(om_real) * Fraction(1, 2)
    primary = (not resid) and (not ce_differential(cx.g, theta))

    # variant: solve d omega = mu ^ omega over closed 1-forms
    cols = [mu.wedge(om_real) for mu in closed_one_forms(cx)]
    variant = linalg.solve(*_system(cols, dom)) is not None
    if primary != variant:
        raise AssertionError("LCK formulations disagree on this structure")
    cert = {"lee_form": repr(theta)} if primary else {}
    return ConditionReport("lck", primary, certificate=cert)


def check_lcskt(cx: Complexification, omega: Form) -> ConditionReport:
    """Exists a closed nonzero real 1-form mu with dH = mu ^ H."""
    H = torsion_H(cx.frame, omega)
    H_real = cx.to_real(H)
    if not H_real:
        closed = closed_one_forms(cx)
        mu = next((m for m in closed if m), None)
        return ConditionReport(
            "lcskt", mu is not None,
            certificate={"mu": repr(mu), "torsion_free": True},
            notes="H = 0: twisted condition is vacuous; separate torsion-free verdict",
        )
    dH = ce_differential(cx.g, H_real)
    closed = closed_one_forms(cx)
    mat, rhs = _system([mu.wedge(H_real) for mu in closed], dH)
    if dH:
        sol = linalg.solve(mat, rhs)
        if sol is None:
            return ConditionReport("lcskt", False)
        mu = _combine(closed, sol)
        return ConditionReport("lcskt", True, certificate={"mu": repr(mu)})
    # dH = 0 (SKT): need a nonzero closed mu with mu ^ H = 0
    kernel = linalg.nullspace(mat, ncols=len(closed)) if closed else []
    for v in kernel:
        if any(v):
            mu = _combine(closed, v)
            return ConditionReport("lcskt", True,
                                   certificate={"mu": repr(mu), "skt": True})
    return ConditionReport("lcskt", False, certificate={"skt": True})


def _combine(forms: Sequence[Form], coeffs: Sequence) -> Form:
    out = Form.zero(forms[0].dim, forms[0].degree) if forms else None
    for f, c in zip(forms, coeffs):
        if c:
            out = out + f * c
    return out


def verify_twisted_certificate(cx: Complexification, omega: Form, mu: Form) -> bool:
    """Does the given closed mu satisfy dH = mu ^ H (mu in the real basis)?"""
    if ce_differential(cx.g, mu):
        return False
    H_real = cx.to_real(torsion_H(cx.frame, omega))
    return ce_differential(cx.g, H_real) == mu.wedge(H_real)


def first_gauduchon_coefficient(frame: ComplexFrame, omega: Form):
    """Coefficient of a^{1 conj1 2 conj2 3 conj3} in (del dbar omega) ^ omega."""
    ddbar = frame.project(frame.d(frame.project(frame.d(omega), 1, 2)), 2, 2)
    return ddbar.wedge(omega).coeff(1, 4, 2, 5, 3, 6)


def check_first_gauduchon(cx: Complexification, omega: Form) -> ConditionReport:
    # the certificate is the coefficient of a^{123 conj1 conj2 conj3}, which is
    # minus that of a^{1 conj1 2 conj2 3 conj3}
    c = -first_gauduchon_coefficient(cx.frame, omega)
    return ConditionReport("first_gauduchon", not c,
                           certificate={"top_coefficient": repr(c)})


def strongly_gauduchon_columns(frame: ComplexFrame) -> list[Form]:
    """dbar beta for the (3,1)-forms beta = a^{123 conjk}: strongly Gauduchon
    asks for a combination equal to del omega^2."""
    return [frame.dbar(Form(6, 4, {(1, 2, 3, _bar(k)): GR_ONE})) for k in (1, 2, 3)]


def tamed_columns(frame: ComplexFrame) -> list[Form]:
    """d beta for the (2,0)-forms beta = a^{12}, a^{13}, a^{23}: tamed asks
    for a combination whose (2,1) part dbar beta is del omega and whose (3,0)
    part del beta vanishes; the two parts sit on disjoint monomials."""
    cols = []
    for key in ((1, 2), (1, 3), (2, 3)):
        db = frame.d(Form(6, 2, {key: GR_ONE}))
        cols.append(frame.project(db, 2, 1) + frame.project(db, 3, 0))
    return cols


def check_strongly_gauduchon(cx: Complexification, omega: Form) -> ConditionReport:
    """del(omega^2) is dbar-exact: solve dbar beta = del omega^2 with beta a
    (3,1)-form."""
    frame = cx.frame
    target = frame.project(frame.d(omega.wedge(omega)), 3, 2)
    sol = linalg.solve(*_system(strongly_gauduchon_columns(frame), target))
    cert = {}
    if sol is not None:
        cert = {"beta_coefficients": [repr(c) for c in sol]}
    return ConditionReport("strongly_gauduchon", sol is not None, certificate=cert)


def check_tamed(cx: Complexification, omega: Form) -> ConditionReport:
    """Exists a del-closed (2,0)-form beta with del omega = dbar beta.

    Solvability of this system is the obstruction used for taming symplectic
    forms; it is meaningful alongside an SKT metric, noted in the report.
    """
    frame = cx.frame
    del_om = frame.project(frame.d(omega), 2, 1)
    sol = linalg.solve(*_system(tamed_columns(frame), del_om))
    return ConditionReport(
        "tamed", sol is not None,
        certificate={"beta_coefficients": [repr(c) for c in sol]} if sol is not None else {},
        notes="linear taming obstruction; evaluated alongside an SKT metric",
    )


CHECKERS = {
    "kahler": check_kahler,
    "skt": check_skt,
    "balanced": check_balanced,
    "lcb": check_lcb,
    "lck": check_lck,
    "lcskt": check_lcskt,
    "first_gauduchon": check_first_gauduchon,
    "strongly_gauduchon": check_strongly_gauduchon,
    "tamed": check_tamed,
}


def check_all(cx: Complexification, omega: Form) -> dict:
    return {name: fn(cx, omega) for name, fn in CHECKERS.items()}
