"""Randomized float search for complex structures and special Hermitian metrics.

Two searches are provided, both built on one damped Gauss-Newton
(Levenberg-Marquardt style) loop over a stacked residual vector:

* :func:`find_complex_structure` minimizes ``|N^J|^2 + |J^2 + Id|^2`` over all
  36 entries of an endomorphism ``J``.  The residual is a constant plus a
  quadratic form in ``J``, built once per algebra from its nonzero structure
  constants, so the loop uses its exact Jacobian.  A hit below tolerance is
  followed by rational reconstruction and an exact integrability recheck: it
  is reported "found" when the reconstructed ``J`` passes, and "float-only"
  (with the float ``J`` as witness) when no reconstruction does.
* :func:`find_metric` searches the metric coefficients ``(lambda, w)`` of a
  Hermitian structure on a fixed :class:`~hermlie.cpx.Complexification`;
  positivity is enforced by parameterizing the coefficient matrix through a
  Cholesky factor with exponential diagonal.  Each condition's residual is a
  precomputed linear or quadratic tensor in the coefficients.  Linear
  sub-certificates (twisting one-forms ``mu``, potential forms ``beta``) are
  fitted by least squares at every iterate.  The loop uses the exact Jacobian
  of the whole map, the ``mu`` fit differentiated by variable projection.  A
  float hit is only reported "found" after the exact checker accepts a
  rationally reconstructed witness; a hit the exact gate rejects is dropped.

:func:`classification_sweep` combines exact example verification, exact
obstruction replay, and search exhaustion into the existence grid.  Searches
never overrule exact results: a condition ruled out by the obstruction
registry is recorded as such and not searched, and exhaustion is always
labeled evidence, not proof.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from ._lazy import np
from .scalars import GR_I, GR_ONE, GR_ZERO, GaussianRational, _reduced
from .forms import Form, all_index_tuples
from .liealg import LieAlgebra
from .catalog import CONDITIONS, list_entries, negative_controls, verified_example
from .cpx import (
    Complexification,
    nijenhuis,
    squares_to_minus_id,
    standard_j,
)
from .herm import (
    CHECKERS,
    HermitianMetric,
    closed_one_forms,
    fundamental_form,
    is_positive,
    strongly_gauduchon_columns,
    tamed_columns,
    torsion_H,
)
from .obstructions import obstruction_table, replay_obstruction_row, rules_out

__all__ = [
    "SearchConfig",
    "SearchOutcome",
    "find_complex_structure",
    "find_metric",
    "classification_sweep",
    "entry_complexification",
]


def _default_seed() -> int:
    raw = os.environ.get("HERMLIE_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"HERMLIE_SEED must be an integer, not {raw!r}") from None


@dataclass
class SearchConfig:
    """Knobs for the randomized least-squares searches."""

    seed: int = field(default_factory=_default_seed)
    restarts: int = 40
    max_iters: int = 60
    tol: float = 1e-10

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must not be negative")
        if not 0 < self.tol < float("inf"):  # also rejects NaN
            raise ValueError("tolerance must be positive and finite")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_iters < 0:
            raise ValueError("max_iters must not be negative")


@dataclass
class SearchOutcome:
    """Result of one search: status, witness (if any), per-restart residuals."""

    status: str  # "found" | "float-only" | "exhausted"
    witness: Optional[dict]
    best_residuals: tuple
    note: str = ""


# ---------------------------------------------------------------------------
# generic damped least-squares loop
# ---------------------------------------------------------------------------

_DAMPING = 1e-3  # initial Levenberg-Marquardt damping


def _lm_minimize(fn, x0: np.ndarray, cfg: SearchConfig):
    """Minimize |r(x)|^2 where ``fn(x)`` returns ``(r, jac)``, ``jac`` the exact
    Jacobian of ``r`` at ``x``; returns (x_best, inf_norm_best).

    Both searches pass exact Jacobians, so each iteration costs one ``fn``
    call per trial step and no extra calls to build the Jacobian.  The normal
    matrix and the gradient come from one product ``J^T [J | r]``.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    r, jx = fn(x)
    cost = float(r @ r)
    lam = _DAMPING
    jr = np.empty((r.size, n + 1))
    for _ in range(cfg.max_iters):
        if abs(r).max() < 0.01 * cfg.tol:
            break
        jr[:, :n] = jx
        jr[:, n] = r
        gram = jx.T @ jr
        a, minus_g = gram[:, :n], -gram[:, n]
        diag = a.diagonal().copy()
        for _ in range(8):
            a.flat[::n + 1] = diag + lam
            try:
                step = np.linalg.solve(a, minus_g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            xn = x + step
            rn, jn = fn(xn)
            cn = float(rn @ rn)
            if cn < cost:
                x, r, jx, cost = xn, rn, jn, cn
                lam = max(lam * 0.3, 1e-13)
                break
            lam *= 10.0
        else:  # no trial step lowered the cost
            break
    return x, float(abs(r).max())


# ---------------------------------------------------------------------------
# complex-structure search
# ---------------------------------------------------------------------------

def _structure_tensor(g: LieAlgebra) -> np.ndarray:
    """Float tensor C[i,j,k] = c^i_{jk}, antisymmetric in (j, k)."""
    n = g.dim
    C = np.zeros((n, n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                c = g.structure_constant(i, j, k)
                if not c.is_real():
                    raise ValueError("structure constants must be real")
                v = complex(c).real
                C[i - 1, j - 1, k - 1] = v
                C[i - 1, k - 1, j - 1] = -v
    return C


class _JModel(NamedTuple):
    """The J residual ``const + Q[x, x]`` as sparse Jacobian terms: term ``t``
    adds ``vals[t] * x[cols[t]]`` to the flattened Jacobian entry ``flat[t]``
    (row * 36 + column), so that ``jac @ x = 2 Q[x, x]``."""

    const: np.ndarray
    flat: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def _j_model(C: np.ndarray) -> _JModel:
    """Residual model of ``(N, J^2 + Id)`` in ``x = vec(J)``, from ``C[i,j,k]``.

    The first 90 rows are the components ``N(f_a, f_b)^i`` for ``a < b``,
    ``i``-major, of the Nijenhuis tensor of :func:`~hermlie.cpx.nijenhuis`,
    ``N(X, Y) = [X, Y] + J[JX, Y] + J[X, JY] - [JX, JY]``; the last 36 are
    ``J^2 + Id``, row-major.  Neither part has a linear term, and every
    quadratic term of ``N`` carries one nonzero structure constant.
    """
    n, nn = 6, 36
    iu, ju = np.triu_indices(n, 1)
    pair = np.full((n, n), -1)
    pair[iu, ju] = np.arange(iu.size)
    p, q, s = (t[:, None, None] for t in np.nonzero(C))
    w = C[p, q, s]
    r = np.arange(n)
    f1, f2 = np.ix_(r, r)
    terms = []  # (row, u, v, coef): coef * x[u] * x[v] in residual row

    def n_terms(i, a, b, u, v, coef):
        i, a, b, u, v, coef = np.broadcast_arrays(i, a, b, u, v, coef)
        keep = a < b
        terms.append((i[keep] * iu.size + pair[a[keep], b[keep]],
                      u[keep], v[keep], coef[keep]))

    n_terms(f1, f2, s, n * f1 + p, n * q + f2, w)    # J[i,p] C[p,q,b] J[q,a]
    n_terms(f1, q, f2, n * f1 + p, n * s + f2, w)    # J[i,p] C[p,a,s] J[s,b]
    n_terms(p, f1, f2, n * q + f1, n * s + f2, -w)   # -C[i,q,s] J[q,a] J[s,b]
    i, m, k = np.ix_(r, r, r)                        # J[i,m] J[m,k]
    terms.append(np.broadcast_arrays(iu.size * n + n * i + k, n * i + m, n * m + k, 1.0))

    # Repeated (row, u, v) terms stay unmerged: merging saves at most a
    # quarter of them, and np.unique's sort raised peak RSS by about 0.8 MB.
    row, u, v, coef = (np.concatenate([t.reshape(-1) for t in part]) for part in zip(*terms))
    const = np.concatenate([C[:, iu, ju].reshape(-1), np.eye(n).reshape(-1)])
    return _JModel(const, np.concatenate([row * nn + u, row * nn + v]),
                   np.concatenate([v, u]), np.concatenate([coef, coef]))


def _j_residual(model: _JModel, x: np.ndarray):
    """Residual and exact Jacobian of the J search at ``x = vec(J)``."""
    jac = np.bincount(model.flat, model.vals * x[model.cols],
                      minlength=model.const.size * x.size).reshape(-1, x.size)
    return model.const + 0.5 * (jac @ x), jac


def j_residual_kernel():
    """The residual-and-Jacobian kernel :func:`find_complex_structure` uses."""
    return _j_residual


#: Denominator bounds tried, in ascending order, by the rational
#: reconstruction of a float J and of a float metric.
J_BOUNDS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128, 1000, 10**6)
METRIC_BOUNDS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128, 1000, 10**5)


def _best_rationals(x: float, bounds) -> list:
    """``(p, q)`` of ``Fraction(x).limit_denominator(b)`` for each ascending
    bound ``b``, in lowest terms with ``q > 0``, from one continued-fraction
    expansion of ``x``.

    A best approximation with denominator at most ``b`` is the last convergent
    ``p1/q1`` with ``q1 <= b`` or the semiconvergent ``(p0 + k p1)/(q0 + k q1)``
    with the largest ``k`` the bound allows (Khinchin, *Continued Fractions*,
    Thm. 15); ``x`` lies between the two, at distance ``d/(q1 den)`` from the
    convergent, so the convergent wins ties, as in ``limit_denominator``.
    """
    num, den = x.as_integer_ratio()
    n, d = num, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    out = []
    for b in bounds:
        if den <= b:
            out.append((num, den))
            continue
        while True:  # the convergents so far stay valid for every larger bound
            a = n // d
            q2 = q0 + a * q1
            if q2 > b:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        k = (b - q0) // q1
        if 2 * d * (q0 + k * q1) <= den:
            out.append((p1, q1))
        else:
            out.append((p0 + k * p1, q0 + k * q1))
    return out


def _candidates(values, bounds):
    """The ``(p, q)`` of every value at each bound in turn, skipping a tuple
    equal to the one before: its exact verdict is already known."""
    previous = None
    for candidate in zip(*(_best_rationals(v, bounds) for v in values)):
        if candidate != previous:
            previous = candidate
            yield candidate


def _exactify_j(g: LieAlgebra, x: np.ndarray):
    """Rational reconstruction of a float J plus exact integrability check."""
    for candidate in _candidates(x.tolist(), J_BOUNDS):
        entries = [_reduced(p, 0, q) for p, q in candidate]  # coprime, q > 0
        Jq = [entries[6 * i:6 * i + 6] for i in range(6)]
        if not squares_to_minus_id(Jq):
            continue
        comps = nijenhuis(g, Jq)
        if not any(c for vec in comps.values() for c in vec):
            return Jq
    return None


def find_complex_structure(g: LieAlgebra, cfg: Optional[SearchConfig] = None) -> SearchOutcome:
    """Search for an integrable almost complex structure on ``g``."""
    cfg = cfg or SearchConfig()
    model = _j_model(_structure_tensor(g))
    fn = functools.partial(j_residual_kernel(), model)
    rng = np.random.default_rng(cfg.seed)
    std = np.array(
        [[float(GaussianRational.coerce(v).re) for v in row] for row in standard_j(6)]
    ).reshape(-1)
    best_norms = []
    for t in range(cfg.restarts):
        x0 = std if t == 0 else rng.uniform(-2.0, 2.0, 36)
        x, nrm = _lm_minimize(fn, x0, cfg)
        best_norms.append(nrm)
        if nrm <= cfg.tol:
            Jq = _exactify_j(g, x)
            witness = {"J_float": x.reshape(6, 6).tolist(), "J_exact": Jq}
            if Jq is None:
                return SearchOutcome(
                    "float-only", witness, tuple(best_norms),
                    "float witness below tolerance; rational reconstruction failed",
                )
            return SearchOutcome("found", witness, tuple(best_norms),
                                 "rational reconstruction verified exactly")
    return SearchOutcome(
        "exhausted",
        None,
        tuple(best_norms),
        "no integrable J found (evidence, not proof)",
    )


# ---------------------------------------------------------------------------
# metric search
# ---------------------------------------------------------------------------

def _vec(form: Form, slots) -> np.ndarray:
    """The exact coefficients of ``form`` on ``slots``, rounded to complex."""
    return np.array([complex(form.coeffs.get(t, GR_ZERO)) for t in slots], dtype=complex)


def _metric_basis_forms():
    """The fundamental forms of the nine unit coefficient vectors
    (l1, l2, l3, x1, y1, x2, y2, x3, y3), with w_k = x_k + i y_k."""
    basis = []
    for s in range(9):
        p = [GR_ONE if t == s else GR_ZERO for t in range(9)]
        ws = [p[k] + p[k + 1] * GR_I for k in (3, 5, 7)]
        basis.append(fundamental_form(HermitianMetric(p[:3], ws)))
    return basis


def _columns(forms, slots) -> np.ndarray:
    """Matrix whose column ``s`` is ``forms[s]`` on ``slots``."""
    return np.stack([_vec(f, slots) for f in forms], axis=1)


def _linear(op, forms, slots) -> np.ndarray:
    """``(slots, 9)`` tensor whose column ``s`` is ``op(forms[s])``."""
    return _columns([op(f) for f in forms], slots)


def _quadratic(op, left, right, slots) -> np.ndarray:
    """``(slots, 9, 9)`` tensor whose entry ``[:, s, t]`` is ``op(left[s], right[t])``."""
    return np.stack([_linear(functools.partial(op, a), right, slots) for a in left], axis=1)


class _MetricResidual:
    """Precompiled residual for one (complex structure, condition) pair.

    The metric 2-form is linear in nine real coefficients ``p``; every
    condition residual is a linear or quadratic tensor in ``p``, built once
    with the exact frame operators and compiled into real floats:

    * a condition with potential columns ``beta`` (the columns the exact
      checkers in ``herm`` solve with) has the fixed orthogonal projection
      off their span folded into its tensor ``T``;
    * complex rows are real-stacked, real parts first and then imaginary
      parts, so a real ``p`` gives the real residual rows directly;
    * a quadratic ``T[z, s, t] p_s p_t`` is kept as ``S = T + T^T`` flattened
      to ``(rows * 9, 9)``: its Jacobian is ``(S @ p).reshape(rows, 9)`` and
      its value ``0.5 * jac @ p``.  A linear ``T p`` is its own Jacobian ``T``.

    Conditions with a twisting one-form fit ``mu`` per iterate: a real
    least-squares fit over the tensors of the closed real one-forms,
    compiled the same way, to ``(rows, len(mu), 9)`` Jacobians.
    """

    def __init__(self, cx: Complexification, condition: str):
        if condition not in CHECKERS:
            raise ValueError(f"unknown condition: {condition!r}")
        frame = cx.frame
        basis = _metric_basis_forms()
        d3, d4, d5 = (all_index_tuples(6, k) for k in (3, 4, 5))
        mus = ([cx.to_alpha(m) for m in closed_one_forms(cx)]
               if condition in ("lck", "lcb", "lcskt") else [])
        beta = None  # potential columns; the residual is projected off their span
        mu = []
        if condition == "kahler":
            T = _linear(frame.d, basis, d3)
        elif condition == "skt":
            T = _linear(lambda b: frame.del_(frame.dbar(b)), basis, d4)
        elif condition == "tamed":
            T = _linear(frame.del_, basis, d3)
            beta = _columns(tamed_columns(frame), d3)
        elif condition in ("balanced", "lcb"):
            T = _quadratic(lambda a, b: frame.d(a.wedge(b)), basis, basis, d5)
            mu = [_quadratic(lambda a, b: m.wedge(a.wedge(b)), basis, basis, d5)
                  for m in mus]
        elif condition == "strongly_gauduchon":
            T = _quadratic(lambda a, b: frame.del_(a.wedge(b)), basis, basis, d5)
            beta = _columns(strongly_gauduchon_columns(frame), d5)
        elif condition == "first_gauduchon":
            leads = [frame.del_(frame.dbar(b)) for b in basis]
            T = _quadratic(Form.wedge, leads, basis, [(1, 2, 3, 4, 5, 6)])
        elif condition == "lck":
            T = _linear(frame.d, basis, d3)
            mu = [_linear(m.wedge, basis, d3) for m in mus]
        else:  # lcskt: H = i(dbar - del)(omega), need dH = mu ^ H
            torsions = [torsion_H(frame, b) for b in basis]
            T = _linear(frame.d, torsions, d4)
            mu = [_linear(m.wedge, torsions, d4) for m in mus]
        if beta is not None:
            T = np.tensordot(np.eye(beta.shape[0]) - beta @ np.linalg.pinv(beta), T, axes=1)
        self._quadratic = T.ndim == 3
        self._rows = 2 * T.shape[0]
        self._T = self._compiled(T)
        self._mu = self._compiled(np.stack(mu, axis=1)) if mu else None

    def _compiled(self, T: np.ndarray) -> np.ndarray:
        T = np.concatenate([T.real, T.imag])
        return (T + np.swapaxes(T, -1, -2)).reshape(-1, 9) if self._quadratic else T

    def _linearize(self, D: np.ndarray, p: np.ndarray, shape):
        """Value at ``p`` of the tensor compiled into ``D``, and its Jacobian."""
        if not self._quadratic:
            return D @ p, D
        jac = (D @ p).reshape(shape)
        return 0.5 * (jac @ p), jac

    def __call__(self, p: np.ndarray) -> np.ndarray:
        return self.linearize(p)[0]

    def linearize(self, p: np.ndarray):
        """The residual at ``p`` and its exact Jacobian in ``p``."""
        target, slope = self._linearize(self._T, p, (self._rows, 9))
        if self._mu is None:
            return target, slope
        return self._fit_mu(target, slope, p)

    def _fit_mu(self, b: np.ndarray, db: np.ndarray, p: np.ndarray):
        """Residual of the least-squares fit of ``b`` by the mu columns ``A``,
        and its Jacobian by variable projection (Golub-Pereyra 1973): with
        ``sol`` the fit, ``P = I - A A^+`` and ``r`` the residual,
        ``dr = P (db - dA sol) - (A^+)^T (dA^T r)``.
        """
        A, dA = self._linearize(self._mu, p, (self._rows, -1, 9))
        # A^+ = V S^-1 U^T over the singular values (sorted descending) above
        # lstsq's default cutoff
        u, sv, vt = np.linalg.svd(A, full_matrices=False)
        k = np.count_nonzero(sv > np.finfo(float).eps * max(A.shape) * sv[0])
        u, sv, vt = u[:, :k], sv[:k], vt[:k]
        sol = vt.T @ ((u.T @ b) / sv)
        resid = b - A @ sol
        off = db - sol @ dA
        back = vt @ (resid @ dA.reshape(self._rows, -1)).reshape(-1, 9)
        return resid, off - u @ (u.T @ off + back / sv[:, None])


@functools.cache
def _jac_nonzero() -> np.ndarray:
    """Flat positions, row by row in the (10, 9) Jacobian of :func:`_p_from_raw`,
    of its 38 entries that are not identically zero, built on first use."""
    return np.array([
        0,
        10, 12, 13,
        20, 23, 24, 25, 26,
        28, 30, 31, 32, 33, 35,
        37, 39, 40, 41, 42, 43,
        45, 51,
        54, 59,
        63, 67,
        72, 75,
        81, 82, 83, 84, 85, 86, 87, 88, 89,
    ])


def _p_from_raw(raw: np.ndarray):
    """Metric coefficients ``p`` of ``H = L L^*`` at ``raw``, the trace row
    ``(l1 + l2 + l3 - 3) / 4`` that fixes the scale, and their ``(10, 9)``
    Jacobian in ``raw``.  Every raw vector maps to a positive metric.

    The Cholesky factor is ``L = [[a, 0, 0], [u, b, 0], [v, w, c]]``, with
    ``(a, b, c) = exp(raw[:3])`` clipped and ``(u, v, w) = raw[3::2] + i raw[4::2]``;
    ``p`` is ``(a^2, |u|^2 + b^2, |v|^2 + |w|^2 + c^2, Re w1, Im w1, .., Im w3)`` for
    ``w1 = i H[1, 2] = i(u v^* + b w^*)``, ``w2 = i a v^*`` and ``w3 = i a u^*``.
    """
    l1, l2, l3, ur, ui, vr, vi, wr, wi = raw.tolist()
    a, b, c = (math.exp(min(max(x, -6.0), 6.0)) for x in (l1, l2, l3))
    # d exp(x) = exp(x), and 0 where the clip is active
    da, db, dc = (e if -6.0 < x < 6.0 else 0.0 for e, x in ((a, l1), (b, l2), (c, l3)))
    lams = (a * a, ur * ur + ui * ui + b * b, vr * vr + vi * vi + wr * wr + wi * wi + c * c)
    p = np.array([*lams, ur * vi - ui * vr + b * wi, ur * vr + ui * vi + b * wr,
                  a * vi, a * vr, a * ui, a * ur])
    jac = np.zeros(90)
    jac[_jac_nonzero()] = (
        2 * a * da,
        2 * b * db, 2 * ur, 2 * ui,
        2 * c * dc, 2 * vr, 2 * vi, 2 * wr, 2 * wi,
        wi * db, vi, -vr, -ui, ur, b,
        wr * db, vr, vi, ur, ui, b,
        vi * da, a,
        vr * da, a,
        ui * da, a,
        ur * da, a,
        0.5 * a * da, 0.5 * b * db, 0.5 * c * dc, 0.5 * ur, 0.5 * ui,
        0.5 * vr, 0.5 * vi, 0.5 * wr, 0.5 * wi,
    )
    jac = jac.reshape(10, 9)
    return p, 0.25 * (lams[0] + lams[1] + lams[2] - 3.0), jac


def _metric_objective(residual: _MetricResidual, raw: np.ndarray):
    """The residual :func:`find_metric` minimizes at ``raw``, with the trace
    row of :func:`_p_from_raw` last, and its exact Jacobian."""
    p, trace, dp = _p_from_raw(raw)
    r, jac = residual.linearize(p)
    out, out_jac = np.empty(r.size + 1), np.empty((r.size + 1, 9))
    out[:-1], out[-1] = r, trace
    np.matmul(jac, dp[:9], out=out_jac[:-1])
    out_jac[-1] = dp[9]
    return out, out_jac


def _exactify_metric(cx: Complexification, condition: str, raw: np.ndarray):
    p = _p_from_raw(raw)[0]
    p = (p * (3.0 / (p[0] + p[1] + p[2]))).tolist()
    for candidate in _candidates(p, METRIC_BOUNDS):
        q = [Fraction(n, d) for n, d in candidate]
        lams, ws = q[:3], [GaussianRational(q[k], q[k + 1]) for k in (3, 5, 7)]
        metric = HermitianMetric(lams, ws)
        if not is_positive(metric):
            continue
        omega = fundamental_form(metric)
        report = CHECKERS[condition](cx, omega)
        if report.holds:
            return metric, omega, report
    return None


def find_metric(cx: Complexification, condition: str,
                cfg: Optional[SearchConfig] = None) -> SearchOutcome:
    """Search Hermitian metrics on the complex structure ``cx`` for a condition."""
    cfg = cfg or SearchConfig()
    fn = functools.partial(_metric_objective, _MetricResidual(cx, condition))
    rng = np.random.default_rng(cfg.seed)
    best_norms = []
    hits = 0
    for t in range(cfg.restarts):
        x0 = np.zeros(9) if t == 0 else rng.normal(0.0, 0.8, 9)
        x, nrm = _lm_minimize(fn, x0, cfg)
        best_norms.append(nrm)
        if nrm <= max(cfg.tol, 1e-12):
            hits += 1
            exact = _exactify_metric(cx, condition, x)
            if exact is not None:
                metric, omega, report = exact
                witness = {
                    "metric": metric,
                    "omega": omega,
                    "report": report,
                    "raw": x.tolist(),
                }
                return SearchOutcome(
                    "found", witness, tuple(best_norms),
                    "rational reconstruction verified exactly",
                )
            # A float hit the exact gate rejects is not trusted as a witness.
    if hits:
        note = (f"{hits} of {cfg.restarts} restarts reached the tolerance, but no "
                f"rational reconstruction with denominators up to {METRIC_BOUNDS[-1]} "
                f"passed the exact {condition} check (evidence, not proof)")
    else:
        note = (f"no {condition} metric found for this complex structure "
                "(evidence, not proof)")
    return SearchOutcome("exhausted", None, tuple(best_norms), note)


# ---------------------------------------------------------------------------
# classification sweep
# ---------------------------------------------------------------------------

# X is impossible whenever some condition implied by X is impossible.
_IMPLIES = {
    "kahler": ("skt", "balanced", "lck", "first_gauduchon",
               "strongly_gauduchon", "lcb"),
    "skt": ("first_gauduchon",),
    "balanced": ("strongly_gauduchon", "lcb"),
    "lck": ("lcb",),
}

_GRID_CONDITIONS = CONDITIONS + ("strongly_gauduchon",)


def _absence_covered(condition: str, ruled_out: set) -> bool:
    related = {condition} | set(_IMPLIES.get(condition, ()))
    return bool(related & ruled_out)


def entry_complexification(entry) -> Complexification:
    """An exact complex structure on a catalog entry, from its first example."""
    ex = entry.examples[0]
    return Complexification.from_real(ex.algebra_instance(), ex.j())


#: Conditions no entry claims, read from the claim of one that implies them (a
#: balanced metric is strongly Gauduchon; a Kahler omega tames J, as del omega
#: = 0 = dbar 0), whose stored witness is re-checked for the condition itself.
_CLAIM_SOURCE = {"strongly_gauduchon": "balanced", "tamed": "kahler"}


def _verified(ex, memo: dict) -> tuple:
    """``catalog.verified_example(ex)``; ``memo`` maps ``id(example)`` to it,
    so that each example is verified, and its structure built, once."""
    if id(ex) not in memo:
        memo[id(ex)] = verified_example(ex)
    return memo[id(ex)]


def _existence_cell(entry, condition: str, memo: dict):
    """The cell of a claimed condition, from the first stored example with it."""
    source = _CLAIM_SOURCE.get(condition, condition)
    for ex in entry.examples:
        if source not in ex.conditions:
            continue
        report, cx, om = _verified(ex, memo)
        if not report.get("ok"):
            return {"status": "mismatch",
                    "detail": f"stored example failed verification: {report}"}
        if source != condition and not CHECKERS[condition](cx, om):
            return {"status": "mismatch",
                    "detail": f"{source} witness failed the exact check"}
        return {"status": "verified-example", "detail": f"omega = {ex.omega}"}
    return {"status": "mismatch", "detail": "claimed existence has no stored example"}


def classification_sweep(conditions: Optional[Sequence[str]] = None,
                         cfg: Optional[SearchConfig] = None) -> dict:
    """Existence grid over the catalog: witnesses, obstructions, evidence."""
    conds = tuple(conditions) if conditions else _GRID_CONDITIONS
    cfg = cfg or SearchConfig(restarts=8, max_iters=40)
    # every obstruction row replayed once; each algebra it names reads its report
    replays = {}
    for row in obstruction_table():
        report = replay_obstruction_row(row)
        for name in row.algebra.split("|"):
            replays.setdefault(name, []).append((row, report))
    rows = []
    mismatches = []
    for entry in list_entries():
        memo = {}
        ruled_out = set()
        for row, report in replays.get(entry.name, ()):
            if report["ok"]:
                ruled_out |= rules_out(row)
            else:
                mismatches.append(f"{entry.name}/{row.condition}: obstruction row "
                                  f"failed to replay: {report['detail']}")
        cells = {}
        for cond in conds:
            if entry.claims.get(_CLAIM_SOURCE.get(cond, cond), "never") != "never":
                cell = _existence_cell(entry, cond, memo)
            elif _absence_covered(cond, ruled_out):
                cell = {"status": "obstruction-replayed",
                        "detail": "exact obstruction rules this out"}
            else:
                outcome = find_metric(_verified(entry.examples[0], memo)[1], cond, cfg)
                if outcome.status == "found":
                    cell = {"status": "mismatch",
                            "detail": "search found a witness where none is claimed"}
                else:
                    cell = {"status": "search-evidence", "detail": outcome.note}
            if cell["status"] == "mismatch":
                mismatches.append(f"{entry.name}/{cond}: {cell['detail']}")
            cells[cond] = cell
        rows.append({"algebra": entry.name, "cells": cells})

    controls = []
    for entry in negative_controls():
        replayed = any(report["ok"] for row, report in replays.get(entry.name, ())
                       if row.condition == "complex")
        controls.append({
            "algebra": entry.name,
            "status": "obstruction-replayed" if replayed else "mismatch",
            "detail": "admits no complex structure (exact generic-J contradiction)",
        })
        if not replayed:
            mismatches.append(f"{entry.name}: integrability obstruction failed to replay")

    return {
        "conditions": list(conds),
        "rows": rows,
        "controls": controls,
        "mismatches": mismatches,
        "ok": not mismatches,
    }
