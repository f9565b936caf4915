"""Registry of symbolic obstructions: exact certificates of non-existence.

Each row documents why a Hermitian condition, or any complex structure at
all, fails on a given algebra, as a staged symbolic computation.  One engine,
:func:`replay_obstruction_row`, replays every row:

* a *context* (:class:`ReplayContext`) holds the polynomial ring, the
  parameter values and the residual of one sign choice and sample of a row;
* a *branch* (:class:`Branch`) is one case of the elimination.  It is entered
  with the names in ``assume`` set to zero, then runs its steps.  A row's
  ``steps`` are either its branches or the steps of one implicit branch;
* a *step* (:class:`Step`) extracts a coefficient (or combination) of the
  residual, with the substitutions installed so far applied, asserts its
  exact polynomial value, and optionally installs the substitutions forced
  by setting it to zero.

Metric rows work over the generic compatible metric
``omega = i(l1 a^{11'} + l2 a^{22'} + l3 a^{33'}) + w1 a^{23'} - w1~ a^{32'}
+ w2 a^{13'} - w2~ a^{31'} + w3 a^{12'} - w3~ a^{21'}`` on a family of
complex structure equations (one row per family branch).  Their final step
exhibits a value that cannot vanish on the positivity cone (l's > 0,
l_j l_k > |w_i|^2), or shows that the twisting 1-form is forced to vanish.

The condition picks the residual (xi: coefficient of the *sorted* monomial):
  - lcskt: d(H) - mu ^ H with H = d^c omega (rules out SKT too unless mu is forced to 0)
  - lck: d(omega) - mu ^ omega; in both, mu is a closed :class:`Twist` (unknowns, builder)
  - strongly_gauduchon: del(omega^2) - dbar(beta), beta = a^{123} ^ (sum b_k a^{k'})
  - first_gauduchon: the a^{11'22'33'} coefficient of del dbar omega ^ omega
  - tamed: del(omega) - dbar(beta), beta a del-closed (2,0)-form
  - complex: the pair (N, J^2) of a fully generic J on the catalog structure
    equations of each algebra the row names, read with ``n(i, j, k)`` and
    ``j2(i, j)``.  Every branch ends in a sign contradiction with J^2 = -Id.

Rows with sign parameters (values in {-1, +1}) are replayed for every sign
choice.  Every other parameter is a polynomial variable, so a row covers its
whole family, except where the family equations themselves divide by a
parameter: the ``N52-152-b`` and ``N52-154`` rows are replayed at exact
rational parameter samples, and so are the merged ``complex`` rows (one
sample per algebra) and the ``q=1`` slice of ``AA-s6.17``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Optional

from .catalog import get_entry
from .cpx import instantiate_family, nijenhuis, generic_j_ring
from .forms import Form
from .herm import (CHECKERS, HermitianMetric, fundamental_form, first_gauduchon_coefficient,
                   torsion_H)
from .scalars import (GR_I, GaussianRational, Poly, PolyRing, conj_scalar, im_part,
                      re_part)

F = Fraction
I = GR_I


# ---------------------------------------------------------------------------
# replay machinery


class ReplayContext:
    """State threaded through the steps of one branch of a row replay."""

    def __init__(self, ring: PolyRing, params: dict):
        self.ring = ring
        self.params = params
        self.residual = None  # Form, scalar or (N, J^2), set by _contexts
        self.subs: dict = {}

    def enter(self, assume: tuple):
        """Start a branch: drop every substitution and set the ``assume``
        names to zero."""
        self.subs = {}
        for name in assume:
            self.set(name, 0)

    # -- variable access ------------------------------------------------
    def v(self, name):
        """The ring variable ``name``."""
        return self.ring.var(name)

    def p(self, name):
        """Parameter value: a symbolic Poly, or a sign or sample value as a
        ``GaussianRational``."""
        return self.params[name]

    re = staticmethod(re_part)
    im = staticmethod(im_part)
    cj = staticmethod(conj_scalar)

    def norm_sq(self, x):
        return x * conj_scalar(x)

    # -- residual access ------------------------------------------------
    def _apply(self, value) -> Poly:
        """``value`` in the ring, with the installed substitutions applied
        when it mentions a substituted name."""
        value = self.ring.coerce(value)
        if self.subs and not value.variables().isdisjoint(self.subs):
            return value.substitute(self.subs)
        return value

    def xi(self, *indices):
        """Coefficient of the sorted alpha-monomial, current substitutions
        applied.  Conjugate slots use indices 4, 5, 6 for 1', 2', 3'."""
        return self._apply(self.residual.coeff(*indices))

    def value(self):
        """The residual itself when it is a scalar (first-Gauduchon rows)."""
        return self._apply(self.residual)

    def n(self, i: int, j: int, k: int):
        """The f_k-component of N(f_i, f_j), i < j (Nijenhuis rows)."""
        return self._apply(self.residual[0][(i, j)][k - 1])

    def j2(self, i: int, j: int):
        """Entry (i, j) of J^2 (Nijenhuis rows)."""
        return self._apply(self.residual[1][i - 1][j - 1])

    # -- substitutions forced by a step ---------------------------------
    def set(self, name: str, value):
        """Install name := value (and the conjugate partner, if any).  The
        new value is folded into the earlier ones, so no installed value
        mentions an installed name."""
        value = self._apply(value)
        new = {name: value}
        partner = _conj_name(self.ring, name)
        if partner is not None:
            new[partner] = conj_scalar(value)
        for k, old in self.subs.items():
            self.subs[k] = old.substitute(new)
        self.subs.update(new)

    def set_zero(self, *names):
        for n in names:
            self.set(n, 0)


def _conj_name(ring: PolyRing, name: str) -> Optional[str]:
    partner = ring.names[ring.conj_index[ring._index[name]]]
    return None if partner == name else partner


@dataclass(frozen=True)
class Step:
    label: str
    value: Callable[[ReplayContext], object]
    expected: Callable[[ReplayContext], object]
    after: Optional[Callable[[ReplayContext], None]] = None


@dataclass(frozen=True)
class Branch:
    """One case of an elimination: ``assume`` names the variables known to
    vanish on entry."""
    label: str
    steps: tuple
    assume: tuple = ()


@dataclass(frozen=True)
class Twist:
    """A closed twisting 1-form: the real and complex unknowns it adds to the
    metric ring, and its builder."""
    real: tuple
    cpx: tuple
    build: Callable[[ReplayContext], Form]


@dataclass
class ObstructionRow:
    algebra: str
    condition: str          # lcskt | lck | strongly_gauduchon | first_gauduchon | tamed | complex
    family_id: str
    branch: str
    conclusion: str         # residual_nonzero | mu_forced_zero | no_solution
    signs: tuple = ()       # names looped over {-1, +1}
    sym_real: tuple = ()    # symbolic real family parameters
    sym_cpx: tuple = ()     # symbolic complex family parameters
    samples: tuple = ()     # tuple of dicts of exact parameter values
    mu: Optional[Twist] = None  # the twisting form of an lcskt or lck row
    steps: tuple = ()       # Steps of one implicit branch, or Branches
    note: str = ""


def rules_out(row: ObstructionRow) -> set:
    """Conditions whose nonexistence one replayed obstruction row certifies.

    Registered rows cover every complex-structure family on their algebra
    (the registry encodes complete case analyses), so replaying all rows for
    an algebra certifies nonexistence across all of its complex structures.
    A forced ``mu = 0`` in an LCK row reduces LCK to Kahler, which is ruled
    out separately on every algebra carrying such a row.

    Rows whose branch pins a structure parameter (e.g. ``q=1``) only treat a
    slice of the family and certify nothing at the family level.
    """
    if "=" in row.branch:
        return set()
    if row.condition == "complex":
        return set(CHECKERS)
    if row.condition == "lcskt":
        # A nonzero residual kills the twisted equation for every mu
        # including mu = 0, so plain SKT falls with it; a forced mu = 0
        # only removes the genuinely twisted case.
        if row.conclusion == "mu_forced_zero":
            return {"lcskt"}
        return {"skt", "lcskt"}
    return {row.condition}


# ---------------------------------------------------------------------------
# residual builders


#: (real, complex) unknowns of beta in the strongly Gauduchon and tamed residuals
_POTENTIAL = {"strongly_gauduchon": (("b1", "b2", "b3"), ()), "tamed": ((), ("b1", "b2"))}


def _metric_ring(row: ObstructionRow) -> PolyRing:
    real, cpx = ((row.mu.real, row.mu.cpx) if row.mu
                 else _POTENTIAL.get(row.condition, ((), ())))
    return PolyRing(real_vars=["l1", "l2", "l3", *row.sym_real, *real],
                    complex_vars=["w1", "w2", "w3", *row.sym_cpx, *cpx])


def _omega(ring: PolyRing, shape: str) -> Form:
    zero = ring.zero()
    ws = [ring.var("w1"), zero, zero] if shape == "almost_abelian" else [
        ring.var("w1"), ring.var("w2"), ring.var("w3")]
    m = HermitianMetric(lams=[ring.var("l1"), ring.var("l2"), ring.var("l3")], ws=ws)
    return fundamental_form(m)


def _mu_form(entries: dict) -> Form:
    return Form(6, 1, {(k,): v for k, v in entries.items() if v})


def _mu_re1(ctx: ReplayContext) -> Form:
    """i y (a^1 - a^{1'})."""
    y = ctx.v("y")
    return _mu_form({1: I * y, 4: -(I * y)})


def _mu_re1_z3(ctx: ReplayContext) -> Form:
    """i y (a^1 - a^{1'}) + zeta a^3 + zeta~ a^{3'}."""
    y, z = ctx.v("y"), ctx.v("zeta")
    return _mu_form({1: I * y, 4: -(I * y), 3: z, 6: conj_scalar(z)})


def _mu_z3(ctx: ReplayContext) -> Form:
    """zeta a^3 + zeta~ a^{3'}."""
    z = ctx.v("zeta")
    return _mu_form({3: z, 6: conj_scalar(z)})


_MU_RE1 = Twist(("y",), (), _mu_re1)
_MU_RE1_Z3 = Twist(("y",), ("zeta",), _mu_re1_z3)
_MU_Z3 = Twist((), ("zeta",), _mu_z3)


def _mu_re2_minus_re3(scale_name: str) -> Twist:
    """i y (a^2 - a^{2'}) - i y Re(scale) (a^3 - a^{3'})."""

    def build(ctx: ReplayContext) -> Form:
        y = ctx.v("y")
        r = ctx.re(ctx.p(scale_name))
        iy = I * y
        return _mu_form({2: iy, 5: -iy, 3: -(iy * r), 6: iy * r})

    return Twist(("y",), (), build)


def _build_residual(row: ObstructionRow, ctx: ReplayContext, frame):
    ring = ctx.ring
    om = _omega(ring, "almost_abelian" if row.family_id.startswith("AA-") else "full")
    if row.condition in ("lcskt", "lck"):
        base = torsion_H(frame, om) if row.condition == "lcskt" else om
        mu = row.mu.build(ctx)
        if any(frame.d(mu).coeffs.values()):
            raise AssertionError("twisting form is not closed")
        return frame.d(base) - mu.wedge(base)
    if row.condition == "strongly_gauduchon":
        beta = Form(6, 3, {(1, 2, 3): ring.one()}).wedge(
            _mu_form({4: ring.var("b1"), 5: ring.var("b2"), 6: ring.var("b3")}))
        return frame.del_(om.wedge(om)) - frame.dbar(beta)
    if row.condition == "tamed":
        beta = Form(6, 2, {(1, 2): ring.var("b1"), (1, 3): ring.var("b2")})
        if any(frame.del_(beta).coeffs.values()):
            raise AssertionError("taming candidate is not del-closed")
        return frame.del_(om) - frame.dbar(beta)
    if row.condition == "first_gauduchon":
        return first_gauduchon_coefficient(frame, om)
    raise ValueError(f"no residual for condition {row.condition!r}")


def _exact(values: dict) -> dict:
    return {k: GaussianRational.coerce(v) for k, v in values.items()}


def _contexts(row: ObstructionRow):
    """One context per sign choice and sample of the row, residual built.
    Signs and sample values are bound as ``GaussianRational``s."""
    if row.condition == "complex":
        for name, sample in zip(row.algebra.split("|"), row.samples, strict=True):
            ring, J = generic_j_ring(6)
            J2 = [[sum((J[i][t] * J[t][j] for t in range(6)), ring.zero())
                   for j in range(6)] for i in range(6)]
            ctx = ReplayContext(ring, _exact(sample))
            ctx.residual = (nijenhuis(get_entry(name).algebra_instance(), J), J2)
            yield ctx
        return
    for signs in product((1, -1), repeat=len(row.signs)):
        for sample in row.samples or ({},):
            ring = _metric_ring(row)
            params = _exact(dict(zip(row.signs, signs)))
            params.update({n: ring.var(n) for n in row.sym_real})
            params.update({n: ring.var(n) for n in row.sym_cpx})
            params.update(_exact(sample))
            ctx = ReplayContext(ring, params)
            ctx.residual = _build_residual(
                row, ctx, instantiate_family(row.family_id, params))
            yield ctx


def replay_obstruction_row(row: ObstructionRow) -> dict:
    """Re-run every step of every branch of a row exactly, in each of its
    contexts, and report.  ``runs`` counts contexts times branches.

    A step whose value differs from its expected value ends the replay: the
    report has ``"ok": False`` and the mismatch under ``"detail"``.  A row
    whose context cannot be built (a twisting form that is not closed, a
    taming candidate that is not del-closed) raises ``AssertionError``."""
    branches = row.steps
    if not isinstance(branches[0], Branch):
        branches = (Branch(row.branch, row.steps),)
    report = {
        "algebra": row.algebra,
        "condition": row.condition,
        "branch": row.branch,
        "conclusion": row.conclusion,
        "runs": 0,
        "steps": [s.label for s in row.steps],
        "ok": True,
    }
    for ctx in _contexts(row):
        for branch in branches:
            ctx.enter(branch.assume)
            for step in branch.steps:
                got = ctx.ring.coerce(step.value(ctx))
                want = ctx._apply(step.expected(ctx))
                if got != want:
                    report["ok"] = False
                    report["detail"] = (
                        f"{row.algebra}/{row.condition}/{row.branch} branch "
                        f"{branch.label!r} step {step.label!r} at {ctx.params}: "
                        f"got {got}, expected {want}")
                    return report
                if step.after is not None:
                    step.after(ctx)
            report["runs"] += 1
    return report


# ---------------------------------------------------------------------------
# exact parameter samples shared by the rows of one family; a row may slice them

_152B_SAMPLES = (
    {"z1": GaussianRational(F(1), F(1)), "z2": GaussianRational(F(1, 2), F(2)), "delta": 1},
    {"z1": GaussianRational(F(-1, 3), F(2)), "z2": GaussianRational(F(0), F(1)), "delta": -1},
    {"z1": GaussianRational(F(2), F(0)), "z2": GaussianRational(F(3), F(-1)), "delta": 1},
)
_154_SAMPLES = (
    {"z": GaussianRational(F(1), F(1)), "x": F(2), "y": F(1)},
    {"z": GaussianRational(F(0), F(-1)), "x": F(1, 2), "y": F(-3)},
    {"z": GaussianRational(F(3, 2), F(1)), "x": F(-1), "y": F(2)},
)


def _152b_terms(c):
    """k = |z1|^2 - delta Re(z2) Im(z2), Im(z2) and k^2 + Im(z2)^2 (1 + Im(z2)^2)
    at an N52-152-b sample."""
    z1, z2 = c.p("z1"), c.p("z2")
    imz2 = GaussianRational(z2.im)
    k = z1 * z1.conj() - c.p("delta") * GaussianRational(z2.re) * imz2
    return k, imz2, k ** 2 + imz2 ** 2 * (1 + imz2 ** 2)


# ---------------------------------------------------------------------------
# row definitions: twisted SKT (rules out SKT and LCSKT together)


def _rows_twisted() -> list:
    rows = []

    rows.append(ObstructionRow(
        "s6.44", "lcskt", "HT-s6.44", "", "residual_nonzero",
        signs=("eps",), mu=_MU_RE1,
        steps=(
            Step("xi_12_1'3'", lambda c: c.xi(1, 2, 4, 6),
                 lambda c: -2 * c.v("y") * c.v("l2"),
                 after=lambda c: c.set_zero("y")),
            Step("xi_13_1'3'", lambda c: c.xi(1, 3, 4, 6),
                 lambda c: 4 * c.v("l2")),
        )))

    rows.append(ObstructionRow(
        "s6.145^0", "lcskt", "N51-145", "", "residual_nonzero",
        sym_cpx=("c", "nu"),
        mu=_MU_Z3,
        note="the zeta-dependence cancels in the combination "
             "l1 xi_23_2'3' + 2 Im(conj(w3) xi_13_2'3'); |c| = 1 on the family",
        steps=(
            Step("l1 xi_23_2'3' + 2 Im(conj(w3) xi_13_2'3')",
                 lambda c: c.v("l1") * c.xi(2, 3, 5, 6)
                 + 2 * c.im(c.cj(c.v("w3")) * c.xi(1, 3, 5, 6)),
                 lambda c: 4 * c.norm_sq(c.p("c")) * c.v("l1") ** 2),
        )))

    rows.append(ObstructionRow(
        "s6.147^0", "lcskt", "N51-147-a", "J1", "residual_nonzero",
        sym_cpx=("z", "nu"), mu=_MU_Z3,
        steps=(
            Step("l1 xi_23_2'3' + 2 Im(conj(w3) xi_13_2'3')",
                 lambda c: c.v("l1") * c.xi(2, 3, 5, 6)
                 + 2 * c.im(c.cj(c.v("w3")) * c.xi(1, 3, 5, 6)),
                 lambda c: 4 * (1 + c.norm_sq(c.p("z"))) * c.v("l1") ** 2),
        )))

    rows.append(ObstructionRow(
        "s6.147^0", "lcskt", "N51-147-b", "J2", "residual_nonzero",
        sym_cpx=("z",), mu=_MU_Z3,
        steps=(
            Step("xi_123_3'", lambda c: c.xi(1, 2, 3, 6),
                 lambda c: c.v("l1") * c.v("zeta"),
                 after=lambda c: c.set_zero("zeta")),
            Step("xi_13_2'3'", lambda c: c.xi(1, 3, 5, 6),
                 lambda c: 4 * c.v("l1") * c.cj(c.p("z")) + 8 * I * c.v("w3"),
                 after=lambda c: c.set(
                     "w3", I * GaussianRational("1/2") * c.v("l1") * c.cj(c.p("z")))),
            Step("xi_23_2'3'", lambda c: c.xi(2, 3, 5, 6),
                 lambda c: 2 * c.v("l1")),
        )))

    rows.append(ObstructionRow(
        "s6.147^0", "lcskt", "N51-147-c", "J3", "residual_nonzero",
        sym_real=("x",), mu=_MU_Z3,
        steps=(
            Step("xi_123_3'", lambda c: c.xi(1, 2, 3, 6),
                 lambda c: c.v("l1") * c.v("zeta"),
                 after=lambda c: c.set_zero("zeta")),
            Step("xi_23_2'3' - x Re(xi_13_2'3')",
                 lambda c: c.xi(2, 3, 5, 6) - c.p("x") * c.re(c.xi(1, 3, 5, 6)),
                 lambda c: 2 * c.v("l1")),
        )))

    rows.append(ObstructionRow(
        "s6.152", "lcskt", "N52-152-a", "J1", "residual_nonzero",
        signs=("delta",), sym_cpx=("z1", "z2"),
        mu=_mu_re2_minus_re3("z2"),
        steps=(
            Step("xi_123_2'", lambda c: c.xi(1, 2, 3, 5),
                 lambda c: -(c.p("delta") * c.v("l1") * c.v("y")),
                 after=lambda c: c.set_zero("y")),
            Step("xi_12_2'3'", lambda c: c.xi(1, 2, 5, 6),
                 lambda c: 4 * c.v("l1") * c.cj(c.p("z1"))
                 - 8 * I * c.re(c.p("z2")) * c.v("w3") - 8 * I * c.v("w2"),
                 after=lambda c: c.set(
                     "w2",
                     -(I * GaussianRational("1/2") * c.v("l1") * c.cj(c.p("z1")))
                     - c.re(c.p("z2")) * c.v("w3"))),
            Step("xi_23_2'3'", lambda c: c.xi(2, 3, 5, 6),
                 lambda c: 2 * c.v("l1")),
        )))

    def _152b_y_coeff(c):
        k, imz2, _ = _152b_terms(c)
        return k * (imz2 ** 2).inverse() * c.v("l1") * c.v("y")

    def _152b_final(c):
        _, imz2, num = _152b_terms(c)
        return c.v("l1") * (num * (imz2 ** 4).inverse())

    rows.append(ObstructionRow(
        "s6.152", "lcskt", "N52-152-b", "J2", "residual_nonzero",
        samples=_152B_SAMPLES,
        mu=_mu_re2_minus_re3("z1"),
        note="the y-coefficient is l1 (|z1|^2 - delta Re(z2) Im(z2)) "
             "/ Im(z2)^2; the samples keep that factor nonzero",
        steps=(
            Step("Im(xi_12_2'3')", lambda c: c.im(c.xi(1, 2, 5, 6)),
                 _152b_y_coeff,
                 after=lambda c: c.set_zero("y")),
            Step("xi_23_2'3'", lambda c: c.xi(2, 3, 5, 6), _152b_final),
        )))

    rows.append(ObstructionRow(
        "s6.159", "lcskt", "HT-s6.159", "", "residual_nonzero",
        signs=("delta", "eps"), mu=_MU_RE1_Z3,
        steps=(
            Step("xi_12_1'2'", lambda c: c.xi(1, 2, 4, 5),
                 lambda c: 2 * c.p("delta") * c.v("l1") * c.v("y"),
                 after=lambda c: c.set_zero("y")),
            Step("xi_12_2'3'", lambda c: c.xi(1, 2, 5, 6),
                 lambda c: -(I * c.p("delta") * c.v("l1") * c.cj(c.v("zeta"))),
                 after=lambda c: c.set_zero("zeta")),
            Step("xi_23_2'3'", lambda c: c.xi(2, 3, 5, 6),
                 lambda c: -4 * c.p("delta") * c.p("eps") * c.v("l1")),
        )))

    rows.append(ObstructionRow(
        "s6.162^1", "lcskt", "HT-s6.162^1", "", "residual_nonzero",
        mu=_MU_RE1,
        steps=(
            Step("xi_23_2'3'", lambda c: c.xi(2, 3, 5, 6),
                 lambda c: 4 * c.v("l1")),
        )))

    rows.append(ObstructionRow(
        "s6.165^p", "lcskt", "HT-s6.165", "", "residual_nonzero",
        sym_real=("p",), mu=_MU_RE1,
        steps=(
            Step("xi_23_2'3'", lambda c: c.xi(2, 3, 5, 6),
                 lambda c: 4 * c.v("l1")),
        )))

    rows.append(ObstructionRow(
        "s6.166^p", "lcskt", "HT-s6.166", "", "residual_nonzero",
        signs=("delta", "eps"), sym_real=("p",), mu=_MU_RE1,
        steps=(
            Step("xi_23_2'3'", lambda c: c.xi(2, 3, 5, 6),
                 lambda c: -4 * c.p("eps") * c.v("l1")),
        )))

    rows.append(ObstructionRow(
        "s6.167", "lcskt", "HT-s6.167", "", "residual_nonzero",
        signs=("eps",), sym_real=("x",), mu=_MU_RE1,
        steps=(
            Step("xi_23_2'3'", lambda c: c.xi(2, 3, 5, 6),
                 lambda c: 4 * c.v("l1")),
        )))

    rows.append(ObstructionRow(
        "s4.7+R2", "lcskt", "HT-s4.7+R2", "", "mu_forced_zero",
        signs=("eps",), mu=_MU_RE1_Z3,
        steps=(
            Step("xi_12_1'2'", lambda c: c.xi(1, 2, 4, 5),
                 lambda c: 2 * c.p("eps") * c.v("y") * c.v("l1"),
                 after=lambda c: c.set_zero("y")),
            Step("xi_23_1'2'", lambda c: c.xi(2, 3, 4, 5),
                 lambda c: I * c.p("eps") * c.v("zeta") * c.v("l1"),
                 after=lambda c: c.set_zero("zeta")),
        )))

    rows.append(ObstructionRow(
        "s6.52^0,q", "lcskt", "HT-s6.52", "", "mu_forced_zero",
        signs=("delta", "eps"), sym_real=("q",), mu=_MU_RE1,
        steps=(
            Step("xi_12_1'2'", lambda c: c.xi(1, 2, 4, 5),
                 lambda c: 2 * c.p("delta") * c.v("y") * c.v("l1"),
                 after=lambda c: c.set_zero("y")),
        )))

    return rows


# ---------------------------------------------------------------------------
# row definitions: LCK


def _rows_lck() -> list:
    rows = []

    rows.append(ObstructionRow(
        "h3+s3.3^0", "lck", "HT-h3+s3.3^0", "", "residual_nonzero",
        signs=("eps",), mu=_MU_RE1_Z3,
        note="rules out Kahler as well (mu = 0 is covered by the same steps)",
        steps=(
            Step("xi_12_2'", lambda c: c.xi(1, 2, 5),
                 lambda c: c.v("y") * c.v("l2"),
                 after=lambda c: c.set_zero("y")),
            Step("xi_23_2'", lambda c: c.xi(2, 3, 5),
                 lambda c: I * c.v("zeta") * c.v("l2"),
                 after=lambda c: c.set_zero("zeta")),
            Step("xi_13_3'", lambda c: c.xi(1, 3, 6),
                 lambda c: c.p("eps") * c.v("l1")),
        )))

    rows.append(ObstructionRow(
        "s4.7+R2", "lck", "HT-s4.7+R2", "", "residual_nonzero",
        signs=("eps",), mu=_MU_RE1_Z3,
        note="the forced l1 and w2 leave l2 xi_13_3' = -eps (l1 l3 - |w2|^2), "
             "nonzero on the positivity cone",
        steps=(
            Step("xi_12_2'", lambda c: c.xi(1, 2, 5),
                 lambda c: c.p("eps") * c.v("l1") + c.v("y") * c.v("l2"),
                 after=lambda c: c.set("l1", -(c.p("eps") * c.v("y") * c.v("l2")))),
            Step("xi_23_2'", lambda c: c.xi(2, 3, 5),
                 lambda c: I * (c.v("l2") * c.v("zeta") - c.p("eps") * c.v("w2~")),
                 after=lambda c: c.set("w2~", c.p("eps") * c.v("l2") * c.v("zeta"))),
            Step("l2 xi_13_3'", lambda c: c.v("l2") * c.xi(1, 3, 6),
                 lambda c: -(c.p("eps") * (c.v("l1") * c.v("l3")
                                           - c.norm_sq(c.v("w2"))))),
        )))

    rows.append(ObstructionRow(
        "s6.44", "lck", "HT-s6.44", "", "mu_forced_zero",
        signs=("eps",), mu=_MU_RE1,
        note="mu = 0 would make the metric Kahler, impossible (not even LCSKT)",
        steps=(
            Step("xi_12_2'", lambda c: c.xi(1, 2, 5),
                 lambda c: c.v("y") * c.v("l2"),
                 after=lambda c: c.set_zero("y")),
        )))

    rows.append(ObstructionRow(
        "s6.52^0,q", "lck", "HT-s6.52", "", "mu_forced_zero",
        signs=("delta", "eps"), sym_real=("q",), mu=_MU_RE1,
        steps=(
            Step("xi_13_3'", lambda c: c.xi(1, 3, 6),
                 lambda c: c.v("y") * c.v("l3"),
                 after=lambda c: c.set_zero("y")),
        )))

    rows.append(ObstructionRow(
        "s6.145^0", "lck", "N51-145", "", "mu_forced_zero",
        sym_cpx=("c", "nu"),
        mu=_MU_Z3,
        steps=(
            Step("xi_13_1'", lambda c: c.xi(1, 3, 4),
                 lambda c: I * c.v("zeta") * c.v("l1"),
                 after=lambda c: c.set_zero("zeta")),
        )))

    rows.append(ObstructionRow(
        "s6.147^0", "lck", "N51-147-a", "J1", "mu_forced_zero",
        sym_cpx=("z", "nu"), mu=_MU_Z3,
        steps=(
            Step("xi_13_1'", lambda c: c.xi(1, 3, 4),
                 lambda c: I * c.v("zeta") * c.v("l1"),
                 after=lambda c: c.set_zero("zeta")),
        )))

    rows.append(ObstructionRow(
        "s6.147^0", "lck", "N51-147-b", "J2", "residual_nonzero",
        sym_cpx=("z",), mu=_MU_Z3,
        steps=(
            Step("xi_12_3'", lambda c: c.xi(1, 2, 6),
                 lambda c: -(I * c.v("l1"))),
        )))

    rows.append(ObstructionRow(
        "s6.147^0", "lck", "N51-147-c", "J3", "residual_nonzero",
        sym_real=("x",), mu=_MU_Z3,
        steps=(
            Step("xi_12_3'", lambda c: c.xi(1, 2, 6),
                 lambda c: -(I * c.v("l1"))),
        )))

    rows.append(ObstructionRow(
        "s6.152", "lck", "N52-152-a", "J1", "mu_forced_zero",
        signs=("delta",), sym_cpx=("z1", "z2"),
        mu=_mu_re2_minus_re3("z2"),
        steps=(
            Step("xi_12_1'", lambda c: c.xi(1, 2, 4),
                 lambda c: -(c.v("y") * c.v("l1")),
                 after=lambda c: c.set_zero("y")),
        )))

    rows.append(ObstructionRow(
        "s6.152", "lck", "N52-152-b", "J2", "mu_forced_zero",
        samples=_152B_SAMPLES[:2],
        mu=_mu_re2_minus_re3("z1"),
        steps=(
            Step("xi_12_1'", lambda c: c.xi(1, 2, 4),
                 lambda c: -(c.v("y") * c.v("l1")),
                 after=lambda c: c.set_zero("y")),
        )))

    rows.append(ObstructionRow(
        "s6.154^0", "lck", "N52-154", "", "mu_forced_zero",
        samples=_154_SAMPLES[:2],
        mu=_mu_re2_minus_re3("z"),
        steps=(
            Step("xi_12_1'", lambda c: c.xi(1, 2, 4),
                 lambda c: -(c.v("y") * c.v("l1")),
                 after=lambda c: c.set_zero("y")),
        )))

    rows.append(ObstructionRow(
        "s6.162^1", "lck", "HT-s6.162^1", "", "residual_nonzero",
        mu=_MU_RE1,
        steps=(
            Step("xi_12_2'", lambda c: c.xi(1, 2, 5),
                 lambda c: (c.v("y") - 2) * c.v("l2"),
                 after=lambda c: c.set("y", 2)),
            Step("xi_13_3'", lambda c: c.xi(1, 3, 6),
                 lambda c: 4 * c.v("l3")),
        )))

    rows.append(ObstructionRow(
        "s6.165^p", "lck", "HT-s6.165", "", "residual_nonzero",
        sym_real=("p",), mu=_MU_RE1,
        steps=(
            Step("xi_12_2'", lambda c: c.xi(1, 2, 5),
                 lambda c: (c.v("y") - 2 * c.p("p")) * c.v("l2"),
                 after=lambda c: c.set("y", 2 * c.p("p"))),
            Step("xi_13_3'", lambda c: c.xi(1, 3, 6),
                 lambda c: 4 * c.p("p") * c.v("l3")),
        )))

    rows.append(ObstructionRow(
        "s6.167", "lck", "HT-s6.167", "", "mu_forced_zero",
        signs=("eps",), sym_real=("x",), mu=_MU_RE1,
        steps=(
            Step("xi_12_2'", lambda c: c.xi(1, 2, 5),
                 lambda c: c.v("y") * c.v("l2"),
                 after=lambda c: c.set_zero("y")),
        )))

    return rows


# ---------------------------------------------------------------------------
# row definitions: strongly Gauduchon


def _rows_strg() -> list:
    rows = []

    def simple(algebra, family, branch, signs, sym_real, sym_cpx, samples, combo, expected):
        return ObstructionRow(
            algebra, "strongly_gauduchon", family, branch, "residual_nonzero",
            signs=signs, sym_real=sym_real, sym_cpx=sym_cpx, samples=samples,
            steps=(Step("xi_123 combo", combo, expected),))

    rows.append(simple(
        "h3+s3.3^0", "HT-h3+s3.3^0", "", ("eps",), (), (), (),
        lambda c: c.xi(1, 2, 3, 5, 6),
        lambda c: -2 * I * c.p("eps") * (c.v("l1") * c.v("l2") - c.norm_sq(c.v("w3")))))

    rows.append(simple(
        "s4.7+R2", "HT-s4.7+R2", "", ("eps",), (), (), (),
        lambda c: c.xi(1, 2, 3, 5, 6),
        lambda c: -2 * I * c.p("eps") * (c.v("l1") * c.v("l3") - c.norm_sq(c.v("w2")))))

    rows.append(simple(
        "s6.44", "HT-s6.44", "", ("eps",), (), (), (),
        lambda c: c.xi(1, 2, 3, 5, 6),
        lambda c: -2 * I * c.p("eps") * (c.v("l1") * c.v("l2") - c.norm_sq(c.v("w3")))))

    rows.append(simple(
        "s6.52^0,q", "HT-s6.52", "", ("delta", "eps"), ("q",), (), (),
        lambda c: c.xi(1, 2, 3, 5, 6),
        lambda c: -2 * I * c.p("delta") * (c.v("l1") * c.v("l3") - c.norm_sq(c.v("w2")))))

    rows.append(simple(
        "s6.152", "N52-152-a", "J1", ("delta",), (), ("z1", "z2"), (),
        lambda c: c.re(c.p("z2")) * c.xi(1, 2, 3, 4, 5) + c.xi(1, 2, 3, 4, 6),
        lambda c: -(I * c.p("delta")) * (c.v("l1") * c.v("l2") - c.norm_sq(c.v("w3")))))

    def _152b_expected(c):
        d = c.p("delta")
        imz2 = GaussianRational(c.p("z2").im)
        return I * d * imz2 * (c.v("l1") * c.v("l2") - c.norm_sq(c.v("w3")))

    rows.append(simple(
        "s6.152", "N52-152-b", "J2", (), (), (),
        _152B_SAMPLES[:2],
        lambda c: c.re(c.p("z1")) * c.xi(1, 2, 3, 4, 5)
        + c.xi(1, 2, 3, 4, 6),
        _152b_expected))

    def _154_expected(c):
        return I * c.p("x") * (c.v("l1") * c.v("l2") - c.norm_sq(c.v("w3")))

    rows.append(simple(
        "s6.154^0", "N52-154", "", (), (), (),
        _154_SAMPLES[:2],
        lambda c: c.re(c.p("z")) * c.xi(1, 2, 3, 4, 5)
        + c.xi(1, 2, 3, 4, 6),
        _154_expected))

    return rows


# ---------------------------------------------------------------------------
# row definitions: first Gauduchon


def _rows_firstg() -> list:
    rows = []

    def fg(algebra, family, branch, expected, signs=(), sym_real=(), sym_cpx=(),
           samples=(), note=""):
        return ObstructionRow(
            algebra, "first_gauduchon", family, branch, "residual_nonzero",
            signs=signs, sym_real=sym_real, sym_cpx=sym_cpx, samples=samples, note=note,
            steps=(Step("del dbar omega ^ omega", lambda c: c.value(), expected),))

    rows.append(fg(
        "s6.145^0", "N51-145", "",
        lambda c: -2 * c.norm_sq(c.p("c")) * c.v("l1") ** 2,
        sym_cpx=("c", "nu")))

    rows.append(fg(
        "s6.147^0", "N51-147-a", "J1",
        lambda c: -2 * (1 + c.norm_sq(c.p("z"))) * c.v("l1") ** 2,
        sym_cpx=("z", "nu")))

    rows.append(fg(
        "s6.147^0", "N51-147-b", "J2",
        lambda c: -2 * (c.v("l1") * c.re(c.p("z")) - 2 * c.im(c.v("w3"))) ** 2
        - 2 * (c.v("l1") * c.im(c.p("z")) - 2 * c.re(c.v("w3"))) ** 2
        - c.v("l1") ** 2,
        sym_cpx=("z",)))

    rows.append(fg(
        "s6.147^0", "N51-147-c", "J3",
        lambda c: -2 * (c.p("x") * c.v("l1") - 2 * c.im(c.v("w3"))) ** 2
        - 8 * c.re(c.v("w3")) ** 2 - c.v("l1") ** 2,
        sym_real=("x",)))

    rows.append(fg(
        "s6.152", "N52-152-a", "J1",
        lambda c: -2 * (c.v("l1") * c.re(c.p("z1"))
                        + 2 * c.im(c.v("w3")) * c.re(c.p("z2"))
                        + 2 * c.im(c.v("w2"))) ** 2
        - 2 * (c.v("l1") * c.im(c.p("z1"))
               + 2 * c.re(c.v("w3")) * c.re(c.p("z2"))
               + 2 * c.re(c.v("w2"))) ** 2
        - c.v("l1") ** 2,
        signs=("delta",), sym_cpx=("z1", "z2")))

    def _152b_fg(c):
        _, imz2, num = _152b_terms(c)
        return -(c.v("l1") ** 2) * (num * (2 * imz2 ** 4).inverse())

    rows.append(fg(
        "s6.152", "N52-152-b", "J2", _152b_fg,
        samples=_152B_SAMPLES))

    def _154_fg(c):
        z, x, y = c.p("z"), c.p("x"), c.p("y")
        nz = z * z.conj()
        num = (x * y - nz) ** 2 + x ** 2
        return -(c.v("l1") ** 2) * (num * (2 * x ** 4).inverse())

    rows.append(fg(
        "s6.154^0", "N52-154", "", _154_fg,
        samples=_154_SAMPLES))

    rows.append(fg(
        "s6.17^1,q,q,-2(1+q)", "AA-s6.17", "q=1",
        lambda c: 8 * (c.v("l2") * c.v("l3") - c.norm_sq(c.v("w1"))),
        sym_cpx=("z1", "z2"), samples=({"q": F(1)},),
        note="derived here: strictly positive on the positivity cone, so no "
             "1st-Gauduchon structure exists at q=1 (generic coefficient is "
             "8 q l2 l3 - 2 (1+q)^2 |w1|^2, solvable with positivity iff "
             "0 < q < 1)"))

    return rows


# ---------------------------------------------------------------------------
# row definitions: tamed


def _rows_tamed() -> list:
    return [ObstructionRow(
        "h3+s3.3^0", "tamed", "HT-h3+s3.3^0", "", "residual_nonzero",
        signs=("eps",),
        note="residual evaluated on (Z1, Z3, Z3'); independent of the "
             "del-closed (2,0) potential",
        steps=(
            Step("coeff a^{13 3'}", lambda c: c.xi(1, 3, 6),
                 lambda c: c.p("eps") * c.v("l1")),
        ))]


# ---------------------------------------------------------------------------
# Nijenhuis chains: non-existence of complex structures (generic J)


def _installs(sets: tuple):
    """An ``after`` hook installing each (name, value) pair in order; a
    callable value is evaluated on the context first."""
    if not sets:
        return None

    def install(c: ReplayContext):
        for name, val in sets:
            c.set(name, val(c) if callable(val) else val)

    return install


def _rows_nijenhuis() -> list:
    """Staged generic-J eliminations proving that the four algebras kept as
    negative controls in the catalog admit no complex structure.  Each row
    merges two algebras via a coefficient eps in {0, 1}: its i-th sample
    holds the eps of the i-th algebra it names, whose structure equations
    are read from the catalog.  Every branch ends in a sign contradiction with J^2 = -Id,
    recorded in the step labels.  ``N`` checks the f_k-component of
    N(f_i, f_j) and ``Q`` an entry of J^2; the trailing (name, value) pairs
    are the substitutions forced by setting the checked value to zero."""
    rows = []

    N = lambda label, i, j, k, expected, *sets: Step(
        label, lambda c: c.n(i, j, k), expected, _installs(sets))
    Q = lambda label, i, j, expected, *sets: Step(
        label, lambda c: c.j2(i, j), expected, _installs(sets))

    # ---- merged family with nilradical n5.1 -------------------------------
    # eps = 0 and eps = 1 give the two algebras named in row.algebra.
    f1 = (
        Branch(
            "J62 nonzero",
            steps=(
                N("f6(N(f2,f4))", 2, 4, 6,
                  lambda c: c.v("J62") * (c.v("J52") - c.p("eps") * c.v("J62")),
                  ("J52", lambda c: c.p("eps") * c.v("J62"))),
                N("f4(N(f1,f2))", 1, 2, 4,
                  lambda c: -2 * c.v("J41") * c.v("J62")),
                N("f6(N(f1,f2))", 1, 2, 6,
                  lambda c: -2 * c.v("J61") * c.v("J62"),
                  ("J41", 0), ("J61", 0)),
                N("f5(N(f1,f2))", 1, 2, 5,
                  lambda c: -(c.v("J51") * c.v("J62")),
                  ("J51", 0)),
                N("f3(N(f1,f5))", 1, 5, 3,
                  lambda c: -(c.v("J31") ** 2),
                  ("J31", 0)),
                N("f6(N(f1,f6))", 1, 6, 6,
                  lambda c: c.v("J21") * c.v("J62"),
                  ("J21", 0)),
                Q("(J^2)_11 = J11^2 >= 0, contradiction", 1, 1,
                  lambda c: c.v("J11") ** 2),
            )),
        Branch(
            "J61 nonzero", assume=("J62",),
            steps=(
                N("f3(N(f1,f2))", 1, 2, 3,
                  lambda c: -2 * c.v("J32") * c.v("J61"),
                  ("J32", 0)),
                N("f4(N(f2,f5))", 2, 5, 4,
                  lambda c: -(c.v("J42") ** 2),
                  ("J42", 0)),
                N("f6(N(f2,f6))", 2, 6, 6,
                  lambda c: -(c.v("J12") * c.v("J61")),
                  ("J12", 0)),
                N("f6(N(f2,f3))", 2, 3, 6,
                  lambda c: c.v("J52") * c.v("J61"),
                  ("J52", 0)),
                Q("(J^2)_22 = J22^2 >= 0, contradiction", 2, 2,
                  lambda c: c.v("J22") ** 2),
            )),
        Branch(
            "J51 nonzero", assume=("J61", "J62"),
            steps=(
                N("f3(N(f1,f3))", 1, 3, 3,
                  lambda c: c.v("J31") * c.v("J51"),
                  ("J31", 0)),
                N("f1(N(f1,f2))", 1, 2, 1,
                  lambda c: -(c.v("J51") * c.v("J32"))),
                N("f1(N(f1,f3))", 1, 3, 1,
                  lambda c: c.v("J51") * (c.v("J11") - c.v("J33"))),
                N("f5(N(f1,f3))", 1, 3, 5,
                  lambda c: c.v("J51") * (c.v("J51") - c.v("J63")),
                  ("J32", 0), ("J33", lambda c: c.v("J11")),
                  ("J63", lambda c: c.v("J51"))),
                N("f4(N(f2,f5))", 2, 5, 4,
                  lambda c: -(c.v("J42") ** 2)),
                N("f4(N(f1,f3))", 1, 3, 4,
                  lambda c: -(c.v("J41") * c.v("J51")),
                  ("J41", 0), ("J42", 0)),
                N("f1(N(f1,f5))", 1, 5, 1,
                  lambda c: -(c.v("J35") * c.v("J51"))),
                N("f2(N(f1,f5))", 1, 5, 2,
                  lambda c: -(2 * c.v("J21") * c.v("J65") + c.v("J45") * c.v("J51"))),
                N("f5(N(f1,f5))", 1, 5, 5,
                  lambda c: -(c.v("J65") * c.v("J51")),
                  ("J35", 0), ("J45", 0), ("J65", 0)),
                N("f1(N(f2,f3))", 2, 3, 1,
                  lambda c: 2 * c.v("J51") * c.v("J12"),
                  ("J12", 0)),
                N("f5(N(f2,f3))", 2, 3, 5,
                  lambda c: 2 * c.v("J52") * c.v("J51"),
                  ("J52", 0)),
                Q("(J^2)_11 contradiction", 1, 1,
                  lambda c: c.v("J11") ** 2 + c.v("J15") * c.v("J51")),
            )),
        Branch(
            "J52 nonzero", assume=("J51", "J61", "J62"),
            steps=(
                N("f1(N(f1,f2))", 1, 2, 1,
                  lambda c: c.v("J31") * c.v("J52")),
                N("f2(N(f1,f2))", 1, 2, 2,
                  lambda c: c.v("J41") * c.v("J52"),
                  ("J31", 0), ("J41", 0)),
                N("f5(N(f1,f6))", 1, 6, 5,
                  lambda c: c.v("J52") * c.v("J21"),
                  ("J21", 0)),
                Q("(J^2)_11 = J11^2 >= 0, contradiction", 1, 1,
                  lambda c: c.v("J11") ** 2),
            )),
        Branch(
            "J41 nonzero (J65 forced nonzero by (J^2)_55)",
            assume=("J51", "J52", "J61", "J62"),
            steps=(
                N("f4(N(f1,f3))", 1, 3, 4,
                  lambda c: -2 * c.v("J41") * c.v("J63"),
                  ("J63", 0)),
                N("f2(N(f1,f3))", 1, 3, 2,
                  lambda c: c.v("J41") * c.v("J53"),
                  ("J53", 0)),
                N("f5(N(f1,f6))", 1, 6, 5,
                  lambda c: c.v("J54") * c.v("J41")),
                N("f4(N(f1,f4))", 1, 4, 4,
                  lambda c: -2 * c.v("J64") * c.v("J41")),
                N("f4(N(f1,f5))", 1, 5, 4,
                  lambda c: -(c.v("J41")
                              * (c.v("J31") + c.v("J42") + 2 * c.v("J65"))),
                  ("J54", 0), ("J64", 0),
                  ("J42", lambda c: -c.v("J31") - 2 * c.v("J65"))),
                Q("(J^2)_55 = J55^2 + J56 J65", 5, 5,
                  lambda c: c.v("J55") ** 2 + c.v("J56") * c.v("J65")),
                N("f3(N(f2,f5))", 2, 5, 3,
                  lambda c: 4 * c.v("J32") * c.v("J65"),
                  ("J32", 0)),
                N("f3(N(f1,f5))", 1, 5, 3,
                  lambda c: -(c.v("J31") ** 2),
                  ("J31", 0)),
                N("f4(N(f2,f5)) = -4 J65^2 != 0, contradiction", 2, 5, 4,
                  lambda c: -4 * c.v("J65") ** 2),
            )),
        Branch(
            "all zero",
            assume=("J41", "J51", "J52", "J61", "J62"),
            steps=(
                N("f3(N(f1,f5))", 1, 5, 3,
                  lambda c: -(c.v("J31") ** 2),
                  ("J31", 0)),
                N("f4(N(f2,f5))", 2, 5, 4,
                  lambda c: -(c.v("J42") ** 2),
                  ("J42", 0)),
                Step("f1(N(f1,f6)) - (J^2)_11 = -2 J11^2 - 1, but N = 0 "
                     "and J^2 = -Id force the value 1",
                     lambda c: c.n(1, 6, 1) - c.j2(1, 1),
                     lambda c: -2 * c.v("J11") ** 2 - 1),
            )),
    )

    rows.append(ObstructionRow(
        "s6.140^-1|s6.146^-1", "complex", "", "merged", "no_solution",
        samples=({"eps": 0}, {"eps": 1}),
        steps=f1))

    # ---- merged family with nilradical n5.2 -------------------------------
    f2 = (
        Branch(
            "J61 nonzero",
            steps=(
                N("f5(N(f1,f2))", 1, 2, 5,
                  lambda c: -2 * c.v("J52") * c.v("J61")),
                N("f6(N(f1,f2))", 1, 2, 6,
                  lambda c: -2 * c.v("J62") * c.v("J61"),
                  ("J52", 0), ("J62", 0)),
                N("f4(N(f2,f3))", 2, 3, 4,
                  lambda c: c.v("J42") ** 2,
                  ("J42", 0)),
                N("f3(N(f1,f2))", 1, 2, 3,
                  lambda c: -(c.v("J32") * c.v("J61"))),
                N("f6(N(f2,f6))", 2, 6, 6,
                  lambda c: -(c.v("J12") * c.v("J61")),
                  ("J12", 0), ("J32", 0)),
                Q("(J^2)_22 = J22^2 >= 0, contradiction", 2, 2,
                  lambda c: c.v("J22") ** 2),
            )),
        Branch(
            "J62 nonzero", assume=("J61",),
            steps=(
                N("f4(N(f1,f2))", 1, 2, 4,
                  lambda c: -2 * c.v("J41") * c.v("J62"),
                  ("J41", 0)),
                N("f5(N(f1,f3))", 1, 3, 5,
                  lambda c: c.v("J51") ** 2,
                  ("J51", 0)),
                N("f3(N(f1,f2))", 1, 2, 3,
                  lambda c: -(c.v("J31") * c.v("J62"))),
                N("f6(N(f1,f6))", 1, 6, 6,
                  lambda c: c.v("J21") * c.v("J62"),
                  ("J21", 0), ("J31", 0)),
                Q("(J^2)_11 = J11^2 >= 0, contradiction", 1, 1,
                  lambda c: c.v("J11") ** 2),
            )),
        Branch(
            "J63 nonzero", assume=("J61", "J62"),
            steps=(
                N("f6(N(f1,f4))", 1, 4, 6,
                  lambda c: c.v("J51") * c.v("J63")),
                N("f6(N(f1,f5))", 1, 5, 6,
                  lambda c: -(c.v("J41") * c.v("J63")),
                  ("J41", 0), ("J51", 0)),
                N("f3(N(f1,f3))", 1, 3, 3,
                  lambda c: -(c.v("J31") * c.v("J63")),
                  ("J31", 0)),
                N("f2(N(f1,f3))", 1, 3, 2,
                  lambda c: -2 * c.v("J21") * c.v("J63"),
                  ("J21", 0)),
                Q("(J^2)_11 = J11^2 >= 0, contradiction", 1, 1,
                  lambda c: c.v("J11") ** 2),
            )),
        Branch(
            "J64 nonzero", assume=("J61", "J62", "J63"),
            steps=(
                N("f6(N(f4,f5))", 4, 5, 6,
                  lambda c: 2 * c.v("J64") * c.v("J65"),
                  ("J65", 0)),
                N("f6(N(f1,f6))", 1, 6, 6,
                  lambda c: c.v("J41") * c.v("J64")),
                N("f6(N(f2,f6))", 2, 6, 6,
                  lambda c: c.v("J42") * c.v("J64")),
                N("f6(N(f3,f6))", 3, 6, 6,
                  lambda c: c.v("J43") * c.v("J64")),
                N("f6(N(f5,f6))", 5, 6, 6,
                  lambda c: c.v("J45") * c.v("J64"),
                  ("J41", 0), ("J42", 0), ("J43", 0), ("J45", 0)),
                N("f5(N(f1,f3))", 1, 3, 5,
                  lambda c: c.v("J51") ** 2,
                  ("J51", 0)),
                N("f3(N(f1,f5))", 1, 5, 3,
                  lambda c: -(c.v("J31") ** 2),
                  ("J31", 0)),
                N("f2(N(f1,f4))", 1, 4, 2,
                  lambda c: -2 * c.v("J21") * c.v("J64"),
                  ("J21", 0)),
                Q("(J^2)_11 = J11^2 >= 0, contradiction", 1, 1,
                  lambda c: c.v("J11") ** 2),
            )),
        Branch(
            "J65 nonzero (forced by (J^2)_66 = J66^2 + J56 J65 < 0)",
            assume=("J61", "J62", "J63", "J64"),
            steps=(
                Q("(J^2)_61", 6, 1, lambda c: c.v("J51") * c.v("J65")),
                Q("(J^2)_62", 6, 2, lambda c: c.v("J52") * c.v("J65")),
                Q("(J^2)_63", 6, 3, lambda c: c.v("J53") * c.v("J65")),
                Q("(J^2)_64", 6, 4, lambda c: c.v("J54") * c.v("J65"),
                  ("J51", 0), ("J52", 0), ("J53", 0), ("J54", 0)),
                N("f4(N(f2,f3))", 2, 3, 4,
                  lambda c: c.v("J42") ** 2),
                N("f3(N(f2,f4))", 2, 4, 3,
                  lambda c: -(c.v("J32") ** 2),
                  ("J32", 0), ("J42", 0)),
                N("f1(N(f2,f5))", 2, 5, 1,
                  lambda c: 2 * c.v("J12") * c.v("J65"),
                  ("J12", 0)),
                Q("(J^2)_22 = J22^2 >= 0, contradiction", 2, 2,
                  lambda c: c.v("J22") ** 2),
            )),
    )

    rows.append(ObstructionRow(
        "s6.151|s6.155^1", "complex", "", "merged", "no_solution",
        samples=({"eps": 1}, {"eps": 0}),
        steps=f2))

    return rows


# ---------------------------------------------------------------------------
# public registry


_ROWS: Optional[list] = None


def obstruction_table(algebra: Optional[str] = None,
                      condition: Optional[str] = None) -> list:
    """All registered obstruction rows, optionally filtered: ``condition``
    keeps the rows of that condition and the rows that rule it out."""
    global _ROWS
    if _ROWS is None:
        _ROWS = (_rows_twisted() + _rows_lck() + _rows_strg()
                 + _rows_firstg() + _rows_tamed() + _rows_nijenhuis())
    out = _ROWS
    if algebra is not None:
        out = [r for r in out if algebra in r.algebra.split("|")]
    if condition is not None:
        out = [r for r in out if condition == r.condition or condition in rules_out(r)]
    return list(out)


def replay_all(algebra: Optional[str] = None,
               condition: Optional[str] = None) -> list:
    return [replay_obstruction_row(r) for r in obstruction_table(algebra, condition)]
