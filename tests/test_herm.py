"""Hermitian metrics, derived quantities, and the structure checkers.

Oracles: metric positivity against numerical eigenvalues, of the 3x3 Hermitian
matrix and of the real Gram matrix omega(X, JY); torsion/Lee forms on
catalog structures whose values are recomputed here by hand (the torsion
3-form of the s6.154^0 twisted example and the Lee form of the s5.4^0+R
pluriclosed example have short closed-form expressions), and the Lee form
against its definition solved in the real coframe.
"""
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hermlie import Complexification, linalg
from hermlie.catalog import get_entry, list_entries
from hermlie.forms import Form, all_index_tuples
from hermlie.herm import (
    CHECKERS,
    HermitianMetric,
    check_all,
    check_lck,
    closed_one_forms,
    first_gauduchon_coefficient,
    fundamental_form,
    is_positive,
    is_positive_form,
    lee_form,
    metric_from_alpha_form,
    torsion_H,
    verify_twisted_certificate,
)
from hermlie.liealg import ce_differential
from hermlie.scalars import GR_I, GR_ONE, GR_ZERO, GaussianRational
from hermlie.search import entry_complexification

# the benchmark's session workload draws its seeded metrics from its pools
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import workloads  # noqa: E402


def example_cx(name, condition):
    entry = get_entry(name)
    ex = next(e for e in entry.examples if condition in e.conditions)
    g = ex.algebra_instance()
    cx = Complexification.from_real(g, ex.j())
    return ex, cx, cx.to_alpha(ex.omega_form())


def gram_verdict(cx, omega_real, margin=1e-9):
    """Float positivity of g(X, Y) = omega(X, JY) on the real basis: False if
    g is not symmetric, None if its smallest eigenvalue is within ``margin``
    of 0."""
    n = cx.g.dim
    basis = [[GR_ONE if t == i else GR_ZERO for t in range(n)] for i in range(n)]
    jcols = [[cx.J[i][j] for i in range(n)] for j in range(n)]
    G = np.array([[complex(GaussianRational.coerce(omega_real.evaluate(basis[i], jcols[j])))
                   for j in range(n)] for i in range(n)])
    if np.abs(G - G.T).max() > margin:
        return False
    low = np.linalg.eigvalsh(G.real).min()
    return None if abs(low) <= margin else bool(low > 0)


def real_coframe_lee_form(cx, omega):
    """The Lee form by its definition in the real coframe: the unique theta
    with d omega^2 = theta ^ omega^2, one row per real 5-form monomial."""
    om_real = cx.to_real(omega)
    om2 = om_real.wedge(om_real)
    dom2 = ce_differential(cx.g, om2)
    cols = [Form.basis(6, (i,)).wedge(om2) for i in range(1, 7)]
    keys = all_index_tuples(6, 5)
    mat = [[c.coeff(*k) for c in cols] for k in keys]
    assert not linalg.nullspace(mat)
    sol = linalg.solve(mat, [dom2.coeff(*k) for k in keys])
    return Form(6, 1, {(i + 1,): sol[i] for i in range(6)})


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


class TestMetrics:
    def test_fundamental_form_roundtrip(self):
        m = HermitianMetric([gr(2), gr(1), gr(3)],
                            [gr(1, 1), gr(0, -1), gr(1, -2)])
        m2 = metric_from_alpha_form(fundamental_form(m))
        assert list(m2.lams) == list(m.lams)
        assert list(m2.ws) == list(m.ws)

    @pytest.mark.parametrize("lams,ws", [
        ((2, 1, 3), (0, 0, 0)),
        ((2, 1, 3), ("1+1j", "-1j", "1-2j")),
        ((1, 1, 1), ("0.5j", 0, 0)),
        ((1, 5, 1), (0, 0, "2+0.25j")),
        ((1, 1, 1), ("0.999j", "0.999", "0.5+0.5j")),
    ])
    def test_positivity_matches_sympy(self, lams, ws):
        def to_gr(x):
            z = complex(x)
            return GaussianRational(Fraction(z.real), Fraction(z.imag))

        lams_gr = [to_gr(l) for l in lams]
        ws_gr = [to_gr(w) for w in ws]
        m = HermitianMetric(lams_gr, ws_gr)
        w1, w2, w3 = (complex(w) for w in ws_gr)
        l1, l2, l3 = (complex(l).real for l in lams_gr)
        # convention: the (2,3) slot of the matrix carries -i*w1, etc.
        H = np.array([
            [l1, -1j * w3, -1j * w2],
            [np.conj(-1j * w3), l2, -1j * w1],
            [np.conj(-1j * w2), np.conj(-1j * w1), l3],
        ])
        expected = bool(np.linalg.eigvalsh(H).min() > 1e-12)
        assert is_positive(m) == expected

    def test_positivity_rejects_imaginary_diagonal(self):
        m = HermitianMetric([GR_I, gr(1), gr(1)], [GR_ZERO] * 3)
        with pytest.raises(ValueError):
            is_positive(m)

    def test_real_and_alpha_positivity_agree(self):
        _, cx, om = example_cx("s6.25", "skt")
        assert is_positive(metric_from_alpha_form(om))
        assert is_positive_form(om)
        assert not is_positive_form(-om)

    def test_positive_form_matches_gram_eigenvalues(self):
        # golden +-omega, random metrics with one w scaled across the
        # positivity boundary, and golden omega plus a random real 2-form,
        # which is almost never of type (1,1)
        rng = random.Random(13)

        def q(lo, hi):
            return Fraction(rng.randint(lo, hi), rng.randint(1, 4))

        verdicts = {True: 0, False: 0}
        for entry in list_entries():
            for ex in entry.examples:
                if not ex.omega:
                    continue
                cx = Complexification.from_real(ex.algebra_instance(), ex.j())
                om_real = ex.omega_form()
                forms = [om_real, -om_real]
                for _ in range(2):
                    ws = [GaussianRational(q(-2, 2), q(-2, 2)) for _ in range(3)]
                    k = rng.randrange(3)
                    for scale in ("1/4", "1/2", "1", "2", "4"):
                        ws_k = [w * GaussianRational(scale) if i == k else w
                                for i, w in enumerate(ws)]
                        metric = HermitianMetric([q(2, 8) for _ in range(3)], ws_k)
                        forms.append(cx.to_real(fundamental_form(metric)))
                noise = Form(6, 2, {(i, j): GaussianRational(Fraction(rng.randint(-2, 2), 16))
                                    for i in range(1, 7) for j in range(i + 1, 7)})
                forms.append(om_real + noise)
                for form in forms:
                    expected = gram_verdict(cx, form)
                    if expected is None:
                        continue
                    assert is_positive_form(cx.to_alpha(form)) == expected, \
                        (ex.algebra, form)
                    verdicts[expected] += 1
        assert min(verdicts.values()) > 100, verdicts


class TestDerivedQuantities:
    def test_torsion_three_form_oracle(self):
        # omega = f12 + f36 - f45 on s6.154^0 has H = f146 - f256 - f345
        _, cx, om = example_cx("s6.154^0", "lcskt")
        H = cx.to_real(torsion_H(cx.frame, om))
        expected = (Form.basis(6, (1, 4, 6), GR_ONE) - Form.basis(6, (2, 5, 6), GR_ONE)
                    - Form.basis(6, (3, 4, 5), GR_ONE))
        assert H == expected

    def test_torsion_vanishes_iff_kahler(self):
        _, cx, om = example_cx("s3.3^0+R3", "kahler")
        assert not torsion_H(cx.frame, om)

    def test_lee_form_oracle(self):
        # omega = f15 + f26 + f34 on s5.4^0+R: d omega^2 = f5 ^ omega^2
        _, cx, om = example_cx("s5.4^0+R", "skt")
        theta = lee_form(cx, om)
        assert theta == Form(6, 1, {(5,): GR_ONE})
        om2 = cx.to_real(om).wedge(cx.to_real(om))
        assert ce_differential(cx.g, om2) == theta.wedge(om2)

    @pytest.mark.parametrize("ex", [ex for e in list_entries() for ex in e.examples
                                    if ex.omega], ids=lambda ex: ex.algebra)
    def test_lee_form_matches_real_coframe_on_golden_examples(self, ex):
        g, J, om_real, _ = ex.parse()
        cx = Complexification.from_real(g, J)
        om = cx.to_alpha(om_real)
        assert repr(lee_form(cx, om)) == repr(real_coframe_lee_form(cx, om))

    def test_lee_form_matches_real_coframe_on_the_session_pools(self):
        for entry in list_entries():
            cx = entry_complexification(entry)
            for i in range(workloads.METRIC_POOL):
                om = fundamental_form(workloads.pool_metric(entry.name, i))
                theta = lee_form(cx, om)
                assert repr(theta) == repr(real_coframe_lee_form(cx, om)), (entry.name, i)

    def test_lee_form_memo_is_never_stale(self):
        # theta is served from the last call only while omega is unchanged
        _, cx, om1 = example_cx("s5.4^0+R", "skt")
        om2 = fundamental_form(HermitianMetric([gr(1), gr(2), gr(3)],
                                               [gr(0, 1), GR_ZERO, gr(1, -1)]))

        def fresh(om):
            theta = lee_form(Complexification(cx.g, cx.J, cx.alphas), om)
            sq = cx.to_real(om).wedge(cx.to_real(om))
            assert ce_differential(cx.g, sq) == theta.wedge(sq)
            return theta

        want1, want2 = fresh(om1), fresh(om2)
        assert want1 != want2
        for om, want in [(om1, want1), (om2, want2), (om1, want1), (om1, want1),
                         (om2, want2)]:
            assert lee_form(cx, om) == want
        om2.coeffs[(1, 4)] = gr(0, 5)  # l1 = 5, mutated in place
        want3 = fresh(om2)
        assert want3 != want2 and lee_form(cx, om2) == want3

    def test_lee_form_zero_on_balanced(self):
        _, cx, om = example_cx("s5.16+R", "balanced")
        assert not lee_form(cx, om)

    def test_closed_one_forms_are_closed(self):
        _, cx, _ = example_cx("s6.25", "skt")
        basis = closed_one_forms(cx)
        assert basis
        for theta in basis:
            assert not ce_differential(cx.g, theta)

    def test_first_gauduchon_coefficient_matches_checker(self):
        _, cx, om = example_cx("s6.25", "skt")
        c = first_gauduchon_coefficient(cx.frame, om)
        report = CHECKERS["first_gauduchon"](cx, om)
        assert report.holds == (not c)


class TestCheckers:
    def test_kahler_example_satisfies_everything(self):
        _, cx, om = example_cx("s3.3^0+R3", "kahler")
        results = check_all(cx, om)
        assert all(bool(r) for r in results.values())

    def test_skt_example(self):
        _, cx, om = example_cx("s6.25", "skt")
        results = check_all(cx, om)
        assert results["skt"] and results["first_gauduchon"]
        assert not results["kahler"] and not results["balanced"]

    def test_twisted_certificate(self):
        ex, cx, om = example_cx("s6.154^0", "lcskt")
        assert verify_twisted_certificate(cx, om, ex.mu_form())
        wrong = ex.mu_form() * 2
        assert not verify_twisted_certificate(cx, om, wrong)

    def test_twisted_certificate_requires_closed_mu(self):
        ex, cx, om = example_cx("s6.154^0", "lcskt")
        not_closed = Form(6, 1, {(1,): GR_ONE})
        if ce_differential(cx.g, not_closed):
            assert not verify_twisted_certificate(cx, om, not_closed)

    def test_lck_cross_formulation(self):
        # both the Lee-form identity and the linear-solve variant must agree;
        # check_lck raises if they ever disagree
        for name, cond in (("s6.159", "lck"), ("s6.25", "skt")):
            _, cx, om = example_cx(name, cond)
            check_lck(cx, om)

    def test_reports_expose_certificates(self):
        _, cx, om = example_cx("s6.154^0", "lcskt")
        r = CHECKERS["lcskt"](cx, om)
        assert r.holds and "mu" in r.certificate
        assert bool(r) is r.holds
