"""Acceptance gate for the exact Hermitian-geometry engine.

Seven criteria, each with an explicit runtime or correctness budget:

1. catalog integrity  -- every registered algebra passes the structural
   checks on a sampled parameter grid (>= 3 samples per free parameter),
   in under 5 seconds;
2. golden examples    -- every stored example structure verifies exactly,
   including the twisted-certificate details of the s6.154^0 witness,
   in under 10 seconds;
3. obstruction replay -- every registered nonexistence certificate replays
   exactly, and four key residuals are recomputed here from scratch,
   in under 30 seconds;
4. classification grid -- the full existence grid at 50 search restarts
   reproduces the recorded claims with an empty diff, in under 10 minutes;
5. lattice probes     -- the built-in integrality probes produce the
   expected integer matrices to 1e-9;
6. property suites    -- seven randomized algebraic-law suites, 1000 cases
   each, with zero violations;
7. negative controls  -- the four algebras without complex structures
   resist a 200-restart search, and the generic-J contradiction polynomial
   is recomputed symbolically.
"""
import time
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from hermlie import Complexification
from hermlie.catalog import (
    get_entry,
    list_entries,
    negative_controls,
    verify_example,
)
from hermlie.cpx import generic_j_ring, instantiate_family, nijenhuis
from hermlie.forms import Form, all_index_tuples
from hermlie.herm import (
    CHECKERS,
    HermitianMetric,
    first_gauduchon_coefficient,
    fundamental_form,
    is_positive,
    torsion_H,
)
from hermlie import linalg
from hermlie.lattice import builtin_probe
from hermlie.liealg import (
    ce_differential,
    is_strongly_unimodular,
    jacobi_holds,
    parse_structure_equations,
    verify_nilradical,
)
from hermlie.obstructions import replay_all
from hermlie.scalars import GR_I, GR_ONE, GR_ZERO, GaussianRational, PolyRing
from hermlie.search import SearchConfig, classification_sweep, find_complex_structure

from tests.conftest import (
    apply_matrix,
    catalog_complexifications,
    exact_forms,
    gaussian_rationals,
    rational_vectors,
    small_fractions,
)

PROPERTY_SETTINGS = settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much,
                           HealthCheck.data_too_large],
)


# ---------------------------------------------------------------------------
# criterion 1: catalog integrity on sampled parameter grids (< 5 s)
# ---------------------------------------------------------------------------

def test_catalog_integrity_grid():
    nil = [[GR_ONE if t == i else GR_ZERO for t in range(6)] for i in range(5)]
    start = time.perf_counter()
    entries = list_entries()
    assert len(entries) == 34
    checked = 0
    for entry in entries:
        grids = [dict(entry.defaults)]
        for name, default in entry.defaults.items():
            # three samples per free parameter; scaling preserves the sign
            # constraints recorded for each family
            for scale in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
                params = dict(entry.defaults)
                params[name] = default * scale
                grids.append(params)
        for params in grids:
            g = entry.algebra_instance(params=params)
            assert jacobi_holds(g), (entry.name, params)
            assert is_strongly_unimodular(g, nil), (entry.name, params)
            assert verify_nilradical(g, nil)["certified_nilradical"], \
                (entry.name, params)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 34
    assert elapsed < 5.0, f"integrity grid took {elapsed:.2f}s (budget 5s)"


# ---------------------------------------------------------------------------
# criterion 2: golden examples verify exactly (< 10 s)
# ---------------------------------------------------------------------------

def test_golden_examples_verify_exactly():
    start = time.perf_counter()
    total = 0
    for entry in list_entries():
        for ex in entry.examples:
            report = verify_example(ex)
            assert report["ok"], (entry.name, report)
            total += 1
    assert total >= 50
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"golden examples took {elapsed:.2f}s (budget 10s)"


def test_twisted_example_details():
    # the twisted witness on s6.154^0: mu = -2 f6 and
    # H = f146 - f256 - f345 with six linearly independent contractions
    entry = get_entry("s6.154^0")
    ex = next(e for e in entry.examples if "lcskt" in e.conditions)
    assert ex.mu_form() == Form(6, 1, {(6,): GaussianRational(Fraction(-2))})
    cx = Complexification.from_real(ex.algebra_instance(), ex.j())
    om = cx.to_alpha(ex.omega_form())
    H = cx.to_real(torsion_H(cx.frame, om))
    expected = (Form.basis(6, (1, 4, 6), GR_ONE) - Form.basis(6, (2, 5, 6), GR_ONE)
                - Form.basis(6, (3, 4, 5), GR_ONE))
    assert H == expected
    slots = all_index_tuples(6, 2)
    rows = []
    for i in range(6):
        e_i = [GR_ONE if t == i else GR_ZERO for t in range(6)]
        c = H.contract(e_i)
        rows.append([GaussianRational.coerce(c.coeffs.get(s, GR_ZERO))
                     for s in slots])
    assert len(linalg.rref(rows)[1]) == 6


# ---------------------------------------------------------------------------
# criterion 3: obstruction certificates replay exactly (< 30 s)
# ---------------------------------------------------------------------------

def test_obstruction_replay():
    start = time.perf_counter()
    reports = replay_all()
    assert len(reports) == 46
    assert all(r["ok"] and r["runs"] >= 1 for r in reports)
    # every sign choice and sample: a sample dropped from a shared sample
    # tuple changes this total
    assert sum(r["runs"] for r in reports) == 106
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"replay took {elapsed:.2f}s (budget 30s)"


def _generic_omega(ring):
    return fundamental_form(HermitianMetric(
        [ring.var("l1"), ring.var("l2"), ring.var("l3")],
        [ring.var("w1"), ring.var("w2"), ring.var("w3")]))


def test_key_residuals_recomputed_from_scratch():
    # four closed-form residuals, rebuilt here without the replay registry
    ring = PolyRing(real_vars=["l1", "l2", "l3"],
                    complex_vars=["w1", "w2", "w3", "nu"])
    frame = instantiate_family("N51-145", {"nu": ring.var("nu"), "c": 1})
    c = first_gauduchon_coefficient(frame, _generic_omega(ring))
    l1 = ring.var("l1")
    assert ring.coerce(c) == -2 * l1 * l1

    ring = PolyRing(real_vars=["l1", "l2", "l3"],
                    complex_vars=["w1", "w2", "w3"])
    frame = instantiate_family("HT-s6.162^1", {})
    om = _generic_omega(ring)
    dH = frame.d(torsion_H(frame, om))
    assert ring.coerce(dH.coeff(2, 3, 5, 6)) == 4 * ring.var("l1")

    for eps in (1, -1):
        ring = PolyRing(real_vars=["l1", "l2", "l3", "b1", "b2", "b3"],
                        complex_vars=["w1", "w2", "w3"])
        frame = instantiate_family("HT-h3+s3.3^0", {"eps": eps})
        om = _generic_omega(ring)
        l1, l2 = ring.var("l1"), ring.var("l2")
        w3 = ring.var("w3")
        # strongly-Gauduchon residual against an arbitrary potential
        beta = Form(6, 3, {(1, 2, 3): ring.one()}).wedge(Form(6, 1, {
            (4,): ring.var("b1"), (5,): ring.var("b2"), (6,): ring.var("b3")}))
        res = frame.del_(om.wedge(om)) - frame.dbar(beta)
        expected = (-2 * eps) * GR_I * (l1 * l2 - w3 * w3.conj())
        assert ring.coerce(res.coeff(1, 2, 3, 5, 6)) == expected
        # taming residual against an arbitrary del-closed (2,0)-potential
        beta2 = Form(6, 2, {(1, 2): ring.var("b1"), (1, 3): ring.var("b2")})
        res2 = frame.del_(om) - frame.dbar(beta2)
        assert ring.coerce(res2.coeff(1, 3, 6)) == eps * l1


# ---------------------------------------------------------------------------
# criterion 4: classification grid reproduces the recorded claims (< 600 s)
# ---------------------------------------------------------------------------

def test_classification_grid():
    start = time.perf_counter()
    result = classification_sweep(
        cfg=SearchConfig(seed=0, restarts=50, max_iters=40))
    elapsed = time.perf_counter() - start
    assert result["ok"], result["mismatches"]
    assert not result["mismatches"]

    def verified(cond):
        return {r["algebra"] for r in result["rows"]
                if r["cells"][cond]["status"] == "verified-example"}

    assert verified("kahler") == {"s3.3^0+R3", "s5.13^p,-p,r+R"}
    assert len(verified("skt")) == 15
    assert len(verified("lcskt")) == 8
    assert len(verified("balanced")) == 13
    # every balanced witness doubles as a strongly Gauduchon witness
    assert verified("strongly_gauduchon") == verified("balanced")
    claimed_fg = {e.name for e in list_entries()
                  if e.claims.get("first_gauduchon", "never") != "never"}
    assert verified("first_gauduchon") == claimed_fg
    assert len(claimed_fg) == 21
    assert all(c["status"] == "obstruction-replayed"
               for c in result["controls"])
    assert elapsed < 600.0, f"grid took {elapsed:.1f}s (budget 600s)"


# ---------------------------------------------------------------------------
# criterion 5: lattice probes
# ---------------------------------------------------------------------------

def test_lattice_probe_integer_matrices():
    report = builtin_probe("s6.147^0")
    assert report["status"] == "integral"
    expected = [[1, 0, 2, 0, 0],
                [0, 1, 0, 2, 0],
                [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0],
                [0, 0, 0, 0, 1]]
    assert report["rounded"] == expected
    err = np.abs(np.array(report["matrix"]) - np.array(expected)).max()
    assert err < 1e-9

    report = builtin_probe("s6.154^0")
    assert report["status"] == "integral"
    assert report["rounded"] == np.eye(5, dtype=int).tolist()
    err = np.abs(np.array(report["matrix"]) - np.eye(5)).max()
    assert err < 1e-9


# ---------------------------------------------------------------------------
# criterion 6: randomized law suites (1000 cases each, zero violations)
# ---------------------------------------------------------------------------

def _cx_strategy():
    return st.sampled_from(catalog_complexifications())


def _pure_type_form(draw, frame_dim=6):
    p = draw(st.integers(min_value=0, max_value=2))
    q = draw(st.integers(min_value=0, max_value=2))
    from hermlie.cpx import monomial_type

    keys = [k for k in all_index_tuples(frame_dim, p + q)
            if monomial_type(k) == (p, q)]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)
                  ) if keys else []
    return Form(frame_dim, p + q, {k: draw(gaussian_rationals) for k in chosen})


class TestPropertySuites:
    @PROPERTY_SETTINGS
    @given(st.data())
    def test_exterior_algebra_axioms(self, data):
        p = data.draw(st.integers(min_value=0, max_value=3))
        q = data.draw(st.integers(min_value=0, max_value=3))
        r = data.draw(st.integers(min_value=0, max_value=2))
        u1 = data.draw(exact_forms(degree=p))
        u2 = data.draw(exact_forms(degree=p))
        v = data.draw(exact_forms(degree=q))
        w = data.draw(exact_forms(degree=r))
        a = data.draw(gaussian_rationals)
        b = data.draw(gaussian_rationals)
        assert (u1 * a + u2 * b).wedge(v) == u1.wedge(v) * a + u2.wedge(v) * b
        sign = -1 if (p * q) % 2 else 1
        assert u1.wedge(v) == v.wedge(u1) * sign
        assert u1.wedge(v).wedge(w) == u1.wedge(v.wedge(w))

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_differential_is_an_antiderivation(self, data):
        from tests.conftest import catalog_algebras

        g = data.draw(st.sampled_from(catalog_algebras()))
        p = data.draw(st.integers(min_value=0, max_value=2))
        q = data.draw(st.integers(min_value=0, max_value=2))
        u = data.draw(exact_forms(degree=p))
        v = data.draw(exact_forms(degree=q))
        du = ce_differential(g, u)
        dv = ce_differential(g, v)
        sign = -1 if p % 2 else 1
        assert ce_differential(g, u.wedge(v)) == du.wedge(v) + u.wedge(dv) * sign
        assert not ce_differential(g, du)

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_bigrade_reassembly(self, data):
        cx = data.draw(_cx_strategy())
        deg = data.draw(st.integers(min_value=0, max_value=3))
        w = data.draw(exact_forms(degree=deg))
        total = Form.zero(6, deg)
        for p in range(deg + 1):
            part = cx.frame.project(w, p, deg - p)
            assert cx.frame.project(part, p, deg - p) == part
            total = total + part
        assert total == w

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_dolbeault_operators_square_to_zero(self, data):
        cx = data.draw(_cx_strategy())
        f = _pure_type_form(data.draw)
        fr = cx.frame
        assert not fr.del_(fr.del_(f))
        assert not fr.dbar(fr.dbar(f))
        assert fr.del_(fr.dbar(f)) + fr.dbar(fr.del_(f)) == Form.zero(6, f.degree + 2)

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_torsion_dual_formula(self, data):
        # d^c omega (X, Y, Z) = -d omega (JX, JY, JZ)
        cx = data.draw(_cx_strategy())
        lams = [GaussianRational(data.draw(small_fractions)) for _ in range(3)]
        ws = [data.draw(gaussian_rationals) for _ in range(3)]
        om = fundamental_form(HermitianMetric(lams, ws))
        om_real = cx.to_real(om)
        H_real = cx.to_real(torsion_H(cx.frame, om))
        dom = ce_differential(cx.g, om_real)
        X = data.draw(rational_vectors())
        Y = data.draw(rational_vectors())
        Z = data.draw(rational_vectors())
        jx, jy, jz = (apply_matrix(cx.J, v) for v in (X, Y, Z))
        lhs = GaussianRational.coerce(H_real.evaluate(X, Y, Z))
        rhs = -GaussianRational.coerce(dom.evaluate(jx, jy, jz))
        assert lhs == rhs

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_implication_lattice(self, data):
        cx = data.draw(_cx_strategy())
        # positive metric via an exact Cholesky factor L L^H
        diag = [GaussianRational(data.draw(
            st.fractions(min_value=Fraction(1, 3), max_value=3,
                         max_denominator=4))) for _ in range(3)]
        low = [data.draw(gaussian_rationals) for _ in range(3)]
        L = [[diag[0], GR_ZERO, GR_ZERO],
             [low[0], diag[1], GR_ZERO],
             [low[1], low[2], diag[2]]]
        H = [[sum((L[i][k] * L[j][k].conj() for k in range(3)),
                  start=GR_ZERO) for j in range(3)] for i in range(3)]
        m = HermitianMetric(
            [H[0][0], H[1][1], H[2][2]],
            [GR_I * H[1][2], GR_I * H[0][2], GR_I * H[0][1]])
        assert is_positive(m)
        om = fundamental_form(m)
        res = {name: bool(fn(cx, om)) for name, fn in CHECKERS.items()}
        implications = {
            "kahler": ("skt", "balanced", "lck", "lcb",
                       "first_gauduchon", "strongly_gauduchon"),
            "skt": ("first_gauduchon",),
            "balanced": ("strongly_gauduchon", "lcb"),
            "lck": ("lcb",),
        }
        for src, targets in implications.items():
            if res[src]:
                for t in targets:
                    assert res[t], (src, t, res)

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_polynomial_evaluation_homomorphism(self, data):
        ring = PolyRing(real_vars=["x", "y"], complex_vars=["z"])

        def poly(depth=2):
            gens = [ring.var(n) for n in ("x", "y", "z", "z~")]
            p = ring.constant(data.draw(gaussian_rationals))
            for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
                term = ring.constant(data.draw(gaussian_rationals))
                for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
                    term = term * data.draw(st.sampled_from(gens))
                p = p + term
            return p

        p, q, r = poly(), poly(), poly()
        z = data.draw(gaussian_rationals)
        vals = {"x": GaussianRational(data.draw(small_fractions)),
                "y": GaussianRational(data.draw(small_fractions)),
                "z": z, "z~": z.conj()}
        ev = lambda s: s.evaluate(vals)
        assert ev(p * q + r) == ev(p) * ev(q) + ev(r)
        assert ev(p - q) == ev(p) - ev(q)
        # conjugation is compatible with conjugation-consistent values
        assert ev(p.conj()) == ev(p).conj()


# ---------------------------------------------------------------------------
# criterion 7: negative controls resist the search
# ---------------------------------------------------------------------------

def test_negative_controls_resist_complex_structure_search():
    controls = negative_controls()
    assert len(controls) == 4
    for entry in controls:
        g = entry.algebra_instance()
        out = find_complex_structure(
            g, SearchConfig(seed=0, restarts=200, max_iters=60))
        assert out.status == "exhausted", entry.name
        assert min(out.best_residuals) > 1e-3, \
            (entry.name, min(out.best_residuals))


def test_generic_j_contradiction_polynomial():
    # on the first control the full Nijenhuis tensor with a symbolic J gives
    # f^4(N(f1, f2)) = -2 J41 J62 before any case split
    ring, J = generic_j_ring(6)
    g = parse_structure_equations("(f35+f16, f45-f26, f36, -f46, 0, 0)")
    N = nijenhuis(g, J)
    assert ring.coerce(N[(1, 2)][3]) == -2 * ring.var("J41") * ring.var("J62")
