"""Randomized searches with exact verification of every reported witness."""
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermlie import Complexification, search
from hermlie.catalog import get_entry, list_entries
from hermlie.cpx import is_integrable, nijenhuis, squares_to_minus_id
from hermlie.herm import (
    CHECKERS,
    HermitianMetric,
    fundamental_form,
    is_positive,
    metric_from_alpha_form,
)
from hermlie.liealg import parse_structure_equations
from hermlie.obstructions import obstruction_table
from hermlie.scalars import GaussianRational
from hermlie.search import (
    J_BOUNDS,
    METRIC_BOUNDS,
    SearchConfig,
    _MetricResidual,
    _best_rationals,
    _exactify_j,
    _exactify_metric,
    _j_model,
    _lm_minimize,
    _metric_objective,
    _p_from_raw,
    _structure_tensor,
    classification_sweep,
    entry_complexification,
    find_complex_structure,
    find_metric,
    j_residual_kernel,
)

ABELIAN = parse_structure_equations("(0, 0, 0, 0, 0, 0)", name="abelian")


class TestConfig:
    def test_validation(self):
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SearchConfig(tol=tol)
        with pytest.raises(ValueError):
            SearchConfig(restarts=0)
        with pytest.raises(ValueError):
            SearchConfig(max_iters=-1)
        assert SearchConfig(max_iters=0).max_iters == 0

    def test_seed_env_default(self, monkeypatch):
        monkeypatch.setenv("HERMLIE_SEED", "17")
        assert SearchConfig().seed == 17
        monkeypatch.setenv("HERMLIE_SEED", "junk")  # an error, not silently seed 0
        with pytest.raises(ValueError, match="HERMLIE_SEED must be an integer"):
            SearchConfig()


class TestResidualKernels:
    def test_zero_residual_iff_integrable(self):
        ex = get_entry("s6.145^0").examples[0]
        g = ex.algebra_instance()
        model = _j_model(_structure_tensor(g))
        J = np.array([[float(complex(x).real) for x in row] for row in ex.j()])
        r, _ = j_residual_kernel()(model, J.reshape(-1))
        assert np.abs(r).max() < 1e-12

    @pytest.mark.parametrize(
        "entry", list_entries(include_controls=True), ids=lambda e: e.name)
    def test_jacobian_matches_central_difference(self, entry):
        kernel = j_residual_kernel()
        model = _j_model(_structure_tensor(entry.algebra_instance()))
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(3):
            x = rng.uniform(-2.0, 2.0, 36)
            _, jac = kernel(model, x)
            steps = np.eye(36) * h
            fd = np.stack([(kernel(model, x + e)[0] - kernel(model, x - e)[0]) / (2 * h)
                           for e in steps], axis=1)
            # the residual is quadratic, so the central difference is exact
            # up to rounding
            np.testing.assert_allclose(jac, fd, rtol=0, atol=1e-6)

    def test_residual_matches_exact_nijenhuis(self):
        g = get_entry("s6.167").algebra_instance()
        rng = np.random.default_rng(3)
        Jq = [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6)))
               for _ in range(6)] for _ in range(6)]
        comps = nijenhuis(g, Jq)
        assert not any(c.im for vec in comps.values() for c in vec)
        N = [float(comps[(a + 1, b + 1)][i].re)
             for i in range(6) for a, b in combinations(range(6), 2)]
        sq = [float(sum(Jq[i][m] * Jq[m][k] for m in range(6)) + (i == k))
              for i in range(6) for k in range(6)]
        x = np.array([float(v) for row in Jq for v in row])
        r, _ = j_residual_kernel()(_j_model(_structure_tensor(g)), x)
        np.testing.assert_allclose(r, N + sq, rtol=1e-12, atol=1e-12)


class TestLevenbergMarquardt:
    @staticmethod
    def rosenbrock(x):
        return (np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
                np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]]))

    def test_rosenbrock_reaches_the_minimum(self):
        x, nrm = _lm_minimize(self.rosenbrock, np.array([-1.2, 1.0]), SearchConfig())
        assert nrm < 1e-10
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=0, atol=1e-10)

    def test_converged_start_is_returned_unchanged(self):
        x0 = np.array([1.0, 1.0 + 1e-14])
        x, nrm = _lm_minimize(self.rosenbrock, x0, SearchConfig(tol=1e-10))
        assert np.array_equal(x, x0)
        assert nrm == np.abs(self.rosenbrock(x0)[0]).max() < 1e-12

    @pytest.mark.parametrize("max_iters", [0, 1, 3, 10])
    def test_at_most_eight_trial_steps_per_iteration(self, max_iters):
        calls = []

        def counted(fn):
            def wrapped(x):
                calls.append(x)
                return fn(x)
            return wrapped

        cfg = SearchConfig(max_iters=max_iters)
        _lm_minimize(counted(self.rosenbrock), np.array([-1.2, 1.0]), cfg)
        assert 1 <= len(calls) <= 1 + 8 * max_iters
        calls.clear()
        # r = 1 + x^2 is smallest at the start x = 0, so the first iteration
        # rejects all eight trial steps and the loop stops
        _lm_minimize(counted(lambda x: (1.0 + x ** 2, np.array([2.0 * x]))), np.zeros(1), cfg)
        assert len(calls) == 1 + 8 * min(max_iters, 1)


class TestComplexStructureSearch:
    def test_abelian_found_immediately(self):
        out = find_complex_structure(ABELIAN, SearchConfig(restarts=1))
        assert out.status == "found"
        J = out.witness["J_exact"]
        assert J is not None and squares_to_minus_id(J)
        assert is_integrable(ABELIAN, J)

    def test_witness_is_exactly_integrable(self):
        g = get_entry("s6.145^0").algebra_instance()
        out = find_complex_structure(g, SearchConfig(restarts=5))
        assert out.status == "found"
        assert is_integrable(g, out.witness["J_exact"])

    def test_unreconstructed_hit_is_float_only(self):
        g = get_entry("s6.25").algebra_instance()
        out = find_complex_structure(g, SearchConfig(seed=0, restarts=5))
        assert out.status == "float-only"
        assert out.witness["J_exact"] is None
        x = np.array(out.witness["J_float"]).reshape(-1)
        r, _ = j_residual_kernel()(_j_model(_structure_tensor(g)), x)
        assert np.abs(r).max() <= 1e-10

    def test_deterministic_for_fixed_seed(self):
        g = get_entry("s6.140^-1").algebra_instance()
        cfg = SearchConfig(seed=1, restarts=4, max_iters=25)
        a = find_complex_structure(g, cfg)
        b = find_complex_structure(g, cfg)
        assert a.status == b.status == "exhausted"
        assert a.best_residuals == b.best_residuals

    def test_control_exhausts(self):
        g = get_entry("s6.151").algebra_instance()
        out = find_complex_structure(g, SearchConfig(restarts=10, max_iters=40))
        assert out.status == "exhausted"
        assert min(out.best_residuals) > 1e-3


# ---------------------------------------------------------------------------
# rational reconstruction: one continued-fraction expansion per float gives
# the candidates the per-bound limit_denominator loop gave


def _limit_denominators(x, bounds):
    return [(f.numerator, f.denominator)
            for f in (Fraction(x).limit_denominator(b) for b in bounds)]


def _reference_exactify_j(g, x):
    """The per-bound reconstruction loop the search used to run."""
    vals = x.reshape(6, 6)
    previous = None
    for bound in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128, 1000, 10**6):
        Jq = [[GaussianRational.coerce(Fraction(float(v)).limit_denominator(bound))
               for v in row] for row in vals]
        if Jq == previous:
            continue
        previous = Jq
        if not squares_to_minus_id(Jq):
            continue
        if not any(c for vec in nijenhuis(g, Jq).values() for c in vec):
            return Jq
    return None


def _reference_exactify_metric(cx, condition, raw):
    """The per-bound metric reconstruction loop the search used to run."""
    p = _p_from_raw(raw)[0]
    p = (p * (3.0 / (p[0] + p[1] + p[2]))).tolist()
    previous = None
    for bound in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128, 1000, 10**5):
        q = [Fraction(x).limit_denominator(bound) for x in p]
        lams, ws = q[:3], [GaussianRational(q[k], q[k + 1]) for k in (3, 5, 7)]
        if (lams, ws) == previous:
            continue
        previous = (lams, ws)
        metric = HermitianMetric(lams, ws)
        if not is_positive(metric):
            continue
        omega = fundamental_form(metric)
        report = CHECKERS[condition](cx, omega)
        if report.holds:
            return metric, omega, report
    return None


def _same_exact(a, b):
    """Equal, and built from the same types (Fraction, GaussianRational)."""
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same_exact(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b


@pytest.fixture(scope="module")
def seed0_j_witnesses():
    """(algebra, seed-0 J_float) of every catalog algebra, and the statuses."""
    out, statuses = [], []
    for entry in list_entries():
        g = entry.algebra_instance()
        outcome = find_complex_structure(g, SearchConfig(seed=0))
        statuses.append(outcome.status)
        out.append((g, np.array(outcome.witness["J_float"]).reshape(-1)))
    return out, statuses


class TestRationalReconstruction:
    def test_bounds_are_the_searched_ones(self):
        assert J_BOUNDS == (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128, 1000, 10**6)
        assert METRIC_BOUNDS == (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128, 1000, 10**5)

    @pytest.mark.parametrize("x", [
        0.0, -0.0, 1.0, -3.0, 2.0 ** 53, 0.5, -0.5, 1.5, 2.5, 0.125, -2 / 3, 1 / 3,
        5 / 7, 0.1, 1e-7, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
        1e300, -1e300, 1.7976931348623157e308, 3.141592653589793,
    ])
    def test_best_rationals_match_limit_denominator(self, x):
        for bounds in (J_BOUNDS, METRIC_BOUNDS):
            assert _best_rationals(x, bounds) == _limit_denominators(x, bounds)

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_best_rationals_property(self, x):
        for bounds in (J_BOUNDS, METRIC_BOUNDS):
            assert _best_rationals(x, bounds) == _limit_denominators(x, bounds)

    def test_j_reconstruction_unchanged_on_seed0_witnesses(self, seed0_j_witnesses):
        witnesses, statuses = seed0_j_witnesses
        assert len(witnesses) == 34
        assert (statuses.count("found"), statuses.count("float-only")) == (10, 24)
        for k, (g, x) in enumerate(witnesses):
            assert _same_exact(_exactify_j(g, x), _reference_exactify_j(g, x)), g.name
            moved = x.copy()
            moved[(7 * k) % 36] += 1e-3
            assert _same_exact(_exactify_j(g, moved), _reference_exactify_j(g, moved)), g.name

    def test_metric_reconstruction_unchanged_on_seed0_hits(self):
        hits = 0
        for entry in list_entries():
            for ex in entry.examples:
                cx = Complexification.from_real(ex.algebra_instance(), ex.j())
                for cond in ex.conditions:
                    outcome = find_metric(cx, cond, SearchConfig(seed=0))
                    if outcome.status != "found":
                        continue
                    hits += 1
                    raw = np.array(outcome.witness["raw"])
                    got = _exactify_metric(cx, cond, raw)
                    want = _reference_exactify_metric(cx, cond, raw)
                    assert _same_exact(list(got[0].lams), list(want[0].lams))
                    assert _same_exact(list(got[0].ws), list(want[0].ws))
                    assert got[1] == want[1] and got[2].holds == want[2].holds
        assert hits == 113  # of 114 claimed (example, condition) pairs


GOLDEN_METRICS = [(f"{entry.name}#{k}", ex) for entry in list_entries()
                  for k, ex in enumerate(entry.examples) if ex.omega]


class TestMetricResidual:
    @pytest.mark.parametrize("ex", [ex for _, ex in GOLDEN_METRICS],
                             ids=[name for name, _ in GOLDEN_METRICS])
    def test_vanishes_where_the_exact_checker_holds(self, ex):
        cx = Complexification.from_real(ex.algebra_instance(), ex.j())
        omega = cx.to_alpha(ex.omega_form())
        metric = metric_from_alpha_form(omega)
        # p = (l1, l2, l3, Re w1, Im w1, Re w2, Im w2, Re w3, Im w3)
        p = np.array([float(GaussianRational.coerce(c).re) for c in metric.lams]
                     + [float(part) for w in metric.ws
                        for part in (GaussianRational.coerce(w).re,
                                     GaussianRational.coerce(w).im)])
        holding = {cond for cond, check in CHECKERS.items() if check(cx, omega).holds}
        assert set(ex.conditions) <= holding
        for cond in holding:
            assert np.abs(_MetricResidual(cx, cond)(p)).max() < 1e-9, cond

    @pytest.mark.parametrize("entry", list_entries(), ids=lambda e: e.name)
    def test_matches_the_exact_residual(self, entry):
        # the residual rows are the real, then the imaginary parts of the
        # condition's form of omega = sum_s p_s B_s on its slots
        cx = entry_complexification(entry)
        frame = cx.frame
        exact = {
            "kahler": (3, lambda om: frame.d(om)),
            "skt": (4, lambda om: frame.del_(frame.dbar(om))),
            "balanced": (5, lambda om: frame.d(om.wedge(om))),
            "first_gauduchon": (6, lambda om: frame.del_(frame.dbar(om)).wedge(om)),
        }
        rng = np.random.default_rng(11)
        # dyadic p, so that the float p is the rational one
        points = [[Fraction(int(k), 4) for k in rng.integers(-8, 9, 9)] for _ in range(3)]
        residuals = {cond: _MetricResidual(cx, cond) for cond in exact}
        for q in points:
            omega = fundamental_form(HermitianMetric(
                q[:3], [GaussianRational(q[k], q[k + 1]) for k in (3, 5, 7)]))
            for cond, (deg, op) in exact.items():
                form = op(omega)
                coeffs = [complex(GaussianRational.coerce(form.coeffs.get(t, 0)))
                          for t in combinations(range(1, 7), deg)]
                want = np.array([c.real for c in coeffs] + [c.imag for c in coeffs])
                got = residuals[cond](np.array([float(x) for x in q]))
                scale = max(1.0, np.abs(want).max())
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale,
                                           err_msg=cond)

    @pytest.mark.parametrize("entry", list_entries(), ids=lambda e: e.name)
    def test_jacobian_matches_central_difference(self, entry):
        cx = entry_complexification(entry)
        rng = np.random.default_rng(5)
        points = [rng.normal(0.0, 0.8, 9) for _ in range(3)]
        # raw[0] lies past the clip, so its column is 0; the other diagonal
        # entries are large too, which keeps the metric well conditioned
        points.append(np.concatenate([[6.5, 5.5, 5.5], rng.normal(0.0, 0.8, 6)]))
        h = 1e-6
        for cond in sorted(CHECKERS):
            residual = _MetricResidual(cx, cond)
            for raw in points:
                _, jac = _metric_objective(residual, raw)
                fd = np.stack([(_metric_objective(residual, raw + e)[0]
                                - _metric_objective(residual, raw - e)[0]) / (2 * h)
                               for e in np.eye(9) * h], axis=1)
                scale = max(1.0, np.abs(fd).max())
                assert np.abs(jac - fd).max() <= 1e-6 * scale, (cond, raw.tolist())


class TestMetricSearch:
    def test_balanced_witness_verified_exactly(self):
        cx = entry_complexification(get_entry("s5.16+R"))
        out = find_metric(cx, "balanced", SearchConfig(restarts=4))
        assert out.status == "found"
        metric = out.witness["metric"]
        assert is_positive(metric)
        omega = fundamental_form(metric)
        assert CHECKERS["balanced"](cx, omega).holds

    def test_obstructed_condition_exhausts(self):
        cx = entry_complexification(get_entry("s6.145^0"))
        out = find_metric(cx, "first_gauduchon", SearchConfig(restarts=3, max_iters=30))
        # the exact first-Gauduchon coefficient is -2 l1^2 < 0 for any
        # positive metric, so no float hit may survive the exact gate
        assert out.status == "exhausted"
        assert out.note == ("no first_gauduchon metric found for this complex "
                            "structure (evidence, not proof)")

    def test_rejected_hits_are_counted_in_the_note(self):
        # restarts on this stored example reach the tolerance, but no
        # reconstruction of their points passes the exact first-Gauduchon check
        ex = get_entry("s6.19^p,p,q,-p-q/2").examples[3]
        cx = Complexification.from_real(ex.algebra_instance(), ex.j())
        cfg = SearchConfig(seed=0)
        out = find_metric(cx, "first_gauduchon", cfg)
        assert out.status == "exhausted"
        hits = sum(r <= cfg.tol for r in out.best_residuals)
        assert hits > 0
        assert out.note == (
            f"{hits} of {cfg.restarts} restarts reached the tolerance, but no rational "
            f"reconstruction with denominators up to {METRIC_BOUNDS[-1]} passed the "
            "exact first_gauduchon check (evidence, not proof)")

    def test_kahler_algebra_admits_everything(self):
        cx = entry_complexification(get_entry("s3.3^0+R3"))
        for cond in ("kahler", "skt", "balanced", "lck"):
            out = find_metric(cx, cond, SearchConfig(restarts=3))
            assert out.status == "found", cond
            assert CHECKERS[cond](cx, out.witness["omega"]).holds


class TestSweep:
    def test_single_condition_sweep(self):
        result = classification_sweep(
            conditions=("skt",), cfg=SearchConfig(restarts=2, max_iters=25))
        assert result["ok"], result["mismatches"]
        statuses = {r["cells"]["skt"]["status"] for r in result["rows"]}
        assert "verified-example" in statuses
        verified = sum(1 for r in result["rows"]
                       if r["cells"]["skt"]["status"] == "verified-example")
        assert verified == 15
        assert all(c["status"] == "obstruction-replayed"
                   for c in result["controls"])

    def test_evidence_cell_carries_the_search_note(self):
        # on the SKT algebras the lcskt search converges to SKT metrics (mu = 0),
        # which the exact lcskt check rejects; the other evidence cells had no hit
        cfg = SearchConfig(seed=0, restarts=8, max_iters=40)
        result = classification_sweep(conditions=("lcskt",), cfg=cfg)
        details = {r["algebra"]: r["cells"]["lcskt"]["detail"] for r in result["rows"]
                   if r["cells"]["lcskt"]["status"] == "search-evidence"}
        rejected = {a for a, d in details.items() if "reached the tolerance" in d}
        assert rejected == {"s4.3^-1/2,-1/2+R2", "s4.5^p,-p/2+R2", "s4.6+R2", "s6.25",
                            "s6.51^p,0", "s6.158", "s6.164^p"}
        assert all(details[a].startswith("no lcskt metric found")
                   for a in details.keys() - rejected)
        cx = entry_complexification(get_entry("s6.25"))
        assert details["s6.25"] == find_metric(cx, "lcskt", cfg).note

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tamed_sweep_reads_the_kahler_witnesses(self, seed):
        # a Kahler omega tames J, so the Kahler algebras' stored examples are
        # the tamed witnesses and no search hit there is a mismatch
        result = classification_sweep(
            conditions=("tamed",), cfg=SearchConfig(seed=seed, restarts=2, max_iters=10))
        assert result["ok"], result["mismatches"]
        verified = {r["algebra"] for r in result["rows"]
                    if r["cells"]["tamed"]["status"] == "verified-example"}
        assert verified == {"s3.3^0+R3", "s5.13^p,-p,r+R"}

    def test_failed_replay_is_a_mismatch(self, tampered_lcskt_row, tampered_control_row):
        result = classification_sweep(
            conditions=("lcskt",), cfg=SearchConfig(restarts=1, max_iters=5))
        assert not result["ok"]
        failed = [m for m in result["mismatches"] if "obstruction row failed to replay" in m]
        assert len(failed) == 1 and failed[0].startswith("s6.162^1/lcskt: ")
        assert f"step {tampered_lcskt_row!r}" in failed[0]
        cell, = (r["cells"]["lcskt"] for r in result["rows"] if r["algebra"] == "s6.162^1")
        assert cell["status"] == "search-evidence"
        # the merged row is replayed once, and both of its controls read the failure
        statuses = {c["algebra"]: c["status"] for c in result["controls"]}
        assert statuses == {"s6.140^-1": "mismatch", "s6.146^-1": "mismatch",
                            "s6.151": "obstruction-replayed",
                            "s6.155^1": "obstruction-replayed"}
        assert {c["detail"] for c in result["controls"]} == {
            "admits no complex structure (exact generic-J contradiction)"}
        assert [m for m in result["mismatches"] if "integrability" in m] == [
            f"{name}: integrability obstruction failed to replay"
            for name in tampered_control_row]

    def test_each_exact_step_runs_once(self, monkeypatch):
        # one replay per obstruction row, shared by every algebra the row names,
        # and one complexification per stored example, shared by all its cells
        replayed, built = [], Counter()
        replay = search.replay_obstruction_row
        monkeypatch.setattr(search, "replay_obstruction_row",
                            lambda row: replayed.append(row) or replay(row))
        init = Complexification.__init__

        def counted_init(cx, g, J, alphas):
            built[g.name, str(J)] += 1
            init(cx, g, J, alphas)

        monkeypatch.setattr(Complexification, "__init__", counted_init)
        classification_sweep(cfg=SearchConfig(seed=0, restarts=1, max_iters=5))
        assert Counter(map(id, replayed)) == Counter(map(id, obstruction_table()))
        stored = Counter((ex.algebra, str(ex.j()))
                         for entry in list_entries() for ex in entry.examples)
        assert built and built <= stored
