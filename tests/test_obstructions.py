"""Replayable nonexistence certificates.

Every registered row is a machine-checked derivation: symbolic residuals are
rebuilt from the structure equations and compared step by step against the
recorded expressions.  The full replay (all rows, all sign/sample choices)
is part of the acceptance suite; here we exercise the registry API, a few
targeted rows, and the tamper-detection path.
"""
import dataclasses
from fractions import Fraction as F
from itertools import product

import pytest

from hermlie import linalg
from hermlie.cpx import conj_alpha, instantiate_family
from hermlie.forms import Form, all_index_tuples
from hermlie.obstructions import (
    _MU_RE1,
    _MU_RE1_Z3,
    Branch,
    ObstructionRow,
    ReplayContext,
    Step,
    Twist,
    obstruction_table,
    replay_all,
    replay_obstruction_row,
)
from hermlie.scalars import GR_I, GR_ONE, GaussianRational, PolyRing


class TestRegistryAPI:
    def test_table_is_populated(self):
        rows = obstruction_table()
        assert len(rows) == 46
        assert all(isinstance(r, ObstructionRow) for r in rows)

    def test_algebra_filter_splits_shared_rows(self):
        # merged rows list several algebras separated by '|'
        rows = obstruction_table(algebra="s6.140^-1")
        assert rows
        assert all("s6.140^-1" in r.algebra.split("|") for r in rows)

    def test_skt_keeps_the_rows_that_rule_it_out(self):
        # an lcskt row whose mu is only forced to 0 leaves SKT open; the
        # generic-J rows of the controls rule out every condition
        skt = obstruction_table(condition="skt")
        twisted = [r for r in obstruction_table()
                   if r.condition == "lcskt" and r.conclusion == "residual_nonzero"]
        assert twisted and [r for r in skt if r.condition != "complex"] == twisted
        assert [r for r in skt if r.condition == "complex"] == obstruction_table(
            condition="complex")

    def test_conclusions_vocabulary(self):
        allowed = {"residual_nonzero", "mu_forced_zero", "no_solution"}
        assert {r.conclusion for r in obstruction_table()} <= allowed

    def test_conditions_vocabulary(self):
        allowed = {"complex", "first_gauduchon", "lck", "lcskt",
                   "strongly_gauduchon", "tamed"}
        assert {r.condition for r in obstruction_table()} <= allowed


class TestReplay:
    def row(self, algebra, condition):
        rows = obstruction_table(algebra=algebra, condition=condition)
        assert rows, f"no row for {algebra}/{condition}"
        return rows[0]

    def test_replay_reports(self):
        report = replay_obstruction_row(self.row("s6.162^1", "lcskt"))
        assert report["ok"] and report["runs"] >= 1
        assert report["conclusion"] == "residual_nonzero"

    def test_replay_runs_every_sign_and_sample(self):
        row = self.row("h3+s3.3^0", "strongly_gauduchon")
        report = replay_obstruction_row(row)
        expected_runs = max(1, 2 ** len(row.signs)) * max(1, len(row.samples))
        assert report["runs"] == expected_runs

    def test_replay_all_filtered(self):
        reports = replay_all(algebra="s6.145^0")
        assert reports and all(r["ok"] for r in reports)

    def test_only_dividing_families_are_sampled(self):
        # every other metric row is symbolic in its family parameters: the
        # N52-152-b and N52-154 equations divide by Im z2 and by x, and the
        # AA-s6.17 row is the q = 1 slice
        sampled = sorted((r.family_id, r.condition) for r in obstruction_table()
                         if r.samples and r.condition != "complex")
        assert sampled == [
            ("AA-s6.17", "first_gauduchon"),
            ("N52-152-b", "first_gauduchon"), ("N52-152-b", "lck"),
            ("N52-152-b", "lcskt"), ("N52-152-b", "strongly_gauduchon"),
            ("N52-154", "first_gauduchon"), ("N52-154", "lck"),
            ("N52-154", "strongly_gauduchon"),
        ]

    def test_tampered_row_is_rejected(self):
        row = self.row("s6.162^1", "lcskt")
        orig = row.steps[0]
        bad_step = Step(label=orig.label, value=orig.value,
                        expected=lambda ctx: ctx.ring.constant(12345))
        tampered = dataclasses.replace(row, steps=(bad_step,))
        report = replay_obstruction_row(tampered)
        assert report["ok"] is False and report["runs"] == 0
        assert f"step {orig.label!r}" in report["detail"]
        assert "expected 12345" in report["detail"]

    @pytest.mark.parametrize("algebra,condition,index,tamper", [
        # 4 l1^2 holds at every exact c on the unit circle, but not for a
        # symbolic c: the row must carry the factor |c|^2
        ("s6.145^0", "lcskt", 0,
         lambda step: dataclasses.replace(step, expected=lambda c: 4 * c.v("l1") ** 2)),
        # w2 = l2 conj(zeta) without eps is the forced value at eps = +1 only
        ("s4.7+R2", "lck", 1,
         lambda step: dataclasses.replace(
             step, after=lambda c: c.set("w2~", c.v("l2") * c.v("zeta")))),
    ], ids=["N51-145 lcskt without |c|^2", "s4.7+R2 lck w2 without eps"])
    def test_tampered_family_row_is_rejected(self, algebra, condition, index, tamper):
        row, = (r for r in obstruction_table(algebra=algebra)
                if r.condition == condition)
        steps = list(row.steps)
        steps[index] = tamper(steps[index])
        report = replay_obstruction_row(dataclasses.replace(row, steps=tuple(steps)))
        assert report["ok"] is False
        assert f"step {row.steps[-1].label!r}" in report["detail"]

    def test_twist_that_is_not_closed_is_rejected(self):
        # y (a^1 + a^{1'}) in place of the closed i y (a^1 - a^{1'})
        row = self.row("s6.162^1", "lcskt")
        bad = Twist(("y",), (), lambda c: Form(6, 1, {(1,): c.v("y"), (4,): c.v("y")}))
        with pytest.raises(AssertionError, match="twisting form is not closed"):
            replay_obstruction_row(dataclasses.replace(row, mu=bad))

    def test_taming_potential_is_any_two_zero_form(self):
        # on the N51-147-a equations the (2,0) potential is no longer assumed
        # del-closed: its d enters the residual, and the h3+s3.3^0 step fails
        # there with the potential in its value
        row = self.row("h3+s3.3^0", "tamed")
        moved = dataclasses.replace(row, family_id="N51-147-a", sym_cpx=("z", "nu"))
        report = replay_obstruction_row(moved)
        assert report["ok"] is False and report["runs"] == 0
        assert "got w2 + -1*b2 + 1*i*l1*nu~, expected l1" in report["detail"]

    def test_nijenhuis_rows_cover_all_controls(self):
        covered = set()
        for r in obstruction_table(condition="complex"):
            covered |= set(r.algebra.split("|"))
        assert covered == {"s6.140^-1", "s6.146^-1", "s6.151", "s6.155^1"}

    def test_nijenhuis_runs_count_contexts_times_branches(self):
        runs = {r.algebra: replay_obstruction_row(r)["runs"]
                for r in obstruction_table(condition="complex")}
        assert runs == {"s6.140^-1|s6.146^-1": 12, "s6.151|s6.155^1": 10}


#: Rational values of the symbolic family parameters; c stands for e^{i theta}
#: and lies on the unit circle.
_PARAMETER_VALUES = {
    "c": GaussianRational(F(3, 5), F(4, 5)), "nu": GaussianRational(F(1, 2), F(1, 3)),
    "z": GaussianRational(F(2, 3), F(-1, 4)), "z1": GaussianRational(F(1, 3), F(2)),
    "z2": GaussianRational(F(-1, 2), F(3, 4)), "x": F(2, 3), "p": F(3, 7), "q": F(5, 4),
}


def _twist_spans(row):
    """Per sign choice and sample of a twisted row, with its symbolic family
    parameters at ``_PARAMETER_VALUES``: whether the twist is closed, the
    dimension of its real span and b1, the nullity of d on 1-forms."""
    ring = PolyRing(real_vars=list(row.mu.real), complex_vars=list(row.mu.cpx))
    # one real direction per real unknown, two per complex one
    directions = [{name: 1} for name in row.mu.real]
    directions += [{name: v, f"{name}~": v.conj()} for name in row.mu.cpx
                   for v in (GR_ONE, GR_I)]
    out = []
    for signs in product((1, -1), repeat=len(row.signs)):
        for sample in row.samples or ({},):
            params = {n: GaussianRational.coerce(v) for n, v in
                      {**dict(zip(row.signs, signs)), **_PARAMETER_VALUES, **sample}.items()}
            frame = instantiate_family(row.family_id, params)
            mu = row.mu.build(ReplayContext(ring, params))
            vectors = []
            for values in directions:
                values = {n: values.get(n, 0) for n in ring.names}
                form = Form(6, 1, {k: ring.coerce(c).evaluate(values)
                                   for k, c in mu.coeffs.items()})
                assert conj_alpha(form) == form  # a real 1-form
                vectors.append([form.coeff(i) for i in range(1, 7)])
            d1 = [frame.d(Form.basis(6, (i,), GR_ONE)) for i in range(1, 7)]
            d_matrix = [[f.coeff(*key) for f in d1] for key in all_index_tuples(6, 2)]
            out.append((not frame.d(mu), len(linalg.rref(vectors)[1]),
                        len(linalg.nullspace(d_matrix, ncols=6))))
    return out


def _twisted_rows():
    return [pytest.param(row, id=f"{row.algebra}:{row.condition}:{row.family_id}")
            for row in obstruction_table() if row.mu is not None]


def test_twisted_rows_are_the_lck_and_lcskt_rows():
    conditions = [r.condition for r in obstruction_table() if r.mu is not None]
    assert len(conditions) == 28 and set(conditions) == {"lck", "lcskt"}
    assert all(r.mu is not None for r in obstruction_table()
               if r.condition in ("lck", "lcskt"))


@pytest.mark.parametrize("row", _twisted_rows())
def test_twist_spans_the_closed_one_forms(row):
    for closed, span, b1 in _twist_spans(row):
        assert closed and span == b1, (span, b1)


def test_a_narrowed_twist_is_caught():
    # zeta a^3 + zeta~ a^{3'} dropped from the s6.159 twist
    row = next(r for r in obstruction_table(algebra="s6.159") if r.condition == "lcskt")
    assert row.mu is _MU_RE1_Z3
    narrowed = dataclasses.replace(row, mu=_MU_RE1)
    assert all(closed and span < b1 for closed, span, b1 in _twist_spans(narrowed))


def _nijenhuis_branches():
    return [pytest.param(row, branch, id=f"{row.algebra}:{branch.label}")
            for row in obstruction_table(condition="complex")
            for branch in row.steps]


@pytest.mark.parametrize("row,branch", _nijenhuis_branches())
def test_tampered_nijenhuis_branch_is_rejected(row, branch):
    assert isinstance(branch, Branch)
    alone = dataclasses.replace(row, steps=(branch,))
    assert replay_obstruction_row(alone)["runs"] == len(row.samples)
    last = branch.steps[-1]
    bad = dataclasses.replace(last, expected=lambda c: last.expected(c) + 1)
    tampered = dataclasses.replace(branch, steps=branch.steps[:-1] + (bad,))
    report = replay_obstruction_row(dataclasses.replace(row, steps=(tampered,)))
    assert report["ok"] is False and f"step {last.label!r}" in report["detail"]
