"""Shared fixtures and hypothesis strategies for the test suite."""
import dataclasses
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import strategies as st

from hermlie import Complexification, obstructions
from hermlie.catalog import list_entries
from hermlie.forms import Form, all_index_tuples
from hermlie.scalars import GR_ZERO, GaussianRational, add_term

# ---------------------------------------------------------------------------
# exact-scalar strategies

# Every value of st.fractions(min_value=-4, max_value=4, max_denominator=6),
# drawn uniformly: sampled_from is far cheaper to draw than st.fractions.
small_fractions = st.sampled_from(
    sorted({Fraction(p, q) for q in range(1, 7) for p in range(-4 * q, 4 * q + 1)}))

gaussian_rationals = st.builds(GaussianRational, small_fractions, small_fractions)

nonzero_gaussian_rationals = gaussian_rationals.filter(bool)


@st.composite
def exact_forms(draw, dim=6, degree=None, max_terms=4):
    """Random form with GaussianRational coefficients on f^1..f^dim."""
    if degree is None:
        degree = draw(st.integers(min_value=0, max_value=dim))
    keys = all_index_tuples(dim, degree)
    chosen = draw(st.lists(st.sampled_from(keys), max_size=max_terms, unique=True)
                  ) if keys else []
    coeffs = {k: draw(gaussian_rationals) for k in chosen}
    return Form(dim, degree, coeffs)


@st.composite
def rational_vectors(draw, dim=6):
    return [draw(small_fractions) for _ in range(dim)]


def contract(form, vector):
    """Interior product of ``form`` with a vector given by components in
    f_1..f_dim."""
    if form.degree == 0:
        raise ValueError("cannot contract a 0-form")
    coeffs = {}
    for key, c in form.coeffs.items():
        for t, idx in enumerate(key):
            v = vector[idx - 1]
            if not v:
                continue
            term = c * v
            add_term(coeffs, key[:t] + key[t + 1:], -term if t % 2 else term)
    return Form._of(form.dim, form.degree - 1, coeffs)


def evaluate(form, *vectors):
    """``form`` evaluated on ``form.degree`` many vectors."""
    if len(vectors) != form.degree:
        raise ValueError("wrong number of vectors")
    for v in vectors:
        form = contract(form, v)
    return form.coeffs.get((), 0)


def apply_matrix(J, v):
    """The vector J v, one entry at a time (exact or symbolic entries)."""
    return [sum((J[i][j] * v[j] for j in range(len(v))), GR_ZERO) for i in range(len(J))]


# ---------------------------------------------------------------------------
# catalog-backed fixtures (cached: building a Complexification is not free)


@lru_cache(maxsize=None)
def catalog_complexifications():
    """One exact Complexification per catalog entry (first stored example)."""
    out = []
    for entry in list_entries():
        ex = entry.examples[0]
        g = ex.algebra_instance()
        out.append(Complexification.from_real(g, ex.j()))
    return tuple(out)


@lru_cache(maxsize=None)
def catalog_algebras():
    return tuple(e.algebra_instance() for e in list_entries())


@pytest.fixture(scope="session")
def complexifications():
    return catalog_complexifications()


@pytest.fixture(scope="session")
def algebras():
    return catalog_algebras()


# ---------------------------------------------------------------------------
# a registry with one replay step that no longer holds


@pytest.fixture()
def tampered_lcskt_row(monkeypatch):
    """The registry with the first step of the s6.162^1 lcskt row expecting
    one more than its true value."""
    rows = obstructions.obstruction_table()
    i = next(i for i, r in enumerate(rows)
             if r.algebra == "s6.162^1" and r.condition == "lcskt")
    first = rows[i].steps[0]
    bad = dataclasses.replace(first, expected=lambda c: first.expected(c) + 1)
    rows[i] = dataclasses.replace(rows[i], steps=(bad,) + rows[i].steps[1:])
    monkeypatch.setattr(obstructions, "_ROWS", rows)
    return first.label


@pytest.fixture()
def tampered_control_row(monkeypatch):
    """The registry with the last step of the first branch of the merged
    s6.140^-1 / s6.146^-1 generic-J row expecting one more than its true
    value; returns the two control names."""
    rows = obstructions.obstruction_table()
    i = next(i for i, r in enumerate(rows) if r.algebra == "s6.140^-1|s6.146^-1")
    branch = rows[i].steps[0]
    last = branch.steps[-1]
    bad = dataclasses.replace(last, expected=lambda c: last.expected(c) + 1)
    branch = dataclasses.replace(branch, steps=branch.steps[:-1] + (bad,))
    rows[i] = dataclasses.replace(rows[i], steps=(branch,) + rows[i].steps[1:])
    monkeypatch.setattr(obstructions, "_ROWS", rows)
    return rows[i].algebra.split("|")
