"""Lie algebra layer: parsing, differential, series, nilradical certificates.

Oracles are tiny algebras whose brackets are known by hand: the 3-dimensional
Heisenberg algebra (padded to dimension 6 with abelian directions), the
2-dimensional affine algebra, and the abelian algebra.
"""
from fractions import Fraction

import pytest

from hermlie.catalog import get_entry
from hermlie.forms import Form
from hermlie.liealg import (
    _MAX_NESTING,
    LieAlgebra,
    ce_differential,
    derived_series,
    find_nilradical,
    is_ideal,
    is_nilpotent,
    is_solvable,
    is_strongly_unimodular,
    jacobi_holds,
    lower_central_series,
    parse_form,
    parse_scalar,
    parse_structure_equations,
    print_structure_equations,
    verify_nilradical,
)
from hermlie.scalars import GR_ONE, GR_ZERO, GaussianRational
from tests.conftest import evaluate

HEIS = "(0, 0, f12, 0, 0, 0)"        # [f1, f2] = -f3
AFFINE = "(f12, 0, 0, 0, 0, 0)"      # [f1, f2] = -f1, not unimodular
ABELIAN = "(0, 0, 0, 0, 0, 0)"


def basis_vector(i, dim=6):
    return [GR_ONE if t == i - 1 else GR_ZERO for t in range(dim)]


class TestParsing:
    def test_parse_and_print_roundtrip(self):
        text = "(f35+f16, f45-f26, f36, -f46, 0, 0)"
        g = parse_structure_equations(text)
        g2 = parse_structure_equations(print_structure_equations(g))
        assert [f.coeffs for f in g.d1] == [f.coeffs for f in g2.d1]

    def test_parse_with_parameters(self):
        g = parse_structure_equations("(p f12, -2p f12, 0, 0, 0, 0)",
                                      {"p": Fraction(1, 3)})
        assert g.d1[0].coeff(1, 2) == Fraction(1, 3)
        assert g.d1[1].coeff(1, 2) == Fraction(-2, 3)

    def test_parse_scalar(self):
        assert parse_scalar("-1/2") == GaussianRational(Fraction(-1, 2))
        assert parse_scalar("2(1+q)^2", {"q": Fraction(1)}) == 8

    def test_parse_form(self):
        w = parse_form("f12+4f34-f56")
        assert w.coeff(3, 4) == 4 and w.coeff(5, 6) == -1

    def test_chained_powers_read_alike_in_terms_and_scalars(self):
        # powers associate to the left, in a term's coefficient and in a scalar
        assert parse_form("2^2^2f1", degree=1) == parse_form("16f1", degree=1)
        assert parse_scalar("2^2^2") == parse_scalar("16") == 16
        assert parse_form("2/3^2^2f1", degree=1) == parse_form("2/81f1", degree=1)

    def test_nesting_is_bounded(self):
        # refused before the recursive descent can exhaust the stack
        deep = "(" * _MAX_NESTING + "2" + ")" * _MAX_NESTING
        assert parse_scalar(deep) == 2 and parse_form(deep + "f12").coeff(1, 2) == 2
        with pytest.raises(ValueError, match="nested more than"):
            parse_form("(" + deep + ")f12")

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_structure_equations("(0, 0, 0)")  # wrong entry count
        with pytest.raises(ValueError):
            parse_structure_equations("0, 0, 0, 0, 0, 0")  # missing parens


class TestStructureConstants:
    def test_bracket_sign_convention(self):
        # d f^3 = f^12 encodes [f1, f2] = -f3
        g = parse_structure_equations(HEIS)
        assert g.bracket(basis_vector(1), basis_vector(2)) == [
            GR_ZERO, GR_ZERO, -GR_ONE, GR_ZERO, GR_ZERO, GR_ZERO]
        assert g.structure_constant(3, 1, 2) == -1

    def test_bracket_antisymmetry_and_ad(self):
        g = parse_structure_equations("(f35+f16, f45-f26, f36, -f46, 0, 0)")
        u, v = basis_vector(3), basis_vector(5)
        uv = g.bracket(u, v)
        vu = g.bracket(v, u)
        assert uv == [-x for x in vu]

    def test_dual_pairing(self):
        # d f^i (X, Y) = -f^i([X, Y]) for every basis pair
        g = parse_structure_equations("(f35+f16, f45-f26, f36, -f46, 0, 0)")
        for i in range(1, 7):
            for j in range(1, 7):
                for k in range(j + 1, 7):
                    lhs = evaluate(g.d1[i - 1], basis_vector(j), basis_vector(k))
                    rhs = -g.bracket(basis_vector(j), basis_vector(k))[i - 1]
                    assert lhs == rhs


class TestDifferential:
    def test_d_squared_zero_iff_jacobi(self):
        good = parse_structure_equations(HEIS)
        assert jacobi_holds(good)
        # d f^1 = f^23 with d f^3 = f^45 gives d^2 f^1 = -f^245
        bad = LieAlgebra(6, [
            Form(6, 2, {(2, 3): GR_ONE}),
            Form.zero(6, 2),
            Form(6, 2, {(4, 5): GR_ONE}),
            Form.zero(6, 2), Form.zero(6, 2), Form.zero(6, 2)])
        assert not jacobi_holds(bad)

    def test_antiderivation_on_oracle(self):
        g = parse_structure_equations(HEIS)
        u = Form.basis(6, (3,))
        v = Form.basis(6, (4,))
        assert ce_differential(g, u.wedge(v)) == (
            ce_differential(g, u).wedge(v) - u.wedge(ce_differential(g, v)))


class TestSeriesAndNilradical:
    def test_abelian(self):
        g = parse_structure_equations(ABELIAN)
        assert is_nilpotent(g) and is_solvable(g)
        assert len(find_nilradical(g)) == 6

    def test_heisenberg_nilpotent(self):
        g = parse_structure_equations(HEIS)
        assert is_nilpotent(g)
        assert len(lower_central_series(g)[-1]) == 0

    def test_affine_solvable_not_nilpotent(self):
        g = parse_structure_equations(AFFINE)
        assert is_solvable(g)
        assert not is_nilpotent(g)
        assert len(derived_series(g)[-1]) == 0

    def test_strongly_unimodular(self):
        five = [basis_vector(i) for i in range(1, 6)]
        ok = parse_structure_equations("(f35+f16, f45-f26, f36, -f46, 0, 0)")
        assert is_strongly_unimodular(ok, five)
        # the affine direction has nonzero trace on the nilradical quotient
        bad = parse_structure_equations("(f16, 0, 0, 0, 0, 0)")
        assert not is_strongly_unimodular(bad)

    def test_verify_nilradical_certificate(self):
        g = parse_structure_equations("(f35+f16, f45-f26, f36, -f46, 0, 0)")
        five = [basis_vector(i) for i in range(1, 6)]
        report = verify_nilradical(g, five)
        assert report["certified_nilradical"]
        # the full space is an ideal but not a nilpotent one
        whole = [basis_vector(i) for i in range(1, 7)]
        assert not verify_nilradical(g, whole)["certified_nilradical"]

    def test_trace_on_a_deeper_layer_breaks_strong_unimodularity(self):
        # h3 + R^2 with ad_f6 = diag(1, 0, 1, -2, 0): the trace is 0 on the
        # nilradical f1..f5 but 1 on [n, n] = <f3>
        g = parse_structure_equations("(f16, 0, -f12+f36, -2f46, 0, 0)")
        five = [basis_vector(i) for i in range(1, 6)]
        assert jacobi_holds(g)
        assert verify_nilradical(g, five)["certified_nilradical"]
        assert not is_strongly_unimodular(g, five)
        assert not is_strongly_unimodular(g)

    def test_answers_do_not_depend_on_the_nilradical_basis(self):
        g = parse_structure_equations("(f35+f16, f45-f26, f36, -f46, 0, 0)")
        e = [basis_vector(i) for i in range(1, 6)]
        rotated = [[a + b for a, b in zip(e[0], e[1])], e[1],
                   [a + 2 * b for a, b in zip(e[2], e[4])], e[3], e[4]]
        assert verify_nilradical(g, rotated) == verify_nilradical(g, e)
        assert verify_nilradical(g, rotated)["certified_nilradical"]
        assert is_strongly_unimodular(g, rotated) and is_strongly_unimodular(g, e)

    def test_coordinate_subspaces_that_are_not_ideals_raise(self):
        g = get_entry("s6.44").algebra_instance()
        non_ideals = 0
        for drop in range(1, 7):
            basis = [basis_vector(i) for i in range(1, 7) if i != drop]
            if is_ideal(g, basis):
                continue
            non_ideals += 1
            report = verify_nilradical(g, basis)
            assert not report["is_ideal"] and not report["certified_nilradical"]
            with pytest.raises(ValueError):
                is_strongly_unimodular(g, basis)
        assert non_ideals == 5


def _presentations():
    """Every presentation of every catalog entry and negative control."""
    from hermlie.catalog import list_entries
    return [entry.algebra_instance(presentation=pres)
            for entry in list_entries(include_controls=True)
            for pres in (None, *entry.variants)]


def _dense_bracket(g, u, v):
    """The bracket term by term: the full product for every d f^i term,
    zero factors included."""
    return [sum(((-c) * (u[j - 1] * v[k - 1] - u[k - 1] * v[j - 1])
                 for (j, k), c in df.coeffs.items()), GR_ZERO) for df in g.d1]


class TestSparseBracket:
    """The pair table ``bracket`` builds agrees with the dense formula."""

    def test_exact_vectors(self):
        u = [GaussianRational(Fraction(n, 3), Fraction(1 - n, 2)) for n in range(6)]
        v = [GR_ZERO, GaussianRational(2), GR_ZERO, GaussianRational(-1, 3), GR_ONE, GR_ZERO]
        basis = [basis_vector(i) for i in range(1, 7)]
        for g in _presentations():
            for a, b in [(u, v), (v, u), (u, u), *zip(basis, basis[1:] + basis[:1])]:
                assert g.bracket(a, b) == _dense_bracket(g, a, b), g.name

    def test_generic_j_polynomials(self):
        from hermlie.cpx import generic_j_ring
        _, J = generic_j_ring(6)
        cols = [[J[i][j] for i in range(6)] for j in range(6)]
        for g in _presentations():
            for a, b in [(cols[0], cols[1]), (cols[2], basis_vector(5)),
                         (basis_vector(1), cols[5])]:
                got, want = g.bracket(a, b), _dense_bracket(g, a, b)
                assert all(x == y for x, y in zip(got, want)), g.name
