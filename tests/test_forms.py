"""Exterior algebra oracle tests against hand-computed small cases."""
from fractions import Fraction

import pytest

from hermlie.catalog import list_entries
from hermlie.cpx import ComplexFrame, instantiate_family
from hermlie.forms import (
    Antiderivation,
    BasisChange,
    Form,
    all_index_tuples,
    merge_sign,
    sort_sign,
)
from hermlie.scalars import GR_ONE, Poly, PolyRing
from hermlie.search import entry_complexification


def f(*indices):
    return Form.basis(6, indices)


class TestIndexBookkeeping:
    def test_sort_sign(self):
        assert sort_sign((1, 2, 3)) == (1, (1, 2, 3))
        assert sort_sign((2, 1, 3)) == (-1, (1, 2, 3))
        assert sort_sign((3, 1, 2)) == (1, (1, 2, 3))
        assert sort_sign((1, 1)) == (0, None)

    def test_merge_sign(self):
        assert merge_sign((1, 3), (2, 4)) == (-1, (1, 2, 3, 4))
        assert merge_sign((1, 2), (3, 4)) == (1, (1, 2, 3, 4))
        assert merge_sign((1, 2), (2, 3)) == (0, None)

    def test_unsorted_constructor_input(self):
        assert Form(6, 2, {(2, 1): GR_ONE}) == -f(1, 2)
        assert Form(6, 2, {(1, 1): GR_ONE}) == Form.zero(6, 2)

    def test_degree_and_range_validation(self):
        with pytest.raises(ValueError):
            Form(6, 2, {(1, 2, 3): GR_ONE})
        with pytest.raises(ValueError):
            Form(6, 1, {(7,): GR_ONE})


class TestAlgebra:
    def test_coeff_sign(self):
        w = f(1, 2)
        assert w.coeff(1, 2) == GR_ONE
        assert w.coeff(2, 1) == -GR_ONE
        assert w.coeff(1, 1) == 0
        assert w.coeff(3, 4) == 0

    def test_wedge_oracle(self):
        assert f(1).wedge(f(2)) == f(1, 2)
        assert f(2).wedge(f(1)) == -f(1, 2)
        assert f(1, 2).wedge(f(1, 3)) == Form.zero(6, 4)
        assert f(1, 3).wedge(f(2, 4)) == -f(1, 2, 3, 4)
        two_form = f(1, 2) + f(3, 4)
        assert two_form.wedge(two_form) == 2 * f(1, 2, 3, 4)

    def test_zero_coefficients_dropped(self):
        # each input cancels inside one path that adds coefficients, which
        # must drop the zero sum rather than store it
        d = Antiderivation([f(1, 3), -f(2, 3), f(5, 6), -f(5, 6), f(1, 2), f(1, 2)])
        cancelling = [
            f(1, 2) - f(1, 2),
            f(1, 2) + -f(1, 2),
            Form(6, 2, {(2, 1): 3, (1, 2): 3}),                    # repeated unsorted keys
            (f(1) + f(2)).wedge(f(1) + f(2)),                      # f12 + f21
            (f(1, 2) + f(1, 3)).contract([0, 1, -1, 0, 0, 0]),     # -f1 + f1
            d(f(1, 2)),                                            # inside d of one monomial
            d(f(3) + f(4)),                                        # across two images
            d(f(5) - f(6)),
            BasisChange({1: f(1) + f(2), 2: f(1) + f(2)})(f(1, 2)),  # in the image's wedge
            BasisChange({3: f(1)})(f(1) - f(3)),                   # across two images
            ComplexFrame.project(f(1, 4) + f(1, 2), 1, 1) - f(1, 4),
            ComplexFrame.project(f(1, 2) + f(4, 5), 1, 1),
        ]
        for w in cancelling:
            assert not w
            assert w.coeffs == {}, w

    def test_contract_oracle(self):
        e1 = [1, 0, 0, 0, 0, 0]
        e2 = [0, 1, 0, 0, 0, 0]
        assert f(1, 2).contract(e1) == f(2)
        assert f(1, 2).contract(e2) == -f(1)
        assert f(1, 2).evaluate(e1, e2) == 1
        assert f(1, 2).evaluate(e2, e1) == -1
        assert f(1, 2).evaluate(e1, e1) == 0

    def test_evaluate_bilinear(self):
        u = [Fraction(1, 2), 0, Fraction(3), 0, 0, 0]
        v = [0, Fraction(2), 0, 0, 0, Fraction(-1)]
        w = f(1, 2) + 4 * f(3, 6)
        # hand expansion: (1/2)(2) + 4*3*(-1)
        assert w.evaluate(u, v) == Fraction(1) - 12

    def test_basis_change_roundtrip(self):
        w = f(1, 2) + 3 * f(2, 5)
        swap = BasisChange({1: f(2), 2: f(1)})
        assert swap(swap(w)) == w
        assert swap(w) == -f(1, 2) + 3 * f(1, 5)

    def test_all_index_tuples(self):
        assert len(all_index_tuples(6, 2)) == 15
        assert len(all_index_tuples(6, 6)) == 1
        assert all_index_tuples(6, 0) == [()]


def _leibniz_oracle(d1, dim: int, key: tuple) -> Form:
    """d f^K as the sum over t of (-1)^t f^{K[:t]} ^ d f^{K[t]} ^ f^{K[t+1:]},
    each term built from two basis monomials and two wedges."""
    out = Form.zero(dim, len(key) + 1)
    for t, i in enumerate(key):
        term = Form.basis(dim, key[:t]).wedge(d1[i - 1]).wedge(Form.basis(dim, key[t + 1:]))
        out = out - term if t % 2 else out + term
    return out


def _family_d1():
    ring = PolyRing(complex_vars=["nu"])
    return instantiate_family("N51-145", {"nu": ring.var("nu"), "c": 1}).d_alpha


D1_CASES = {
    **{f"real {e.name}": lambda e=e: e.algebra_instance().d1
       for e in list_entries(include_controls=True)},
    **{f"complex {e.name}": lambda e=e: entry_complexification(e).frame.d_alpha
       for e in list_entries() if e.examples},
    "complex N51-145 (Poly nu)": _family_d1,
}


class TestAntiderivation:
    @pytest.mark.parametrize("case", sorted(D1_CASES))
    def test_monomial_matches_leibniz_oracle(self, case):
        d1 = D1_CASES[case]()
        d = Antiderivation(d1)
        for degree in range(6):
            for key in all_index_tuples(6, degree):
                image = d._monomial(6, key)
                assert image == _leibniz_oracle(d1, 6, key), (case, key)
                assert image.degree == degree + 1
                assert not d(image), (case, key)  # d^2 = 0

    def test_family_case_has_poly_coefficients(self):
        assert any(isinstance(c, Poly) for form in _family_d1() for c in form.coeffs.values())
