"""Complex structures, complex coframes, and the named structure families."""
import random
from fractions import Fraction

import pytest

from hermlie.catalog import list_entries
from hermlie.cpx import (
    Complexification,
    conj_alpha,
    generic_j_ring,
    instantiate_family,
    is_integrable,
    j_from_images,
    nijenhuis,
    squares_to_minus_id,
    standard_j,
)
from hermlie.forms import Form, all_index_tuples
from hermlie.liealg import ce_differential, parse_structure_equations
from hermlie.scalars import GR_I, GR_ONE, GR_ZERO, GaussianRational
from tests.conftest import apply_matrix

ABELIAN = parse_structure_equations("(0, 0, 0, 0, 0, 0)")
CONTROL = parse_structure_equations("(f35+f16, f45-f26, f36, -f46, 0, 0)")
ALGEBRAS = [e.algebra_instance() for e in list_entries(include_controls=True)]


def nijenhuis_oracle(g, J):
    """N(f_a, f_b) = [f_a, f_b] + J[J f_a, f_b] + J[f_a, J f_b] - [J f_a, J f_b],
    for a < b, from brackets of the basis vectors and their images under J."""
    n = g.dim
    e = [[GR_ONE if t == i else GR_ZERO for t in range(n)] for i in range(n)]
    je = [apply_matrix(J, v) for v in e]
    out = {}
    for a in range(n):
        for b in range(a + 1, n):
            terms = zip(g.bracket(e[a], e[b]), apply_matrix(J, g.bracket(je[a], e[b])),
                        apply_matrix(J, g.bracket(e[a], je[b])), g.bracket(je[a], je[b]))
            out[(a + 1, b + 1)] = [x + y + z - w for x, y, z, w in terms]
    return out


def assert_nijenhuis_matches_oracle(g, J, ring=None):
    """``nijenhuis`` equals the oracle component by component: exact
    ``GaussianRational``s for a scalar J, polynomials of ``ring`` otherwise."""
    got, want = nijenhuis(g, J), nijenhuis_oracle(g, J)
    assert got.keys() == want.keys()
    for key, comps in want.items():
        assert len(got[key]) == len(comps)
        for i, (x, y) in enumerate(zip(got[key], comps)):
            if ring is None:
                assert type(x) is GaussianRational, (g.name, key, i)
                assert x == GaussianRational.coerce(y), (g.name, key, i)
            else:
                assert ring.coerce(x) == ring.coerce(y), (g.name, key, i)
    return got


class TestJMatrices:
    def test_standard_j_squares_to_minus_id(self):
        assert squares_to_minus_id(standard_j(6))
        assert not squares_to_minus_id([[GR_ZERO] * 6 for _ in range(6)])

    def test_j_from_images(self):
        J = j_from_images({1: [0, 1, 0, 0, 0, 0],
                           3: [0, 0, 0, 1, 0, 0],
                           5: [0, 0, 0, 0, 0, 1]})
        assert [[GaussianRational.coerce(x) for x in row] for row in J] == [
            [GaussianRational.coerce(x) for x in row] for row in standard_j(6)]

    def test_squares_to_minus_id_matches_the_full_square(self):
        # every stock J, and each J with one entry moved by 1/7: the
        # entry-by-entry test with its early exit agrees with all of J^2
        def full_square_is_minus_id(J):
            sq = [[sum((J[i][k] * J[k][j] for k in range(6)), GR_ZERO)
                   for j in range(6)] for i in range(6)]
            return all(sq[i][j] == (-GR_ONE if i == j else GR_ZERO)
                       for i in range(6) for j in range(6))

        stock = [ex.j() for entry in list_entries() for ex in entry.examples]
        assert len(stock) == 55
        for J in stock:
            assert squares_to_minus_id(J) and full_square_is_minus_id(J)
            for i in range(6):
                for j in range(6):
                    moved = [list(row) for row in J]
                    moved[i][j] = moved[i][j] + Fraction(1, 7)
                    assert squares_to_minus_id(moved) == full_square_is_minus_id(moved)


class TestIntegrability:
    def test_abelian_always_integrable(self):
        assert is_integrable(ABELIAN, standard_j(6))
        assert not nijenhuis(ABELIAN, standard_j(6))[(1, 2)][0]

    def test_j_squared_not_minus_id_is_rejected(self):
        # on the abelian algebra N = 0 for any J, so only J^2 != -Id rejects 2 J
        double = [[2 * x for x in row] for row in standard_j(6)]
        assert not squares_to_minus_id(double)
        assert is_integrable(ABELIAN, double) is None

    def test_control_rejects_standard_j(self):
        assert not is_integrable(CONTROL, standard_j(6))
        nj = nijenhuis(CONTROL, standard_j(6))
        assert any(any(v) for v in nj.values())

    def test_from_real_rejects_non_integrable(self):
        with pytest.raises(ValueError):
            Complexification.from_real(CONTROL, standard_j(6))

    def test_nijenhuis_tensoriality(self):
        # N is antisymmetric in its arguments; keys cover i < j only
        nj = nijenhuis(CONTROL, standard_j(6))
        assert set(nj) == {(i, j) for i in range(1, 7) for j in range(i + 1, 7)}

    def test_nijenhuis_matches_the_definition_on_every_golden_j(self):
        stock = [(e.algebra_instance(), ex.j()) for e in list_entries() for ex in e.examples]
        assert len(stock) == 55
        for g, J in stock:
            got = assert_nijenhuis_matches_oracle(g, J)
            assert not any(c for comps in got.values() for c in comps), g.name

    def test_nijenhuis_matches_the_definition_on_dense_rational_j(self):
        # dense J with Fraction and int entries, three per algebra: almost
        # none is integrable, so every term of N shows in some component
        rng = random.Random(24)
        nonzero = 0
        for g in ALGEBRAS:
            for _ in range(3):
                J = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.5
                      else rng.randint(-3, 3) for _ in range(6)] for _ in range(6)]
                got = assert_nijenhuis_matches_oracle(g, J)
                nonzero += any(c for comps in got.values() for c in comps)
        assert nonzero >= 3 * len(ALGEBRAS) - 10

    def test_nijenhuis_matches_the_definition_on_a_generic_j(self):
        # the symbolic J of the "complex" obstruction rows, on every algebra
        for g in ALGEBRAS:
            ring, J = generic_j_ring(6)
            assert_nijenhuis_matches_oracle(g, J, ring)


class TestComplexification:
    def cx(self):
        return Complexification.from_real(ABELIAN, standard_j(6))

    def test_alpha_coframe_eigenstructure(self):
        cx = self.cx()
        # alpha(J X) = i alpha(X) for each (1,0)-coframe element
        for a in cx.alphas:
            for k in range(6):
                e = [GR_ONE if t == k else GR_ZERO for t in range(6)]
                je = apply_matrix(cx.J, e)
                lhs = a.evaluate(je)
                rhs = GR_I * GaussianRational.coerce(a.evaluate(e))
                assert GaussianRational.coerce(lhs) == rhs

    def test_to_alpha_to_real_roundtrip(self):
        cx = self.cx()
        w = Form(6, 2, {(1, 2): GaussianRational(Fraction(1, 2)),
                        (3, 6): GR_ONE, (4, 5): GR_ONE})
        assert cx.to_real(cx.to_alpha(w)) == w

    def test_to_real_to_alpha_roundtrip_on_the_catalog(self, complexifications):
        # every monomial of each degree, with distinct Gaussian coefficients
        for cx in complexifications:
            for degree in range(7):
                w = Form(6, degree, {key: GaussianRational(n + 1, degree - n)
                                     for n, key in enumerate(all_index_tuples(6, degree))})
                # the second pass reads each monomial's image from the caches
                for _ in range(2):
                    assert cx.to_alpha(cx.to_real(w)) == w, (cx.g.name, degree)

    def test_frame_d_matches_real_differential(self):
        from hermlie.catalog import get_entry
        entry = get_entry("s6.25")
        ex = entry.examples[0]
        g = ex.algebra_instance()
        ex_cx = Complexification.from_real(g, ex.j())
        half = GaussianRational(Fraction(1, 2))
        forms = [
            Form(6, 0, {(): GR_ONE}),
            Form(6, 1, {(2,): GR_ONE, (4,): GR_I}),
            ex_cx.to_alpha(Form(6, 2, {(1, 4): GR_ONE, (2, 3): GR_ONE})),
            Form(6, 3, {(1, 2, 6): GR_ONE, (3, 4, 5): half}),
            Form(6, 4, {(1, 3, 4, 6): GR_ONE, (2, 3, 5, 6): GR_I}),
            Form(6, 5, {(1, 2, 3, 4, 6): GR_ONE, (2, 3, 4, 5, 6): -half}),
        ]
        for w in forms:
            # the second pass reads d of each monomial from the caches
            for _ in range(2):
                lhs = ex_cx.frame.d(w)
                rhs = ex_cx.to_alpha(ce_differential(g, ex_cx.to_real(w)))
                assert lhs == rhs, w.degree


class TestFrameOperators:
    def frame(self):
        from hermlie.catalog import get_entry
        entry = get_entry("s6.25")
        ex = entry.examples[0]
        return Complexification.from_real(ex.algebra_instance(), ex.j()).frame

    def test_bigrade_partition(self):
        fr = self.frame()
        w = Form(6, 3, {(1, 2, 4): GR_ONE, (1, 4, 5): GR_ONE, (4, 5, 6): GR_ONE})
        graded = {(p, 3 - p): fr.project(w, p, 3 - p) for p in range(4)}
        assert {pq for pq, part in graded.items() if part} == {(2, 1), (1, 2), (0, 3)}
        total = Form.zero(6, 3)
        for part in graded.values():
            total = total + part
        assert total == w

    def test_del_dbar_decompose_d(self):
        fr = self.frame()
        w = Form(6, 2, {(1, 5): GR_ONE})  # type (1,1)
        assert fr.del_(w) + fr.dbar(w) == fr.d(w)

    def test_mixed_type_rejected(self):
        fr = self.frame()
        w = Form(6, 2, {(1, 2): GR_ONE, (1, 4): GR_ONE})
        with pytest.raises(ValueError):
            fr.del_(w)

    def test_conj_alpha(self):
        w = Form(6, 2, {(1, 5): GR_I})
        assert conj_alpha(w) == Form(6, 2, {(4, 2): -GR_I})
        # every monomial of each degree, each with its own non-real
        # coefficient; the oracle lets the Form constructor sort the swap
        swap = {1: 4, 2: 5, 3: 6, 4: 1, 5: 2, 6: 3}
        for degree in range(7):
            w = Form(6, degree, {key: GaussianRational(n + 1, 2 * n - 3)
                                 for n, key in enumerate(all_index_tuples(6, degree))})
            expected = Form(6, degree, {tuple(swap[i] for i in key): c.conj()
                                        for key, c in w.coeffs.items()})
            assert conj_alpha(w) == expected
            assert conj_alpha(conj_alpha(w)) == w


FAMILY_IDS = (
    "AA-s3.3^0+R3", "AA-s4.3+R2", "AA-s4.5+R2", "AA-s5.4^0+R", "AA-s5.8^0+R",
    "AA-s5.9+R", "AA-s5.11+R", "AA-s5.13+R", "AA-s6.14", "AA-s6.16", "AA-s6.17",
    "AA-s6.18", "AA-s6.19", "AA-s6.20", "AA-s6.21",
    "HT-h3+s3.3^0", "HT-s4.7+R2", "HT-s6.44", "HT-s6.52", "HT-s6.159",
    "HT-s6.162^1", "HT-s6.165", "HT-s6.166", "HT-s6.167",
    "N51-145", "N51-147-a", "N51-147-b", "N51-147-c", "N52-152-a", "N52-152-b",
    "N52-154",
)
# one value for every parameter any family reads; N52-152-b and N52-154
# divide by delta Im(z2) = -3 and by x = 2
FAMILY_PARAMS = {
    "eps": 1, "delta": -1, "p": 2, "q": Fraction(1, 2), "r": 3, "x": 2, "y": 1,
    "z": GaussianRational(1, 1), "z1": GaussianRational(2, -1),
    "z2": GaussianRational(1, 3), "nu": GR_I, "c": 1,
}


class TestFamilies:
    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_realified_families_are_lie_algebras(self, fid):
        # d^2 = 0 on the frame is the Jacobi identity of the real algebra
        # that the family's complex structure equations describe
        assert instantiate_family(fid, FAMILY_PARAMS).integrable()

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            instantiate_family("nonexistent-family")

    def test_unit_circle_parameter_validated(self):
        with pytest.raises(ValueError):
            instantiate_family("N51-145", {"nu": 0, "c": 2})
