"""Lattice probes: exp(t ad_X) restricted to the nilradical.

Oracle for the exact nilpotent exponential: scipy's dense ``expm``.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from hermlie.catalog import get_entry
from hermlie.liealg import find_nilradical
from hermlie.lattice import (
    ad_restricted,
    builtin_probe,
    exact_exp_nilpotent,
    integrality_check,
    parse_time,
    parse_vector,
    run_probe,
)


class TestParsing:
    def test_parse_time(self):
        assert parse_time("2pi") == pytest.approx(2 * math.pi)
        assert parse_time("1") == 1.0
        assert parse_time("pi/2") == pytest.approx(math.pi / 2)

    def test_parse_vector(self):
        v = parse_vector("f6-((pi-1)/pi)f5")
        expected = np.zeros(6)
        expected[5] = 1.0
        expected[4] = -(math.pi - 1) / math.pi
        assert np.allclose(v, expected)

    def test_parse_vector_plain(self):
        v = parse_vector("2f1 - f3")
        assert v[0] == 2 and v[2] == -1 and v[1] == 0

    def test_explicit_products_and_pi_symbol(self):
        assert list(parse_vector("2*f1")) == [2, 0, 0, 0, 0, 0]
        assert list(parse_vector("pi*f5")) == [0, 0, 0, 0, math.pi, 0]
        assert list(parse_vector("πf5")) == list(parse_vector("pi f5"))
        assert parse_time("π") == math.pi
        assert parse_time("2*π") == 2 * math.pi
        assert parse_time("3/4") == 0.75

    @pytest.mark.parametrize("text", ["3**2f1", "2**f1", "f5+1", "f7", "f12", "", "2*",
                                      "x f1", "__import__('os')"])
    def test_parse_vector_rejects(self, text):
        with pytest.raises(ValueError):
            parse_vector(text)

    @pytest.mark.parametrize("text", ["2**2", "pi**2", "f1", "t", "2*"])
    def test_parse_time_rejects(self, text):
        with pytest.raises(ValueError):
            parse_time(text)


class TestExponentials:
    def test_exact_nilpotent_matches_expm(self):
        rng = np.random.default_rng(0)

        for _ in range(10):
            A_num = np.triu(rng.integers(-3, 4, (5, 5)), k=1).astype(float)
            A = [[Fraction(int(x)) for x in row] for row in A_num]
            t = Fraction(3, 2)
            exact = exact_exp_nilpotent(A, t)
            dense = expm(float(t) * A_num)
            assert np.allclose(
                np.array([[float(x) for x in row] for row in exact]), dense)

    def test_exact_exp_rejects_non_nilpotent(self):
        A = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        with pytest.raises(ValueError):
            exact_exp_nilpotent(A, Fraction(1))

    def test_integrality_check(self):
        ok, M = integrality_check(np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert ok and M == [[1, 2], [0, 1]]
        ok, _ = integrality_check(np.array([[1.0, 2.5], [0.0, 1.0]]))
        assert not ok
        # integer entries but determinant != +-1 is not a lattice map
        ok, _ = integrality_check(np.array([[2.0, 0.0], [0.0, 1.0]]))
        assert not ok


class TestProbes:
    def test_ad_restricted_rejects_non_invariant_span(self):
        g = get_entry("s6.147^0").algebra_instance()
        basis = find_nilradical(g)
        with pytest.raises(ValueError):
            # span(f1, f2, f3) is not ad_X-invariant on this algebra
            ad_restricted(g, [1, 1, 1, 1, 1, 1], basis[:3])

    def test_ad_restricted_in_a_scaled_and_sheared_basis(self):
        # new basis row j is sum_i P[i][j] * (coordinate row i), so the matrix
        # of ad_X in it is P^-1 A P, A the matrix in the coordinate basis
        g = get_entry("s6.147^0").algebra_instance(presentation="table1")
        X = parse_vector("f6-((pi-1)/pi)f5")
        coord = [[Fraction(c.re) for c in row] for row in find_nilradical(g)]
        A = ad_restricted(g, X, coord)
        P = [[Fraction(p) for p in row] for row in (
            [2, "1/3", 0, -1, 0],
            [0, "-1/2", 1, 0, 3],
            [0, 0, 3, "2/5", 0],
            [0, 0, 0, 1, -2],
            [0, 0, 0, 0, "7/4"])]
        basis = [[sum(P[i][j] * coord[i][k] for i in range(5)) for k in range(6)]
                 for j in range(5)]
        Pf = np.array(P, dtype=float)
        assert np.abs(A).max() > 0.5
        assert np.allclose(ad_restricted(g, X, basis), np.linalg.solve(Pf, A @ Pf),
                           rtol=0, atol=1e-12)

    def test_run_probe_irrational_time_not_integral(self):
        g = get_entry("s6.154^0").algebra_instance()
        report = run_probe(g, "f6", "1")
        assert report["status"] != "integral"
        assert np.shape(run_probe(g, "f6", "2pi")["matrix"]) == (5, 5)

    def test_builtin_probe_inconclusive_entry(self):
        report = builtin_probe("s6.152")
        assert report["status"] == "inconclusive"

    def test_builtin_probe_unknown(self):
        with pytest.raises(KeyError):
            builtin_probe("no-such-algebra")
