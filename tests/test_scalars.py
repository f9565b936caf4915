"""Exact scalar tower: GaussianRational and polynomial rings.

Oracle: arithmetic in GaussianRational must agree with Python's ``complex``
(evaluated in floating point, with exact rational inputs chosen so the float
image is faithful), and field axioms are checked exactly.
"""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hermlie.scalars import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Poly,
    PolyRing,
    conj_scalar,
    im_part,
    re_part,
)
from tests.conftest import gaussian_rationals, nonzero_gaussian_rationals


class TestGaussianRational:
    def test_construction_and_equality(self):
        a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
        assert a.re == Fraction(1, 2) and a.im == Fraction(-3, 4)
        assert a == GaussianRational(Fraction(1, 2), Fraction(-3, 4))
        assert a != GaussianRational(Fraction(1, 2))

    def test_coerce(self):
        assert GaussianRational.coerce(3) == GaussianRational(Fraction(3))
        assert GaussianRational.coerce(Fraction(2, 5)).re == Fraction(2, 5)
        a = GaussianRational(Fraction(1), Fraction(2))
        assert GaussianRational.coerce(a) is a

    def test_float_image_oracle(self):
        a = GaussianRational(Fraction(3, 4), Fraction(-1, 2))
        b = GaussianRational(Fraction(-2), Fraction(5, 8))
        for op in ("__add__", "__sub__", "__mul__"):
            exact = getattr(a, op)(b)
            approx = getattr(complex(a), op)(complex(b))
            assert complex(exact) == pytest.approx(approx)
        assert complex(a / b) == pytest.approx(complex(a) / complex(b))

    @given(gaussian_rationals, gaussian_rationals, gaussian_rationals)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + GR_ZERO == a
        assert a * GR_ONE == a

    @given(nonzero_gaussian_rationals)
    def test_field_inverse(self, a):
        assert a * (GR_ONE / a) == GR_ONE

    @given(gaussian_rationals)
    def test_conjugation(self, a):
        assert a.conj().conj() == a
        n = a * a.conj()
        assert n.im == 0 and n.re >= 0
        assert conj_scalar(a) == a.conj()

    def test_i_squares_to_minus_one(self):
        assert GR_I * GR_I == -GR_ONE


class TestPolyRing:
    def ring(self):
        return PolyRing(real_vars=["x", "y"], complex_vars=["z"])

    def test_conjugate_partner(self):
        r = self.ring()
        z = r.var("z")
        assert z.conj() == r.var("z~")
        assert r.var("x").conj() == r.var("x")

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValueError):
            PolyRing(real_vars=["x", "x"])

    def test_re_im_norm_identities(self):
        r = self.ring()
        z = r.var("z")
        assert re_part(z) + GR_I * im_part(z) == z

    def test_re_im_parts(self):
        a = GaussianRational(Fraction(3, 4), Fraction(-5, 2))
        assert re_part(a) == GaussianRational(Fraction(3, 4))
        assert im_part(a) == GaussianRational(Fraction(-5, 2))
        assert re_part(7) == 7 and im_part(7) == 0
        r = self.ring()
        z = r.var("z")
        half = GaussianRational(Fraction(1, 2))
        assert re_part(z) == (z + r.var("z~")) * half
        assert im_part(z) == (z - r.var("z~")) * (-GR_I * half)
        assert re_part(r.var("x")) == r.var("x") and not im_part(r.var("x"))

    def test_cross_ring_arithmetic_rejected(self):
        r1, r2 = self.ring(), self.ring()
        with pytest.raises(ValueError):
            r1.var("x") + r2.var("x")

    def test_constant_detection(self):
        r = self.ring()
        p = r.var("x") - r.var("x") + r.constant(Fraction(5, 3))
        assert p.is_constant()
        assert p.constant_value() == GaussianRational(Fraction(5, 3))
        with pytest.raises(ValueError):
            (r.var("x") + 1).constant_value()

    def test_power(self):
        r = self.ring()
        x = r.var("x")
        assert x ** 3 == x * x * x
        assert x ** 0 == r.one()
        with pytest.raises(ValueError):
            x ** -1

    def test_substitute_partial(self):
        r = self.ring()
        p = r.var("x") * r.var("z") + r.var("y")
        q = p.substitute({"x": 2})
        assert q == 2 * r.var("z") + r.var("y")

    def test_substitute_complex_pair_is_explicit(self):
        # substituting z does not touch z~; both must be passed
        r = self.ring()
        z = r.var("z")
        p = z * z.conj()
        partial = p.substitute({"z": GaussianRational(Fraction(0), Fraction(1))})
        assert not partial.is_constant()
        full = p.evaluate({"z": GaussianRational(Fraction(0), Fraction(1)),
                           "z~": GaussianRational(Fraction(0), Fraction(-1)),
                           })
        assert full == GR_ONE

    def test_variables(self):
        r = self.ring()
        p = r.var("x") * r.var("z~") + 1
        assert p.variables() == {"x", "z~"}
