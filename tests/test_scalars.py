"""Exact scalar tower: GaussianRational and polynomial rings.

Oracle: arithmetic in GaussianRational must agree with Python's ``complex``
(evaluated in floating point, with exact rational inputs chosen so the float
image is faithful), and field axioms are checked exactly.
"""
import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hermlie.scalars import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    PolyRing,
    _power,
    conj_scalar,
    im_part,
    re_part,
)
from tests.conftest import gaussian_rationals, nonzero_gaussian_rationals, small_fractions


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


# ---------------------------------------------------------------------------
# differential test: GaussianRational against a pair of Fractions (re, im)

DIFFERENTIAL = settings(max_examples=1000, deadline=None, derandomize=True)

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

pairs = st.tuples(small_fractions, small_fractions)
other_operands = st.one_of(
    pairs,
    st.integers(min_value=-6, max_value=6),
    small_fractions,
    st.floats(min_value=-8, max_value=8),
    st.complex_numbers(max_magnitude=8, allow_nan=False, allow_infinity=False),
)


def _canonical(x) -> tuple:
    """The exact value of ``x``, after checking it is stored in lowest terms."""
    assert isinstance(x, GaussianRational)
    assert x._d > 0 and gcd(x._a, x._b, x._d) == 1, (x._a, x._b, x._d)
    assert type(x._a) is type(x._b) is type(x._d) is int
    return Fraction(x._a, x._d), Fraction(x._b, x._d)


def _exact_pair(x):
    """(re, im) of an exact operand, or None for a float or complex one."""
    if isinstance(x, tuple):
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(0)
    return None


def _pair_op(op: str, x: tuple, y: tuple) -> tuple:
    (a, b), (c, e) = x, y
    if op == "+":
        return a + c, b + e
    if op == "-":
        return a - c, b - e
    if op == "*":
        return a * c - b * e, a * e + b * c
    n = c * c + e * e
    if not n:
        raise ZeroDivisionError
    return (a * c + b * e) / n, (b * c - a * e) / n


def _pair_complex(x: tuple) -> complex:
    return complex(float(x[0]), float(x[1]))


def _pair_repr(x: tuple) -> str:
    re, im = x
    if not im:
        return str(re)
    if not re:
        return f"{im}*i"
    return f"({re}{'+' if im > 0 else '-'}{abs(im)}*i)"


def _bits(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


def _outcome(fn):
    try:
        return "ok", fn()
    except (ZeroDivisionError, TypeError, ValueError) as exc:
        return type(exc).__name__, None


class TestDifferential:
    """Every operation, with every operand type on either side, agrees with
    the same operation on a pair of Fractions, and every exact result is
    stored as (a + b*i)/d with d > 0 and gcd(a, b, d) = 1."""

    @DIFFERENTIAL
    @given(st.sampled_from(sorted(_BINARY)), pairs, other_operands, st.booleans())
    def test_binary_operations(self, op, x, y, swap):
        gx = GaussianRational(*x)
        gy = GaussianRational(*y) if isinstance(y, tuple) else y
        left, right = (gy, gx) if swap else (gx, gy)
        got = _outcome(lambda: _BINARY[op](left, right))
        py = _exact_pair(y)
        if py is not None:
            want = _outcome(lambda: _pair_op(op, *((py, x) if swap else (x, py))))
            assert got[0] == want[0]
            if got[0] == "ok":
                assert _canonical(got[1]) == want[1]
        else:  # a float or complex never mixes with an exact scalar
            assert got[0] == "TypeError"

    @DIFFERENTIAL
    @given(pairs, other_operands)
    def test_equality(self, x, y):
        gx = GaussianRational(*x)
        py = _exact_pair(y)
        gy = GaussianRational(*y) if isinstance(y, tuple) else y
        want = py is not None and py == x
        assert (gx == gy) is want and (gy == gx) is want
        assert (gx != gy) is (not want) and (gy != gx) is (not want)

    @DIFFERENTIAL
    @given(pairs, st.integers(min_value=-1, max_value=5))
    def test_unary_operations(self, x, n):
        g = GaussianRational(*x)
        assert _canonical(g) == x
        assert g.re == x[0] and g.im == x[1]
        assert bool(g) is bool(x[0] or x[1])
        assert g.is_real() is (x[1] == 0)
        assert repr(g) == _pair_repr(x)
        assert hash(g) == (hash(x[0]) if not x[1] else hash(x))
        assert _bits(complex(g)) == _bits(_pair_complex(x))
        assert _canonical(-g) == (-x[0], -x[1])
        assert _canonical(g.conj()) == (x[0], -x[1])
        got = _outcome(g.inverse)
        want = _outcome(lambda: _pair_op("/", (Fraction(1), Fraction(0)), x))
        assert got[0] == want[0]
        if got[0] == "ok":
            assert _canonical(got[1]) == want[1]
        if n < 0:
            with pytest.raises(ValueError):
                g ** n
        else:
            power = (Fraction(1), Fraction(0))
            for _ in range(n):
                power = _pair_op("*", power, x)
            assert _canonical(g ** n) == power

    @DIFFERENTIAL
    @given(pairs, st.lists(st.tuples(st.sampled_from(sorted(_BINARY)), pairs), max_size=8))
    def test_chained_operations(self, x, steps):
        """Results of results: denominators and gcds grow past the inputs'."""
        g, ref = GaussianRational(*x), x
        for op, y in steps:
            if op == "/" and not any(y):
                continue
            g, ref = _BINARY[op](g, GaussianRational(*y)), _pair_op(op, ref, y)
            assert _canonical(g) == ref
            assert hash(g) == (hash(ref[0]) if not ref[1] else hash(ref))
            assert repr(g) == _pair_repr(ref)

    @DIFFERENTIAL
    @given(st.one_of(st.integers(min_value=-10**6, max_value=10**6), small_fractions,
                     st.fractions(max_denominator=10**6)))
    def test_real_values_hash_like_their_rational(self, q):
        g = GaussianRational(q)
        assert hash(g) == hash(q) and g == q and q == g
        assert _canonical(g) == (Fraction(q), Fraction(0))
        assert _canonical(GaussianRational(str(q))) == (Fraction(q), Fraction(0))

    def test_constructor_inputs(self):
        assert GaussianRational("3/6", "-2") == GaussianRational(Fraction(1, 2), -2)
        assert _canonical(GaussianRational(Fraction(1, 6), Fraction(3, 4))) == (
            Fraction(1, 6), Fraction(3, 4))
        with pytest.raises(TypeError):
            GaussianRational(0.5)
        with pytest.raises(AttributeError):
            GaussianRational(1).re = Fraction(2)


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

    def test_power_stops_squaring_at_the_top_bit(self):
        # one product per set bit and one squaring per bit below the top one
        class Counted:
            products = 0

            def __init__(self, value):
                self.value = value

            def __mul__(self, other):
                Counted.products += 1
                return Counted(self.value * other.value)

        for n in range(34):
            Counted.products = 0
            assert _power(Counted(3), n, Counted(1)).value == 3 ** n
            assert Counted.products == max(bin(n).count("1") + n.bit_length() - 1, 0), n

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

    def test_no_zero_coefficient_is_stored(self):
        # Poly stores the terms it is given: every operation must drop zeros,
        # or equal polynomials would compare unequal
        r = self.ring()
        x, z = r.var("x"), r.var("z")
        y = r.var("y")
        polys = [
            (x + z) * (x - z) - x * x + z * z,
            (x + GR_I * z) * (x - GR_I * z) - x * x - z * z,
            -(x - x),
            x + -x,
            (x + y) * (x - y) - (x * x - y * y),
            (z + z.conj()).conj() - z - r.var("z~"),
            (x * z + 3).substitute({"x": 0}) - 3,
            (x * x - 1).substitute({"x": 1}),
            (x * z + y * z).substitute({"x": -y}),
            r.constant(GR_ZERO) + r.zero() * x,
            (x - 1) ** 2 - x * x + 2 * x,
        ]
        for p in polys:
            assert all(p.terms.values()), p
        assert polys[:-1] == [r.zero()] * 10
        assert polys[-1] == r.one()
