"""Sanity of the forward-mode Taylor scalars against analytic derivatives."""

from fractions import Fraction
import math
import random

import pytest

from varjet.fwd import Jet, ring_sqrt


def test_product_rule_second_order():
    x = Jet.variable(0, 2.0, 2)
    y = Jet.variable(1, 3.0, 2)
    f = x * x * y + y
    assert f.value == 15.0
    assert f.deriv(0) == 12.0
    assert f.deriv(1) == 5.0
    assert f.deriv(0, 0) == 6.0
    assert f.deriv(0, 1) == 4.0
    assert f.deriv(1, 1) == 0.0


def test_division_and_sqrt_float():
    random.seed(3)
    for _ in range(20):
        a, b = random.uniform(0.5, 2.0), random.uniform(0.5, 2.0)
        x = Jet.variable(0, a, 3)
        y = Jet.variable(1, b, 3)
        f = (x * x + y).sqrt() / y
        g = lambda u, v: math.sqrt(u * u + v) / v
        h = 1e-5
        fd_x = (g(a + h, b) - g(a - h, b)) / (2 * h)
        fd_xx = (g(a + h, b) - 2 * g(a, b) + g(a - h, b)) / h**2
        assert abs(f.value - g(a, b)) < 1e-14
        assert abs(f.deriv(0) - fd_x) < 1e-8
        assert abs(f.deriv(0, 0) - fd_xx) < 1e-5


def test_exact_rational_third_order():
    x = Jet.variable(0, Fraction(2), 3)
    f = 1 / (1 + x)          # derivatives: -1/9, 2/27, -6/81 at x=2
    assert f.value == Fraction(1, 3)
    assert f.deriv(0) == Fraction(-1, 9)
    assert f.deriv(0, 0) == Fraction(2, 27)
    assert f.deriv(0, 0, 0) == Fraction(-6, 81)


def test_sqrt_exact_at_one():
    x = Jet.variable(0, Fraction(1), 3)
    f = x.sqrt()
    assert f.value == 1
    assert f.deriv(0) == Fraction(1, 2)
    assert f.deriv(0, 0) == Fraction(-1, 4)
    assert f.deriv(0, 0, 0) == Fraction(3, 8)


def test_partial_jet():
    x = Jet.variable(0, 1.5, 3)
    y = Jet.variable(1, -0.5, 3)
    f = x * x * y
    fx = f.partial(0)
    assert fx.value == 2 * 1.5 * -0.5
    assert fx.deriv(0) == 2 * -0.5
    assert fx.deriv(1) == 2 * 1.5


def test_power_and_abs():
    x = Jet.variable(0, -2.0, 2)
    f = abs(x) ** 3
    assert f.value == 8.0
    assert f.deriv(0) == -12.0     # d|x|^3/dx = 3x^2 sign(x)


def test_ring_sqrt_rational():
    assert ring_sqrt(Fraction(9, 4)) == Fraction(3, 2)


def test_order_above_packed_key_limit_is_refused():
    # Each variable has a 3-bit exponent field: at order 8, x0**8 would carry
    # into x1's field, so (x0**8).partial(1) came out nonzero and
    # .restricted([0]) dropped the term.  Such jets must not be built.
    with pytest.raises(ValueError):
        Jet.variable(0, 0.0, 8)
    with pytest.raises(ValueError):
        Jet.constant(1.0, 8)
    # order 7 is the largest that packs faithfully
    f = Jet.variable(0, 0.0, 7) ** 7
    assert f.deriv(*[0] * 7) == math.factorial(7)
    assert f.partial(1).coef == {}
    assert f.restricted([0]).coef == f.coef
