"""Jet calculus: sections, total derivatives, partial tables."""

from fractions import Fraction
import random

import pytest

from varjet.fwd import Jet
from varjet.jets import (JetFunction, JetOrderError, JetPoint, MultiIndex,
                         PolySection, jet_of_section, jet_partials,
                         pair_index, seed_point, sym_pairs, total_derivative)
from varjet.poly import Poly, parse_poly


def _poly(text, names, nvars):
    return parse_poly(text, names, nvars)


def _section_x1sq_x2():
    # y = (x1)^2 * x2 with n=2, m=1
    names = {"x1": 0, "x2": 1}
    return PolySection(2, [_poly("x1^2*x2", names, 2)])


def test_jet_of_constant_section():
    s = PolySection(2, [Poly.constant(2, Fraction(7))])
    p = jet_of_section(s, (0.3, -1.2), 3)
    assert p.y[0] == 7
    assert all(v == 0 for v in p.dy[0])
    assert all(v == 0 for v in p.d2y[0])
    assert all(v == 0 for v in p.d3y[0])


def test_jet_of_section_entries_follow_the_ring_of_x():
    # exact coefficients: the second and third derivatives are constants,
    # which evaluate to Fractions whatever the point
    names = {"x1": 0, "x2": 1}
    s = PolySection(2, [_poly("x1^3/3 + x1*x2/2 - 2", names, 2),
                        _poly("x2^2/5", names, 2)])

    def entries(p):
        return list(p.y) + [v for t in (p.dy, p.d2y, p.d3y) for row in t for v in row]

    pf = jet_of_section(s, (0.5, -0.25), 3)
    pq = jet_of_section(s, (Fraction(1, 2), Fraction(-1, 4)), 3)
    assert all(type(v) is float for v in entries(pf))
    assert all(isinstance(v, (int, Fraction)) for v in entries(pq))
    assert entries(pf) == [float(v) for v in entries(pq)]
    assert pq.y2(0, 0, 0) == 1 and pq.y3(0, 0, 0, 0) == 2


def test_jet_of_linear_section():
    names = {"x1": 0, "x2": 1}
    s = PolySection(2, [_poly("x1", names, 2)])
    p = jet_of_section(s, (0, 0), 2)
    assert p.y[0] == 0
    assert tuple(p.dy[0]) == (1, 0)
    assert all(v == 0 for v in p.d2y[0])


def test_jet_of_cubic_section_hand_values():
    s = _section_x1sq_x2()
    p = jet_of_section(s, (1, 1), 3)
    assert p.y[0] == 1
    assert p.y1(0, 0) == 2 and p.y1(0, 1) == 1
    assert p.y2(0, 0, 0) == 2 and p.y2(0, 0, 1) == 2 and p.y2(0, 1, 1) == 0
    assert p.y3(0, 0, 0, 1) == 2
    assert p.y3(0, 0, 0, 0) == 0 and p.y3(0, 1, 1, 1) == 0 and p.y3(0, 0, 1, 1) == 0


def test_order_cap_rejected():
    s = _section_x1sq_x2()
    with pytest.raises(JetOrderError):
        jet_of_section(s, (0, 0), 4)


def test_symmetric_storage_read_any_order():
    s = _section_x1sq_x2()
    p = jet_of_section(s, (0.5, 2.0), 3)
    assert p.y2(0, 0, 1) == p.y2(0, 1, 0)
    assert p.y3(0, 0, 0, 1) == p.y3(0, 1, 0, 0) == p.y3(0, 0, 1, 0)


def test_total_derivative_coordinate_functions():
    p = JetPoint(2, 1, 1, (0.2, 0.4), (1.5,), ((2.0, 3.0),))
    Fy = JetFunction(0, lambda q: q.y[0])
    # D_j y = y_j  needs order >= 1; here F has order 0 so p order 1 suffices
    assert total_derivative(Fy, 0, p) == 2.0
    assert total_derivative(Fy, 1, p) == 3.0
    Fx = JetFunction(0, lambda q: q.x[1])
    assert total_derivative(Fx, 1, p) == 1.0
    assert total_derivative(Fx, 0, p) == 0.0


def test_total_derivative_product_rule_hand_case():
    # F = y_1 * y_2, D_1 F = y_(11) y_2 + y_1 y_(12) = 5*3 + 2*7 = 29
    n, m = 2, 1
    d2 = [0.0] * len(sym_pairs(n))
    d2[pair_index(n, 0, 0)] = 5.0
    d2[pair_index(n, 0, 1)] = 7.0
    p = JetPoint(n, m, 2, (0.0, 0.0), (0.0,), ((2.0, 3.0),), (tuple(d2),))
    F = JetFunction(1, lambda q: q.y1(0, 0) * q.y1(0, 1))
    assert total_derivative(F, 0, p) == 29.0


def test_jet_partials_quadratic_monomial():
    n, m = 2, 1
    d2 = [0.0] * len(sym_pairs(n))
    d2[pair_index(n, 0, 0)] = 3.0
    p = JetPoint(n, m, 2, (0.0, 0.0), (0.0,), ((0.0, 0.0),), (tuple(d2),))
    F = JetFunction(2, lambda q: q.y2(0, 0, 0) ** 2)
    t = jet_partials(F, p)
    assert t.value == 9.0
    assert t.d(("y2", 0, (0, 0))) == 6.0
    assert t.d2(("y2", 0, (0, 0)), ("y2", 0, (0, 0))) == 2.0
    # independence of untouched coordinates is exact
    assert t.d(("y", 0)) == 0
    assert t.d2(("y", 0), ("y1", 0, 1)) == 0


def test_chain_rule_consistency_random_sections():
    """D_j F (j^{r+1} s) equals d/dx^j of F(j^r s), by central differences."""
    rng = random.Random(42)
    n, m = 2, 2
    names = {"x1": 0, "x2": 1}

    def rand_poly():
        mono = ["1", "x1", "x2", "x1*x2", "x1^2", "x2^2", "x1^2*x2", "x1*x2^2"]
        return sum((Fraction(rng.randint(-3, 3)) * _poly(t, names, 2)
                    for t in mono), Poly.constant(2, 0))

    def F_fn(q):
        # order-1 jet function mixing all coordinate groups
        return q.x[0] * q.y[1] + q.y[0] * q.y1(1, 0) + q.y1(0, 1) ** 2

    F = JetFunction(1, F_fn)
    for _ in range(50):
        s = PolySection(2, [rand_poly() for _ in range(m)])
        x = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
        for j in range(n):
            lhs = total_derivative(F, j, jet_of_section(s, x, 2))
            h = 1e-6
            xp, xm = list(x), list(x)
            xp[j] += h
            xm[j] -= h
            fd = (F(jet_of_section(s, xp, 1)) - F(jet_of_section(s, xm, 1))) / (2 * h)
            assert abs(lhs - fd) <= 1e-6 * max(1.0, abs(lhs))


def test_seed_point_partial_symmetry():
    s = _section_x1sq_x2()
    p = jet_of_section(s, (0.7, -0.3), 2)
    seeded, jv = seed_point(p, cap=2)
    F = seeded.y1(0, 0) * seeded.y2(0, 0, 1) + seeded.x[1] * seeded.y[0]
    for lab1 in jv.labels:
        for lab2 in jv.labels:
            a = F.deriv(jv.id_of[lab1], jv.id_of[lab2])
            b = F.deriv(jv.id_of[lab2], jv.id_of[lab1])
            assert a == b


def test_multi_index():
    I = MultiIndex.from_indices(4, (0, 0, 3))
    assert I.order == 3
    assert I.entries == (2, 0, 0, 1)
    assert I.factorial() == 2
    J = I + MultiIndex.unit(4, 1)
    assert J.entries == (2, 1, 0, 1)
    assert J.indices() == (0, 0, 1, 3)
