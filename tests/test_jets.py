"""Jet calculus: sections, total derivatives, seeded partials and ids."""

from fractions import Fraction
from itertools import product
import random

import numpy as np
import pytest

from varjet.fwd import Jet
from varjet.jets import (JetFunction, JetOrderError, JetPoint, PolySection,
                         contract, jet_of_section, pair_index,
                         seed_point, sym_pairs, sym_triples, total_derivative,
                         total_derivative2, total_derivative2_stencil,
                         total_derivative_stencil, triple_index)
from varjet.metric import random_metric_jet
from varjet.poly import Poly, parse_poly


def _poly(text, names, nvars):
    return parse_poly(text, names, nvars)


def _total_derivative(F, j, p):
    """D_j F at p for a JetFunction F, from F at p seeded at F's order."""
    seeded, jv = seed_point(p.truncated(F.order), cap=1)
    return total_derivative(F(seeded), jv, p, j)


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


def test_triple_index_is_the_position_in_sym_triples_in_every_order():
    for n in range(1, 5):
        pos = {t: idx for idx, t in enumerate(sym_triples(n))}
        for t in product(range(n), repeat=3):
            assert triple_index(n, *t) == pos[tuple(sorted(t))]


def test_total_derivative_coordinate_functions():
    p = JetPoint(2, 1, 1, (0.2, 0.4), (1.5,), ((2.0, 3.0),))
    Fy = JetFunction(0, lambda q: q.y[0])
    # D_j y = y_j  needs order >= 1; here F has order 0 so p order 1 suffices
    assert _total_derivative(Fy, 0, p) == 2.0
    assert _total_derivative(Fy, 1, p) == 3.0
    Fx = JetFunction(0, lambda q: q.x[1])
    assert _total_derivative(Fx, 1, p) == 1.0
    assert _total_derivative(Fx, 0, p) == 0.0


def test_total_derivative_product_rule_hand_case():
    # F = y_1 * y_2, D_1 F = y_(11) y_2 + y_1 y_(12) = 5*3 + 2*7 = 29
    n, m = 2, 1
    d2 = [0.0] * len(sym_pairs(n))
    d2[pair_index(n, 0, 0)] = 5.0
    d2[pair_index(n, 0, 1)] = 7.0
    p = JetPoint(n, m, 2, (0.0, 0.0), (0.0,), ((2.0, 3.0),), (tuple(d2),))
    F = JetFunction(1, lambda q: q.y1(0, 0) * q.y1(0, 1))
    assert _total_derivative(F, 0, p) == 29.0


def test_jet_partials_quadratic_monomial():
    n, m = 2, 1
    d2 = [0.0] * len(sym_pairs(n))
    d2[pair_index(n, 0, 0)] = 3.0
    p = JetPoint(n, m, 2, (0.0, 0.0), (0.0,), ((0.0, 0.0),), (tuple(d2),))
    F = JetFunction(2, lambda q: q.y2(0, 0, 0) ** 2)
    seeded, jv = seed_point(p, 2)
    t = F(seeded)
    assert t.value == 9.0
    assert t.deriv(jv.y2(0, 0, 0)) == 6.0
    assert t.deriv(jv.y2(0, 0, 0), jv.y2(0, 0, 0)) == 2.0
    # independence of untouched coordinates is exact
    assert t.deriv(jv.y(0)) == 0
    assert t.deriv(jv.y(0), jv.y1(0, 1)) == 0


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
            lhs = _total_derivative(F, j, jet_of_section(s, x, 2))
            h = 1e-6
            xp, xm = list(x), list(x)
            xp[j] += h
            xm[j] -= h
            fd = (F(jet_of_section(s, xp, 1)) - F(jet_of_section(s, xm, 1))) / (2 * h)
            assert abs(lhs - fd) <= 1e-6 * max(1.0, abs(lhs))


def test_total_derivatives_chain_rule_exact():
    """D_j G (j^{r+1} s) = d/dx^j [G(j^r s)] for G on J^r, r = 0, 1, 2, and
    D_iD_j G (j^{r+2} s) = d^2/dx^i dx^j [G(j^r s)] for r = 0, 1, exactly
    over Fractions.  The right sides are read off G evaluated along the
    section at a Jet-seeded base point."""
    rng = random.Random(7)
    n, m = 2, 2
    names = {"x1": 0, "x2": 1}
    mono = ["1", "x1", "x2", "x1*x2", "x1^2", "x2^2", "x1^2*x2", "x1*x2^2",
            "x1^3", "x2^3", "x1^3*x2", "x1^2*x2^2"]

    def rand_poly():
        return sum((Fraction(rng.randint(-3, 3), rng.randint(1, 4)) * _poly(t, names, 2)
                    for t in mono), Poly.constant(2, 0))

    def g_fn(q, r):
        # a polynomial in every coordinate group of J^r
        acc = q.x[0] * q.y[1] ** 2 + q.y[0] * q.x[1] + q.y[0] * q.y[1]
        if r >= 1:
            acc = acc + q.y[0] * q.y1(1, 0) + q.x[0] * q.y1(0, 1) ** 2
        if r >= 2:
            acc = acc + q.y2(0, 0, 1) * q.y1(1, 1) + q.y[1] * q.y2(1, 0, 0) ** 2
        return acc

    for _ in range(4):
        s = PolySection(n, [rand_poly() for _ in range(m)])
        x = (Fraction(rng.randint(-8, 8), 8), Fraction(rng.randint(-8, 8), 8))
        xs = [Jet.variable(i, x[i], 2, Fraction(1)) for i in range(n)]
        for r in (0, 1, 2):
            seeded, jv = seed_point(jet_of_section(s, x, r), cap=2)
            G = g_fn(seeded, r)
            along = g_fn(jet_of_section(s, xs, r), r)
            for j in range(n):
                lhs = total_derivative(G, jv, jet_of_section(s, x, r + 1), j)
                assert isinstance(lhs, Fraction) and lhs == along.deriv(j)
                if r <= 1:
                    for i in range(n):
                        lhs2 = total_derivative2(G, jv, jet_of_section(s, x, r + 2), i, j)
                        assert isinstance(lhs2, Fraction) and lhs2 == along.deriv(i, j)
            with pytest.raises(JetOrderError):
                total_derivative(G, jv, jet_of_section(s, x, r), 0)
            with pytest.raises(JetOrderError):
                total_derivative2(G, jv, jet_of_section(s, x, min(r + 1, 3)), 0, 1)


def test_stencil_built_once_contracts_every_function_exactly():
    """One D_j and one D_iD_j stencil per point contract every function G
    on J^r (r = 0, 1) to d/dx^j and d^2/dx^i dx^j of G along the section,
    exactly over Fractions.  The D_iD_j stencil lists each partial once
    (the y^a y^b, y'^a_k y'^b_l and, at i = j, the x-terms merged) and no
    zero coefficient."""
    rng = random.Random(11)
    n, m = 2, 2
    names = {"x1": 0, "x2": 1}
    mono = ["1", "x1", "x2", "x1*x2", "x1^2", "x2^2", "x1^2*x2", "x1^3", "x2^3"]
    s = PolySection(n, [sum((Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                             * _poly(t, names, 2) for t in mono), Poly.constant(2, 0))
                        for _ in range(m)])
    x = (Fraction(3, 8), Fraction(-5, 8))
    xs = [Jet.variable(i, x[i], 2, Fraction(1)) for i in range(n)]

    def g_fns(q, r):
        out = [q.x[0] * q.y[1] ** 2 + q.y[0] * q.y[1], q.y[0] * q.x[1] ** 2]
        if r >= 1:
            out += [q.y1(0, 1) * q.y1(1, 0) * q.y[0], q.y1(1, 1) ** 2 + q.x[0] * q.y1(0, 0)]
        return out

    for r in (0, 1):
        seeded, jv = seed_point(jet_of_section(s, x, r), cap=2)
        fns = g_fns(seeded, r)
        along = g_fns(jet_of_section(s, xs, r), r)
        p = jet_of_section(s, x, r + 2)
        st1 = [total_derivative_stencil(jv, p, j) for j in range(n)]
        st2 = [[total_derivative2_stencil(jv, p, i, j) for j in range(n)]
               for i in range(n)]
        for i in range(n):
            for j in range(n):
                ids = [tuple(sorted(t)) for _, t, _ in st2[i][j]]
                assert len(ids) == len(set(ids))
                assert all(c != 0 for c, _, _ in st2[i][j] + st1[j])
        for G, A in zip(fns, along):
            for j in range(n):
                d1 = contract(G, st1[j])
                assert isinstance(d1, Fraction) and d1 == A.deriv(j)
                for i in range(n):
                    d2 = contract(G, st2[i][j])
                    assert isinstance(d2, Fraction) and d2 == A.deriv(i, j)


def test_contract_with_ids_is_the_stencil_applied_to_the_partial():
    """contract(G, st, *ids) == contract(G.partial(ids...), st) exactly over
    Fractions, for D_j and D_iD_j on J^1 and for one and two partial ids:
    the stencil reads the partial through G's own coefficients."""
    rng = random.Random(5)
    n, m = 2, 2
    names = {"x1": 0, "x2": 1}
    mono = ["1", "x1", "x2", "x1*x2", "x1^2", "x2^2", "x1^2*x2", "x1^3", "x2^3"]
    s = PolySection(n, [sum((Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                             * _poly(t, names, 2) for t in mono), Poly.constant(2, 0))
                        for _ in range(m)])
    x = (Fraction(-1, 4), Fraction(5, 8))
    q, jv = seed_point(jet_of_section(s, x, 1), cap=5)
    G = (q.x[0] * q.y[1] ** 2 * q.y1(0, 1) + q.y[0] * q.y1(1, 0) ** 3
         + q.x[1] ** 2 * q.y1(0, 0) * q.y1(1, 1) * q.y[1])
    p = jet_of_section(s, x, 3)
    st1 = [total_derivative_stencil(jv, p, j) for j in range(n)]
    st2 = [[total_derivative2_stencil(jv, p, i, j) for j in range(n)] for i in range(n)]
    for a in range(len(jv)):
        Ga = G.partial(a)
        for j in range(n):
            assert contract(G, st1[j], a) == contract(Ga, st1[j])
            for i in range(n):
                assert contract(G, st2[i][j], a) == contract(Ga, st2[i][j])
        for b in range(len(jv)):
            for j in range(n):
                assert contract(G, st1[j], a, b) == contract(Ga.partial(b), st1[j])
    assert any(contract(G, st2[1][0], a) != 0 for a in range(len(jv)))


def _contract_by_deriv(G, stencil, *ids):
    """sum_t c_t G.deriv(*ids, *ids_t), one `Jet.deriv` read per term."""
    total = 0
    for c, t, _ in stencil:
        total = total + c * G.deriv(*ids, *t)
    return total


@pytest.mark.parametrize("ring", [Fraction, float, complex])
def test_contract_equals_the_deriv_sum_in_value_and_type(ring):
    """The keyed `contract` equals sum_t c_t G.deriv(*ids, *t) in value and
    type over Fraction, float and complex jets: with reads that hit at
    multiplicity 2 (ids = (v,) against a term in v, and the y^a y^a and
    y'^a_k y'^a_k terms of D_iD_j), with stencils whose every read misses
    (the zero of the ring, not int 0), and with a read past G.order, which
    raises `ValueError`."""
    n, m = 2, 2
    names = {"x1": 0, "x2": 1}
    s = PolySection(n, [_poly("1/2 + x1 - 3/4*x1*x2 + x2^2 + x1^3/3", names, 2),
                        _poly("-2 + x2/3 + 5/4*x1^2 - x1^2*x2", names, 2)])
    x = {Fraction: (Fraction(3, 8), Fraction(-5, 8)), float: (0.375, -0.625),
         complex: (0.375 + 0.25j, -0.625 - 0.5j)}[ring]
    q, jv = seed_point(jet_of_section(s, x, 1), cap=3)
    assert type(q.y[0].value) is ring
    G = (q.y[0] ** 2 * q.y1(1, 0) + q.y1(0, 1) ** 2 * q.y[1]
         + q.x[0] * q.y[0] * q.y1(1, 1) + q.y1(1, 0) ** 3)
    ya, yak = jv.y(0), jv.y1(1, 0)
    assert G.deriv(ya, ya) != 0 and G.deriv(yak, yak) != 0
    p = jet_of_section(s, x, 3)
    st1 = [total_derivative_stencil(jv, p, j) for j in range(n)]
    st2 = [[total_derivative2_stencil(jv, p, i, j) for j in range(n)] for i in range(n)]
    for st in (st for row in st2 for st in row):
        terms = {t for _, t, _ in st}
        assert (ya, ya) in terms and (yak, yak) in terms
    flat = Jet.constant(ring(2), 3)
    singles = [()] + [(v,) for v in range(len(jv))]
    pairs = [(v, w) for v in range(len(jv)) for w in range(v, len(jv))]
    for st, id_sets in ([(st, singles + pairs) for st in st1]
                        + [(st, singles) for row in st2 for st in row]):
        for ids in id_sets:
            got, want = contract(G, st, *ids), _contract_by_deriv(G, st, *ids)
            assert got == want and type(got) is type(want), (ids, got, want)
        for ids in ((), (ya,)):
            got = contract(flat, st, *ids)
            assert got == 0 and type(got) is ring
            assert type(got) is type(_contract_by_deriv(flat, st, *ids))
    assert contract(G, st1[0], ya) != 0 and contract(G, st2[0][1], yak) != 0
    G2 = G.truncated(2)
    for ids in ((ya,), (yak,), (jv.x(0),)):
        with pytest.raises(ValueError):
            _contract_by_deriv(G2, st2[0][1], *ids)
        with pytest.raises(ValueError):
            contract(G2, st2[0][1], *ids)


def test_seed_point_partial_symmetry():
    s = _section_x1sq_x2()
    p = jet_of_section(s, (0.7, -0.3), 2)
    seeded, jv = seed_point(p, cap=2)
    F = seeded.y1(0, 0) * seeded.y2(0, 0, 1) + seeded.x[1] * seeded.y[0]
    for id1 in range(len(jv)):
        for id2 in range(len(jv)):
            a = F.deriv(id1, id2)
            b = F.deriv(id2, id1)
            assert a == b


def test_seed_point_takes_its_unit_from_the_fibre_values():
    """A metric jet puts int 0 in x under float values: every seed, x
    included, still has float coefficients, so a pipeline at such a point
    runs in floats."""
    rng = np.random.default_rng(3)
    p = random_metric_jet(rng, 3, (2, 1), order=1).to_jet_point()
    seeded, _ = seed_point(p, 2)
    seeds = [*seeded.x, *seeded.y, *(v for row in seeded.dy for v in row)]
    assert all(isinstance(c, float) for s in seeds for c in s.coef.values())


def test_jet_var_ids_are_the_positions_of_seed_points_seeds():
    """Every accessor id, in every index order, is the position of that
    coordinate's seed in `seed_point`'s output (x, y, then the blocks in
    storage order), the seed is the AD variable of that id, and len(jv) is
    the seed count; an accessor above the order raises."""
    one = Fraction(1)
    for n, m, order in product(range(1, 5), range(1, 4), range(4)):
        sizes = (n, len(sym_pairs(n)), len(sym_triples(n)))[:order]
        p = JetPoint(n, m, order, (one,) * n, (one,) * m,
                     *(((one,) * k,) * m for k in sizes))
        seeded, jv = seed_point(p, 1)
        stored = [*seeded.x, *seeded.y, *(v for block in (seeded.dy, seeded.d2y, seeded.d3y)
                                         for row in block for v in row)]
        position = {id(s): k for k, s in enumerate(stored)}
        assert len(jv) == len(stored)
        assert all(s.deriv(k) == 1 for k, s in enumerate(stored))
        reads = [(jv.x(i), seeded.x[i]) for i in range(n)]
        reads += [(jv.y(a), seeded.y[a]) for a in range(m)]
        for a in range(m):
            for r, name in enumerate(("y1", "y2", "y3"), 1):
                for idx in product(range(n), repeat=r):
                    if r <= order:
                        reads.append((getattr(jv, name)(a, *idx),
                                      getattr(seeded, name)(a, *idx)))
                    else:
                        with pytest.raises(JetOrderError):
                            getattr(jv, name)(a, *idx)
        assert [k for k, _ in reads] == [position[id(s)] for _, s in reads]
