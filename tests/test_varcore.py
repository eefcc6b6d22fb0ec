"""Generic variational pipeline: projectability, affine extraction, momenta,
Hamiltonian, regularity form, Euler-Lagrange, Hamilton-Cartan."""

from fractions import Fraction

import numpy as np
import pytest

from varjet.einstein import EHLagrangian, affine_supplier
from varjet.fwd import Jet, jet_sum, value_of
from varjet.jets import (JetFunction, JetPoint, PolySection, delta,
                         jet_of_section, pair_index, sym_pairs)
from varjet.metric import metric_from_jet_point, random_metric_jet
from varjet.poly import Poly, parse_poly
from varjet.varcore import (GenericAffineSupplier, QuadratureError,
                            SecondOrderLagrangian, TableAffineSupplier,
                            bar_lagrangian, bilinear_form_b, euler_lagrange,
                            euler_lagrange_first_order, hc_residual,
                            legendre_coefficients, momenta_hamiltonian,
                            pipeline, projectability_check,
                            random_projectable_lagrangian)


def eh_lagrangian(n, sig):
    eh = EHLagrangian(n, sig)
    return eh, SecondOrderLagrangian(n, eh.npairs, eh.jet_function())


def random_jet_points(rng, lag, count, order=2):
    out = []
    for _ in range(count):
        n, m = lag.n, lag.m
        x = tuple(rng.uniform(-1, 1, n))
        y = tuple(rng.uniform(-1, 1, m))
        dy = tuple(tuple(rng.uniform(-1, 1, n)) for _ in range(m))
        d2y = tuple(tuple(rng.uniform(-1, 1, len(sym_pairs(n)))) for _ in range(m))
        out.append(JetPoint(n, m, order, x, y, dy, d2y))
    return out


# ---------------------------------------------------------------------------
# projectability


def test_projectability_accepts_eh():
    rng = np.random.default_rng(2)
    for n, sig in [(2, (2, 0)), (3, (1, 2))]:
        eh, lag = eh_lagrangian(n, sig)
        samples = [random_metric_jet(rng, n, sig, order=2).to_jet_point()
                   for _ in range(4)]
        rep = projectability_check(lag, samples)
        assert rep.affine and rep.projects_to_J2 and rep.projects_to_J1


def test_projectability_rejects_quadratic_second_order():
    # L = (y_(11))^2 with n = m = 1: not affine
    F = JetFunction(2, lambda p: p.y2(0, 0, 0) ** 2)
    lag = SecondOrderLagrangian(1, 1, F)
    p = JetPoint(1, 1, 2, (0.3,), (0.1,), ((0.2,),), ((3.0,),))
    rep = projectability_check(lag, [p])
    assert not rep.affine
    assert not rep.projects_to_J1


def test_projectability_broken_cross_condition():
    # L = y^1_2 * y^1_(11) (n=2, m=1): affine but the first-order
    # cross-derivative condition fails with residual exactly 1
    F = JetFunction(2, lambda p: p.y1(0, 1) * p.y2(0, 0, 0))
    lag = SecondOrderLagrangian(2, 1, F)
    p = JetPoint(2, 1, 2, (0.0, 0.0), (0.5,), ((0.7, -0.3),),
                 ((0.2, 0.1, 0.4),))
    rep = projectability_check(lag, [p])
    assert rep.affine
    assert not rep.projects_to_J1
    assert abs(rep.max_first_tris_residual - 1.0) < 1e-12


def test_projectability_random_family():
    rng = np.random.default_rng(3)
    for _ in range(5):
        lag = random_projectable_lagrangian(rng, 2, 2)
        samples = random_jet_points(rng, lag, 3)
        rep = projectability_check(lag, samples)
        assert rep.affine and rep.projects_to_J1, rep.summary()


# ---------------------------------------------------------------------------
# Legendre coefficients


def test_legendre_first_order_lagrangian():
    # no second-derivative dependence: Lij = 0, Li0 = dL/dy'
    F = JetFunction(2, lambda p: p.y1(0, 0) ** 2 + p.y[0] * p.y1(0, 1))
    lag = SecondOrderLagrangian(2, 1, F)
    rng = np.random.default_rng(4)
    p = random_jet_points(rng, lag, 1, order=3)[0]
    p = JetPoint(2, 1, 3, p.x, p.y, p.dy, p.d2y,
                 (tuple(rng.uniform(-1, 1, 4)),))
    lc = legendre_coefficients(lag, p)
    assert all(v == 0 for v in lc.lij.values())
    assert abs(lc.li0[(0, 0)] - 2 * p.y1(0, 0)) < 1e-14
    assert abs(lc.li0[(0, 1)] - p.y[0]) < 1e-14


def test_legendre_nonaffine_convention():
    # L = (y_(11))^2, n=m=1: L^{11} = (1/(2-d_11)) dL/dy_(11) = 6 at y_(11)=3
    F = JetFunction(2, lambda p: p.y2(0, 0, 0) ** 2)
    lag = SecondOrderLagrangian(1, 1, F)
    p = JetPoint(1, 1, 3, (0.0,), (0.0,), ((0.0,),), ((3.0,),), ((5.0,),))
    lc = legendre_coefficients(lag, p)
    assert lc.lij[(0, 0, 0)] == 6.0
    # Li0 = dL/dy' - D_1(dL/dy_(11)) = 0 - 2*y_(111) = -10
    assert lc.li0[(0, 0)] == -10.0


def test_legendre_reconstruction_random_affine():
    """The delta-convention is pinned by reconstruction: L = sum over full
    index pairs of L^{ij}_a y^a_(ij) plus L_0, exact at random jets."""
    rng = np.random.default_rng(5)
    for _ in range(4):
        lag = random_projectable_lagrangian(rng, 2, 2)
        for p in random_jet_points(rng, lag, 25, order=3):
            p3 = JetPoint(2, 2, 3, p.x, p.y, p.dy, p.d2y,
                          (tuple(rng.uniform(-1, 1, 4)),
                           tuple(rng.uniform(-1, 1, 4))))
            lc = legendre_coefficients(lag, p3)
            data = pipeline(GenericAffineSupplier(lag), p3.truncated(1), cap=1)
            total = float(value_of(data.l0.value))
            for a in range(2):
                for (i, j) in sym_pairs(2):
                    total += (2 - (1 if i == j else 0)) \
                        * float(value_of(lc.lij[(a, i, j)])) * p3.y2(a, i, j)
            assert abs(total - float(value_of(lag.L(p3.truncated(2))))) <= 1e-10


def test_legendre_eh_matches_closed_form():
    rng = np.random.default_rng(6)
    for n, sig in [(2, (2, 0)), (3, (1, 2))]:
        eh, lag = eh_lagrangian(n, sig)
        for _ in range(3):
            mj = random_metric_jet(rng, n, sig, order=3)
            lc = legendre_coefficients(lag, mj.to_jet_point())
            tab = eh.lij_rs(mj)
            for al in range(eh.npairs):
                for b, (i, j) in enumerate(sym_pairs(n)):
                    ref = tab[b][al]
                    assert abs(lc.lij[(al, i, j)] - ref) <= 1e-9 * max(1, abs(ref))


# ---------------------------------------------------------------------------
# momenta / Hamiltonian / Lbar / b-form against the closed forms


def test_generic_pipeline_matches_eh_closed_forms():
    rng = np.random.default_rng(7)
    for n, sig in [(2, (2, 0)), (3, (2, 1))]:
        eh, lag = eh_lagrangian(n, sig)
        sup = GenericAffineSupplier(lag)
        for _ in range(3):
            mj = random_metric_jet(rng, n, sig, order=1)
            q = mj.to_jet_point()
            p, h, dp, data = momenta_hamiltonian(sup, q)
            p_ref = eh.momenta(mj)
            h_ref = eh.hamiltonian(mj)
            scale = max(1.0, max(abs(v) for row in p_ref for v in row))
            for al in range(eh.npairs):
                for i in range(n):
                    assert abs(float(value_of(p[al][i])) - p_ref[al][i]) <= 1e-8 * scale
            assert abs(float(value_of(h)) - h_ref) <= 1e-8 * max(1.0, abs(h_ref))
            # dp equals the Y-table
            y = eh.y_table(mj)
            for al in range(eh.npairs):
                for i in range(n):
                    for be in range(eh.npairs):
                        for j in range(n):
                            assert abs(dp[al * n + i][be * n + j]
                                       - y[al][i][be][j]) <= 1e-8 * scale


def test_closed_form_supplier_matches_generic():
    rng = np.random.default_rng(8)
    n, sig = 3, (3, 0)
    eh, lag = eh_lagrangian(n, sig)
    gen = GenericAffineSupplier(lag)
    closed = affine_supplier(eh)
    mj = random_metric_jet(rng, n, sig, order=1)
    q = mj.to_jet_point()
    p1, h1, dp1, _ = momenta_hamiltonian(gen, q)
    p2, h2, dp2, _ = momenta_hamiltonian(closed, q)
    assert np.allclose(np.array(p1, float), np.array(p2, float), atol=1e-9)
    assert abs(float(value_of(h1)) - float(value_of(h2))) < 1e-9
    assert np.allclose(dp1, dp2, atol=1e-9)


def _gap(a, b, order):
    """max |a - b| over the Taylor coefficients of degree <= order (the
    generic supplier's Jets carry terms above their truncation order)."""
    keys = {k for k in set(a.coef) | set(b.coef) if k & 31 <= order}
    return max((abs(a.coef.get(k, 0) - b.coef.get(k, 0)) for k in keys), default=0)


def _rational_eh_point():
    """An exact order-1 jet of an n = 3 metric of signature (2, 1):
    g = A^T diag(1, 1, -1) A, so rho = |det A| is rational."""
    F = Fraction
    n = 3
    a = [[F(1), F(1, 2), F(0)], [F(0), F(1), F(1, 3)], [F(1, 4), F(0), F(2)]]
    eta = (1, 1, -1)
    g = tuple(sum(a[c][i] * eta[c] * a[c][j] for c in range(n))
              for i, j in sym_pairs(n))
    dg = tuple(tuple(F((3 * k + 5 * i) % 7 - 3, 5) for i in range(n))
               for k in range(len(g)))
    return JetPoint(n, len(g), 1, (F(1, 3), F(-1, 2), F(1, 5)), g, dg)


def test_closed_form_primitives_equal_the_sampled_path():
    """The EH supplier's fibre primitives, the contraction y^a_i L_a^{hi},
    against the generic supplier of the same Lagrangian, which samples its
    block along the ray: L^i, p, H and Lbar agree exactly over Fractions
    (at cap 0, the values and the first partials of L^i) and to 1e-12 over
    floats (at cap 1), both satisfy dL^h/dy^a_i = L_a^{hi}, and each
    pipeline says how it got L^i."""
    n = 3
    eh, lag = eh_lagrangian(n, (2, 1))
    closed, gen = affine_supplier(eh), GenericAffineSupplier(lag)
    exact = _rational_eh_point()
    x, g, dg = exact.x, exact.y, exact.dy
    floats = JetPoint(n, len(g), 1, tuple(map(float, x)), tuple(map(float, g)),
                      tuple(tuple(map(float, r)) for r in dg))
    for q, cap, tol in ((exact, 0, 0), (floats, 1, 1e-12)):
        dc, ds = pipeline(closed, q, cap=cap), pipeline(gen, q, cap=cap)
        assert (dc.primitive_method, ds.primitive_method) == \
            ("closed_form", "polynomial")
        assert ds.primitive_degree == 0
        pairs = [(dc.li[h], ds.li[h], cap + 1) for h in range(n)]
        pairs += [(dc.p[k], ds.p[k], cap) for k in dc.p]
        pairs += [(dc.h, ds.h, cap), (dc.lbar, ds.lbar, cap)]
        assert max(_gap(u, v, order) for u, v, order in pairs) <= tol
        # and both are primitives: dL^h/dy^a_i = L_a^{hi}
        jv = dc.jv
        assert max(abs(d.li[h].deriv(jv.y1(al, i)) - d.lij_get(al, h, i).value)
                   for d in (dc, ds) for h in range(n) for i in range(n)
                   for al in range(len(g))) <= tol
        if tol == 0:
            assert all(isinstance(c, Fraction) for u, _, _ in pairs
                       for c in u.coef.values())


def test_h_and_lbar_are_truncated_at_cap():
    """A and dL^i/dx^i are known to order cap only, so H and Lbar are
    returned at order cap, and a cap-1 pipeline gives the degree <= 1 part
    of a cap-2 one, coefficient by coefficient."""
    eh, _ = eh_lagrangian(3, (2, 1))
    sup, q = affine_supplier(eh), _rational_eh_point()
    d1, d2 = pipeline(sup, q, cap=1), pipeline(sup, q, cap=2)
    for d in (d1, d2):
        assert d.h.order == d.lbar.order == d.cap
    assert d1.h.coef == d2.h.truncated(1).coef
    assert d1.lbar.coef == d2.lbar.truncated(1).coef


def _quartic_potential_lagrangian():
    """n = 2, m = 1: L = L^{ij} y_(ij) + L_0 with L^{ij} = d^2 Phi/dy'_i dy'_j
    for a rational Phi(x, y, y') quartic in y'; returns it with Phi."""
    names = {"x1": 0, "x2": 1, "y": 2, "u": 3, "v": 4}    # u, v = y'_1, y'_2
    phi = parse_poly("u^4/3 + u^2*v^2/2 - 2*u*v^3/5 + x1*u^3 + y*v^3/7"
                     " + x2*y*u*v", names, 5)
    l0 = parse_poly("x1*y + u*v - x2*y^2/3", names, 5)
    hess = [[phi.diff(3 + i).diff(3 + j) for j in range(2)] for i in range(2)]

    def fn(p):
        pt = [p.x[0], p.x[1], p.y[0], p.y1(0, 0), p.y1(0, 1)]
        return sum(((2 - delta(i, j)) * hess[i][j].eval(pt) * p.y2(0, i, j)
                    for (i, j) in sym_pairs(2)), l0.eval(pt))

    return SecondOrderLagrangian(2, 1, JetFunction(2, fn)), phi


def test_generic_primitives_are_exact_for_a_polynomial_block():
    """Over Fractions the interpolated fibre primitive of a block quadratic
    in y' is exact: L^h = Phi_h(x, y, y') - Phi_h(x, y, 0) as Jets, checked
    against Poly evaluation, with dL^h/dy'_i = L^{hi}, and p, H and Lbar
    come back in Fractions."""
    F = Fraction
    lag, phi = _quartic_potential_lagrangian()
    q = JetPoint(2, 1, 1, (F(1, 3), F(-2, 5)), (F(3, 7),), ((F(1, 2), F(-4, 3)),))
    data = pipeline(GenericAffineSupplier(lag), q, cap=1)
    assert (data.primitive_method, data.primitive_degree) == ("polynomial", 2)
    assert data.primitive_residual == 0
    jv, order = data.jv, data.cap + 1
    one = F(1)
    xs = [Jet.variable(jv.x(i), q.x[i], order, one) for i in range(2)]
    ys = [Jet.variable(jv.y(0), q.y[0], order, one)]
    dys = [Jet.variable(jv.y1(0, i), q.dy[0][i], order, one) for i in range(2)]
    for h in range(2):
        phi_h = phi.diff(3 + h)
        oracle = phi_h.eval(xs + ys + dys) - phi_h.eval(xs + ys + [0, 0])
        assert data.li[h].value == phi_h.eval(list(q.x) + list(q.y) + list(q.dy[0])) \
            - phi_h.eval(list(q.x) + list(q.y) + [0, 0])
        assert not jet_sum(order, [data.li[h], oracle], [1, -1]).coef
        for i in range(2):
            assert data.li[h].deriv(jv.y1(0, i)) == data.lij_get(0, h, i).value
    jets = data.li + list(data.p.values()) + [data.h, data.lbar]
    assert all(type(c) is Fraction for g in jets for c in g.coef.values())


def _one_dim_block_lagrangian(g):
    """n = m = 1: L = y'' g(y'), so L^{11} = g and at y' = 1 the fibre
    primitive is L^1 = int_0^1 g(t) dt with dL^1/dy' = g(1)."""
    return SecondOrderLagrangian(1, 1, JetFunction(
        2, lambda p: p.y2(0, 0, 0) * g(p.y1(0, 0))))


@pytest.mark.parametrize("g, integral, degree", [
    # the t = 0 and t = 1 samples are the same Jet
    (lambda s: s * (s - 1) ** 2, Fraction(1, 12), 3),
    # a quadratic through t = 0, 1, 1/2 also predicts t = 1/4
    (lambda s: 35 * s ** 3 - 40 * s ** 4 + 16 * s ** 5, Fraction(41, 12), 5),
    (lambda s: s ** 7, Fraction(1, 8), 7),
], ids=["cubic", "quintic", "septic"])
def test_generic_primitive_is_exact_up_to_degree_7(g, integral, degree):
    """A block polynomial of degree <= 7 in y' is integrated exactly over
    Fractions and to 1e-12 over floats, whatever a lower-degree interpolant
    through the first nodes predicts: L^1 = int_0^1 g and dL^1/dy' = g(1)
    (cap 0, y' = 1)."""
    sup = GenericAffineSupplier(_one_dim_block_lagrangian(g))
    for one, tol in ((Fraction(1), 0), (1.0, 1e-12)):
        q = JetPoint(1, 1, 1, (0 * one,), (0 * one,), ((one,),))
        data = pipeline(sup, q, cap=0)
        assert data.primitive_degree == degree
        li, dli = data.li[0].value, data.li[0].deriv(data.jv.y1(0, 0))
        if tol == 0:
            assert (li, dli, data.primitive_residual) == (integral, g(one), 0)
        else:
            assert abs(li - integral) <= tol and abs(dli - g(one)) <= tol * abs(g(one))


@pytest.mark.parametrize("g", [lambda s: 1 / (1 + s ** 2), lambda s: s ** 8],
                         ids=["rational", "octic"])
def test_block_beyond_degree_7_raises_with_a_float_residual(g):
    """L = y''/(1 + y'^2) has no polynomial fibre primitive and L = y'' y'^8
    one of degree 8: over Fractions the check node misses for both when
    L^i is first read, and the message carries the miss as a float."""
    q = JetPoint(1, 1, 1, (Fraction(0),), (Fraction(0),), ((Fraction(1),),))
    with pytest.raises(QuadratureError, match=r"miss \d\.\d{3}e[+-]\d+$"):
        pipeline(GenericAffineSupplier(_one_dim_block_lagrangian(g)), q, cap=1).li


def test_float_block_at_a_fraction_point_is_checked_to_tolerance():
    """Whether the check node must be met exactly is read from the sampled
    block, not from the point: the random family's float coefficients at
    an all-Fraction point are held to the float tolerance (the rounding
    miss, about 7e-15, raised when the ring of y' decided it), and H
    agrees with H at the same point in floats."""
    lag = random_projectable_lagrangian(np.random.default_rng(5), 2, 2)
    x, y = (Fraction(1, 3), Fraction(-2, 5)), (Fraction(1, 4), Fraction(-1, 6))
    dy = ((Fraction(1, 2), Fraction(-1, 3)), (Fraction(2, 7), Fraction(1, 5)))
    data = pipeline(GenericAffineSupplier(lag), JetPoint(2, 2, 1, x, y, dy), cap=1)
    h = data.h.value
    assert type(h) is float and data.primitive_degree == 1
    assert 0 < data.primitive_residual <= 1e-12
    fl = JetPoint(2, 2, 1, tuple(map(float, x)), tuple(map(float, y)),
                  tuple(tuple(map(float, r)) for r in dy))
    assert abs(h - pipeline(GenericAffineSupplier(lag), fl, cap=1).h.value) <= 1e-12


def _counted_tables(monkeypatch) -> list:
    """Wrap `GenericAffineSupplier.tables` to append 1 per call to the list."""
    calls = []
    tables = GenericAffineSupplier.tables

    def counted(self, *args):
        calls.append(1)
        return tables(self, *args)

    monkeypatch.setattr(GenericAffineSupplier, "tables", counted)
    return calls


def test_regularity_form_needs_no_fibre_primitive(monkeypatch):
    """L = y''/(1 + y'^2) at n = 1 has no polynomial fibre primitive, but
    its regularity form reads only A and the block: one `tables` call gives
    b = dA/dy' - dL^{11}/dy = 0, while the momenta still raise."""
    sup = GenericAffineSupplier(_one_dim_block_lagrangian(lambda s: 1 / (1 + s ** 2)))
    q = JetPoint(1, 1, 1, (Fraction(0),), (Fraction(0),), ((Fraction(1),),))
    calls = _counted_tables(monkeypatch)
    b, defect, _, _ = bilinear_form_b(sup, q)
    assert len(calls) == 1
    assert b.tolist() == [[0]] and defect == 0
    with pytest.raises(QuadratureError):
        momenta_hamiltonian(sup, q)


def test_generic_pipeline_calls_tables_nine_times(monkeypatch):
    """Cost pin: a cap-1 pipeline on the random projectable family calls
    the supplier's tables once itself, and the first read of a fibre
    primitive once for each of the eight primitive nodes other than t = 1,
    whose block is the one in hand (Gauss-Legendre panels took 52 calls
    here).  Later reads of L^i, p, H and Lbar call none and return the
    objects formed before."""
    rng = np.random.default_rng(10)
    lag = random_projectable_lagrangian(rng, 2, 2)
    q = random_jet_points(rng, lag, 1, order=1)[0]
    calls = _counted_tables(monkeypatch)
    data = pipeline(GenericAffineSupplier(lag), q, cap=1)
    assert len(calls) == 1
    assert (data.primitive_method, data.primitive_degree) == ("polynomial", 1)
    assert len(calls) == 9
    assert data.primitive_residual <= 1e-12
    first = [data.li, data.p, data.h, data.lbar]
    assert all(u is v for u, v in zip(first, [data.li, data.p, data.h, data.lbar]))
    assert len(calls) == 9


def test_lbar_is_minus_h_for_eh_and_momenta_identity():
    rng = np.random.default_rng(9)
    eh, lag = eh_lagrangian(3, (2, 1))
    sup = affine_supplier(eh)
    for _ in range(5):
        mj = random_metric_jet(rng, 3, (2, 1), order=1)
        q = mj.to_jet_point()
        lbar, defect, data = bar_lagrangian(sup, q)
        h = eh.hamiltonian(mj)
        assert abs(float(value_of(lbar)) + h) <= 1e-9 * max(1.0, abs(h))
        assert defect <= 1e-9


def test_momenta_identity_generic_family():
    rng = np.random.default_rng(10)
    for _ in range(4):
        lag = random_projectable_lagrangian(rng, 2, 2)
        sup = GenericAffineSupplier(lag)
        for q in random_jet_points(rng, lag, 3, order=2):
            _, defect, _ = bar_lagrangian(sup, q.truncated(1))
            assert defect <= 1e-6


def test_bilinear_form_symmetry_and_eh_regularity():
    rng = np.random.default_rng(11)
    eh, lag = eh_lagrangian(3, (3, 0))
    sup = affine_supplier(eh)
    for _ in range(5):
        mj = random_metric_jet(rng, 3, (3, 0), order=1)
        b, defect, cond, data = bilinear_form_b(sup, mj.to_jet_point())
        assert defect <= 1e-9
        assert cond < 1e9
        # b equals the Y-table contraction (thEH (i))
        y = eh.y_table(mj)
        for al in range(eh.npairs):
            for i in range(3):
                for be in range(eh.npairs):
                    for j in range(3):
                        assert abs(b[al * 3 + i][be * 3 + j] - y[al][i][be][j]) <= 1e-8


def test_bilinear_form_symmetry_random_family():
    rng = np.random.default_rng(12)
    for _ in range(4):
        lag = random_projectable_lagrangian(rng, 2, 2)
        sup = GenericAffineSupplier(lag)
        for q in random_jet_points(rng, lag, 2, order=1):
            b, defect, cond, _ = bilinear_form_b(sup, q)
            assert defect <= 1e-9


def test_bilinear_form_for_first_order_lagrangians():
    # With Lij = 0 the form reduces to the classical velocity Hessian of the
    # zero-order part: nonzero for L = (y')^2 - y^2, identically zero
    # (degenerate) when L is affine in the velocities.
    F = JetFunction(2, lambda p: p.y1(0, 0) ** 2 - p.y[0] ** 2)
    lag = SecondOrderLagrangian(1, 1, F)
    q = JetPoint(1, 1, 1, (0.0,), (0.4,), ((0.7,),))
    b, defect, cond, _ = bilinear_form_b(GenericAffineSupplier(lag), q)
    assert abs(b[0][0] - 2.0) < 1e-12
    G = JetFunction(2, lambda p: p.y[0] * p.y1(0, 0) - p.y[0] ** 2)
    lag2 = SecondOrderLagrangian(1, 1, G)
    b2, _, _, _ = bilinear_form_b(GenericAffineSupplier(lag2), q)
    assert np.max(np.abs(b2)) == 0.0


def test_bilinear_form_is_lbar_hessian():
    """Independent oracle: b equals the y'-Hessian of Lbar."""
    rng = np.random.default_rng(13)
    lag = random_projectable_lagrangian(rng, 2, 2)
    sup = GenericAffineSupplier(lag)
    q = random_jet_points(rng, lag, 1, order=1)[0]
    b, defect, cond, _ = bilinear_form_b(sup, q)
    data = pipeline(sup, q, cap=2)
    n, m = 2, 2
    for al in range(m):
        for i in range(n):
            for be in range(m):
                for j in range(n):
                    hess = float(value_of(data.lbar.deriv(
                        data.jv.y1(al, i), data.jv.y1(be, j))))
                    assert abs(b[al * n + i][be * n + j] - hess) <= 1e-6


# ---------------------------------------------------------------------------
# sections, Euler-Lagrange, Hamilton-Cartan


def flat_metric_section(n, diag):
    m = len(sym_pairs(n))
    polys = []
    for k, (a, b) in enumerate(sym_pairs(n)):
        c = diag[a] if a == b else 0
        polys.append(Poly.constant(n, c))
    return PolySection(n, polys)


def pullback_metric_section(n, eta, phi):
    """g = (D phi)^T eta (D phi) for a polynomial map phi (flat metric)."""
    polys = []
    for a, b in sym_pairs(n):
        acc = Poly.constant(n, 0)
        for c in range(n):
            acc = acc + eta[c] * phi[c].diff(a) * phi[c].diff(b)
        polys.append(acc)
    return PolySection(n, polys)


def test_hc_first_family_vanishes_on_flat_metric():
    # n=2: gravity is variationally trivial, dp is singular and the second
    # family is rightly skipped with a flag; the first family still vanishes.
    eh, lag = eh_lagrangian(2, (2, 0))
    sup = affine_supplier(eh)
    s = flat_metric_section(2, [1.0, 1.0])
    res = hc_residual(sup, s, (0.3, -0.7))
    assert max(abs(v) for v in res.first) == 0.0
    assert res.skipped_second
    assert (res.newton_iters, res.converged, res.final_step) == (0, False, 0.0)
    # n=3: dp is invertible and the reconstructed velocities match
    eh3, _ = eh_lagrangian(3, (3, 0))
    s3 = flat_metric_section(3, [1.0, 1.0, 1.0])
    res3 = hc_residual(affine_supplier(eh3), s3, (0.1, 0.2, -0.3))
    assert max(abs(v) for v in res3.first) == 0.0
    assert not res3.skipped_second
    assert max(abs(v) for v in res3.second) <= 1e-10
    assert res3.converged and 1 <= res3.newton_iters < 60
    # the section's velocities are 0, so the reconstructed ones are -second
    assert res3.final_step < 1e-13 * max(1.0, max(abs(v) for v in res3.second))


def test_hc_first_family_exact_zero_on_flat_pullback():
    """Over Fractions the first Hamilton-Cartan family is exactly 0 on a
    flat Lorentzian pullback at n = 3: it is returned in the ring of x."""
    n, sig = 3, (1, 2)
    names = {f"x{i+1}": i for i in range(n)}
    phi = [parse_poly("x1 + x2^2/9", names, n),
           parse_poly("x2 + x1*x3/8", names, n),
           parse_poly("x3 - x1^2/7", names, n)]
    s = pullback_metric_section(n, [Fraction(-1), Fraction(1), Fraction(1)], phi)
    x = (Fraction(1, 8), Fraction(-1, 4), Fraction(3, 16))
    res = hc_residual(affine_supplier(EHLagrangian(n, sig)), s, x)
    assert res.first == [0] * 6
    assert all(isinstance(v, Fraction) for v in res.first)


def test_hc_newton_cycle_is_flagged():
    # n = m = 1, L = y'^4/4 - y'^2: p = v^3 - 2v.  Newton from rest towards
    # p(v0) = v0^3 - 2 v0 ~ -2 cycles 0 -> 1 -> 0 (the 2-cycle is
    # superattracting: p'' vanishes at 0), so the reconstruction never meets
    # its step test and must say so.
    def l0(x, y, dy):
        v = dy[0][0]
        return v ** 4 * Fraction(1, 4) - v ** 2

    def lij(x, y):
        return {(0, 0, 0): 0}

    v0 = Fraction(-23, 13)
    assert abs(v0 ** 3 - 2 * v0 + 2) < Fraction(1, 1000)
    s = PolySection(1, [v0 * Poly.variable(1, 0)])
    res = hc_residual(TableAffineSupplier(1, 1, lambda x, y, dy: (l0(x, y, dy), lij(x, y))),
                      s, (0.3,))
    assert res.first == [0.0] and not res.skipped_second
    assert (res.newton_iters, res.converged) == (60, False)
    assert res.final_step > 0.5         # the last step still jumps across the cycle
    assert abs(res.second[0]) > 1       # velocity still near the cycle, not v0


def test_hc_nonzero_on_non_extremal():
    # n=3 (n=2 gravity has E identically zero, so every section is extremal)
    eh, lag = eh_lagrangian(3, (3, 0))
    sup = affine_supplier(eh)
    names = {"x1": 0, "x2": 1, "x3": 2}
    polys = [parse_poly("1 + x1^2/4 + x2^2/5", names, 3),
             parse_poly("x1*x2/10", names, 3),
             parse_poly("x2*x3/9", names, 3),
             parse_poly("1 - x1^2/6", names, 3),
             parse_poly("x1*x3/7", names, 3),
             parse_poly("1 + x3^2/8", names, 3)]
    s = PolySection(3, polys)
    res = hc_residual(sup, s, (0.2, 0.1, -0.1))
    assert max(abs(v) for v in res.first) > 1e-3


def test_hc_first_family_is_minus_euler_lagrange():
    """With the momentum-space y-partial of H, the first Hamilton-Cartan
    family equals -E_a identically along arbitrary sections."""
    rng = np.random.default_rng(18)
    lag = random_projectable_lagrangian(rng, 2, 2)
    sup = GenericAffineSupplier(lag)
    for _ in range(4):
        s = PolySection(2, [
            Poly.constant(2, rng.uniform(-1, 1))
            + rng.uniform(-1, 1) * Poly.variable(2, 0)
            + rng.uniform(-1, 1) * Poly.variable(2, 1)
            + rng.uniform(-0.5, 0.5) * Poly.variable(2, 0) * Poly.variable(2, 1)
            + rng.uniform(-0.5, 0.5) * Poly.variable(2, 1) ** 2
            for _ in range(2)])
        x = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        res = hc_residual(sup, s, x)
        el = euler_lagrange(sup, s, x)
        for a, b in zip(res.first, el):
            assert abs(a + b) <= 1e-9 * max(1.0, abs(b))


def test_hc_1d_toy_polynomial_extremal():
    # L = (y')^2/2 + x y + c y y'': reduced L^{10} = (1-c) y', momenta
    # p = (1-2c) y', E = x + (2c-1) y''.  With c = 1/4 the extremal of
    # y'' = 2x through the origin is y = x^3/3, and p is invertible.
    c = 0.25

    def fn(p):
        return p.y1(0, 0) ** 2 * 0.5 + p.x[0] * p.y[0] + c * p.y[0] * p.y2(0, 0, 0)

    lag = SecondOrderLagrangian(1, 1, JetFunction(2, fn))
    sup = GenericAffineSupplier(lag)
    names = {"x1": 0}
    s = PolySection(1, [parse_poly("x1^3/3", names, 1)])
    for x in (0.0, 0.4, -0.8):
        res = hc_residual(sup, s, (x,))
        assert max(abs(v) for v in res.first) <= 1e-8
        el = euler_lagrange(sup, s, (x,))
        assert abs(el[0]) <= 1e-8


def test_euler_lagrange_flat_metric_zero_and_einstein_tensor():
    rng = np.random.default_rng(14)
    n, sig = 3, (3, 0)
    eh, lag = eh_lagrangian(n, sig)
    sup = affine_supplier(eh)
    s = flat_metric_section(n, [1.0, 1.0, 1.0])
    el = euler_lagrange(sup, s, (0.1, 0.2, 0.3))
    assert max(abs(v) for v in el) == 0.0
    # random polynomial metric: E^{ab} proportional to the Einstein tensor
    # density, with the (2 - delta_ab) storage weight; the constant is fixed
    # on the first sample and must persist.
    from varjet.metric import curvature
    names = {"x1": 0, "x2": 1, "x3": 2}
    consts = None
    for trial in range(3):
        polys = []
        base = random_metric_jet(rng, n, sig, order=0)
        for k, (a, b) in enumerate(sym_pairs(n)):
            p = Poly.constant(n, base.g[k])
            for i in range(n):
                p = p + Fraction(str(round(rng.uniform(-0.2, 0.2), 3))) \
                    * Poly.variable(n, i)
            for i, j in sym_pairs(n):
                p = p + Fraction(str(round(rng.uniform(-0.1, 0.1), 3))) \
                    * Poly.variable(n, i) * Poly.variable(n, j)
            polys.append(p)
        s = PolySection(n, polys)
        x = (0.05, -0.04, 0.03)
        el = euler_lagrange(sup, s, x)
        mj = metric_from_jet_point(jet_of_section(s, x, 2), sig)
        cd = curvature(mj)
        ginv = mj.ginv
        ric_up = [[sum(ginv[a][c] * ginv[b][d] * cd.ricci[c][d]
                       for c in range(n) for d in range(n))
                   for b in range(n)] for a in range(n)]
        for k, (a, b) in enumerate(sym_pairs(n)):
            gab_up = ginv[a][b]
            ein = ric_up[a][b] - 0.5 * gab_up * cd.scalar
            w = 2 - (1 if a == b else 0)
            ref = w * mj.rho * ein
            if consts is None and abs(ref) > 1e-3:
                consts = el[k] / ref
            if abs(ref) > 1e-3:
                assert abs(el[k] - consts * ref) <= 1e-6 * max(1.0, abs(ref))
    assert consts is not None and abs(abs(consts) - 1.0) < 1e-6


def test_el_equals_el_of_lbar_along_sections():
    rng = np.random.default_rng(15)
    lag = random_projectable_lagrangian(rng, 2, 1)
    sup = GenericAffineSupplier(lag)
    names = {"x1": 0, "x2": 1}
    for _ in range(6):
        coeffs = [round(rng.uniform(-1, 1), 3) for _ in range(6)]
        s = PolySection(2, [
            coeffs[0] + coeffs[1] * Poly.variable(2, 0)
            + coeffs[2] * Poly.variable(2, 1)
            + coeffs[3] * Poly.variable(2, 0) * Poly.variable(2, 1)
            + coeffs[4] * Poly.variable(2, 0) ** 2
            + coeffs[5] * Poly.variable(2, 1) ** 3])
        x = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        e1 = euler_lagrange(sup, s, x)
        e2 = euler_lagrange_first_order(sup, s, x)
        for a, b in zip(e1, e2):
            assert abs(a - b) <= 1e-7 * max(1.0, abs(a))


def test_el_order_drop_two_sections_sharing_2jet():
    """For projectable L the E-L residual along s depends only on j^2 s."""
    rng = np.random.default_rng(16)
    lag = random_projectable_lagrangian(rng, 2, 1)
    sup = GenericAffineSupplier(lag)
    base = [Poly.constant(2, 0.3) + 0.7 * Poly.variable(2, 0)
            - 0.2 * Poly.variable(2, 1) + 0.5 * Poly.variable(2, 0) ** 2
            + 0.1 * Poly.variable(2, 0) * Poly.variable(2, 1)]
    s1 = PolySection(2, base)
    s2 = PolySection(2, [base[0] + Poly.variable(2, 0) ** 3
                         + 2 * Poly.variable(2, 1) ** 3])
    e1 = euler_lagrange(sup, s1, (0.0, 0.0))
    e2 = euler_lagrange(sup, s2, (0.0, 0.0))
    assert abs(e1[0] - e2[0]) <= 1e-10
