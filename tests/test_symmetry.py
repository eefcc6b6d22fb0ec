"""Helmholtz conditions, prolongations, symmetry transforms, Noether currents."""

from fractions import Fraction

import numpy as np

from varjet.einstein import (EHLagrangian, affine_supplier,
                             covariant_noether_current, natural_lift)
from varjet.jets import (JetFunction, JetPoint, PolySection, jet_of_section,
                         pair_index, seed_point, sym_pairs)
from varjet.metric import metric_from_jet_point, random_metric_jet
from varjet.poly import Poly, parse_poly
from varjet.varcore import (GenericAffineSupplier, SecondOrderLagrangian,
                            VectorField, euler_lagrange,
                            euler_lagrange_first_order, helmholtz_residuals,
                            momenta_hamiltonian, noether_current,
                            noether_divergence, pipeline, projectability_check,
                            prolong, random_projectable_lagrangian,
                            symmetry_transform)


def random_metric_section(rng, n, base_diag, scale=0.15):
    polys = []
    for k, (a, b) in enumerate(sym_pairs(n)):
        p = Poly.constant(n, base_diag[a] if a == b else 0.0)
        for i in range(n):
            p = p + round(rng.uniform(-scale, scale), 4) * Poly.variable(n, i)
        for i, j in sym_pairs(n):
            p = p + round(rng.uniform(-scale / 2, scale / 2), 4) \
                * Poly.variable(n, i) * Poly.variable(n, j)
        polys.append(p)
    return PolySection(n, polys)


# ---------------------------------------------------------------------------
# Helmholtz


def test_helmholtz_eh_small_dims():
    rng = np.random.default_rng(21)
    for n, sig, diag, cnt in [(2, (2, 0), [1.0, 1.0], 3), (3, (3, 0), [1.0, 1.0, 1.0], 2)]:
        eh = EHLagrangian(n, sig)
        sup = affine_supplier(eh)
        for _ in range(cnt):
            s = random_metric_section(rng, n, diag)
            x = [rng.uniform(-0.3, 0.3) for _ in range(n)]
            res = helmholtz_residuals(sup, s, x)
            assert res.max_all <= 1e-12, (n, res)


def test_helmholtz_eh_lorentzian_n4():
    """The Helmholtz conditions of the n = 4 Lorentzian EH operator at one
    seeded curved point, to the tolerance of the small dimensions."""
    rng = np.random.default_rng(21)
    s = random_metric_section(rng, 4, [-1.0, 1.0, 1.0, 1.0])
    x = [rng.uniform(-0.3, 0.3) for _ in range(4)]
    res = helmholtz_residuals(affine_supplier(EHLagrangian(4, (3, 1))), s, x)
    assert res.max_all <= 1e-12, res


def _eh_flat_pullback_n2():
    """The n = 2 Euclidean metric pulled back by a polynomial chart map,
    with Fraction coefficients: a solution of the EH equations."""
    n = 2
    names = {"x1": 0, "x2": 1}
    phi = [parse_poly("x1 + x2^2/9 - x1^3/5", names, n),
           parse_poly("x2 + x1*x2/8 + x1^2/7", names, n)]
    polys = []
    for a, b in sym_pairs(n):
        polys.append(phi[0].diff(a) * phi[0].diff(b) + phi[1].diff(a) * phi[1].diff(b))
    return PolySection(n, polys)


def test_helmholtz_eh_exact_over_fractions():
    # the total derivatives are exact, so over Fractions a variational
    # operator satisfies all three families with no residual at all
    s = _eh_flat_pullback_n2()
    sup = affine_supplier(EHLagrangian(2, (2, 0)))
    res = helmholtz_residuals(sup, s, [Fraction(1, 10), Fraction(-1, 5)])
    assert res.max_all == 0, res
    assert type(res.max_all) is Fraction


def test_helmholtz_eh_exact_over_fractions_n3():
    # g = J^T J for a polynomial chart map with Jacobian J, so rho = |det J|
    # is rational at a rational point and the cap-3 pipeline stays exact
    n = 3
    names = {"x1": 0, "x2": 1, "x3": 2}
    phi = [parse_poly("x1 + x2^2/9 - x1*x3/5", names, n),
           parse_poly("x2 + x1*x3/8 + x1^2/7", names, n),
           parse_poly("x3 + x1*x2/6 - x3^2/11", names, n)]
    s = PolySection(n, [sum((f.diff(a) * f.diff(b) for f in phi[1:]),
                            phi[0].diff(a) * phi[0].diff(b))
                        for a, b in sym_pairs(n)])
    sup = affine_supplier(EHLagrangian(n, (3, 0)))
    res = helmholtz_residuals(sup, s, [Fraction(1, 10), Fraction(-1, 5), Fraction(1, 7)])
    assert res.max_all == 0, res
    assert type(res.max_all) is Fraction


def test_euler_lagrange_eh_exact_over_fractions():
    # both Euler-Lagrange forms stay in the ring of x: exactly 0 here
    s = _eh_flat_pullback_n2()
    sup = affine_supplier(EHLagrangian(2, (2, 0)))
    x = [Fraction(1, 10), Fraction(-1, 5)]
    for el in (euler_lagrange(sup, s, x), euler_lagrange_first_order(sup, s, x)):
        assert el == [0, 0, 0] and all(type(v) is Fraction for v in el), el


def test_helmholtz_first_order_toy():
    # L = (y')^2/2 - y^4/4 in one base dimension: variational, so all
    # three families vanish.
    F = JetFunction(2, lambda p: 0.5 * p.y1(0, 0) ** 2 - 0.25 * p.y[0] ** 4)
    lag = SecondOrderLagrangian(1, 1, F)
    sup = GenericAffineSupplier(lag)
    names = {"x1": 0}
    s = PolySection(1, [parse_poly("1 + x1 - x1^2/2 + x1^3/7", names, 1)])
    res = helmholtz_residuals(sup, s, [0.2])
    assert res.max_all <= 1e-8


def test_helmholtz_negative_control():
    # perturbing dA/dy (an E-coefficient) asymmetrically must be detected
    rng = np.random.default_rng(22)
    lag = random_projectable_lagrangian(rng, 2, 2)
    sup = GenericAffineSupplier(lag)
    s = PolySection(2, [Poly.constant(2, 0.2) + 0.3 * Poly.variable(2, 0),
                        Poly.constant(2, -0.1) + 0.4 * Poly.variable(2, 1)])

    def perturb(tables, xs):
        tables["V"][(0, 1, 0)] += 1.0
        return tables

    res = helmholtz_residuals(sup, s, [0.1, -0.2], perturb=perturb)
    assert res.max_all > 0.1


# ---------------------------------------------------------------------------
# prolongations


def test_prolong_vertical_constant_field():
    n, m = 2, 1
    X = VectorField(n, m, [Poly.constant(n, 0)] * n,
                    [Poly.constant(n + m, 3.0)])
    p = JetPoint(n, m, 2, (0.1, 0.2), (0.5,), ((1.0, 2.0),), ((0.3, 0.4, 0.5),))
    pro = prolong(X, p)
    assert pro.v == [3.0]
    assert all(v == 0 for row in pro.v1 for v in row)
    assert all(v == 0 for row in pro.v2 for v in row)


def test_prolong_base_dilation_hand_case():
    # X = x^1 d/dx^1, n=m=1: v_1 = -y_1, v_11 = -2 y_(11)
    n, m = 1, 1
    X = VectorField(n, m, [Poly.variable(n, 0)], [Poly.constant(n + m, 0)])
    p = JetPoint(n, m, 2, (0.7,), (0.3,), ((1.5,),), ((2.5,),))
    pro = prolong(X, p)
    assert pro.v1[0][0] == -1.5
    assert pro.v2[0][0] == -5.0


def test_prolong_natural_lift_matches_displayed_formula():
    """(X'_M)^(1) components equal the explicit second-order display."""
    rng = np.random.default_rng(23)
    n = 3
    names = {f"x{i+1}": i for i in range(n)}
    u = [parse_poly("x1*x2 - x3^2", names, n),
         parse_poly("x2^2/2 + x1", names, n),
         parse_poly("x1*x3", names, n)]
    m = len(sym_pairs(n))
    X = VectorField(n, m, u, natural_lift(n, u))
    mj = random_metric_jet(rng, n, (3, 0), order=2)
    p = mj.to_jet_point()
    pro = prolong(X, p)
    x = p.x
    du = [[u[h].diff(i).eval(x) for i in range(n)] for h in range(n)]
    d2u = [[[u[h].diff(i).diff(k).eval(x) for k in range(n)] for i in range(n)]
           for h in range(n)]
    for a, (i, j) in enumerate(sym_pairs(n)):
        for k in range(n):
            ref = 0.0
            for h in range(n):
                ref -= d2u[h][i][k] * mj.comp(h, j) + d2u[h][j][k] * mj.comp(h, i)
                ref -= du[h][i] * mj.dcomp(h, j, k) + du[h][j] * mj.dcomp(h, i, k)
                ref -= du[h][k] * mj.dcomp(i, j, h)
            assert abs(pro.v1[a][k] - ref) <= 1e-12


# ---------------------------------------------------------------------------
# symmetry transform


def test_symmetry_transform_zero_field():
    rng = np.random.default_rng(24)
    lag = random_projectable_lagrangian(rng, 2, 1)
    sup = GenericAffineSupplier(lag)
    n, m = 2, 1
    X = VectorField(n, m, [Poly.constant(n, 0)] * n, [Poly.constant(n + m, 0)])
    tsup, Lp = symmetry_transform(sup, X)
    p = JetPoint(n, m, 2, (0.2, -0.1), (0.4,), ((0.5, 0.6),), ((0.1, 0.2, 0.3),))
    assert abs(Lp(p)) == 0.0


def test_symmetry_transform_natural_lift_annihilates_eh():
    rng = np.random.default_rng(25)
    n = 2
    names = {f"x{i+1}": i for i in range(n)}
    u = [parse_poly("x1^2 - x2", names, n), parse_poly("x1*x2 + 1", names, n)]
    m = len(sym_pairs(n))
    X = VectorField(n, m, u, natural_lift(n, u))
    eh = EHLagrangian(n, (2, 0))
    tsup, Lp = symmetry_transform(affine_supplier(eh), X)
    for _ in range(4):
        mj = random_metric_jet(rng, n, (2, 0), order=2)
        val = Lp(mj.to_jet_point())
        assert abs(float(val)) <= 1e-8


def test_symmetry_transform_preserves_projectability():
    rng = np.random.default_rng(26)
    n, m = 2, 1
    lag = random_projectable_lagrangian(rng, n, m)
    sup = GenericAffineSupplier(lag)
    names = {f"x{i+1}": i for i in range(n)}
    u = [parse_poly("x1 + x2^2/3", names, n), parse_poly("1 - x1*x2/2", names, n)]
    v = [Poly.variable(n + m, 2) ** 2 * 0.3 + Poly.variable(n + m, 0) * 0.2]
    X = VectorField(n, m, u, v)
    tsup, Lp = symmetry_transform(sup, X)
    lag_p = SecondOrderLagrangian(n, m, Lp)
    pts = []
    for _ in range(3):
        pts.append(JetPoint(n, m, 2,
                            tuple(rng.uniform(-1, 1, n)), tuple(rng.uniform(-1, 1, m)),
                            tuple(tuple(rng.uniform(-1, 1, n)) for _ in range(m)),
                            tuple(tuple(rng.uniform(-1, 1, 3)) for _ in range(m))))
    rep = projectability_check(lag_p, pts, tol=1e-7)
    assert rep.affine and rep.projects_to_J1, rep.summary()


def _transformed_by_definition(F, X, p):
    """u^i d_i L + v^a d_a L + v^a_i dL/dy^a_i + v^a_(ij) dL/dy^a_(ij)
    + div(u) L at p, from pr X and the partials of L."""
    n, m = X.n, X.m
    pro = prolong(X, p, 2)
    seeded, jv = seed_point(p, 1)
    part = F(seeded)
    div = sum(X.u[i].diff(i).eval(p.x) for i in range(n))
    acc = div * part.value
    for i in range(n):
        acc = acc + X.u[i].eval(p.x) * part.deriv(jv.x(i))
    for a in range(m):
        acc = acc + pro.v[a] * part.deriv(jv.y(a))
        for i in range(n):
            acc = acc + pro.v1[a][i] * part.deriv(jv.y1(a, i))
        for k, pr in enumerate(sym_pairs(n)):
            acc = acc + pro.v2[a][k] * part.deriv(jv.y2(a, *pr))
    return acc


def test_symmetry_transform_is_the_prolonged_field_applied_to_l():
    # a random projectable Lagrangian and a field that is not a symmetry
    rng = np.random.default_rng(29)
    n, m = 2, 2
    lag = random_projectable_lagrangian(rng, n, m)
    names = {"x1": 0, "x2": 1, "y1": 2, "y2": 3}
    u = [parse_poly("x1^2/3 - x2", names, n), parse_poly("x1*x2/2 + 1", names, n)]
    v = [parse_poly("y1*y2/4 + x1*y1 - x2^2/5", names, n + m),
         parse_poly("y1^2/3 - x1*y2/2 + x2", names, n + m)]
    X = VectorField(n, m, u, v)
    _, Lp = symmetry_transform(GenericAffineSupplier(lag), X)
    worst = 0.0
    for _ in range(3):
        p = JetPoint(n, m, 2, tuple(rng.uniform(-1, 1, n)), tuple(rng.uniform(-1, 1, m)),
                     tuple(tuple(rng.uniform(-1, 1, n)) for _ in range(m)),
                     tuple(tuple(rng.uniform(-1, 1, 3)) for _ in range(m)))
        want = _transformed_by_definition(lag.L, X, p)
        assert abs(want) > 0.1
        worst = max(worst, abs(Lp(p) - want) / abs(want))
    assert worst <= 1e-12, worst


def test_symmetry_transform_eh_n2_is_the_prolonged_field_exactly():
    # L_EH at n = 2 over Fractions (det g = 1, so rho is rational) and a
    # natural lift plus a vertical part that breaks the symmetry
    n = 2
    names = {"x1": 0, "x2": 1}
    u = [parse_poly("x1^2 - x2/3", names, n), parse_poly("x1*x2/2 + 1", names, n)]
    m = len(sym_pairs(n))
    lift = natural_lift(n, u)
    ynames = {"x1": 0, "x2": 1, "y11": 2, "y12": 3, "y22": 4}
    v = [lift[0] + parse_poly("x1*y12/3", ynames, n + m), lift[1],
         lift[2] - parse_poly("y11*y22/5", ynames, n + m)]
    X = VectorField(n, m, u, v)
    eh = EHLagrangian(n, (2, 0))
    _, Lp = symmetry_transform(affine_supplier(eh), X)
    F = Fraction
    p = JetPoint(n, m, 2, (F(1, 3), F(-1, 2)), (F(5, 4), F(1, 2), F(1)),
                 ((F(1, 3), F(-2, 7)), (F(1, 5), F(1, 2)), (F(-1, 4), F(2, 3))),
                 ((F(1, 2), F(-1, 3), F(1, 7)), (F(2, 5), F(1, 6), F(-1, 2)),
                  (F(-1, 3), F(1, 4), F(3, 5))))
    want = _transformed_by_definition(eh.jet_function(), X, p)
    assert isinstance(want, Fraction) and want != 0
    assert Lp(p) == want


# ---------------------------------------------------------------------------
# Noether currents


def test_noether_zero_field_zero_current():
    eh = EHLagrangian(2, (2, 0))
    sup = affine_supplier(eh)
    n, m = 2, 3
    X = VectorField(n, m, [Poly.constant(n, 0)] * n,
                    [Poly.constant(n + m, 0)] * m)
    s = PolySection(2, [Poly.constant(2, 1.0), Poly.constant(2, 0.0),
                        Poly.constant(2, 1.0)])
    cur = noether_current(sup, X, s, (0.1, 0.2))
    assert all(v == 0 for v in cur)


def test_noether_divergence_natural_lift_flat():
    rng = np.random.default_rng(27)
    n = 3
    eh = EHLagrangian(n, (3, 0))
    sup = affine_supplier(eh)
    names = {f"x{i+1}": i for i in range(n)}
    u = [parse_poly("x2^2 + x1*x3", names, n),
         parse_poly("x1^2 - x3", names, n),
         parse_poly("x1*x2*x3", names, n)]
    m = len(sym_pairs(n))
    X = VectorField(n, m, u, natural_lift(n, u))
    s = PolySection(n, [Poly.constant(n, 1.0 if a == b else 0.0)
                        for a, b in sym_pairs(n)])
    for _ in range(3):
        x = [rng.uniform(-0.5, 0.5) for _ in range(n)]
        div = noether_divergence(sup, X, s, x)
        assert abs(div) <= 1e-6


def test_noether_jet_vs_covariant_flat_backgrounds():
    """The jet-coefficient current of a natural lift equals the covariant
    double-contraction expression on flat backgrounds."""
    rng = np.random.default_rng(28)
    n = 3
    eh = EHLagrangian(n, (1, 2))
    sup = affine_supplier(eh)
    names = {f"x{i+1}": i for i in range(n)}
    u = [parse_poly("x2^2", names, n), parse_poly("x1*x3 + x2", names, n),
         parse_poly("x3^2 - x1^2", names, n)]
    m = len(sym_pairs(n))
    X = VectorField(n, m, u, natural_lift(n, u))
    eta = [-1.0, 1.0, 1.0]
    # constant flat metric
    s_const = PolySection(n, [Poly.constant(n, eta[a] if a == b else 0.0)
                              for a, b in sym_pairs(n)])
    # flat polynomial pullback metric
    phi = [parse_poly("x1 + x2^2/8 + x1*x3/9", names, n),
           parse_poly("x2 - x1^2/7", names, n),
           parse_poly("x3 + x1*x2/6", names, n)]
    polys = []
    for a, b in sym_pairs(n):
        acc = Poly.constant(n, 0)
        for c in range(n):
            acc = acc + eta[c] * phi[c].diff(a) * phi[c].diff(b)
        polys.append(acc)
    s_pull = PolySection(n, polys)
    for s in (s_const, s_pull):
        for _ in range(2):
            x = [rng.uniform(-0.3, 0.3) for _ in range(n)]
            jet_cur = noether_current(sup, X, s, x)
            p3 = jet_of_section(s, x, 3)
            mj = metric_from_jet_point(p3, (1, 2))
            cov_cur = covariant_noether_current(n, u, mj, x)
            for a, b in zip(jet_cur, cov_cur):
                assert abs(a - b) <= 1e-7 * max(1.0, abs(a))


def _exact_lift_on_flat_pullback():
    """A natural lift on an exact n = 3 flat Lorentzian pullback, its EH
    supplier and a Fraction point."""
    n = 3
    sup = affine_supplier(EHLagrangian(n, (1, 2)))
    names = {f"x{i+1}": i for i in range(n)}
    u = [parse_poly("x2^2", names, n), parse_poly("x1*x3 + x2", names, n),
         parse_poly("x3^2 - x1^2", names, n)]
    X = VectorField(n, len(sym_pairs(n)), u, natural_lift(n, u))
    eta = [Fraction(-1), Fraction(1), Fraction(1)]
    phi = [parse_poly("x1 + x2^2/8 + x1*x3/9", names, n),
           parse_poly("x2 - x1^2/7", names, n),
           parse_poly("x3 + x1*x2/6", names, n)]
    polys = []
    for a, b in sym_pairs(n):
        acc = Poly.constant(n, 0)
        for c in range(n):
            acc = acc + eta[c] * phi[c].diff(a) * phi[c].diff(b)
        polys.append(acc)
    s = PolySection(n, polys)
    x = (Fraction(1, 8), Fraction(-1, 4), Fraction(3, 16))
    return sup, u, X, s, x


def test_noether_current_in_the_ring_of_x():
    """At a Fraction point on an exact flat pullback the jet-coefficient
    current of the natural lift is a list of Fractions, and the float call
    at the same point agrees to 1e-15."""
    sup, _, X, s, x = _exact_lift_on_flat_pullback()
    exact = noether_current(sup, X, s, x)
    approx = noether_current(sup, X, s, tuple(map(float, x)))
    assert all(isinstance(v, Fraction) for v in exact)
    assert all(isinstance(v, float) for v in approx)
    for a, b in zip(exact, approx):
        assert abs(float(a) - b) <= 1e-15 * max(1.0, abs(b))


def test_covariant_noether_current_in_the_ring_of_x():
    """At the same Fraction point the covariant current keeps the ring of
    x: each component is a Fraction equal to the jet-coefficient current."""
    sup, u, X, s, x = _exact_lift_on_flat_pullback()
    mj = metric_from_jet_point(jet_of_section(s, x, 3), (1, 2))
    cov = covariant_noether_current(3, u, mj, x)
    assert cov == noether_current(sup, X, s, x)
    assert all(type(v) is Fraction for v in cov), cov


def test_noether_minkowski_hand_component():
    # u = (x^2)^2 d/dx^1, flat Minkowski: the covariant formula reduces to
    # second partials of u; component 1 = eps_1 sum_c u^c_{,1c}
    # - sum_a eps_a u^1_{,aa} = -2.
    n = 4
    eh = EHLagrangian(n, (1, 3))
    sup = affine_supplier(eh)
    names = {f"x{i+1}": i for i in range(n)}
    u = [parse_poly("x2^2", names, n)] + [Poly.constant(n, 0)] * 3
    m = len(sym_pairs(n))
    X = VectorField(n, m, u, natural_lift(n, u))
    eta = [-1.0, 1.0, 1.0, 1.0]
    s = PolySection(n, [Poly.constant(n, eta[a] if a == b else 0.0)
                        for a, b in sym_pairs(n)])
    x = (0.3, 0.5, -0.2, 0.1)
    cur = noether_current(sup, X, s, x)
    assert abs(cur[0] + 2.0) <= 1e-10
    p3 = jet_of_section(s, x, 3)
    cov = covariant_noether_current(n, u, metric_from_jet_point(p3, (1, 3)), x)
    assert abs(cov[0] + 2.0) <= 1e-12


def test_transformed_eh_supplier_runs_through_the_pipeline():
    # the pipeline's Jets of the transformed tables, on which L_EH takes
    # abs(det g), must have as values the tables at plain numbers, exactly
    n = 2
    names = {"x1": 0, "x2": 1}
    u = [parse_poly("x1^2 - x2/3", names, n), parse_poly("x1*x2/2 + 1", names, n)]
    m = len(sym_pairs(n))
    lift = natural_lift(n, u)
    ynames = {"x1": 0, "x2": 1, "y11": 2, "y12": 3, "y22": 4}
    v = [lift[0] + parse_poly("x1*y12/3", ynames, n + m), lift[1],
         lift[2] - parse_poly("y11*y22/5", ynames, n + m)]
    X = VectorField(n, m, u, v)
    tsup, _ = symmetry_transform(affine_supplier(EHLagrangian(n, (2, 0))), X)
    F = Fraction
    q = JetPoint(n, m, 1, (F(1, 3), F(-1, 2)), (F(5, 4), F(1, 2), F(1)),
                 ((F(1, 3), F(-2, 7)), (F(1, 5), F(1, 2)), (F(-1, 4), F(2, 3))))
    data = pipeline(tsup, q, cap=0)
    l0, lij = tsup.tables(q.x, q.y, q.dy)
    assert isinstance(l0, Fraction) and l0 != 0 and data.l0.value == l0
    assert lij.keys() == data.lij.keys()
    assert all(data.lij[k].value == c for k, c in lij.items())


# ---------------------------------------------------------------------------
# the variational-symmetry criterion pr X(L) + L div u = 0, exactly


def _n2_lift_and_control():
    """The n = 2 natural lift of u, and the same lift plus a vertical part
    that breaks the symmetry."""
    n = 2
    names = {"x1": 0, "x2": 1}
    u = [parse_poly("x1^2 - x2/3", names, n), parse_poly("x1*x2/2 + 1", names, n)]
    lift = natural_lift(n, u)
    ynames = {"x1": 0, "x2": 1, "y11": 2, "y12": 3, "y22": 4}
    v = [lift[0] + parse_poly("x1*y12/3", ynames, n + 3), lift[1],
         lift[2] - parse_poly("y11*y22/5", ynames, n + 3)]
    return VectorField(n, 3, u, lift), VectorField(n, 3, u, v)


def test_transformed_eh_tables_vanish_coefficientwise_for_a_natural_lift():
    # L_EH is natural, so for a natural lift L'_0 and L'^{ij} vanish as
    # functions on J^1: every Taylor coefficient of their pipeline Jets is 0
    F = Fraction
    q = JetPoint(2, 3, 1, (F(1, 3), F(-1, 2)), (F(5, 4), F(1, 2), F(1)),
                 ((F(1, 3), F(-2, 7)), (F(1, 5), F(1, 2)), (F(-1, 4), F(2, 3))))
    lift, control = _n2_lift_and_control()
    sup = affine_supplier(EHLagrangian(2, (2, 0)))
    for cap in (0, 1):
        for X, vanishes in ((lift, True), (control, False)):
            data = pipeline(symmetry_transform(sup, X)[0], q, cap=cap)
            coefs = [c for jet in [data.l0, *data.lij.values()]
                     for c in jet.coef.values()]
            assert all(isinstance(c, Fraction) for c in coefs)
            assert all(c == 0 for c in coefs) == vanishes, (cap, vanishes)


def _eh_n3_section():
    """A rational metric section at n = 3 with g(x0) = I, so rho is
    rational along the pipeline's Jets, and x0."""
    n = 3
    x0 = (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4))
    dx = [Poly.variable(n, i) - x0[i] for i in range(n)]
    polys = [Poly.constant(n, Fraction(int(a == b)))
             + Fraction(k + 1, 7) * dx[k % n]
             + Fraction(1, k + 3) * dx[(k + 1) % n] * dx[(k + 2) % n]
             for k, (a, b) in enumerate(sym_pairs(n))]
    return PolySection(n, polys), x0


def _n3_lift_and_control():
    """The n = 3 natural lift of u, and the same lift plus a vertical part."""
    n = 3
    names = {f"x{i+1}": i for i in range(n)}
    u = [parse_poly("x2^2 + x1*x3 - x2", names, n),
         parse_poly("x1^2 - x3/2", names, n),
         parse_poly("x1*x2*x3 + x1", names, n)]
    lift = natural_lift(n, u)
    ynames = dict(names, y11=3, y12=4, y22=6)
    v = list(lift)
    v[0] = v[0] + parse_poly("x1*y12/3", ynames, n + 6)
    v[3] = v[3] - parse_poly("y11*y22/5", ynames, n + 6)
    return VectorField(n, 6, u, lift), VectorField(n, 6, u, v)


def test_euler_lagrange_of_the_transformed_eh_n3_exact():
    # E(pr X(L) + L div u) = 0 for the natural lift, over Fractions; the
    # control is not a symmetry.  At n = 2 L_EH is a null Lagrangian, so
    # only n >= 3 tells the two apart.
    s, x0 = _eh_n3_section()
    sup = affine_supplier(EHLagrangian(3, (3, 0)))
    lift, control = _n3_lift_and_control()
    el = euler_lagrange(symmetry_transform(sup, lift)[0], s, x0)
    assert el == [0] * 6 and all(type(v) is Fraction for v in el), el
    el = euler_lagrange(symmetry_transform(sup, control)[0], s, x0)
    assert any(v != 0 for v in el), el


def test_transformed_eh_momenta_and_hamiltonian_n3_exact():
    # the transformed block takes no y', so its fibre primitive is the
    # closed-form contraction, and for the natural lift p and H are 0
    s, x0 = _eh_n3_section()
    q = jet_of_section(s, x0, 1)
    sup = affine_supplier(EHLagrangian(3, (3, 0)))
    lift, control = _n3_lift_and_control()
    for X, vanishes in ((lift, True), (control, False)):
        p, h, _, data = momenta_hamiltonian(symmetry_transform(sup, X)[0], q)
        assert data.primitive_method == "closed_form"
        assert isinstance(h, Fraction)              # the ring of the point
        assert (h == 0 and all(v == 0 for row in p for v in row)) == vanishes
