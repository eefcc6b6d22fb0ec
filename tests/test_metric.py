"""Metric jets: volume factor, curvature, sigma-nabla section."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import varjet.metric
from varjet.fwd import Jet
from varjet.jets import delta, pair_index, sym_pairs
from varjet.metric import (MetricJet, SingularMetricError, christoffel,
                           constant_metric_jet, covariant_derivative_residual,
                           covariant_derivatives, curvature, mat_det,
                           mat_inverse, random_metric_jet, sigma_nabla)
from varjet.poly import Poly, parse_poly
from varjet.jets import PolySection, jet_of_section
from varjet.metric import metric_from_jet_point


def test_rho_identity_and_minkowski():
    assert constant_metric_jet([1, 1, 1]).rho == 1
    assert constant_metric_jet([-1, 1, 1, 1]).rho == 1


def test_rho_diag_2_3_and_derivative_vs_fd():
    mj = constant_metric_jet([2.0, 3.0], order=0)
    assert abs(mj.rho - math.sqrt(6)) < 1e-14
    # on a slot-seeded jet, d rho / d g_ab = rho g^{ab} (2 - delta_ab) / 2:
    # the off-diagonal slot carries the factor 2 that bumping both
    # symmetric entries produces, as the finite differences confirm
    h = 1e-6
    for g in (mj.g, (2.0, 0.5, 3.0)):
        base = MetricJet(2, (2, 0), g)
        seeded = MetricJet(2, (2, 0), tuple(Jet.variable(k, v, 1, 1.0)
                                            for k, v in enumerate(g)))
        for k, (a, b) in enumerate(sym_pairs(2)):
            grad = seeded.rho.deriv(k)
            assert abs(grad - base.rho * base.ginv[a][b] * (2 - delta(a, b)) / 2) < 1e-14
            g_plus = list(g)
            g_minus = list(g)
            g_plus[k] += h
            g_minus[k] -= h
            vp = MetricJet(2, (2, 0), tuple(g_plus)).rho
            vm = MetricJet(2, (2, 0), tuple(g_minus)).rho
            assert abs(grad - (vp - vm) / (2 * h)) < 1e-7


def test_rho_rejects_singular():
    mj = MetricJet(2, (1, 1), (1.0, 1.0, 1.0))
    with pytest.raises(SingularMetricError):
        mj.rho


def test_metric_jet_forms_its_inverse_and_volume_factor_once(monkeypatch):
    # g = A^T diag(1, 1, -1) A, so rho = |det A| is rational
    F = Fraction
    a = [[F(1), F(1, 2), F(0)], [F(0), F(1), F(1, 3)], [F(1, 4), F(0), F(2)]]
    g = tuple(sum(a[c][i] * (1, 1, -1)[c] * a[c][j] for c in range(3))
              for i, j in sym_pairs(3))
    mj = MetricJet(3, (2, 1), g)
    calls = []
    inner = varjet.metric.mat_inverse
    monkeypatch.setattr(varjet.metric, "mat_inverse",
                        lambda *a: calls.append(a) or inner(*a))
    ginv = mj.ginv
    assert ginv == inner(mj.matrix())
    assert all(isinstance(v, Fraction) for row in ginv for v in row)
    assert isinstance(mj.rho, Fraction) and mj.rho == abs(mat_det(a)) == F(49, 24)
    assert mj.rho ** 2 == abs(mat_det(mj.matrix()))
    # read again, and through a copy with other derivative slots: no new inverse
    dg = tuple((F(1), F(0), F(-1)) for _ in g)
    assert mj.ginv is ginv and mj.with_slots(dg=dg).ginv is ginv
    assert mj.with_slots(dg=dg).rho is mj.rho
    assert len(calls) == 1      # the reference above calls the unpatched one


def test_int_metric_is_exact():
    mj = constant_metric_jet([1, 1, 1])
    assert all(type(v) is Fraction for row in mj.ginv for v in row)
    assert type(mj.rho) is Fraction and mj.rho == 1
    assert mj.ginv == [[int(a == b) for b in range(3)] for a in range(3)]


def test_mat_inverse_takes_one_reciprocal_of_det(monkeypatch):
    # a 4 x 4 symmetric Jet matrix over Fractions, one variable per slot
    F = Fraction
    base = [[F(2), F(1, 2), F(0), F(1, 3)], [F(1, 2), F(-1), F(1, 5), F(0)],
            [F(0), F(1, 5), F(3), F(1, 7)], [F(1, 3), F(0), F(1, 7), F(1)]]
    a = [[None] * 4 for _ in range(4)]
    for v, (i, j) in enumerate(sym_pairs(4)):
        a[i][j] = a[j][i] = Jet.variable(v % 7, base[i][j], 2, F(1))
    calls = []
    inverse = Jet._inverse
    monkeypatch.setattr(Jet, "_inverse", lambda self: calls.append(self) or inverse(self))
    inv = mat_inverse(a)
    assert len(calls) == 1
    for i in range(4):
        for j in range(4):
            prod = sum((a[i][k] * inv[k][j] for k in range(1, 4)), a[i][0] * inv[0][j])
            assert {k: c for k, c in prod.coef.items() if c} == ({0: 1} if i == j else {})


@pytest.mark.parametrize("g", [(1.0, 1.0, 1.0), (Fraction(1), 2, 4)])
def test_metric_jet_refuses_a_singular_row_on_first_read(g):
    with pytest.raises(SingularMetricError):
        MetricJet(2, (1, 1), g).ginv
    with pytest.raises(SingularMetricError):
        MetricJet(2, (1, 1), g).rho


def test_mat_inverse_refuses_nearly_singular_float_matrices():
    # det = -3e-10 against a Hadamard bound of about 457: singular to
    # working precision as floats, yet exactly invertible over Fractions
    eps = Fraction(1, 10**10)
    exact = [[Fraction(1), 2, 3], [4, 5, 6], [7, 8, 9 + eps]]
    with pytest.raises(SingularMetricError):
        mat_inverse([[float(v) for v in row] for row in exact])
    inv = mat_inverse(exact)
    assert all(isinstance(v, Fraction) for row in inv for v in row)
    assert [[sum(exact[i][k] * inv[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)] == [[int(i == j) for j in range(3)] for i in range(3)]
    # a well-conditioned float matrix still inverts
    inv = mat_inverse([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    assert abs(inv[0][0] - 11 / 18) < 1e-15


def test_curvature_constant_metric_zero():
    cd = curvature(constant_metric_jet([1.0, 1.0, 1.0]))
    assert all(abs(cd.riemann[i][j][k][l]) == 0
               for i in range(3) for j in range(3) for k in range(3) for l in range(3))
    assert cd.scalar == 0


def test_round_sphere_scalar_curvature():
    # chart metric diag(1, sin^2 theta) at theta = pi/4: scalar curvature 2
    theta = math.pi / 4
    s, c = math.sin(theta), math.cos(theta)
    n = 2
    g = [0.0] * 3
    dg = [[0.0] * 2 for _ in range(3)]
    d2g = [[0.0] * 3 for _ in range(3)]
    i11 = pair_index(n, 0, 0)
    i22 = pair_index(n, 1, 1)
    g[i11] = 1.0
    g[i22] = s * s
    dg[i22][0] = 2 * s * c                      # d(sin^2)/dtheta
    d2g[i22][pair_index(n, 0, 0)] = 2 * (c * c - s * s)
    mj = MetricJet(2, (2, 0), tuple(g), tuple(map(tuple, dg)), tuple(map(tuple, d2g)))
    cd = curvature(mj)
    assert abs(cd.scalar - 2.0) < 1e-12


def test_curvature_antisymmetry_and_bianchi_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        sig = (n, 0) if rng.uniform() < 0.5 else (n - 1, 1)
        mj = random_metric_jet(rng, n, sig, order=2)
        cd = curvature(mj)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        r = cd.riemann
                        assert abs(r[i][j][k][l] + r[i][j][l][k]) <= 1e-9
                        cyc = r[i][j][k][l] + r[i][k][l][j] + r[i][l][j][k]
                        assert abs(cyc) <= 1e-9


def test_flat_polynomial_pullback_metric_curvature_zero():
    # g = (D phi)^T eta (D phi) for a polynomial diffeomorphism phi: flat.
    names = {"x1": 0, "x2": 1}
    phi = [parse_poly("x1 + x1*x2/4 + x2^2/8", names, 2),
           parse_poly("x2 - x1^2/8 + x1*x2/8", names, 2)]
    eta = [1.0, -1.0]
    n = 2
    polys = []
    for a, b in sym_pairs(n):
        acc = Poly.constant(n, 0)
        for c in range(n):
            acc = acc + eta[c] * phi[c].diff(a) * phi[c].diff(b)
        polys.append(acc)
    sec = PolySection(n, polys)
    for x in [(0.0, 0.0), (0.3, -0.2), (-0.5, 0.1)]:
        p = jet_of_section(sec, x, 2)
        mj = metric_from_jet_point(p, (1, 1))
        cd = curvature(mj)
        worst = max(abs(cd.riemann[i][j][k][l]) for i in range(n)
                    for j in range(n) for k in range(n) for l in range(n))
        assert worst <= 1e-12


NAMES3 = {"x1": 0, "x2": 1, "x3": 2}


def _curved_fraction_section():
    """A non-constant n = 3 Lorentzian metric section with Fraction
    coefficients, its polynomials and a Fraction point."""
    n = 3
    base = {(0, 0): "1", (1, 1): "1", (2, 2): "-1"}
    extra = ["x1^2/3 - x2/5", "x3/4 + x1*x2/7", "x2^2/6 - x1*x3/2",
             "x1/3 + x3^2/8", "x1*x2/5 - x3/9", "x2*x3/4 + x1^2/6"]
    polys = [parse_poly(base.get(pr, "0"), NAMES3, n) + parse_poly(e, NAMES3, n)
             for pr, e in zip(sym_pairs(n), extra)]
    x0 = (Fraction(1, 3), Fraction(-1, 4), Fraction(2, 5))
    return PolySection(n, polys), polys, x0


def _field_readers(polys, x, shape):
    """Component readers t, dt, d2t of `covariant_derivatives` for a tensor
    field whose components, in row-major order over `shape`, are `polys`."""
    ju = jet_of_section(PolySection(len(x), polys), x, 2)

    def flat(idx):
        return sum(i * math.prod(shape[s + 1:]) for s, i in enumerate(idx))

    return (lambda idx: ju.y[flat(idx)], lambda u, idx: ju.dy[flat(idx)][u],
            lambda u, v, idx: ju.y2(flat(idx), u, v))


def test_dgamma_is_the_x_derivative_of_christoffel_exactly():
    # a non-constant Lorentzian metric section with Fraction coefficients:
    # dgamma from the 2-jet must equal d/dx^r of the Christoffel symbols
    # of the section's 1-jet, with x seeded as Jet variables
    n, sig = 3, (2, 1)
    sec, polys, x0 = _curved_fraction_section()
    cd = curvature(metric_from_jet_point(jet_of_section(sec, x0, 2), sig))
    xs = [Jet.variable(i, x0[i], 1, Fraction(1)) for i in range(n)]
    seeded = MetricJet(n, sig, tuple(p.eval(xs) for p in polys),
                       tuple(tuple(p.diff(k).eval(xs) for k in range(n))
                             for p in polys))
    gam = christoffel(seeded)
    checked = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for r in range(n):
                    want = gam[i][j][k].deriv(r)
                    assert isinstance(want, Fraction)
                    assert cd.dgamma[i][j][k][r] == want, (i, j, k, r)
                    checked += want != 0
    assert checked > 0


def test_covariant_derivatives_satisfy_the_ricci_identity_exactly():
    """[nabla_k, nabla_l] V^i = R^i_{jkl} V^j with R from `curvature`, and
    [nabla_k, nabla_l] T^i_j = R^i_{mkl} T^m_j - R^m_{jkl} T^i_m for a
    mixed field, over Fractions with ==: the dGamma-terms and the Gamma-
    terms on upper and lower slots of nabla nabla."""
    n, sig = 3, (2, 1)
    sec, _, x0 = _curved_fraction_section()
    cd = curvature(metric_from_jet_point(jet_of_section(sec, x0, 2), sig))
    riem = cd.riemann
    vp = [parse_poly(e, NAMES3, n) for e in ("x2^2/3 - x1", "x1*x3/5 + 2", "x3^2/7 + x2/4")]
    v_val = jet_of_section(PolySection(n, vp), x0, 0).y
    _, nab2 = covariant_derivatives(cd, *_field_readers(vp, x0, (n,)), 1)
    nonzero = 0
    for i, k, l in itertools.product(range(n), repeat=3):
        got = nab2(k, l, (i,)) - nab2(l, k, (i,))
        assert type(got) is Fraction
        assert got == sum(riem[i][j][k][l] * v_val[j] for j in range(n)), (i, k, l)
        nonzero += got != 0
    assert nonzero == n * n * (n - 1)    # every k != l
    tp = [vp[i] * parse_poly(e, NAMES3, n) for i in range(n)
          for e in ("x1 + 1", "x2*x3/3", "x1^2/2 - x3")]
    t_val = jet_of_section(PolySection(n, tp), x0, 0).y
    _, nab2 = covariant_derivatives(cd, *_field_readers(tp, x0, (n, n)), 1)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        got = nab2(k, l, (i, j)) - nab2(l, k, (i, j))
        want = sum(riem[i][m][k][l] * t_val[m * n + j] - riem[m][j][k][l] * t_val[i * n + m]
                   for m in range(n))
        assert type(got) is Fraction and got == want, (i, j, k, l)


def test_covariant_derivatives_of_cartesian_forms_on_a_flat_pullback():
    """On g = phi^* delta with Fraction coefficients the Cartesian
    coordinates phi^a have parallel differentials, so nabla nabla phi^a = 0
    and the form phi^b d phi^a has nabla = d phi^b (x) d phi^a and
    nabla nabla = 0, exactly: these fix the -Gamma^m_{uv} nabla_m term,
    which the Ricci identity cancels."""
    n, sig = 3, (3, 0)
    phi = [parse_poly(e, NAMES3, n)
           for e in ("x1 + x2^2/9", "x2 + x1*x3/8", "x3 - x1^2/7")]
    sec = PolySection(n, [sum((f.diff(a) * f.diff(b) for f in phi[1:]),
                              phi[0].diff(a) * phi[0].diff(b))
                          for a, b in sym_pairs(n)])
    x0 = (Fraction(1, 8), Fraction(-1, 4), Fraction(3, 16))
    cd = curvature(metric_from_jet_point(jet_of_section(sec, x0, 2), sig))
    dphi = jet_of_section(PolySection(n, phi), x0, 1).dy
    for a in range(n):
        _, nab2 = covariant_derivatives(cd, *_field_readers([phi[a]], x0, ()), 0)
        assert all(type(nab2(u, v, ())) is Fraction and nab2(u, v, ()) == 0
                   for u in range(n) for v in range(n))
    w = [phi[1] * phi[0].diff(i) for i in range(n)]
    nab, nab2 = covariant_derivatives(cd, *_field_readers(w, x0, (n,)), 0)
    assert any(nab(v, (i,)) != 0 for v in range(n) for i in range(n))
    for u, v, i in itertools.product(range(n), repeat=3):
        assert nab(v, (i,)) == dphi[1][v] * dphi[0][i], (v, i)
        assert type(nab2(u, v, (i,))) is Fraction and nab2(u, v, (i,)) == 0, (u, v, i)


def test_sigma_nabla_zero_connection():
    mj = sigma_nabla([[[0.0] * 2] * 2] * 2, (1.0, 0.0, 1.0), 2, (2, 0))
    assert all(all(v == 0 for v in row) for row in mj.dg)


def test_sigma_nabla_1d_hand_case():
    c, a = 0.7, 2.5
    mj = sigma_nabla([[[c]]], (a,), 1, (1, 0))
    assert abs(mj.dg[0][0] - 2 * c * a) < 1e-15


def test_sigma_nabla_makes_covariant_derivative_vanish():
    rng = np.random.default_rng(5)
    n = 3
    for _ in range(10):
        base = random_metric_jet(rng, n, (3, 0), order=1)
        gam = christoffel(base)
        mj = sigma_nabla(gam, base.g, n, (3, 0))
        assert covariant_derivative_residual(mj) <= 1e-12


def test_validate_accepts_a_small_but_regular_metric():
    # 1e-4 I at n = 4 has |det g| = 1e-16, yet it is as well conditioned as
    # I; validate and mat_inverse share one scale-free test and accept it
    g = tuple(1e-4 if a == b else 0.0 for a, b in sym_pairs(4))
    mj = MetricJet(4, (4, 0), g)
    mj.validate()
    assert abs(mat_inverse(mj.matrix())[0][0] - 1e4) <= 1e-8


def test_validate_refuses_a_large_near_singular_metric():
    # entries of 1e4 with |det g| = 1e-4, against a Hadamard bound of 2e8:
    # singular to working precision, though |det g| > 1e-12 and the float
    # eigenvalues (2e4 and 5e-9) match the declared signature
    mj = MetricJet(2, (2, 0), (1e4, 1e4, 1e4 + 1e-8))
    with pytest.raises(SingularMetricError, match="Hadamard"):
        mj.validate()
    with pytest.raises(SingularMetricError, match="Hadamard"):
        mat_inverse(mj.matrix())


def test_random_metric_signature_validation():
    rng = np.random.default_rng(11)
    mj = random_metric_jet(rng, 4, (1, 3), order=2)
    mj.validate()
    assert mj.signature == (1, 3)
