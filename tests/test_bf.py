"""Generalized BF Lagrangians: beta forms, the trace identity, E-L residuals
and the closed-form regularity matrix."""

from fractions import Fraction

import numpy as np
import pytest

import varjet.metric
from varjet.bf import (BetaConstraintError, BetaForm, beta_eh, beta_from_antisym,
                       bilinear_form_beta, el_residual_beta,
                       flat_corollary_expression, jet_function, l_beta, lij_block,
                       l_beta_trace, l_beta_zero, l_beta_zero_reference,
                       random_constrained_beta)
from varjet.bf import affine_supplier as bf_supplier
from varjet.einstein import EHLagrangian
from varjet.einstein import affine_supplier as eh_supplier
from varjet.jets import PolySection, contract, jet_of_section, pair_index, sym_pairs
from varjet.metric import (MetricJet, constant_metric_jet, curvature,
                           metric_from_jet_point, random_metric_jet,
                           signature_diagonal)
from varjet.poly import Poly, parse_poly
from varjet.varcore import bilinear_form_b, euler_lagrange, helmholtz_residuals


def test_beta_eh_identity_entry():
    # (beta_EH)_{12,1}^2 at the identity metric (n=3) = +1
    b = beta_eh(3, (3, 0))
    mj = constant_metric_jet([1, 1, 1], order=0)
    # table[k][l][cov][contra]; printed entry has pair (1,2), cov 1, contra 2
    tab = b.table(mj)
    assert tab[0][1][0][1] == 1


def test_beta_eh_skew_constraint_random():
    rng = np.random.default_rng(31)
    for n, sig in [(3, (3, 0)), (4, (1, 3))]:
        b = beta_eh(n, sig)
        for _ in range(5):
            mj = random_metric_jet(rng, n, sig, order=0)
            assert b.validate(mj) <= 1e-10


def test_constraint_validator_rejects():
    n = 3
    bad = BetaForm(n, lambda g: lambda k, l, j, i: 1.0)
    mj = constant_metric_jet([1, 1, 1], order=0)
    with pytest.raises(BetaConstraintError):
        bad.validate(mj)


def test_zero_beta_gives_zero_lagrangian():
    rng = np.random.default_rng(32)
    n = 3
    zero = BetaForm(n, lambda g: lambda k, l, j, i: 0.0)
    mj = random_metric_jet(rng, n, (3, 0), order=2)
    assert l_beta(zero, mj) == 0


def test_l_beta_eh_equals_l_eh():
    rng = np.random.default_rng(33)
    for n, sig in [(3, (3, 0)), (3, (1, 2)), (4, (1, 3))]:
        b = beta_eh(n, sig)
        eh = EHLagrangian(n, sig)
        for _ in range(6):
            mj = random_metric_jet(rng, n, sig, order=2)
            lb = l_beta(b, mj)
            cd = curvature(mj)
            le = mj.rho * cd.scalar
            assert abs(lb - le) <= 1e-9 * max(1.0, abs(le))


def test_l_beta_coordinate_form_equals_trace_form():
    rng = np.random.default_rng(34)
    for n, sig in [(3, (3, 0)), (4, (1, 3))]:
        for linear in (False, True):
            for _ in range(4 if n == 3 else 2):
                b = random_constrained_beta(rng, n, linear_in_g=linear)
                mj = random_metric_jet(rng, n, sig, order=2)
                v1 = l_beta(b, mj)
                v2 = l_beta_trace(b, mj)
                assert abs(v1 - v2) <= 1e-8 * max(1.0, abs(v2))


def flat_pullback_section(n, eta, phi):
    polys = []
    for a, b in sym_pairs(n):
        acc = Poly.constant(n, 0)
        for c in range(n):
            acc = acc + eta[c] * phi[c].diff(a) * phi[c].diff(b)
        polys.append(acc)
    return PolySection(n, polys)


def test_el_beta_eh_flat_is_zero():
    # beta = beta_EH, flat metric: Einstein vacuum equations hold
    n = 3
    b = beta_eh(n, (3, 0))
    names = {f"x{i+1}": i for i in range(n)}
    from varjet.poly import parse_poly
    phi = [parse_poly("x1 + x2^2/9", names, n),
           parse_poly("x2 + x1*x3/8", names, n),
           parse_poly("x3 - x1^2/7", names, n)]
    s = flat_pullback_section(n, [1.0, 1.0, 1.0], phi)
    res = el_residual_beta(b, s, (0.1, -0.2, 0.15), (3, 0))
    assert max(abs(v) for v in res.values()) <= 1e-12


def test_el_beta_matches_generic_euler_lagrange():
    """The displayed covariant E-L expression for L_beta agrees with the
    generic variational Euler-Lagrange operator along sections."""
    rng = np.random.default_rng(35)
    n, sig = 3, (3, 0)
    for linear in (False, True):
        b = random_constrained_beta(rng, n, linear_in_g=linear)
        sup = bf_supplier(b, n, sig)
        for _ in range(2):
            base = random_metric_jet(rng, n, sig, order=0)
            polys = []
            for k, (aa, bb) in enumerate(sym_pairs(n)):
                p = Poly.constant(n, base.g[k])
                for i in range(n):
                    p = p + round(rng.uniform(-0.1, 0.1), 4) * Poly.variable(n, i)
                for i, j in sym_pairs(n):
                    p = p + round(rng.uniform(-0.05, 0.05), 4) \
                        * Poly.variable(n, i) * Poly.variable(n, j)
                polys.append(p)
            s = PolySection(n, polys)
            x = (0.05, -0.03, 0.08)
            el_gen = euler_lagrange(sup, s, x)
            el_cov = el_residual_beta(b, s, x, sig)
            for k, (aa, bb) in enumerate(sym_pairs(n)):
                ref = el_cov[(aa, bb)]
                assert abs(el_gen[k] - ref) <= 1e-6 * max(1.0, abs(ref)), \
                    (k, aa, bb, el_gen[k], ref)


def test_el_beta_eh_matches_eh_euler_lagrange():
    rng = np.random.default_rng(36)
    n, sig = 3, (2, 1)
    b = beta_eh(n, sig)
    eh = EHLagrangian(n, sig)
    sup = eh_supplier(eh)
    base = random_metric_jet(rng, n, sig, order=0)
    polys = []
    for k, (aa, bb) in enumerate(sym_pairs(n)):
        p = Poly.constant(n, base.g[k])
        for i in range(n):
            p = p + round(rng.uniform(-0.1, 0.1), 4) * Poly.variable(n, i)
        for i, j in sym_pairs(n):
            p = p + round(rng.uniform(-0.05, 0.05), 4) \
                * Poly.variable(n, i) * Poly.variable(n, j)
        polys.append(p)
    s = PolySection(n, polys)
    x = (0.02, 0.04, -0.06)
    el_eh = euler_lagrange(sup, s, x)
    el_bf = el_residual_beta(b, s, x, sig)
    for k, (aa, bb) in enumerate(sym_pairs(n)):
        assert abs(el_eh[k] - el_bf[(aa, bb)]) <= 1e-6 * max(1.0, abs(el_eh[k]))


def test_bilinear_form_beta_eh_is_y_table():
    rng = np.random.default_rng(37)
    for n, sig in [(3, (3, 0)), (3, (2, 1))]:
        b = beta_eh(n, sig)
        eh = EHLagrangian(n, sig)
        mj = _rational_metric_jet(rng, n, sig)
        f = bilinear_form_beta(b, mj)
        y = eh.y_table(mj)
        npairs = len(sym_pairs(n))
        assert f == [[y[al][i][be][j] for be in range(npairs) for j in range(n)]
                     for al in range(npairs) for i in range(n)]


def test_bilinear_form_beta_zero_and_symmetry():
    rng = np.random.default_rng(38)
    n, sig = 3, (3, 0)
    zero = BetaForm(n, lambda g: lambda k, l, j, i: 0.0)
    mj = random_metric_jet(rng, n, sig, order=1)
    assert np.max(np.abs(np.array(bilinear_form_beta(zero, mj)))) == 0.0
    for linear in (False, True):
        b = random_constrained_beta(rng, n, linear_in_g=linear)
        f = np.array(bilinear_form_beta(b, mj))
        assert np.max(np.abs(f - f.T)) <= 1e-9


def test_bilinear_form_beta_matches_generic_pipeline():
    rng = np.random.default_rng(39)
    n, sig = 3, (2, 1)
    b = random_constrained_beta(rng, n, linear_in_g=True)
    sup = bf_supplier(b, n, sig)
    mj = random_metric_jet(rng, n, sig, order=1)
    f_closed = np.array(bilinear_form_beta(b, mj))
    f_gen, defect, cond, _ = bilinear_form_b(sup, mj.to_jet_point())
    assert np.max(np.abs(f_closed - f_gen)) <= 1e-7 * max(1.0, np.max(np.abs(f_gen)))


def test_beta_jet_function_reconstructs():
    rng = np.random.default_rng(40)
    n, sig = 3, (3, 0)
    b = random_constrained_beta(rng, n)
    F = jet_function(b, n, sig)
    mj = random_metric_jet(rng, n, sig, order=2)
    assert abs(F(mj.to_jet_point()) - l_beta_trace(b, mj)) <= 1e-8


def test_flat_corollary_expression_constant_chart():
    """In a chart where the flat metric has constant coefficients the
    covariant derivatives reduce to plain x-derivatives; beta o g is then
    x-independent, and both the corollary contraction and the E-L residual
    vanish, consistently with the iff-characterization."""
    from varjet.bf import flat_corollary_expression
    rng = np.random.default_rng(44)
    n, sig = 3, (3, 0)
    s = PolySection(n, [Poly.constant(n, 1.0 if a == b else 0.0)
                        for a, b in sym_pairs(n)])
    b = random_constrained_beta(rng, n, linear_in_g=False)
    x = (0.3, -0.1, 0.2)
    cor = flat_corollary_expression(b, s, x, sig)
    el = el_residual_beta(b, s, x, sig)
    assert max(abs(v) for v in cor.values()) <= 1e-10
    assert max(abs(v) for v in el.values()) <= 1e-8


def test_flat_corollary_detects_non_solutions():
    """On a non-constant flat background a generic constrained beta fails
    the field equations, and the corollary contraction is nonzero too (the
    literal display is chart-twisted, so only the detection consistency is
    asserted; see the decisions notes)."""
    from varjet.bf import flat_corollary_expression
    from varjet.poly import parse_poly
    rng = np.random.default_rng(45)
    n, sig = 3, (3, 0)
    names = {f"x{i+1}": i for i in range(n)}
    phi = [parse_poly("x1 + x2^2/9", names, n),
           parse_poly("x2 + x1*x3/8", names, n),
           parse_poly("x3 - x1^2/7", names, n)]
    s = flat_pullback_section(n, [1.0, 1.0, 1.0], phi)
    b = random_constrained_beta(rng, n, linear_in_g=False)
    x = (0.1, -0.2, 0.15)
    el = el_residual_beta(b, s, x, sig)
    cor = flat_corollary_expression(b, s, x, sig)
    assert max(abs(v) for v in el.values()) > 1e-4
    assert max(abs(v) for v in cor.values()) > 1e-4


def _rational_beta(rng, n, linear_in_g=False):
    """beta_from_antisym with Fraction entries: constants, or a Fraction
    times one stored metric slot."""
    a_entries = {}
    for k in range(n):
        for l in range(k + 1, n):
            mat = [[Fraction(0)] * n for _ in range(n)]
            for d in range(n):
                for b in range(d + 1, n):
                    c = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                    if linear_in_g:
                        w = int(rng.integers(0, len(sym_pairs(n))))
                        mat[d][b] = lambda g, c=c, w=w: c * g[w]
                        mat[b][d] = lambda g, c=c, w=w: -c * g[w]
                    else:
                        mat[d][b], mat[b][d] = c, -c
            a_entries[(k, l)] = mat
    return beta_from_antisym(n, a_entries)


def _rational_metric_jet(rng, n, sig):
    """An order-1 metric jet over Fractions: g = A^T diag(eps) A with A
    upper triangular and rational, so rho = |det A| is rational too."""
    eps = signature_diagonal(n, sig)
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        for j in range(i + 1, n):
            a[i][j] = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5)))
    g = tuple(sum(a[c][p] * eps[c] * a[c][q] for c in range(n))
              for p, q in sym_pairs(n))
    dg = tuple(tuple(Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 6)))
                     for _ in range(n)) for _ in sym_pairs(n))
    return MetricJet(n, tuple(sig), g, dg)


def _zero_second_jet(mj):
    m = len(mj.g)
    return MetricJet(mj.n, mj.signature, mj.g, mj.dg, ((0,) * m,) * m)


@pytest.mark.parametrize("n, sig", [(3, (2, 1)), (4, (1, 3))])
def test_l_beta_zero_equals_display_exactly(n, sig):
    """L_beta^0, computed as the curvature trace at y'' = 0, equals the
    printed double sum exactly over Fractions for beta_EH and for rational
    A g forms, constant and linear in g."""
    rng = np.random.default_rng(60 + n)
    mj = _rational_metric_jet(rng, n, sig)
    for b in (beta_eh(n, sig), _rational_beta(rng, n),
              _rational_beta(rng, n, linear_in_g=True)):
        v = l_beta_zero(b, mj)
        assert isinstance(v, Fraction) and v != 0
        assert v == l_beta_zero_reference(b, mj)


@pytest.mark.parametrize("n, sig", [(3, (2, 1)), (4, (1, 3))])
def test_bf_supplier_inverts_each_metric_row_once(monkeypatch, n, sig):
    """One `tables` call of the BF supplier inverts the metric row once, for
    the skew check, the trace at y'' = 0 and the L^{ij} block alike, and
    returns what `l_beta_zero` and `lij_block` give on their own."""
    mj = _rational_metric_jet(np.random.default_rng(66 + n), n, sig)
    b = beta_eh(n, sig)
    calls = []
    inner = varjet.metric.mat_inverse
    monkeypatch.setattr(varjet.metric, "mat_inverse",
                        lambda *a: calls.append(a) or inner(*a))
    l0, lij = bf_supplier(b, n, sig).tables((0,) * n, mj.g, mj.dg)
    assert len(calls) == 1
    assert l0 == l_beta_zero(b, mj) == l_beta_zero_reference(b, mj)
    assert lij == lij_block(b, mj)


@pytest.mark.parametrize("n, sig", [(3, (2, 1)), (4, (1, 3))])
def test_l_eh_zero_is_scalar_curvature_at_zero_second_jet(n, sig):
    """The same identity for Einstein-Hilbert: (L_EH)_0 = rho R at y'' = 0,
    exactly over Fractions."""
    rng = np.random.default_rng(62 + n)
    mj = _rational_metric_jet(rng, n, sig)
    l0 = EHLagrangian(n, sig).l0(mj)
    assert isinstance(l0, Fraction) and l0 != 0
    assert l0 == mj.rho * curvature(_zero_second_jet(mj)).scalar


def test_l_beta_zero_refuses_unconstrained_beta():
    """The trace at y'' = 0 is L_beta^0 only under the skew constraint: for a
    rational beta that fails it the two differ, and the BF supplier's
    Euler-Lagrange operator raises instead of returning a value."""
    rng = np.random.default_rng(64)
    n, sig = 3, (2, 1)
    vals = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
            for _ in range(n ** 4)]
    bad = BetaForm(n, lambda g: lambda k, l, j, i: vals[((k * n + l) * n + j) * n + i])
    mj = _rational_metric_jet(rng, n, sig)
    assert l_beta_trace(bad, _zero_second_jet(mj)) != l_beta_zero_reference(bad, mj)
    with pytest.raises(BetaConstraintError):
        l_beta_zero(bad, mj)
    names = {f"x{i+1}": i for i in range(n)}
    phi = [parse_poly("x1 + x2^2/9", names, n),
           parse_poly("x2 + x1*x3/8", names, n),
           parse_poly("x3 - x1^2/7", names, n)]
    s = flat_pullback_section(n, [-1.0, 1.0, 1.0], phi)
    with pytest.raises(BetaConstraintError):
        euler_lagrange(bf_supplier(bad, n, sig), s, (0.1, -0.2, 0.15))


def _lorentz_flat_pullback(rng, n):
    """g = phi^* eta for phi = x + a seeded quadratic, eta = diag(-1, 1, ...)."""
    phi = []
    for c in range(n):
        p = Poly.variable(n, c)
        for i, j in sym_pairs(n):
            p = p + round(float(rng.uniform(-0.15, 0.15)), 3) \
                * Poly.variable(n, i) * Poly.variable(n, j)
        phi.append(p)
    return flat_pullback_section(n, [-1.0] + [1.0] * (n - 1), phi)


def test_el_bf_beta_eh_matches_eh_n4():
    """At n = 4 the BF supplier of beta_EH gives the Euler-Lagrange operator
    of the E-H supplier, on a Lorentzian flat pullback (both vanish) and on
    a non-flat perturbation of it."""
    rng = np.random.default_rng(47)
    n, sig = 4, (1, 3)
    s = _lorentz_flat_pullback(rng, n)
    x = tuple(float(v) for v in rng.uniform(-0.2, 0.2, n))
    bump = round(float(rng.uniform(-0.1, 0.1)), 3) * Poly.variable(n, 0) * Poly.variable(n, 1)
    bent = PolySection(n, [p + bump for p in s.polys])
    bf_sup = bf_supplier(beta_eh(n, sig), n, sig)
    eh_sup = eh_supplier(EHLagrangian(n, sig))
    for sec in (s, bent):
        el_bf = euler_lagrange(bf_sup, sec, x)
        el_eh = euler_lagrange(eh_sup, sec, x)
        for a, b in zip(el_bf, el_eh):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
    assert max(map(abs, el_eh)) > 1e-3


def test_el_beta_matches_generic_euler_lagrange_n4():
    """At n = 4 the generic Euler-Lagrange operator through the BF supplier
    of a random constrained beta equals the displayed covariant form, on a
    Lorentzian flat pullback where beta fails the field equations."""
    rng = np.random.default_rng(48)
    n, sig = 4, (1, 3)
    s = _lorentz_flat_pullback(rng, n)
    x = tuple(float(v) for v in rng.uniform(-0.2, 0.2, n))
    b = random_constrained_beta(rng, n, linear_in_g=True)
    el_gen = euler_lagrange(bf_supplier(b, n, sig), s, x)
    el_cov = el_residual_beta(b, s, x, sig)
    for k, ab in enumerate(sym_pairs(n)):
        assert abs(el_gen[k] - el_cov[ab]) <= 1e-9 * max(1.0, abs(el_cov[ab]))
    assert max(map(abs, el_gen)) > 1e-3


def test_el_bf_beta_eh_exact_zero_on_flat_pullback():
    """Over Fractions the BF supplier of beta_EH, and the covariant form
    `el_residual_beta`, give exactly 0 on a flat Lorentzian pullback at
    n = 3."""
    n, sig = 3, (1, 2)
    names = {f"x{i+1}": i for i in range(n)}
    phi = [parse_poly("x1 + x2^2/9", names, n),
           parse_poly("x2 + x1*x3/8", names, n),
           parse_poly("x3 - x1^2/7", names, n)]
    s = flat_pullback_section(n, [Fraction(-1), Fraction(1), Fraction(1)], phi)
    x = (Fraction(1, 8), Fraction(-1, 4), Fraction(3, 16))
    el = euler_lagrange(bf_supplier(beta_eh(n, sig), n, sig), s, x)
    assert el == [0] * 6
    assert all(isinstance(v, Fraction) for v in el)
    cov = el_residual_beta(beta_eh(n, sig), s, x, sig)
    assert list(cov.values()) == [0] * 6
    assert all(isinstance(v, Fraction) for v in cov.values())


@pytest.mark.parametrize("which", ["beta_eh", "random"])
def test_helmholtz_on_bf_supplier_n3(which):
    """The BF operator is variational: the three Helmholtz families of
    the closed-form BF supplier vanish to rounding at a seeded point of a
    curved chart of the flat metric, for beta_EH and a random constrained
    beta."""
    rng = np.random.default_rng(48)
    n, sig = 3, (3, 0)
    names = {f"x{i+1}": i for i in range(n)}
    phi = [parse_poly("x1 + x2^2/9", names, n),
           parse_poly("x2 + x1*x3/8", names, n),
           parse_poly("x3 - x1^2/7", names, n)]
    s = flat_pullback_section(n, [1.0, 1.0, 1.0], phi)
    x = [rng.uniform(-0.3, 0.3) for _ in range(n)]
    b = beta_eh(n, sig) if which == "beta_eh" else random_constrained_beta(rng, n)
    res = helmholtz_residuals(bf_supplier(b, n, sig), s, x)
    assert res.max_all <= 1e-12, res


def test_el_residual_beta_contracts_only_first_order_jets(monkeypatch):
    """D_r Phi reads Phi's degree <= 1 coefficients only, and Phi is formed
    as a J^1 Jet: every Jet that `el_residual_beta` contracts has order
    <= 1, over Fractions for beta_EH and over floats for random beta."""
    orders = []

    def recorded(G, stencil, *ids):
        orders.append(G.order)
        return contract(G, stencil, *ids)

    monkeypatch.setattr("varjet.bf.contract", recorded)
    n = 3
    names = {f"x{i+1}": i for i in range(n)}
    phi = [parse_poly("x1 + x2^2/9", names, n),
           parse_poly("x2 + x1*x3/8", names, n),
           parse_poly("x3 - x1^2/7", names, n)]
    s = flat_pullback_section(n, [Fraction(-1), Fraction(1), Fraction(1)], phi)
    el_residual_beta(beta_eh(n, (1, 2)), s, (Fraction(1, 8), Fraction(-1, 4),
                                             Fraction(3, 16)), (1, 2))
    rng = np.random.default_rng(35)
    for linear in (False, True):
        el_residual_beta(random_constrained_beta(rng, n, linear_in_g=linear),
                         flat_pullback_section(n, [1.0, 1.0, 1.0], phi),
                         (0.1, -0.2, 0.15), (3, 0))
    assert set(orders) == {1}


def test_flat_corollary_expression_exact():
    """Over Fractions the corollary contraction is exact: on the curved flat
    pullback every entry is a Fraction that the float call reproduces, and
    in a constant chart it is exactly 0."""
    rng = np.random.default_rng(46)
    n, sig = 3, (3, 0)
    F = Fraction
    names = {f"x{i+1}": i for i in range(n)}
    phi = [parse_poly("x1 + x2^2/9", names, n),
           parse_poly("x2 + x1*x3/8", names, n),
           parse_poly("x3 - x1^2/7", names, n)]
    s = flat_pullback_section(n, [F(1), F(1), F(1)], phi)
    b = _rational_beta(rng, n)
    x = (F(1, 8), F(-1, 4), F(3, 16))
    exact = flat_corollary_expression(b, s, x, sig)
    approx = flat_corollary_expression(b, s, tuple(map(float, x)), sig)
    assert all(isinstance(v, Fraction) for v in exact.values())
    assert max(abs(v) for v in exact.values()) > 1e-4
    for k, v in exact.items():
        assert abs(float(v) - approx[k]) <= 1e-12 * abs(float(v))
    const = PolySection(n, [Poly.constant(n, F(a + 1) if a == c else F(0))
                            for a, c in sym_pairs(n)])
    cor = flat_corollary_expression(b, const, x, sig)
    assert all(isinstance(v, Fraction) and v == 0 for v in cor.values())
