"""Einstein-Hilbert closed forms: coefficient tables, determinant identity,
reconstruction against the curvature contraction, natural lifts."""

from fractions import Fraction
import itertools

import numpy as np
import pytest

import varjet.einstein
import varjet.metric
from varjet import linalg
from varjet.einstein import EHLagrangian, affine_supplier, natural_lift
from varjet.jets import pair_index, sym_pairs
from varjet.metric import (MetricJet, christoffel, constant_metric_jet, curvature,
                           random_metric_jet, metric_from_jet_point)
from varjet.fwd import Jet, value_of


def test_lij_rs_identity_n2_matrix_and_det():
    eh = EHLagrangian(2, (2, 0))
    mj = constant_metric_jet([1, 1], order=0)
    tab = eh.lij_rs(mj)
    expect = [[0, 0, -1], [0, 1, 0], [-1, 0, 0]]   # basis (11),(12),(22)
    for a in range(3):
        for b in range(3):
            assert tab[a][b] == expect[a][b]
    det, pred = eh.regularity_determinant(mj)
    assert det == pred == -1


def test_lij_rs_minkowski_entries():
    eh = EHLagrangian(4, (1, 3))
    # paper's signature convention orders +1 first; use diag(-1,1,1,1) anyway:
    mj = constant_metric_jet([-1, 1, 1, 1], order=1)
    tab = eh.lij_rs(mj)
    i12 = pair_index(4, 0, 1)
    i11 = pair_index(4, 0, 0)
    i22 = pair_index(4, 1, 1)
    # (L_EH)^{12}_{12} = y^{11} y^{22} = -1
    assert tab[i12][i12] == -1
    # (L_EH)^{11}_{22} = (1/2)(-2 y^{22} y^{11}) = +1 at this metric
    assert tab[i11][i22] == 1
    # momenta and Hamiltonian vanish at zero first derivatives
    assert all(v == 0 for row in eh.momenta(mj) for v in row)
    assert eh.hamiltonian(mj) == 0


def test_determinant_identity_examples():
    # Lorentzian n=4: det g < 0, so the sign factor flips the sign of the
    # rho-independent value -3; the magnitude 3 is as printed.
    eh4 = EHLagrangian(4, (1, 3))
    det, pred = eh4.regularity_determinant(constant_metric_jet([-1, 1, 1, 1], order=0))
    assert abs(det) == 3
    assert det == pred
    # Euclidean n=4
    det, pred = EHLagrangian(4, (4, 0)).regularity_determinant(
        constant_metric_jet([1, 1, 1, 1], order=0))
    assert det == pred == -3
    # n=3, diag(4,1,1): rho^2 = 4, exponent (n+1)(n-4)/2 = -2: det = -2/4
    eh3 = EHLagrangian(3, (3, 0))
    det, pred = eh3.regularity_determinant(constant_metric_jet([4, 1, 1], order=0))
    assert det == pred == Fraction(-1, 2)


def test_regularity_and_phi_refuse_float_data_and_a_singular_table():
    """Float metric data raise TypeError, naming a float entry; at n = 1 the
    table is the 1 x 1 zero matrix, det 0 = pred, and Phi cannot invert it."""
    eh3 = EHLagrangian(3, (3, 0))
    mj = constant_metric_jet([1.0, 1.0, 1.0], order=0)
    with pytest.raises(TypeError, match="float"):
        eh3.regularity_determinant(mj)
    with pytest.raises(TypeError, match="float"):
        eh3.phi_matrix(mj, (0, 0), (1, 2))
    with pytest.raises(TypeError, match="float"):
        eh3.vertical_symmetry_stacked_rank(mj)
    eh1 = EHLagrangian(1, (1, 0))
    assert eh1.regularity_determinant(constant_metric_jet([4], order=0)) == (0, 0)
    with pytest.raises(ValueError, match="singular"):
        eh1.phi_matrix(constant_metric_jet([4], order=0), (0, 0), (0, 0))


def test_regularity_determinant_of_an_int_metric_is_exact():
    det, pred = EHLagrangian(3, (3, 0)).regularity_determinant(
        constant_metric_jet([1, 1, 1], order=0))
    assert type(det) is Fraction and type(pred) is Fraction
    assert det == pred == -2


def test_determinant_printed_exponent_is_refuted():
    """Negative control: the literature exponent (n+1)(n+4)/2 disagrees with
    the exact determinant at any metric with rho != 1."""
    eh3 = EHLagrangian(3, (3, 0))
    mj = constant_metric_jet([4, 1, 1], order=0)
    det, _ = eh3.regularity_determinant(mj)
    rho = 2
    printed = -2 * rho ** 14
    assert abs(det - printed) > 100.0


def test_determinant_identity_random_sweep():
    rng = np.random.default_rng(17)
    for n, sig in [(2, (2, 0)), (3, (2, 1)), (4, (1, 3))]:
        eh = EHLagrangian(n, sig)
        for _ in range(100):
            mj = _rational_metric_jet(rng, n, sig)
            det, pred = eh.regularity_determinant(mj)
            assert det == pred


def test_reconstruction_equals_curvature_contraction():
    """sum (2-delta) Lij_rs y_{rs,ij} + L0 == rho * scalar curvature."""
    rng = np.random.default_rng(23)
    for n, sig in [(2, (2, 0)), (3, (3, 0)), (3, (2, 1)), (4, (1, 3))]:
        eh = EHLagrangian(n, sig)
        for _ in range(8):
            mj = random_metric_jet(rng, n, sig, order=2)
            cd = curvature(mj)
            lhs = mj.rho * cd.scalar
            tab = eh.lij_rs(mj)
            tot = eh.l0(mj)
            for a, (r, s) in enumerate(sym_pairs(n)):
                for b, (i, j) in enumerate(sym_pairs(n)):
                    w = 2 if i != j else 1
                    tot = tot + w * tab[b][a] * mj.d2comp(r, s, i, j)
            assert abs(lhs - tot) <= 1e-9 * max(1.0, abs(lhs))


def _rational_metric_jet(rng, n, sig):
    """g = A diag(eps) A^T with rational A, so rho = |det A| is rational,
    and rational first derivatives."""
    eps = [1] * sig[0] + [-1] * sig[1]
    while True:
        a = [[Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
              for _ in range(n)] for _ in range(n)]
        if linalg.det(a):
            break
    g = tuple(sum(a[i][c] * eps[c] * a[j][c] for c in range(n))
              for i, j in sym_pairs(n))
    dg = tuple(tuple(Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 6)))
                     for _ in range(n)) for _ in sym_pairs(n))
    return MetricJet(n, sig, g, dg)


def test_l0_factorized_equals_displayed_form_exactly():
    """The quadratic form of L0 equals the literal double pair sum over
    Fractions, with no tolerance, at n = 2 to 5 (n = 3 and 4 first, so
    their draws from the seeded stream do not depend on the other cases)."""
    rng = np.random.default_rng(53)
    for n, sig in [(3, (2, 1)), (4, (1, 3)), (2, (1, 1)), (5, (3, 2))]:
        eh = EHLagrangian(n, sig)
        for _ in range(3):
            mj = _rational_metric_jet(rng, n, sig)
            lhs = eh.l0(mj)
            assert isinstance(lhs, Fraction)
            assert lhs == eh.l0_reference(mj)


def _nonzero_coefficients(v):
    return {k: c for k, c in v.coef.items() if c != 0}


def test_l0_on_seeded_exact_jets_equals_display_coefficientwise():
    """With the metric row and y' order-2 Jets over Fractions, one variable
    per slot as `pipeline` seeds them, L0 equals the literal display in
    every Taylor coefficient."""
    n, sig = 3, (2, 1)
    eh = EHLagrangian(n, sig)
    mj = _rational_metric_jet(np.random.default_rng(59), n, sig)
    m, one = eh.npairs, Fraction(1)
    row = tuple(Jet.variable(k, v, 2, one) for k, v in enumerate(mj.g))
    drow = tuple(tuple(Jet.variable(m + n * k + i, v, 2, one) for i, v in enumerate(r))
                 for k, r in enumerate(mj.dg))
    seeded = MetricJet(n, sig, row, drow)
    got, want = eh.l0(seeded), eh.l0_reference(seeded)
    assert got.order == want.order == 2
    assert _nonzero_coefficients(got) == _nonzero_coefficients(want)
    # not an agreement of near-empty Jets: the value is the scalar L0
    assert got.value == eh.l0(mj) and len(_nonzero_coefficients(got)) > 100
    assert {type(c) for c in got.coef.values()} == {Fraction}


def test_affine_supplier_inverts_each_metric_row_once(monkeypatch):
    """One `tables` call of the EH supplier inverts the metric row once and
    returns what `l0` and `lij_rs` give on their own."""
    n, sig = 3, (2, 1)
    eh = EHLagrangian(n, sig)
    mj = _rational_metric_jet(np.random.default_rng(61), n, sig)
    calls = []
    inner = varjet.metric.mat_inverse
    monkeypatch.setattr(varjet.metric, "mat_inverse",
                        lambda *a: calls.append(a) or inner(*a))
    l0, lij = affine_supplier(eh).tables((0,) * n, mj.g, mj.dg)
    assert len(calls) == 1
    tab = eh.lij_rs(mj)
    assert l0 == eh.l0(mj) == eh.l0_reference(mj)
    assert lij == {(al, i, j): tab[b][al] for al in range(eh.npairs)
                   for b, (i, j) in enumerate(eh.pairs)}


def _seeded_metric_jet(mj):
    """The metric row and y' of `mj` as order-2 Jets over Fractions, one
    variable per slot as `pipeline` seeds them."""
    n, m, one = mj.n, len(mj.g), Fraction(1)
    row = tuple(Jet.variable(k, v, 2, one) for k, v in enumerate(mj.g))
    drow = tuple(tuple(Jet.variable(m + n * k + i, v, 2, one) for i, v in enumerate(r))
                 for k, r in enumerate(mj.dg))
    return MetricJet(n, mj.signature, row, drow)


@pytest.mark.parametrize("n, sig, seed", [(3, (2, 1), 67), (4, (1, 3), 71)])
def test_lij_rs_on_seeded_exact_jets_equals_the_index_formula(n, sig, seed):
    """Every entry of lij_rs equals rho (G^ir G^js + G^jr G^is
    - 2 G^rs G^ij) / (1 + delta_rs), written here over the jet's own G and
    rho, in every Taylor coefficient over Fractions."""
    eh = EHLagrangian(n, sig)
    mj = _rational_metric_jet(np.random.default_rng(seed), n, sig)
    seeded = _seeded_metric_jet(mj)
    G, rho = seeded.ginv, seeded.rho
    tab, plain = eh.lij_rs(seeded), eh.lij_rs(mj)
    for a, (i, j) in enumerate(eh.pairs):
        for b, (r, s) in enumerate(eh.pairs):
            want = rho * (G[i][r] * G[j][s] + G[j][r] * G[i][s]
                          - 2 * G[r][s] * G[i][j]) * Fraction(1, 1 + (r == s))
            got = tab[a][b]
            assert got.order == 2
            assert _nonzero_coefficients(got) == _nonzero_coefficients(want)
            assert {type(c) for c in got.coef.values()} <= {Fraction}
            assert got.value == plain[a][b]
    # not an agreement of near-empty Jets: a full order-2 Jet over the row
    full = (eh.npairs + 1) * (eh.npairs + 2) // 2
    assert max(len(_nonzero_coefficients(v)) for row in tab for v in row) == full


def test_pair_table_is_formed_once_and_read_without_products(monkeypatch):
    """The pair table rho G_p G_q costs N + N(N+1)/2 Jet x Jet products, once
    per metric jet: lij_rs forms none, a second read and a `with_slots`
    copy reuse it, and one EH `tables` call forms it once."""
    n, sig = 3, (2, 1)
    eh = EHLagrangian(n, sig)
    N = eh.npairs
    mj = _rational_metric_jet(np.random.default_rng(73), n, sig)
    products = []
    inner = Jet.__mul__
    monkeypatch.setattr(Jet, "__mul__", lambda a, b: (
        isinstance(b, Jet) and products.append(1)) or inner(a, b))

    def count(fn):
        products.clear()
        fn()
        return len(products)

    seeded = _seeded_metric_jet(mj)
    n_inverse = count(lambda: (seeded.ginv, seeded.rho))
    assert n_inverse > 0
    assert count(lambda: seeded.rho_gpairs) == N + N * (N + 1) // 2
    table = seeded.rho_gpairs
    assert count(lambda: seeded.rho_gpairs) == 0
    assert all(table[p][q] is table[q][p] for p in range(N) for q in range(N))
    assert count(lambda: eh.lij_rs(seeded)) == 0
    n_l0 = count(lambda: eh.l0(seeded))
    copy = seeded.with_slots(dg=mj.dg)
    assert copy.rho_gpairs is table
    assert count(lambda: eh.lij_rs(copy)) == 0
    # the supplier's own metric jet: its inverse, one pair table, then l0
    fresh = _seeded_metric_jet(mj)
    n_tables = count(lambda: affine_supplier(eh).tables((0,) * n, fresh.g, fresh.dg))
    assert n_tables == n_inverse + N + N * (N + 1) // 2 + n_l0


def _scalars(v):
    """The scalars of a value or a Jet."""
    return v.coef.values() if isinstance(v, Jet) else (v,)


def test_weights_stay_in_the_ring_of_seeded_exact_jets():
    """Exact metric data seeded as Jets, one variable per slot, keeps every
    scalar of lij_rs, l0 and the Christoffel symbols a Fraction: the 1/2
    and 1/8 weights are taken from the Jet's scalars, not from the Jet.
    Float data keeps floats."""
    F = Fraction
    n, sig = 3, (2, 1)
    eh = EHLagrangian(n, sig)
    # g = A^T diag(1, 1, -1) A, so rho = |det A| is rational
    a = [[F(1), F(1, 2), F(0)], [F(0), F(1), F(1, 3)], [F(1, 4), F(0), F(2)]]
    g = tuple(sum(a[c][i] * (1, 1, -1)[c] * a[c][j] for c in range(n))
              for i, j in sym_pairs(n))
    dg = tuple(tuple(F((2 * k + i) % 5 - 2, 3) for i in range(n)) for k in range(6))
    for ring in (F, float):
        one = ring(1)
        row = tuple(Jet.variable(k, ring(v), 2, one) for k, v in enumerate(g))
        drow = tuple(tuple(map(ring, r)) for r in dg)
        mj = MetricJet(n, sig, row, drow)
        tab = eh.lij_rs(mj)
        gam = christoffel(mj)
        values = [v for r in tab for v in r] + [eh.l0(mj)] \
            + [v for plane in gam for r in plane for v in r]
        assert {type(c) for v in values for c in _scalars(v)} == {ring}


def test_jet_function_matches_contraction():
    rng = np.random.default_rng(29)
    eh = EHLagrangian(3, (3, 0))
    F = eh.jet_function()
    for _ in range(5):
        mj = random_metric_jet(rng, 3, (3, 0), order=2)
        cd = curvature(mj)
        assert abs(F(mj.to_jet_point()) - mj.rho * cd.scalar) < 1e-12


def test_momenta_linear_in_first_derivatives():
    rng = np.random.default_rng(31)
    eh = EHLagrangian(3, (2, 1))
    mj = random_metric_jet(rng, 3, (2, 1), order=1)
    p1 = eh.momenta(mj)
    mj2 = type(mj)(mj.n, mj.signature, mj.g,
                   tuple(tuple(2 * v for v in row) for row in mj.dg))
    p2 = eh.momenta(mj2)
    for a in range(len(p1)):
        for i in range(mj.n):
            assert abs(p2[a][i] - 2 * p1[a][i]) < 1e-12


def test_hamiltonian_matches_christoffel_form():
    rng = np.random.default_rng(37)
    for n, sig in [(2, (2, 0)), (3, (2, 1)), (4, (1, 3))]:
        eh = EHLagrangian(n, sig)
        for _ in range(20):
            mj = random_metric_jet(rng, n, sig, order=1)
            h1 = eh.hamiltonian(mj)
            h2 = eh.hamiltonian_christoffel(mj)
            assert abs(h1 - h2) <= 1e-9 * max(1.0, abs(h1))


def test_y_table_is_symmetric_bilinear_block():
    """Y as a matrix over (pair,i) indices is symmetric: b_Lambda symmetry."""
    rng = np.random.default_rng(41)
    eh = EHLagrangian(4, (1, 3))
    mj = random_metric_jet(rng, 4, (1, 3), order=1)
    y = eh.y_table(mj)
    pr = sym_pairs(4)
    for a in range(len(pr)):
        for i in range(4):
            for b in range(len(pr)):
                for j in range(4):
                    assert abs(y[a][i][b][j] - y[b][j][a][i]) < 1e-9


def _y_display_terms(g, k, l, r, s, i, j):
    """The signed terms of the bracket of Y_{kl}^{i;rs,j} exactly as
    displayed, over g = g^-1 (test oracle)."""
    return [2 * g[r][s] * g[k][l] * g[i][j],
            -g[r][k] * g[s][l] * g[i][j], -g[r][l] * g[s][k] * g[i][j],
            g[s][k] * g[l][j] * g[r][i], g[s][l] * g[k][j] * g[r][i],
            g[r][k] * g[l][j] * g[s][i], g[r][l] * g[k][j] * g[s][i],
            -g[k][i] * g[l][j] * g[r][s], -g[l][i] * g[k][j] * g[r][s],
            -g[r][i] * g[s][j] * g[k][l], -g[r][j] * g[s][i] * g[k][l]]


def _y_table_against_display(mj):
    """Pairs (Y entry, displayed value, rho w times the sum of |terms|)."""
    n = mj.n
    y = EHLagrangian(n, mj.signature).y_table(mj)
    out = []
    for a, (k, l) in enumerate(sym_pairs(n)):
        for b, (r, s) in enumerate(sym_pairs(n)):
            w = Fraction(1, (1 + (k == l)) * (1 + (r == s)))
            for i in range(n):
                for j in range(n):
                    terms = _y_display_terms(mj.ginv, k, l, r, s, i, j)
                    out.append((y[a][i][b][j], mj.rho * w * sum(terms),
                                abs(mj.rho * w) * sum(abs(t) for t in terms)))
    return out


def test_y_table_equals_the_display():
    """The factored bracket equals the displayed one exactly, in type too,
    at diag(-1, 1, 1, 1), at P^T diag(-1, 1, 1, 1) P for a unimodular
    integer P (det -1, so rho = 1 is exact, and no diagonal pattern to
    lean on) and at A diag(-1, 1, 1, 1) A^T for a rational A with
    det A = 17/12 (rho = 17/12, and g^-1 has entries with denominators, so
    the integer bracket is scaled by a common denominator d > 1), and over
    floats up to rounding: 1e-15 of the size of the display's terms."""
    u = [[1, 1, 0, 0], [0, 1, -1, 0], [0, 0, 1, 2], [0, 0, 0, 1]]
    low = [[1, 0, 0, 0], [2, 1, 0, 0], [0, 1, 1, 0], [-1, 0, 1, 1]]
    pm = [[sum(u[i][c] * low[c][j] for c in range(4)) for j in range(4)] for i in range(4)]
    assert linalg.det(pm) == 1
    eta = (-1, 1, 1, 1)
    g = tuple(sum(pm[c][i] * eta[c] * pm[c][j] for c in range(4)) for i, j in sym_pairs(4))
    h = Fraction(1, 2)
    am = [[1, h, 0, 0], [0, Fraction(2, 3), -1, 0], [Fraction(1, 3), 0, 1, 2],
          [0, 0, -h, Fraction(3, 2)]]
    assert linalg.det(am) == Fraction(17, 12)
    g_rat = tuple(sum(am[i][c] * eta[c] * am[j][c] for c in range(4))
                  for i, j in sym_pairs(4))
    mj_rat = MetricJet(4, (3, 1), g_rat, ())
    assert mj_rat.rho == Fraction(17, 12)
    assert linalg.integer_scaled(v for row in mj_rat.ginv for v in row)[1] > 1
    for mj in (constant_metric_jet([Fraction(e) for e in eta], order=0),
               MetricJet(4, (3, 1), g, ()), mj_rat):
        got = _y_table_against_display(mj)
        assert all(type(y) is Fraction and y == want for y, want, _ in got)
        assert any(y for y, _, _ in got)
    rng = np.random.default_rng(41)
    for _ in range(5):
        got = _y_table_against_display(random_metric_jet(rng, 4, (1, 3), order=0))
        assert all(abs(y - want) <= 1e-15 * scale for y, want, scale in got)


def test_phi_nondegeneracy_claims():
    rng = np.random.default_rng(43)
    eh3 = EHLagrangian(3, (3, 0))
    rep = eh3.phi_nondegeneracy(constant_metric_jet([1, 1, 1], order=0), (0, 0), (1, 2))
    assert rep["nonzero"]
    # n=4: every single-pair Phi matrix has rank exactly 2 < 10, so its
    # determinant vanishes identically (the printed det claim fails); the
    # uniqueness conclusion V = 0 still holds because the system stacked
    # over all pairs has full rank.
    eh4 = EHLagrangian(4, (1, 3))
    for _ in range(3):
        mj = _rational_metric_jet(rng, 4, (1, 3))
        rep4 = eh4.phi_nondegeneracy(mj, (0, 1), (2, 3))
        assert rep4["nonzero"]
        assert rep4["rank"] == 2 < eh4.npairs
        assert eh4.vertical_symmetry_stacked_rank(mj) == 10
    mj3 = _rational_metric_jet(rng, 3, (3, 0))
    assert eh3.vertical_symmetry_stacked_rank(mj3) == 6
    # equal pairs: the construction is antisymmetric, so the matrix vanishes
    rep0 = eh4.phi_nondegeneracy(_rational_metric_jet(rng, 4, (1, 3)), (0, 1), (0, 1))
    assert rep0["matrix"] == [[0] * eh4.npairs] * eh4.npairs
    assert not rep0["nonzero"] and rep0["rank"] == 0


def test_phi_arrays_are_built_once_per_metric_jet(monkeypatch):
    """`phi_matrix`, `phi_nondegeneracy` and `vertical_symmetry_stacked_rank`
    on one metric jet build the seeded L^{ij}_{rs} table once; a new jet
    builds it again, with the values of a fresh instance."""
    rng = np.random.default_rng(47)
    eh3 = EHLagrangian(3, (2, 1))
    builds = []
    build = eh3.lij_rs_with_partials
    monkeypatch.setattr(eh3, "lij_rs_with_partials",
                        lambda g_row: builds.append(g_row) or build(g_row))
    mj = _rational_metric_jet(rng, 3, (2, 1))
    rep = eh3.phi_nondegeneracy(mj, (0, 1), (1, 2))
    rank = eh3.vertical_symmetry_stacked_rank(mj)
    mat = eh3.phi_matrix(mj, (0, 1), (1, 2))
    assert len(builds) == 1 and mat == rep["matrix"] and rank == 6
    other = _rational_metric_jet(rng, 3, (2, 1))
    assert eh3.phi_matrix(other, (0, 0), (1, 2)) == \
        EHLagrangian(3, (2, 1)).phi_matrix(other, (0, 0), (1, 2))
    assert len(builds) == 2


def _l0_table_by_the_sorted_loop(n: int):
    """`einstein._l0_table` as it was first written: one sorted() per term
    of the five sums over all six indices."""
    np_, ns = n * (n + 1) // 2, n * n * (n + 1) // 2
    pk = [[pair_index(n, a, b) for b in range(n)] for a in range(n)]
    acc: dict = {}
    for i, j, a, b, c, d in itertools.product(range(n), repeat=6):
        s1, s2 = pk[a][b] * n + i, pk[c][d] * n + j
        ab = min(s1, s2) * ns + max(s1, s2)
        for w, t in ((8, (pk[j][b], pk[a][i], pk[c][d])),
                     (-2, (pk[i][j], pk[a][b], pk[c][d])),
                     (6, (pk[i][j], pk[b][c], pk[d][a])),
                     (-4, (pk[i][c], pk[d][a], pk[b][j])),
                     (-8, (pk[i][a], pk[b][d], pk[c][j]))):
            p, q, r = sorted(t)
            key = ((r * np_ + p) * np_ + q) * ns * ns + ab
            acc[key] = acc.get(key, 0) + w
    keys = sorted(key for key, c in acc.items() if c)
    index = {ab: k for k, ab in enumerate(sorted({key % (ns * ns) for key in keys}))}
    table: dict = {}
    for key in keys:
        t, ab = divmod(key, ns * ns)
        r, pq = divmod(t, np_ * np_)
        ks, cs = table.setdefault(r, {}).setdefault(divmod(pq, np_), ([], []))
        ks.append(index[ab])
        cs.append(acc[key])
    return ([(r, [(p, q, tuple(ks), tuple(cs)) for (p, q), (ks, cs) in rows.items()])
             for r, rows in table.items()],
            tuple(ab // ns for ab in index), tuple(ab % ns for ab in index))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_l0_table_equals_the_sorted_loop(n):
    """The L0 table built with its slot triples looked up and its pair
    reads hoisted is the table of the sorted loop, entry for entry and in
    the same order."""
    assert varjet.einstein._l0_table(n) == _l0_table_by_the_sorted_loop(n)


def test_phi_matrix_equals_the_index_sum():
    """Phi from matrix products equals the displayed index sum over (ab, pq),
    exactly, at a seeded rational n = 3 metric, on each ordered pair of
    stored pairs, with Lambda the inverse from `rref` of [table | 1]."""
    rng = np.random.default_rng(7)
    eh3 = EHLagrangian(3, (2, 1))
    mj = _rational_metric_jet(rng, 3, (2, 1))
    table = eh3.lij_rs_with_partials(mj.g)
    N = eh3.npairs
    red, pivots = linalg.rref([[t.value for t in row] + [int(r == c) for c in range(N)]
                               for r, row in enumerate(table)])
    assert pivots == list(range(N))
    lam = [row[N:] for row in red]
    d1 = [[[t.deriv(w) for w in range(N)] for t in row] for row in table]
    for st in range(N):
        for uv in range(N):
            ref = [[None] * N for _ in range(N)]
            for jk in range(N):
                for cd in range(N):
                    val = table[jk][st].deriv(cd, uv) - table[jk][uv].deriv(cd, st)
                    for ab in range(N):
                        for pq in range(N):
                            val += lam[ab][pq] * (
                                (d1[jk][ab][st] - d1[jk][st][ab]) * d1[pq][uv][cd]
                                + (d1[jk][uv][ab] - d1[jk][ab][uv]) * d1[pq][st][cd])
                    ref[jk][cd] = val
            assert eh3.phi_matrix(mj, eh3.pairs[st], eh3.pairs[uv]) == ref


def test_natural_lift_constant_field_is_horizontal():
    from varjet.poly import Poly
    n = 2
    u = [Poly.constant(n, 1), Poly.constant(n, 0)]
    v = natural_lift(n, u)
    assert all(p.is_zero() for p in v)


def test_natural_lift_hand_case():
    # u = x^2 d/dx^1 (n=2), so du^1/dx^2 = 1 and all other du vanish:
    #   v_(11) = 0,  v_(12) = -du^1/dx^2 y_11 = -y_11,
    #   v_(22) = -2 du^1/dx^2 y_12 = -2 y_12.
    from varjet.poly import Poly
    n = 2
    u = [Poly.variable(n, 1), Poly.constant(n, 0)]
    v = natural_lift(n, u)
    pairs = sym_pairs(n)
    nv = n + len(pairs)
    yv = lambda a, b: Poly.variable(nv, n + pair_index(n, a, b))
    assert v[pair_index(n, 0, 0)].is_zero()
    assert v[pair_index(n, 0, 1)] == -1 * yv(0, 0)
    assert v[pair_index(n, 1, 1)] == -2 * yv(0, 1)
