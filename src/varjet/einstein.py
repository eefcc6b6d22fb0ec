"""Closed-form data of the Einstein-Hilbert Lagrangian on the metric bundle.

Everything here is an explicit polynomial/algebraic expression in the inverse
metric, the volume factor and the first metric derivatives, evaluable over
generic scalar rings (floats, Fractions, AD jets).  The generic variational
pipeline in :mod:`varjet.varcore` cross-checks these tables; the tables in
turn make the heavy sweeps (regularity determinants, symmetry matrices,
Euler-Lagrange comparisons) cheap.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fwd import Jet, ring_sqrt, value_of
from .jets import JetFunction, JetPoint, pair_index, sym_pairs
from .metric import MetricJet, christoffel, curvature, mat_det, mat_inverse
from .poly import Poly


def _delta(i, j):
    return 1 if i == j else 0


class EHLagrangian:
    """Closed-form coefficient tables for L_EH = rho * scalar curvature."""

    def __init__(self, n: int, signature):
        self.n = n
        self.signature = tuple(signature)
        self.pairs = sym_pairs(n)
        self.npairs = len(self.pairs)
        self.pair_pos = {p: k for k, p in enumerate(self.pairs)}

    # -- scalars from a metric value row ------------------------------------

    def _ginv_rho(self, g_row):
        n = self.n
        gm = [[g_row[pair_index(n, a, b)] for b in range(n)] for a in range(n)]
        ginv = mat_inverse(gm)
        rho = ring_sqrt(abs(mat_det(gm)))
        return ginv, rho

    # -- second-derivative coefficient block --------------------------------

    def lij_rs(self, g_row):
        """Table (L_EH)^{ij}_{rs} = rho (y^{ir}y^{js} + y^{jr}y^{is}
        - 2 y^{rs}y^{ij}) / (1 + delta_rs), indexed [pair (ij)][pair (rs)]."""
        ginv, rho = self._ginv_rho(g_row)
        out = [[None] * self.npairs for _ in range(self.npairs)]
        for a, (i, j) in enumerate(self.pairs):
            for b, (r, s) in enumerate(self.pairs):
                val = (ginv[i][r] * ginv[j][s] + ginv[j][r] * ginv[i][s]
                       - 2 * ginv[r][s] * ginv[i][j])
                out[a][b] = rho * val * Fraction(1, 1 + _delta(r, s))
        return out

    def l0(self, mj: MetricJet):
        """The zeroth-order part (L_EH)_0, quadratic in first derivatives.

        Factorized form of the displayed double pair sum: rewriting it over
        full index ranges and reassociating gives

            L0 = rho/8 [ 8 W.trD - 2 trD^T G trD + 6 G_ij tr(D_i G D_j G)
                         - 4 G_ir (G D_i G)_sj y_{rs,j} - 8 (G D_i G)_is V_s ]

        with G the inverse metric, D_i the matrix (y_{kl,i})_kl,
        trD_i = tr(G D_i), V_s = sum_{k,i} G_ki y_{ks,i}, W_j = (G V)_j
        (sums over repeated indices).  G D_i G is built for one i at a time.
        The identity with the literal display is pinned exactly over
        Fractions against `l0_reference` in the tests.
        """
        n = self.n
        ginv, rho = self._ginv_rho(mj.g)
        d = [[[mj.dcomp(k, l, i) for l in range(n)] for k in range(n)]
             for i in range(n)]

        def matmul(a, b):
            return [[sum_products(a[r], [b[k][c] for k in range(n)])
                     for c in range(n)] for r in range(n)]

        def sum_products(row, col):
            s = 0
            for x, yv in zip(row, col):
                s = s + x * yv
            return s

        trd = [sum(ginv[k][l] * d[i][k][l] for k in range(n) for l in range(n))
               for i in range(n)]
        # V[s] = sum_{k,i} g^{ki} y_{ks,i}
        v = [sum(ginv[k][i] * d[i][k][s] for k in range(n) for i in range(n))
             for s in range(n)]
        w = [sum(ginv[j][l] * v[l] for l in range(n)) for j in range(n)]
        e = [matmul(d[i], ginv) for i in range(n)]          # E_i = D_i G
        total = 0
        for j in range(n):
            total = total + 8 * w[j] * trd[j]
        for i in range(n):
            for j in range(n):
                total = total - 2 * ginv[i][j] * trd[i] * trd[j]
                tr_ij = sum(e[i][a][b] * e[j][b][a]
                            for a in range(n) for b in range(n))
                total = total + 6 * ginv[i][j] * tr_ij
        for i in range(n):
            gdg = matmul(ginv, e[i])                        # G D_i G
            for r in range(n):
                frob = sum(gdg[s][j] * d[j][r][s]
                           for s in range(n) for j in range(n))
                total = total - 4 * ginv[i][r] * frob
            for s in range(n):
                total = total - 8 * gdg[i][s] * v[s]
        return rho * total * Fraction(1, 8)

    def l0_reference(self, mj: MetricJet):
        """The zeroth-order part exactly as displayed (test oracle)."""
        n = self.n
        ginv, rho = self._ginv_rho(mj.g)
        total = 0
        for r, s in self.pairs:
            for k, l in self.pairs:
                w = Fraction(1, (1 + _delta(k, l)) * (1 + _delta(r, s)))
                for i in range(n):
                    for j in range(n):
                        br = (2 * ginv[r][s] * (ginv[k][i] * ginv[j][l]
                                                + ginv[l][i] * ginv[j][k])
                              - 2 * ginv[k][l] * ginv[s][r] * ginv[j][i]
                              + 2 * ginv[k][l] * (ginv[j][r] * ginv[s][i]
                                                  + ginv[j][s] * ginv[r][i])
                              + 3 * ginv[i][j] * (ginv[k][r] * ginv[l][s]
                                                  + ginv[k][s] * ginv[l][r])
                              - ginv[i][r] * (ginv[k][s] * ginv[j][l]
                                              + ginv[l][s] * ginv[j][k])
                              - ginv[i][s] * (ginv[k][r] * ginv[j][l]
                                              + ginv[l][r] * ginv[j][k])
                              - 2 * ginv[k][i] * (ginv[s][l] * ginv[j][r]
                                                  + ginv[r][l] * ginv[j][s])
                              - 2 * ginv[l][i] * (ginv[s][k] * ginv[j][r]
                                                  + ginv[r][k] * ginv[j][s]))
                        total = total + w * br * mj.dcomp(k, l, i) * mj.dcomp(r, s, j)
        return rho * total * Fraction(1, 2)

    def y_table(self, g_row):
        """Y_{kl}^{i;rs,j}: the linear map from first derivatives to momenta.

        Returned as Y[pair (kl)][i][pair (rs)][j].
        """
        n = self.n
        ginv, rho = self._ginv_rho(g_row)
        out = [[[[None] * n for _ in range(self.npairs)] for _ in range(n)]
               for _ in range(self.npairs)]
        for a, (k, l) in enumerate(self.pairs):
            for b, (r, s) in enumerate(self.pairs):
                w = Fraction(1, (1 + _delta(k, l)) * (1 + _delta(r, s)))
                for i in range(n):
                    for j in range(n):
                        br = (2 * ginv[r][s] * ginv[k][l] * ginv[i][j]
                              - (ginv[r][k] * ginv[s][l]
                                 + ginv[r][l] * ginv[s][k]) * ginv[i][j]
                              + (ginv[s][k] * ginv[l][j]
                                 + ginv[s][l] * ginv[k][j]) * ginv[r][i]
                              + (ginv[r][k] * ginv[l][j]
                                 + ginv[r][l] * ginv[k][j]) * ginv[s][i]
                              - (ginv[k][i] * ginv[l][j]
                                 + ginv[l][i] * ginv[k][j]) * ginv[r][s]
                              - (ginv[r][i] * ginv[s][j]
                                 + ginv[r][j] * ginv[s][i]) * ginv[k][l])
                        out[a][i][b][j] = rho * w * br
        return out

    def momenta(self, mj: MetricJet):
        """p_{kl}^i = sum_{r<=s} Y_{kl}^{i;rs,j} y_{rs,j}, as p[pair][i]."""
        ytab = self.y_table(mj.g)
        n = self.n
        out = [[0] * n for _ in range(self.npairs)]
        for a in range(self.npairs):
            for i in range(n):
                s = 0
                for b, (r, ss) in enumerate(self.pairs):
                    for j in range(n):
                        s = s + ytab[a][i][b][j] * mj.dg[b][j]
                out[a][i] = s
        return out

    def hamiltonian(self, mj: MetricJet):
        """H, quadratic in first derivatives (the displayed closed form)."""
        n = self.n
        ginv, rho = self._ginv_rho(mj.g)
        half = Fraction(1, 2)
        total = 0
        for k, l in self.pairs:
            for r, s in self.pairs:
                w = Fraction(1, (1 + _delta(r, s)) * (1 + _delta(k, l)))
                for i in range(n):
                    for j in range(n):
                        br = (-ginv[i][j] * ginv[k][l] * ginv[r][s]
                              + ginv[k][l] * (ginv[i][r] * ginv[j][s]
                                              + ginv[i][s] * ginv[j][r])
                              + half * ginv[i][j] * (ginv[k][s] * ginv[l][r]
                                                     + ginv[k][r] * ginv[l][s])
                              - half * ginv[i][r] * (ginv[j][l] * ginv[k][s]
                                                     + ginv[j][k] * ginv[l][s])
                              - half * ginv[i][s] * (ginv[j][l] * ginv[k][r]
                                                     + ginv[j][k] * ginv[l][r]))
                        total = total + w * br * mj.dcomp(r, s, j) * mj.dcomp(k, l, i)
        return rho * total

    def hamiltonian_christoffel(self, mj: MetricJet):
        """H as rho g^{ij} (Gamma^r_ij Gamma^h_hr - Gamma^r_hi Gamma^h_jr)."""
        n = self.n
        gam, ginv = christoffel(mj)
        _, rho = self._ginv_rho(mj.g)
        total = 0
        for i in range(n):
            for j in range(n):
                s = 0
                for r in range(n):
                    for h in range(n):
                        s = s + gam[r][i][j] * gam[h][h][r] \
                              - gam[r][h][i] * gam[h][j][r]
                total = total + ginv[i][j] * s
        return rho * total

    # -- regularity ----------------------------------------------------------

    def regularity_determinant(self, mj: MetricJet):
        """Numeric det of the (L_EH)^{ij}_{rs} matrix and its closed form.

        Returns (det, predicted) with

            predicted = -(n-1) * sign(det g)^{n+1} * rho^{(n+1)(n-4)/2}.

        The exponent and sign factor are forced by the table itself: each
        entry scales like lambda^{n/2-2} under g -> lambda g, so the
        determinant scales as rho^{(n+1)(n-4)/2}, and the entries are
        polynomial in the *signed* inverse metric while rho carries |det g|.
        (The literature prints the exponent with n+4 and no sign factor,
        which already fails under uniform scaling of the metric; see the
        regularity tests for the numeric refutation.)
        """
        lij = self.lij_rs(mj.g)
        mat = np.array([[float(value_of(v)) for v in row] for row in lij])
        det = float(np.linalg.det(mat))
        gm = [[float(value_of(v)) for v in row] for row in mj.matrix()]
        sgn = 1.0 if np.linalg.det(np.array(gm)) > 0 else -1.0
        _, rho_v = self._ginv_rho(mj.g)
        rho_f = float(value_of(rho_v))
        exp2 = (self.n + 1) * (self.n - 4)
        mag = (self.n - 1) * (rho_f ** (exp2 // 2) if exp2 % 2 == 0
                              else rho_f ** (exp2 / 2.0))
        pred = -sgn ** (self.n + 1) * mag
        return det, pred

    # -- the Lagrangian as a generic jet function ---------------------------

    def jet_function(self) -> JetFunction:
        """L_EH as a function of a second-order jet of the metric,
        assembled from the curvature contraction rho g^{ij} R^h_{ihj}."""
        n = self.n
        sig = self.signature

        def fn(p: JetPoint):
            mj = MetricJet(n, sig, tuple(p.y),
                           tuple(tuple(r) for r in p.dy),
                           tuple(tuple(r) for r in p.d2y))
            cd = curvature(mj)
            _, rho_v = self._ginv_rho(p.y)
            return rho_v * cd.scalar

        return JetFunction(2, fn, name=f"L_EH(n={n})")

    # -- symmetry uniqueness matrices ---------------------------------------

    def lij_rs_with_partials(self, g_row, cap: int = 2):
        """The (L_EH)^{ij}_{rs} table as Jets over the metric slots."""
        seeds = [Jet.variable(k, g_row[k], cap, Fraction(1))
                 for k in range(self.npairs)]
        return self.lij_rs(seeds)

    def phi_matrix(self, mj: MetricJet, st: tuple[int, int], uv: tuple[int, int],
                   _cache=None):
        """The matrix (Phi_{st,uv})^{jk}_{cd} from the vertical-symmetry
        integrability conditions; rows (jk), columns (cd)."""
        npairs = self.npairs
        st_i = self.pair_pos[tuple(sorted(st))]
        uv_i = self.pair_pos[tuple(sorted(uv))]
        if _cache is None:
            table = self.lij_rs_with_partials(mj.g, cap=2)
            lam = np.linalg.inv(np.array([[float(v.value) for v in row]
                                          for row in table]))
        else:
            table, lam = _cache

        def d1(row, col, w):
            return float(table[row][col].deriv(w))

        def d2(row, col, w1, w2):
            return float(table[row][col].deriv(w1, w2))

        out = np.zeros((npairs, npairs))
        for jk in range(npairs):
            for cd in range(npairs):
                val = d2(jk, st_i, cd, uv_i) - d2(jk, uv_i, cd, st_i)
                for ab in range(npairs):
                    for pq in range(npairs):
                        # Lambda_pq^{ab} = inv[ab][pq] of the (L_EH)_cd^{jk} block
                        val += lam[ab][pq] * (
                            (d1(jk, ab, st_i) - d1(jk, st_i, ab)) * d1(pq, uv_i, cd)
                            + (d1(jk, uv_i, ab) - d1(jk, ab, uv_i)) * d1(pq, st_i, cd))
                out[jk][cd] = val
        return out

    def phi_nondegeneracy(self, mj: MetricJet, st, uv):
        """Report on the matrix Phi_{st,uv}: max entry, determinant, rank."""
        mat = self.phi_matrix(mj, st, uv)
        scale = max(1.0, float(np.max(np.abs(
            [[float(value_of(v)) for v in row] for row in self.lij_rs(mj.g)]))))
        return {
            "matrix": mat,
            "max_abs": float(np.max(np.abs(mat))),
            "det": float(np.linalg.det(mat)),
            "rank": int(np.linalg.matrix_rank(mat, tol=1e-8)),
            "scale": scale,
            "nonzero": bool(np.max(np.abs(mat)) > 1e-10),
        }

    def vertical_symmetry_stacked_rank(self, mj: MetricJet) -> int:
        """Rank of the integrability system stacked over every pair of
        fibre-coordinate pairs; full rank n(n+1)/2 forces the vertical
        symmetry components V^{cd} to vanish."""
        table = self.lij_rs_with_partials(mj.g, cap=2)
        lam = np.linalg.inv(np.array([[float(v.value) for v in row]
                                      for row in table]))
        rows = []
        for a in range(self.npairs):
            for b in range(a + 1, self.npairs):
                rows.append(self.phi_matrix(mj, self.pairs[a], self.pairs[b],
                                            _cache=(table, lam)))
        return int(np.linalg.matrix_rank(np.vstack(rows), tol=1e-8))


# ---------------------------------------------------------------------------
# natural lifts of base vector fields to the bundle of metrics


def natural_lift(n: int, u_polys: list[Poly]):
    """Fibre components of the natural metric lift of u = u^i d/dx^i.

    Returns the list of polynomials v^{(ij)}(x, y) (over n + n(n+1)/2
    variables: base coordinates first, then the metric slots) of

        X'_M = u^i d/dx^i - sum_{i<=j} (du^h/dx^i y_hj + du^h/dx^j y_ih)
               d/dy_ij.
    """
    pairs = sym_pairs(n)
    nv = n + len(pairs)

    def lift_x(p: Poly) -> Poly:
        return Poly(nv, {e + (0,) * len(pairs): c for e, c in p.terms.items()})

    def yvar(a, b) -> Poly:
        return Poly.variable(nv, n + pair_index(n, a, b))

    out = []
    for i, j in pairs:
        acc = Poly.constant(nv, 0)
        for h in range(n):
            acc = acc - lift_x(u_polys[h].diff(i)) * yvar(h, j) \
                      - lift_x(u_polys[h].diff(j)) * yvar(i, h)
        out.append(acc)
    return out


def covariant_noether_current(n: int, u_polys: list[Poly], mj: MetricJet, x):
    """The covariant form of the Noether current of a natural lift.

    Components (in the basis (-1)^{i-1} v_i) of

        i_{c_1^2((nabla^g)^2 u)^sharp} v_g - i_{c_1^1((nabla^g)^2 u)^sharp} v_g,

    evaluated from the metric jet at x.  The volume form must be the
    Riemannian one (v_g = rho v): the literature example displays the
    coordinate volume, which agrees only at normal-coordinate centres where
    rho = 1; coordinate covariance of the current (checked in the tests)
    forces the rho factor.
    """
    gam, ginv = christoffel(mj)
    # dGamma from order-2 jet
    cd = curvature(mj)
    u = [p.eval(x) for p in u_polys]
    du = [[u_polys[c].diff(h).eval(x) for h in range(n)] for c in range(n)]
    d2u = [[[u_polys[c].diff(h).diff(a).eval(x) for a in range(n)]
            for h in range(n)] for c in range(n)]
    # nabla_h u^c
    nab = [[du[c][h] + sum(gam[c][h][e] * u[e] for e in range(n))
            for h in range(n)] for c in range(n)]
    # d_a Gamma^c_{he}: recompute like metric.curvature does
    from .metric import _dginv
    dginv = _dginv(mj, [list(r) for r in ginv])
    dgam = [[[[0.0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for c in range(n):
        for h in range(n):
            for e in range(n):
                for a in range(n):
                    s = 0
                    for l in range(n):
                        s = s + dginv[c][l][a] * (mj.dcomp(l, h, e) + mj.dcomp(l, e, h)
                                                  - mj.dcomp(h, e, l))
                        s = s + ginv[c][l] * (mj.d2comp(l, h, e, a)
                                              + mj.d2comp(l, e, h, a)
                                              - mj.d2comp(h, e, l, a))
                    dgam[c][h][e][a] = s / 2
    # (nabla^2 u)_{a h}^c = d_a(nabla_h u^c) - Gamma^e_{ah} nabla_e u^c
    #                      + Gamma^c_{ae} nabla_h u^e
    nab2 = [[[0.0] * n for _ in range(n)] for _ in range(n)]  # [a][h][c]
    for a in range(n):
        for h in range(n):
            for c in range(n):
                s = d2u[c][h][a]
                for e in range(n):
                    s = s + dgam[c][h][e][a] * u[e] + gam[c][h][e] * du[e][a]
                    s = s - gam[e][a][h] * nab[c][e] + gam[c][a][e] * nab[e][h]
                nab2[a][h][c] = s
    _, rho_v = EHLagrangian(n, mj.signature)._ginv_rho(mj.g)
    out = []
    for i in range(n):
        c12 = 0.0
        c11 = 0.0
        for ap in range(n):
            for cc in range(n):
                c12 = c12 + ginv[i][ap] * nab2[ap][cc][cc]
        for a in range(n):
            for ap in range(n):
                c11 = c11 + ginv[a][ap] * nab2[ap][a][i]
        out.append(rho_v * (c12 - c11))
    return out


def affine_supplier(eh: EHLagrangian):
    """The closed-form tables as a varcore affine-data supplier."""
    from .varcore import TableAffineSupplier

    m = eh.npairs

    def lij_dict(y):
        tab = eh.lij_rs(y)
        lij = {}
        for al in range(m):
            for b, (i, j) in enumerate(eh.pairs):
                lij[(al, i, j)] = tab[b][al]
        return lij

    def fn(x, y, dy):
        mj = MetricJet(eh.n, eh.signature, tuple(y),
                       tuple(tuple(r) for r in dy))
        return eh.l0(mj), lij_dict(y)

    sup = TableAffineSupplier(eh.n, m, fn)
    sup.lij_only = lambda x, y, dy, jv, cap: lij_dict(y)
    return sup

