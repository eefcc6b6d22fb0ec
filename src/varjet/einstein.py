"""Closed-form data of the Einstein-Hilbert Lagrangian on the metric bundle.

Everything here is an explicit polynomial/algebraic expression in the inverse
metric, the volume factor and the first metric derivatives, evaluable over
generic scalar rings (floats, Fractions, AD jets).  The generic variational
pipeline in :mod:`varjet.varcore` cross-checks these tables; the tables in
turn make the heavy sweeps (regularity determinants, symmetry matrices,
Euler-Lagrange comparisons) cheap.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import numpy as np

from .fwd import Jet, jet_sum, ring_unit, value_of
from .jets import JetFunction, JetPoint, delta, pair_index, sym_pairs
from .metric import MetricJet, christoffel, curvature, metric_from_jet_point
from .poly import Poly
from .varcore import TableAffineSupplier


class EHLagrangian:
    """Closed-form coefficient tables for L_EH = rho * scalar curvature."""

    def __init__(self, n: int, signature):
        self.n = n
        self.signature = tuple(signature)
        self.pairs = sym_pairs(n)
        self.npairs = len(self.pairs)
        self.pair_pos = {p: k for k, p in enumerate(self.pairs)}
        self.pk = [[pair_index(n, a, b) for b in range(n)] for a in range(n)]

    # -- second-derivative coefficient block --------------------------------

    def lij_rs(self, mj: MetricJet):
        """Table (L_EH)^{ij}_{rs} = rho (y^{ir}y^{js} + y^{jr}y^{is}
        - 2 y^{rs}y^{ij}) / (1 + delta_rs), indexed [pair (ij)][pair (rs)].

        Each entry is a signed sum of the jet's pair products T_pq =
        rho g^p g^q (`MetricJet.rho_gpairs`, only its metric value is
        read), so it makes no product of its own: T_{ir,js} + T_{jr,is}
        - 2 T_{rs,ij}, and at r = s, where the first two coincide and the
        weight 1/2 cancels the 2s, T_{ir,jr} - T_{rr,ij}."""
        t, pk = mj.rho_gpairs, self.pk
        out = [[None] * self.npairs for _ in range(self.npairs)]
        for a, (i, j) in enumerate(self.pairs):
            for b, (r, s) in enumerate(self.pairs):
                if r == s:
                    out[a][b] = t[pk[i][r]][pk[j][r]] - t[pk[r][r]][a]
                else:
                    out[a][b] = (t[pk[i][r]][pk[j][s]] + t[pk[j][r]][pk[i][s]]
                                 - 2 * t[b][a])
        return out

    def l0(self, mj: MetricJet):
        """The zeroth-order part (L_EH)_0, quadratic in first derivatives:

            L0 = 1/8 sum_r G_r sum_{p<=q<=r} T_pq S_pqr,
            S_pqr = sum_{A<=B} c_{pqr,AB} y'_A y'_B,

        over stored inverse-metric slots G_p = g^{ab}, the jet's pair
        products T_pq = rho G_p G_q (`MetricJet.rho_gpairs`, shared with
        `lij_rs`) and stored first-derivative slots y'_A = y_{kl,i}.
        `_l0_table` builds the integers c once per n, on the first call, by
        expanding over full indices the five sums of the factorized display

            8 W.trD - 2 trD^T G trD + 6 G_ij tr(D_i G D_j G)
            - 4 G_ir (G D_i G)_sj y_{rs,j} - 8 (G D_i G)_is V_s

        (G = g^-1, D_i = (y_{kl,i})_kl, trD_i = tr(G D_i), V_s = G_ki y_{ks,i},
        W = G V).  Each T_pq S_pqr multiplies a pair product by a small
        quadratic in the y' seeds, and each largest slot r then costs one
        product with G_r, N = n(n+1)/2 in all.  `l0_reference`, the literal
        display, pins the identity exactly in the tests.
        """
        gs = [mj.ginv[a][b] for a, b in self.pairs]
        t = mj.rho_gpairs
        table, sa, sb = _l0_table(self.n)
        ys = [v for row in mj.dg for v in row]
        yy = [ys[a] * ys[b] for a, b in zip(sa, sb)]
        orders = [v.order for v in (mj.rho, *ys) if isinstance(v, Jet)]
        order = min(orders, default=0)    # the products' order; scalar data: 0
        total = jet_sum(order, [
            gs[r] * jet_sum(order, [t[p][q] * jet_sum(order, [yy[k] for k in ks], cs)
                                    for p, q, ks, cs in rows])
            for r, rows in table])
        return (total if orders else total.value) * (ring_unit(mj.rho) / 8)

    def l0_reference(self, mj: MetricJet):
        """The zeroth-order part exactly as displayed (test oracle)."""
        n = self.n
        ginv, rho = mj.ginv, mj.rho
        total = 0
        for r, s in self.pairs:
            for k, l in self.pairs:
                w = Fraction(1, (1 + delta(k, l)) * (1 + delta(r, s)))
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

    def y_table(self, mj: MetricJet):
        """Y_{kl}^{i;rs,j}: the linear map from first derivatives to momenta,
        at the jet's metric value.

        Returned as Y[pair (kl)][i][pair (rs)][j].
        """
        n = self.n
        ginv, rho = mj.ginv, mj.rho
        out = [[[[None] * n for _ in range(self.npairs)] for _ in range(n)]
               for _ in range(self.npairs)]
        for a, (k, l) in enumerate(self.pairs):
            for b, (r, s) in enumerate(self.pairs):
                w = Fraction(1, (1 + delta(k, l)) * (1 + delta(r, s)))
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
        ytab = self.y_table(mj)
        n, slots = self.n, range(self.npairs)
        return [[sum(ytab[a][i][b][j] * mj.dg[b][j] for b in slots for j in range(n))
                 for i in range(n)] for a in slots]

    def hamiltonian(self, mj: MetricJet):
        """H, quadratic in first derivatives (the displayed closed form)."""
        n = self.n
        ginv, rho = mj.ginv, mj.rho
        half = Fraction(1, 2)
        total = 0
        for k, l in self.pairs:
            for r, s in self.pairs:
                w = Fraction(1, (1 + delta(r, s)) * (1 + delta(k, l)))
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
        gam, ginv = christoffel(mj), mj.ginv
        total = 0
        for i in range(n):
            for j in range(n):
                s = 0
                for r in range(n):
                    for h in range(n):
                        s = s + gam[r][i][j] * gam[h][h][r] \
                              - gam[r][h][i] * gam[h][j][r]
                total = total + ginv[i][j] * s
        return mj.rho * total

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
        lij = self.lij_rs(mj)
        mat = np.array([[float(value_of(v)) for v in row] for row in lij])
        det = float(np.linalg.det(mat))
        gm = [[float(value_of(v)) for v in row] for row in mj.matrix()]
        sgn = 1.0 if np.linalg.det(np.array(gm)) > 0 else -1.0
        rho_f = float(value_of(mj.rho))
        # (n+1)(n-4) = n(n-3) - 4 is even: an integer power of rho
        mag = (self.n - 1) * rho_f ** ((self.n + 1) * (self.n - 4) // 2)
        pred = -sgn ** (self.n + 1) * mag
        return det, pred

    # -- the Lagrangian as a generic jet function ---------------------------

    def jet_function(self) -> JetFunction:
        """L_EH as a function of a second-order jet of the metric,
        assembled from the curvature contraction rho g^{ij} R^h_{ihj}."""
        n = self.n
        sig = self.signature

        def fn(p: JetPoint):
            mj = metric_from_jet_point(p, sig)
            return mj.rho * curvature(mj).scalar

        return JetFunction(2, fn, name=f"L_EH(n={n})")

    # -- symmetry uniqueness matrices ---------------------------------------

    def lij_rs_with_partials(self, g_row):
        """The (L_EH)^{ij}_{rs} table as Jets of order 2 over the metric
        slots."""
        seeds = tuple(Jet.variable(k, g_row[k], 2, Fraction(1))
                      for k in range(self.npairs))
        return self.lij_rs(MetricJet(self.n, self.signature, seeds))

    def _phi_arrays(self, mj: MetricJet):
        """d1[r, c, w] and d2[r, c, w, v], the first and second partials of
        the (L_EH)^{ij}_{rs} table entries (row r, column c) over the metric
        slots w, v at the jet's metric value, and Lambda, the inverse of the
        table's value."""
        table = self.lij_rs_with_partials(mj.g)
        slots = range(self.npairs)
        d1 = np.array([[[float(t.deriv(w)) for w in slots] for t in row]
                       for row in table])
        d2 = np.array([[[[float(t.deriv(w, v)) for v in slots] for w in slots]
                        for t in row] for row in table])
        lam = np.linalg.inv(np.array([[float(t.value) for t in row] for row in table]))
        return d1, d2, lam

    @staticmethod
    def _phi(arrays, st: int, uv: int):
        """(Phi_{st,uv})^{jk}_{cd} for the stored pairs st, uv:

            d2[jk, st, cd, uv] - d2[jk, uv, cd, st]
            + sum_{ab,pq} X_st[jk, ab] Lambda[ab, pq] d1[pq, uv, cd]
            + sum_{ab,pq} X_uv[jk, ab] Lambda[ab, pq] d1[pq, st, cd],

        X_st[jk, ab] = d1[jk, ab, st] - d1[jk, st, ab] and X_uv[jk, ab] =
        d1[jk, uv, ab] - d1[jk, ab, uv]: two matrix products each."""
        d1, d2, lam = arrays
        x_st = d1[:, :, st] - d1[:, st, :]
        x_uv = d1[:, uv, :] - d1[:, :, uv]
        return (d2[:, st, :, uv] - d2[:, uv, :, st]
                + x_st @ lam @ d1[:, uv, :] + x_uv @ lam @ d1[:, st, :])

    def phi_matrix(self, mj: MetricJet, st: tuple[int, int], uv: tuple[int, int]):
        """The matrix (Phi_{st,uv})^{jk}_{cd} from the vertical-symmetry
        integrability conditions; rows (jk), columns (cd)."""
        return self._phi(self._phi_arrays(mj), self.pair_pos[tuple(sorted(st))],
                         self.pair_pos[tuple(sorted(uv))])

    def phi_nondegeneracy(self, mj: MetricJet, st, uv):
        """Report on the matrix Phi_{st,uv}: max entry, determinant, rank."""
        mat = self.phi_matrix(mj, st, uv)
        scale = max(1.0, float(np.max(np.abs(
            [[float(value_of(v)) for v in row] for row in self.lij_rs(mj)]))))
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
        arrays = self._phi_arrays(mj)
        rows = [self._phi(arrays, a, b) for a in range(self.npairs)
                for b in range(a + 1, self.npairs)]
        return int(np.linalg.matrix_rank(np.vstack(rows), tol=1e-8))


@functools.cache
def _l0_table(n: int):
    """The integers c of `EHLagrangian.l0` as (table, sa, sb): y'_A is
    mj.dg[A // n][A % n], table lists (r, [(p, q, ks, cs), ...]) and
    c_{(p,q,r), (sa[k], sb[k])} = c for k, c in zip(ks, cs), nonzero."""
    np_, ns = n * (n + 1) // 2, n * n * (n + 1) // 2    # G slots, y' slots
    pk = [[pair_index(n, a, b) for b in range(n)] for a in range(n)]
    acc: dict = {}          # (T, A, B) packed into one int: a small, fast build
    for i, j, a, b, c, d in itertools.product(range(n), repeat=6):
        # each of the five sums is a sum of G G G y_{ab,i} y_{cd,j}
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
    cd = curvature(mj)
    gam, ginv, dgam = cd.gamma, mj.ginv, cd.dgamma
    u = [p.eval(x) for p in u_polys]
    du = [[u_polys[c].diff(h).eval(x) for h in range(n)] for c in range(n)]
    d2u = [[[u_polys[c].diff(h).diff(a).eval(x) for a in range(n)]
            for h in range(n)] for c in range(n)]
    # nabla_h u^c
    nab = [[du[c][h] + sum(gam[c][h][e] * u[e] for e in range(n))
            for h in range(n)] for c in range(n)]
    # (nabla^2 u)_{a h}^c = d_a(nabla_h u^c) - Gamma^e_{ah} nabla_e u^c
    #                      + Gamma^c_{ae} nabla_h u^e
    nab2 = [[[0] * n for _ in range(n)] for _ in range(n)]  # [a][h][c]
    for a in range(n):
        for h in range(n):
            for c in range(n):
                s = d2u[c][h][a]
                for e in range(n):
                    s = s + dgam[c][h][e][a] * u[e] + gam[c][h][e] * du[e][a]
                    s = s - gam[e][a][h] * nab[c][e] + gam[c][a][e] * nab[e][h]
                nab2[a][h][c] = s
    out = []
    for i in range(n):
        c12 = 0
        c11 = 0
        for ap in range(n):
            for cc in range(n):
                c12 = c12 + ginv[i][ap] * nab2[ap][cc][cc]
        for a in range(n):
            for ap in range(n):
                c11 = c11 + ginv[a][ap] * nab2[ap][a][i]
        out.append(mj.rho * (c12 - c11))
    return out


def affine_supplier(eh: EHLagrangian) -> TableAffineSupplier:
    """The closed-form tables as a varcore affine-data supplier; each
    `tables` call builds one MetricJet, so L_0 and L^{ij} share its g^-1."""

    def tables(x, y, dy):
        mj = MetricJet(eh.n, eh.signature, tuple(y), tuple(map(tuple, dy)))
        l0, tab = eh.l0(mj), eh.lij_rs(mj)
        return l0, {(al, i, j): tab[b][al]
                    for al in range(eh.npairs) for b, (i, j) in enumerate(eh.pairs)}

    return TableAffineSupplier(eh.n, eh.npairs, tables)
