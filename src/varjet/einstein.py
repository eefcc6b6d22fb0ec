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

from . import linalg
from .fwd import Jet, jet_sum, ring_unit, value_of
from .jets import (JetFunction, JetPoint, PolySection, delta, jet_of_section,
                   pair_index, sym_pairs)
from .metric import (MetricJet, christoffel, covariant_derivatives, curvature,
                     metric_from_jet_point)
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
        self._phi_last = (None, None)     # (metric jet, its _phi_arrays)

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

        Returned as Y[pair (kl)][i][pair (rs)][j].  Over G = g^-1 it is
        rho w (c G_ij + u_j G_ri + v_j G_si - x_ij G_rs - z_ij G_kl), with
        w = 1/((1 + delta_kl)(1 + delta_rs)) and

            c = 2 G_rs G_kl - G_rk G_sl - G_rl G_sk,
            u_j = G_sk G_lj + G_sl G_kj,    v_j = G_rk G_lj + G_rl G_kj,
            x_ij = S^{kl}_ij,   z_ij = S^{rs}_ij,   S^{pq}_ij = G_pi G_qj + G_qi G_pj:

        the displayed bracket with its products shared, S once per pair,
        and c, u, v and rho w once per (kl, rs), so an entry takes six
        products.  When every G entry is an int or a Fraction, G = N / d
        (`linalg.integer_scaled`) and the bracket, cubic in G, is
        evaluated on the integers N with 1/d^3 folded into rho w, so a
        Fraction is formed only for an entry's one product with rho w.
        """
        n, g = self.n, mj.ginv
        scaled = linalg.integer_scaled(v for row in g for v in row)
        d3 = 1
        if scaled is not None:
            nums, d = scaled
            g, d3 = [nums[i * n:(i + 1) * n] for i in range(n)], d ** 3
        sym = [[[g[k][i] * g[l][j] + g[l][i] * g[k][j] for j in range(n)]
                for i in range(n)] for k, l in self.pairs]
        out = [[[[None] * n for _ in range(self.npairs)] for _ in range(n)]
               for _ in range(self.npairs)]
        for a, (k, l) in enumerate(self.pairs):
            x = sym[a]
            for b, (r, s) in enumerate(self.pairs):
                z = sym[b]
                rw = mj.rho * Fraction(1, (1 + delta(k, l)) * (1 + delta(r, s)) * d3)
                c = 2 * g[r][s] * g[k][l] - g[r][k] * g[s][l] - g[r][l] * g[s][k]
                u = [g[s][k] * g[l][j] + g[s][l] * g[k][j] for j in range(n)]
                v = [g[r][k] * g[l][j] + g[r][l] * g[k][j] for j in range(n)]
                for i in range(n):
                    row = out[a][i][b]
                    for j in range(n):
                        row[j] = rw * (c * g[i][j] + u[j] * g[r][i] + v[j] * g[s][i]
                                       - x[i][j] * g[r][s] - z[i][j] * g[k][l])
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
        """Exact det of the (L_EH)^{ij}_{rs} matrix (`linalg.det`: the metric
        must be exact, with rational rho) and its closed form, (det, pred):

            pred = -(n-1) * sign(det g)^{n+1} * rho^{(n+1)(n-4)/2},

        sign(det g) = (-1)^{n_minus} from the jet's signature.  The exponent
        and sign factor are forced by the table itself: each entry scales
        like lambda^{n/2-2} under g -> lambda g, so the determinant scales
        as rho^{(n+1)(n-4)/2}, and the entries are polynomial in the
        *signed* inverse metric while rho carries |det g|.
        (The literature prints the exponent with n+4 and no sign factor,
        which already fails under uniform scaling of the metric; see the
        regularity tests for the refutation.)
        """
        n = self.n
        det = linalg.det([[value_of(v) for v in row] for row in self.lij_rs(mj)])
        # (n+1)(n-4) = n(n-3) - 4 is even: an integer power of rho
        pred = -(n - 1) * (-1) ** (mj.signature[1] * (n + 1)) \
            * value_of(mj.rho) ** ((n + 1) * (n - 4) // 2)
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
        """d1[r][c][w] and d2[r][c][w][v], the first and second partials of
        the (L_EH)^{ij}_{rs} table entries (row r, column c) over the metric
        slots w, v at the jet's metric value, and ld[w] = Lambda d1[:][w][:],
        Lambda the inverse of the table's value, read off one `linalg.rref`
        of [table | d1[:][0][:] | ... | d1[:][N-1][:]].  The data must be
        exact; a singular table raises ValueError.  The arrays of the last
        jet read are kept, so `phi_matrix`, `phi_nondegeneracy` and
        `vertical_symmetry_stacked_rank` on one jet build them once."""
        if self._phi_last[0] is mj:
            return self._phi_last[1]
        table = self.lij_rs_with_partials(mj.g)
        slots = range(self.npairs)
        d1 = [[[t.deriv(w) for w in slots] for t in row] for row in table]
        d2 = [[[[t.deriv(w, v) for v in slots] for w in slots] for t in row]
              for row in table]
        red, pivots = linalg.rref([[t.value for t in row]
                                   + [d1[r][w][c] for w in slots for c in slots]
                                   for r, row in enumerate(table)])
        if pivots[:self.npairs] != list(slots):
            raise ValueError("the (L_EH)^{ij}_{rs} table is singular")
        ld = [[row[self.npairs * (w + 1):self.npairs * (w + 2)] for row in red]
              for w in slots]
        self._phi_last = (mj, (d1, d2, ld))
        return d1, d2, ld

    @staticmethod
    def _phi(arrays, st: int, uv: int):
        """(Phi_{st,uv})^{jk}_{cd} for the stored pairs st, uv:

            d2[jk][st][cd][uv] - d2[jk][uv][cd][st]
            + sum_{ab} X_st[jk][ab] (Lambda d1[:][uv][:])[ab][cd]
            + sum_{ab} X_uv[jk][ab] (Lambda d1[:][st][:])[ab][cd],

        X_st[jk][ab] = d1[jk][ab][st] - d1[jk][st][ab] and X_uv[jk][ab] =
        d1[jk][uv][ab] - d1[jk][ab][uv]: two matrix products, as lists."""
        d1, d2, ld = arrays
        slots = range(len(d1))
        out = []
        for jk in slots:
            x_st = [d1[jk][ab][st] - d1[jk][st][ab] for ab in slots]
            x_uv = [d1[jk][uv][ab] - d1[jk][ab][uv] for ab in slots]
            out.append([d2[jk][st][cd][uv] - d2[jk][uv][cd][st]
                        + sum(x_st[ab] * ld[uv][ab][cd] + x_uv[ab] * ld[st][ab][cd]
                              for ab in slots) for cd in slots])
        return out

    def phi_matrix(self, mj: MetricJet, st: tuple[int, int], uv: tuple[int, int]):
        """The matrix (Phi_{st,uv})^{jk}_{cd} from the vertical-symmetry
        integrability conditions, exact, as lists; rows (jk), columns (cd)."""
        return self._phi(self._phi_arrays(mj), self.pair_pos[tuple(sorted(st))],
                         self.pair_pos[tuple(sorted(uv))])

    def phi_nondegeneracy(self, mj: MetricJet, st, uv):
        """Phi_{st,uv}, its exact rank (det Phi = 0 exactly when the rank is
        below n(n+1)/2) and whether any entry is nonzero."""
        mat = self.phi_matrix(mj, st, uv)
        return {"matrix": mat, "rank": linalg.rank(mat), "nonzero": any(map(any, mat))}

    def vertical_symmetry_stacked_rank(self, mj: MetricJet) -> int:
        """Exact rank of the integrability system stacked over every pair
        of fibre-coordinate pairs; full rank n(n+1)/2 forces the vertical
        symmetry components V^{cd} to vanish."""
        arrays = self._phi_arrays(mj)
        return linalg.rank([row for a in range(self.npairs)
                            for b in range(a + 1, self.npairs)
                            for row in self._phi(arrays, a, b)])


@functools.cache
def _l0_table(n: int):
    """The integers c of `EHLagrangian.l0` as (table, sa, sb): y'_A is
    mj.dg[A // n][A % n], table lists (r, [(p, q, ks, cs), ...]) and
    c_{(p,q,r), (sa[k], sb[k])} = c for k, c in zip(ks, cs), nonzero."""
    np_, ns = n * (n + 1) // 2, n * n * (n + 1) // 2    # G slots, y' slots
    pk = [[pair_index(n, a, b) for b in range(n)] for a in range(n)]
    # trip[x][y][z]: the sorted slot triple (p, q, r) of (x, y, z), packed
    # above the y' pair (A, B) of a key; symmetric, so rows can be hoisted
    trip = [[[0] * np_ for _ in range(np_)] for _ in range(np_)]
    for t in itertools.product(range(np_), repeat=3):
        p, q, r = sorted(t)
        trip[t[0]][t[1]][t[2]] = ((r * np_ + p) * np_ + q) * ns * ns
    acc: dict = {}          # (T, A, B) packed into one int: a small, fast build
    get = acc.get
    for a, b, c, d in itertools.product(range(n), repeat=4):
        # each of the five sums is a sum of G G G y_{ab,i} y_{cd,j}, with
        # slots (jb, ai, cd), (ij, ab, cd), (ij, bc, da), (ic, da, bj), (ia, bd, cj)
        pab, pcd, pb, pc = pk[a][b], pk[c][d], pk[b], pk[c]
        r2, r3 = trip[pab][pcd], trip[pb[c]][pk[d][a]]
        for i in range(n):
            s1, pi = pab * n + i, pk[i]
            r1, r4, r5 = trip[pi[a]][pcd], trip[pi[c]][pk[d][a]], trip[pi[a]][pb[d]]
            for j in range(n):
                s2, pij, pbj = pcd * n + j, pi[j], pb[j]
                ab = s1 * ns + s2 if s1 <= s2 else s2 * ns + s1
                key = r1[pbj] + ab
                acc[key] = get(key, 0) + 8
                key = r2[pij] + ab
                acc[key] = get(key, 0) - 2
                key = r3[pij] + ab
                acc[key] = get(key, 0) + 6
                key = r4[pbj] + ab
                acc[key] = get(key, 0) - 4
                key = r5[pc[j]] + ab
                acc[key] = get(key, 0) - 8
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

    evaluated from the metric jet at x, with (nabla^g)^2 u read from
    `metric.covariant_derivatives` (u contravariant, its 2-jet from
    `jet_of_section`) and contracted with g^-1.  The volume form must be the
    Riemannian one (v_g = rho v): the literature example displays the
    coordinate volume, which agrees only at normal-coordinate centres where
    rho = 1; coordinate covariance of the current (checked in the tests)
    forces the rho factor.
    """
    ju = jet_of_section(PolySection(n, u_polys), x, 2)    # u^c, d_h u^c, d_h d_a u^c
    _, nab2 = covariant_derivatives(curvature(mj), lambda idx: ju.y[idx[0]],
                                    lambda h, idx: ju.dy[idx[0]][h],
                                    lambda a, h, idx: ju.y2(idx[0], h, a), 1)
    ginv = mj.ginv
    out = []
    for i in range(n):
        c12 = sum(ginv[i][a] * nab2(a, c, (c,)) for a in range(n) for c in range(n))
        c11 = sum(ginv[a][b] * nab2(b, a, (i,)) for a in range(n) for b in range(n))
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
