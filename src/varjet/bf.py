"""Generalized BF Lagrangians: trace(beta ^ curvature) on the metric bundle.

A BetaForm packages the coefficient functions beta_{kl,j}^i(g) of a
skew-valued horizontal (n-2)-form (k < l, extended antisymmetrically).  The
associated second-order Lagrangian is

    L_beta = (-1)^{k+l+1} beta_{kl,i}^j y^{ih} y_{hl,jk} + L_beta^0,

whose value along metric jets equals the curvature trace
sum_{k<l} (-1)^{k+l+1} beta_{kl,j}^i (R^g)^j_{ikl}.  The Einstein-Hilbert
Lagrangian is the special case beta = beta_EH.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fwd import Jet, ring_sqrt, value_of
from .jets import (JetFunction, JetPoint, JetVars, jet_of_section, pair_index,
                   seed_point, sym_pairs, total_derivative_j1)
from .metric import (MetricJet, christoffel, curvature, mat_det, mat_inverse,
                     metric_from_jet_point)
from .poly import Poly


class BetaConstraintError(ValueError):
    """beta fails the skew-adjointness (algebra-valuedness) constraint."""


class BetaForm:
    """Coefficients beta_{kl,j}^i(g) for k < l as callables of the metric row.

    `fn(k, l, j, i, g_row)` must be ring-generic; values for k >= l follow by
    antisymmetry.  The skew constraint
    beta_{ac,i}^d y^{ib} + beta_{ac,i}^b y^{id} = 0 is validated pointwise.
    """

    def __init__(self, n: int, fn, name: str = "beta"):
        self.n = n
        self.fn = fn
        self.name = name

    def coeff(self, k: int, l: int, j: int, i: int, g_row):
        if k == l:
            return 0
        if k < l:
            return self.fn(k, l, j, i, g_row)
        return -self.fn(l, k, j, i, g_row)

    def table(self, g_row):
        """beta[k][l][j][i] with the antisymmetric extension filled in."""
        n = self.n
        out = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for k in range(n):
            for l in range(k + 1, n):
                for j in range(n):
                    for i in range(n):
                        v = self.fn(k, l, j, i, g_row)
                        out[k][l][j][i] = v
                        out[l][k][j][i] = -v
        return out

    def validate(self, g_row, ginv=None, tol: float = 1e-10) -> float:
        """Max residual of the skew constraint at this metric value."""
        n = self.n
        if ginv is None:
            gm = [[g_row[pair_index(n, a, b)] for b in range(n)] for a in range(n)]
            ginv = mat_inverse(gm)
        tab = self.table(g_row)
        worst = 0.0
        for a in range(n):
            for c in range(n):
                for d in range(n):
                    for b in range(n):
                        s = 0
                        for i in range(n):
                            s = s + tab[a][c][i][d] * ginv[i][b] \
                                  + tab[a][c][i][b] * ginv[i][d]
                        worst = max(worst, abs(float(value_of(s))))
        if worst > tol:
            raise BetaConstraintError(
                f"skew constraint violated (residual {worst:.3e})")
        return worst


def beta_eh(n: int, signature) -> BetaForm:
    """(beta_EH)_{kl,i}^j = (-1)^{k+l+1} rho (delta^{ik} y^{jl}
    - delta^{il} y^{jk}); reproduces the E-H Lagrangian."""

    def fn(k, l, j, i, g_row):
        # argument order of BetaForm.fn is (k, l, j, i) with j the covariant
        # slot and i the contravariant one; the display has sub i / sup j,
        # so translate: coefficient beta_{kl, cov}^{contra}.
        gm = [[g_row[pair_index(n, a, b)] for b in range(n)] for a in range(n)]
        ginv = mat_inverse(gm)
        rho = ring_sqrt(abs(mat_det(gm)))
        sign = -1 if (k + l) % 2 == 0 else 1   # (-1)^{k+l+1} with 0-based k,l
        dik = 1 if j == k else 0
        dil = 1 if j == l else 0
        return sign * rho * (dik * ginv[i][l] - dil * ginv[i][k])

    return BetaForm(n, fn, name="beta_EH")


def beta_from_antisym(n: int, a_entries):
    """beta = A g: beta_{kl,i}^d = sum_b A_{kl}^{db}(g) g_{bi} with A
    antisymmetric in (d, b); satisfies the skew constraint identically.

    `a_entries[(k,l)]` is an n x n antisymmetric matrix of callables of the
    metric row (or plain constants).
    """

    def fn(k, l, j, i, g_row):
        amat = a_entries[(k, l)]
        s = 0
        for b in range(n):
            entry = amat[i][b]
            aval = entry(g_row) if callable(entry) else entry
            s = s + aval * g_row[pair_index(n, b, j)]
        return s

    return BetaForm(n, fn, name="beta_from_antisym")


def random_constrained_beta(rng, n: int, linear_in_g: bool = False) -> BetaForm:
    a_entries = {}
    for k in range(n):
        for l in range(k + 1, n):
            mat = [[0.0] * n for _ in range(n)]
            for d in range(n):
                for b in range(d + 1, n):
                    c = round(float(rng.uniform(-1, 1)), 4)
                    if linear_in_g:
                        w = int(rng.integers(0, len(sym_pairs(n))))
                        mat[d][b] = (lambda cc, ww: lambda g: cc * g[ww])(c, w)
                        mat[b][d] = (lambda cc, ww: lambda g: -cc * g[ww])(c, w)
                    else:
                        mat[d][b] = c
                        mat[b][d] = -c
            a_entries[(k, l)] = mat
    return beta_from_antisym(n, a_entries)


# ---------------------------------------------------------------------------
# the Lagrangian


def _beta_aux(tab, l: int, t: int, j: int, k: int):
    """beta_{lt}^{jk} = (-1)^k beta_{kl,t}^j + (-1)^j beta_{jl,t}^k
    (0-based indices: the printed signs use 1-based positions)."""
    sk = -1 if (k + 1) % 2 else 1
    sj = -1 if (j + 1) % 2 else 1
    return sk * tab[k][l][t][j] + sj * tab[j][l][t][k]


def l_beta_zero(beta: BetaForm, mj: MetricJet):
    """The zero-order part L_beta^0 (quadratic in first metric derivatives)."""
    n = beta.n
    gm = mj.matrix()
    ginv = mat_inverse(gm)
    tab = beta.table(mj.g)

    def aux(l, t, j, k):
        return _beta_aux(tab, l, t, j, k)

    def sgn(idx):   # (-1)^idx with 1-based printed index
        return -1 if (idx + 1) % 2 else 1

    total = 0
    for k, l in sym_pairs(n):
        wkl = Fraction(1, 1 + (1 if k == l else 0))
        for r, s in sym_pairs(n):
            wrs = Fraction(1, 1 + (1 if r == s else 0))
            for i in range(n):
                for j in range(n):
                    br = 0
                    for t in range(n):
                        br = br + (sgn(s) * aux(s, t, k, l) * ginv[t][r]
                                   + sgn(r) * aux(r, t, k, l) * ginv[t][s]) * ginv[i][j]
                        br = br + (sgn(j) * aux(j, t, l, i) * ginv[t][r]
                                   + sgn(r) * aux(r, t, l, i) * ginv[t][j]) * ginv[k][s]
                        br = br + (sgn(j) * aux(j, t, k, i) * ginv[t][r]
                                   + sgn(r) * aux(r, t, k, i) * ginv[t][j]) * ginv[l][s]
                        br = br + (sgn(j) * aux(j, t, l, i) * ginv[t][s]
                                   + sgn(s) * aux(s, t, l, i) * ginv[t][j]) * ginv[k][r]
                        br = br + (sgn(j) * aux(j, t, k, i) * ginv[t][s]
                                   + sgn(s) * aux(s, t, k, i) * ginv[t][j]) * ginv[l][r]
                        br = br - (sgn(s) * aux(s, t, l, i) * ginv[t][r]
                                   + sgn(r) * aux(r, t, l, i) * ginv[t][s]) * ginv[k][j]
                        br = br - (sgn(s) * aux(s, t, k, i) * ginv[t][r]
                                   + sgn(r) * aux(r, t, k, i) * ginv[t][s]) * ginv[l][j]
                        br = br - (sgn(k) * aux(k, t, r, j) * ginv[t][l]
                                   + sgn(l) * aux(l, t, r, j) * ginv[t][k]) * ginv[i][s]
                        br = br - (sgn(k) * aux(k, t, s, j) * ginv[t][l]
                                   + sgn(l) * aux(l, t, s, j) * ginv[t][k]) * ginv[i][r]
                    total = total + wkl * wrs * Fraction(-1, 4) * br \
                        * mj.dcomp(k, l, i) * mj.dcomp(r, s, j)
    return total


def lij_block(beta: BetaForm, g_row, n: int):
    """L^{jk}_{(hl)}: the affine second-derivative coefficients of L_beta.

    From the display (-1)^{k+l+1} beta_{kl,i}^j y^{ih} y_{hl,jk}: the stored
    coefficient of y_{(hl),(jk)} collects the symmetrizations over h<->l and
    j<->k with the usual 1/(2 - delta) weight.
    """
    gm = [[g_row[pair_index(n, a, b)] for b in range(n)] for a in range(n)]
    ginv = mat_inverse(gm)
    tab = beta.table(g_row)

    def full_coeff(a, b, c, d):
        # coefficient T^{(ab),(cd)} of y_{ab,cd} in the *full* sum over
        # k,l,i,j,h of (-1)^{k+l+1} beta_{kl,i}^j y^{ih} y_{hl,jk}
        total = 0
        # y_{hl,jk}: (h,l) realizes {a,b} in both orders, (j,k) realizes {c,d}
        fibre_reals = ((a, b),) if a == b else ((a, b), (b, a))
        deriv_reals = ((c, d),) if c == d else ((c, d), (d, c))
        for (h, l) in fibre_reals:
            for (j, kk) in deriv_reals:
                s = -1 if (kk + l) % 2 == 0 else 1    # (-1)^{k+l+1}, 1-based
                for i in range(n):
                    total = total + s * tab[kk][l][i][j] * ginv[i][h]
        return total

    out = {}
    for a, b in sym_pairs(n):
        for c, d in sym_pairs(n):
            w = Fraction(1, 2 - (1 if c == d else 0))
            out[(pair_index(n, a, b), c, d)] = full_coeff(a, b, c, d) * w
    return out


def l_beta(beta: BetaForm, mj: MetricJet):
    """L_beta at an order-2 metric jet, from the affine coordinate form."""
    n = beta.n
    beta.validate(mj.g)
    blk = lij_block(beta, mj.g, n)
    total = l_beta_zero(beta, mj)
    for a, b in sym_pairs(n):
        ai = pair_index(n, a, b)
        for c, d in sym_pairs(n):
            w = 2 - (1 if c == d else 0)
            total = total + w * blk[(ai, c, d)] * mj.d2comp(a, b, c, d)
    return total


def l_beta_trace(beta: BetaForm, mj: MetricJet):
    """Oracle: L_beta = sum_{k<l} (-1)^{k+l+1} beta_{kl,j}^i (R^g)^j_{ikl}."""
    n = beta.n
    cd = curvature(mj)
    tab = beta.table(mj.g)
    total = 0
    for k in range(n):
        for l in range(k + 1, n):
            s = -1 if (k + l + 3) % 2 else 1    # (-1)^{(k+1)+(l+1)+1}
            for i in range(n):
                for j in range(n):
                    total = total + s * tab[k][l][j][i] * cd.riemann[j][i][k][l]
    return total


def jet_function(beta: BetaForm, n: int, signature) -> JetFunction:
    """L_beta as a generic jet function (for the varcore pipeline)."""

    def fn(p: JetPoint):
        mj = MetricJet(n, tuple(signature), tuple(p.y),
                       tuple(tuple(r) for r in p.dy),
                       tuple(tuple(r) for r in p.d2y) if p.order >= 2 else ())
        blk = lij_block(beta, p.y, n)
        total = l_beta_zero(beta, mj)
        for a, b in sym_pairs(n):
            ai = pair_index(n, a, b)
            for c, d in sym_pairs(n):
                w = 2 - (1 if c == d else 0)
                total = total + w * blk[(ai, c, d)] * p.y2(ai, c, d)
        return total

    return JetFunction(2, fn, name=f"L_{beta.name}")


def affine_supplier(beta: BetaForm, n: int, signature):
    """Closed-form affine data of L_beta for the varcore pipeline."""
    from .varcore import TableAffineSupplier

    m = len(sym_pairs(n))

    def lij_dict(y):
        blk = lij_block(beta, y, n)
        return {(al, i, j): blk[(al, i, j)]
                for al in range(m) for (i, j) in sym_pairs(n)}

    def fn(x, y, dy):
        mj = MetricJet(n, tuple(signature), tuple(y),
                       tuple(tuple(r) for r in dy))
        return l_beta_zero(beta, mj), lij_dict(y)

    sup = TableAffineSupplier(n, m, fn)
    sup.lij_only = lambda x, y, dy, jv, cap: lij_dict(y)
    return sup


# ---------------------------------------------------------------------------
# Euler-Lagrange equations in covariant shape


def el_residual_beta(beta: BetaForm, s, x, signature):
    """E^{ab}(L_beta) along a metric section: the displayed covariant form

        (1/2)(-1)^{k+l+1} (d beta_{kl,i}^j/d y_ab o g) (R^g)^i_{jkl}
        - (1/(1+d_ab)) { d/dx^r [(-1)^a Phi_a^{rb} + (-1)^b Phi_b^{ra}]
          + (-1)^l [Phi_l^{rb} Gamma^a_{rl} + Phi_l^{ra} Gamma^b_{rl}] }

    with Phi_a^{rb} the covariant-divergence auxiliary of beta o g.  Phi is
    a function on J^1, evaluated once as Jets over the J^1 coordinates; its
    x-derivatives are the exact total derivatives D_r Phi along the order-3
    jet of the section.
    """
    n = beta.n
    p3 = jet_of_section(s, x, 3)
    cdat = curvature(metric_from_jet_point(p3, signature))
    gam = cdat.gamma
    npairs = len(sym_pairs(n))

    # beta o g and its formal x-derivatives D_r(beta o g) = y_w,r dbeta/dy_w,
    # as Jets over J^1 (cap 2, so the partials keep first-order data)
    seeded, jv = seed_point(p3.truncated(1), cap=2)
    smj = metric_from_jet_point(seeded, signature)
    gam1, ginv1 = christoffel(smj)
    tab = beta.table(smj.g)

    def dbog(k, l, i, j, r):   # D_r (beta o g)_{kl,i}^j
        v = tab[k][l][i][j]
        if not isinstance(v, Jet):
            return 0
        tot = 0
        for w in range(npairs):
            tot = tot + v.partial(jv.y(w)) * smj.dg[w][r]
        return tot

    phi = [[[0] * n for _ in range(n)] for _ in range(n)]  # [a][r][b]
    for a in range(n):
        for r in range(n):
            for b in range(n):
                tot = 0
                for k in range(n):
                    sk = -1 if (k + 1) % 2 else 1    # (-1)^k, 1-based
                    for i in range(n):
                        inner = -dbog(k, a, i, b, k)
                        for mm in range(n):
                            inner = inner + tab[k][a][mm][b] * gam1[mm][k][i] \
                                - tab[k][a][i][mm] * gam1[b][k][mm]
                        tot = tot + sk * inner * ginv1[r][i]
                phi[a][r][b] = tot

    def dphi(a, r, b):   # D_r Phi_a^{rb}
        v = phi[a][r][b]
        return total_derivative_j1(v, jv, p3, r) if isinstance(v, Jet) else 0

    out = {}
    for a, b in sym_pairs(n):
        first = 0
        w_ab = pair_index(n, a, b)
        for k in range(n):
            for l in range(n):
                skl = -1 if (k + l + 3) % 2 else 1   # (-1)^{k+l+1}, 1-based
                for i in range(n):
                    for j in range(n):
                        v = tab[k][l][i][j]
                        if isinstance(v, Jet):
                            first = first + skl * v.deriv(jv.y(w_ab)) \
                                * cdat.riemann[i][j][k][l]
        second = 0
        sa = -1 if (a + 1) % 2 else 1
        sb = -1 if (b + 1) % 2 else 1
        for r in range(n):
            second = second + sa * dphi(a, r, b) + sb * dphi(b, r, a)
        for l in range(n):
            sl = -1 if (l + 1) % 2 else 1
            for r in range(n):
                second = second + sl * (value_of(phi[l][r][b]) * gam[a][r][l]
                                        + value_of(phi[l][r][a]) * gam[b][r][l])
        out[(a, b)] = float(first / 2 - second / (1 + (1 if a == b else 0)))
    return out


def bilinear_form_beta(beta: BetaForm, mj: MetricJet):
    """The matrix (F_beta)_{r<=s;i, a<=b,j} of the regularity bilinear form,
    per the displayed closed formula; rows (rs, i), columns (ab, j)."""
    n = beta.n
    pairs = sym_pairs(n)
    npairs = len(pairs)
    ginv = mat_inverse(mj.matrix())
    seeds = [Jet.variable(w, mj.g[w], 1, 1.0) for w in range(npairs)]
    tab_seeded = beta.table(seeds)
    tab = [[[[float(value_of(tab_seeded[k][l][j][i]))
              for i in range(n)] for j in range(n)]
            for l in range(n)] for k in range(n)]
    giv = [[float(value_of(ginv[a][b])) for b in range(n)] for a in range(n)]

    def aux(l, t, j, k):
        sk = -1 if (k + 1) % 2 else 1
        sj = -1 if (j + 1) % 2 else 1
        return sk * tab[k][l][t][j] + sj * tab[j][l][t][k]

    def daux(l, t, j, k, w):
        sk = -1 if (k + 1) % 2 else 1
        sj = -1 if (j + 1) % 2 else 1
        v1 = tab_seeded[k][l][t][j]
        v2 = tab_seeded[j][l][t][k]
        d1 = float(v1.deriv(w)) if isinstance(v1, Jet) else 0.0
        d2 = float(v2.deriv(w)) if isinstance(v2, Jet) else 0.0
        return sk * d1 + sj * d2

    def sgn(idx):
        return -1 if (idx + 1) % 2 else 1

    mat = np.zeros((npairs * n, npairs * n))
    for rs_i, (r, s) in enumerate(pairs):
        for i in range(n):
            for ab_i, (a, b) in enumerate(pairs):
                for j in range(n):
                    tot = 0.0
                    for t in range(n):
                        tot += -(sgn(a) * aux(a, t, r, s) * giv[t][b]
                                 + sgn(b) * aux(b, t, r, s) * giv[t][a]) * giv[i][j]
                        tot += (sgn(j) * aux(j, t, r, s) * giv[t][b]
                                + sgn(b) * aux(b, t, r, s) * giv[t][j]) * giv[i][a]
                        tot += (sgn(a) * aux(a, t, r, s) * giv[t][j]
                                + sgn(j) * aux(j, t, r, s) * giv[t][a]) * giv[i][b]
                        tot += (sgn(i) * aux(i, t, a, b) * giv[t][s]
                                + sgn(s) * aux(s, t, a, b) * giv[t][i]) * giv[r][j]
                        tot += (sgn(i) * aux(i, t, a, b) * giv[t][r]
                                + sgn(r) * aux(r, t, a, b) * giv[t][i]) * giv[s][j]
                        tot -= (sgn(b) * aux(b, t, i, s) * giv[t][j]
                                + sgn(j) * aux(j, t, i, s) * giv[t][b]) * giv[r][a]
                        tot -= (sgn(b) * aux(b, t, i, r) * giv[t][j]
                                + sgn(j) * aux(j, t, i, r) * giv[t][b]) * giv[s][a]
                        tot -= (sgn(a) * aux(a, t, i, s) * giv[t][j]
                                + sgn(j) * aux(j, t, i, s) * giv[t][a]) * giv[r][b]
                        tot -= (sgn(a) * aux(a, t, i, r) * giv[t][j]
                                + sgn(j) * aux(j, t, i, r) * giv[t][a]) * giv[s][b]
                        tot -= sgn(a) * aux(a, t, i, j) \
                            * (giv[t][r] * giv[b][s] + giv[t][s] * giv[b][r])
                        tot -= sgn(b) * aux(b, t, i, j) \
                            * (giv[t][r] * giv[a][s] + giv[t][s] * giv[a][r])
                        tot -= sgn(r) * aux(r, t, i, j) \
                            * (giv[t][a] * giv[b][s] + giv[t][b] * giv[a][s])
                        tot -= sgn(s) * aux(s, t, i, j) \
                            * (giv[t][a] * giv[b][r] + giv[t][b] * giv[a][r])
                    for t in range(n):
                        w_rs = pair_index(n, r, s)
                        w_ab = pair_index(n, a, b)
                        tot += (1 + (1 if r == s else 0)) * (
                            sgn(a) * daux(a, t, i, j, w_rs) * giv[t][b]
                            + sgn(b) * daux(b, t, i, j, w_rs) * giv[t][a])
                        tot += (1 + (1 if a == b else 0)) * (
                            sgn(r) * daux(r, t, i, j, w_ab) * giv[t][s]
                            + sgn(s) * daux(s, t, i, j, w_ab) * giv[t][r])
                    w = 0.5 / ((1 + (1 if a == b else 0)) * (1 + (1 if r == s else 0)))
                    mat[rs_i * n + i][ab_i * n + j] = w * tot
    return mat


def flat_corollary_expression(beta: BetaForm, s, x, signature):
    """The contraction c_12^23 [ (nabla^g)^2 { sym_14(beta~^sharp o g) } ]
    along a metric section: the tensor whose vanishing characterizes flat
    solutions of the beta field equations.

    sym_14(beta~^sharp) has components S^{k l t i} = (-1)^l beta_{lj}^{ik}
    g^{jt} (indices in slot order), with beta_{lt}^{jk} the antisymmetrized
    auxiliary; the result is R^{ki} = (nabla^2 S)_{uv}^{k u v i}.
    """
    from .metric import _dginv

    n = beta.n
    p3 = jet_of_section(s, x, 3)
    mj = metric_from_jet_point(p3, signature)
    gam, ginv = christoffel(mj)
    npairs = len(sym_pairs(n))

    # S and its first/second x-derivatives along the section, via chain rule
    # through metric-slot seeding (order 2)
    seeds = [Jet.variable(w, mj.g[w], 2, 1.0) for w in range(npairs)]
    tab_seeded = beta.table(seeds)
    giv_seeded = mat_inverse([[seeds[pair_index(n, a, b)] for b in range(n)]
                              for a in range(n)])

    def sgn(idx):
        return -1 if (idx + 1) % 2 else 1

    s_seeded = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for l in range(n):
            for t in range(n):
                for i in range(n):
                    acc = Jet.constant(0.0, 2)
                    for j in range(n):
                        sk = -1 if (k + 1) % 2 else 1
                        si = -1 if (i + 1) % 2 else 1
                        auxv = sk * tab_seeded[k][l][j][i] \
                            + si * tab_seeded[i][l][j][k]
                        acc = acc + sgn(l) * auxv * giv_seeded[j][t]
                    s_seeded[k][l][t][i] = acc

    def schain(kk, ll, tt, ii, d1=None, d2=None):
        """S, dS/dx^d1, d2S/dx^d1 dx^d2 via the metric-slot chain rule."""
        v = s_seeded[kk][ll][tt][ii]
        if d1 is None:
            return float(value_of(v.value))
        if d2 is None:
            tot = 0.0
            for w, (aa, bb) in enumerate(sym_pairs(n)):
                tot += float(value_of(v.deriv(w))) * mj.dcomp(aa, bb, d1)
            return tot
        tot = 0.0
        for w, (aa, bb) in enumerate(sym_pairs(n)):
            tot += float(value_of(v.deriv(w))) * mj.d2comp(aa, bb, d1, d2)
            for w2, (cc, dd) in enumerate(sym_pairs(n)):
                tot += float(value_of(v.deriv(w, w2))) \
                    * mj.dcomp(aa, bb, d1) * mj.dcomp(cc, dd, d2)
        return tot

    dginv = _dginv(mj, [list(r) for r in ginv])
    dgam = [[[[0.0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for c in range(n):
        for h in range(n):
            for e in range(n):
                for a in range(n):
                    acc = 0.0
                    for l in range(n):
                        acc += dginv[c][l][a] * (mj.dcomp(l, h, e) + mj.dcomp(l, e, h)
                                                 - mj.dcomp(h, e, l))
                        acc += ginv[c][l] * (mj.d2comp(l, h, e, a)
                                             + mj.d2comp(l, e, h, a)
                                             - mj.d2comp(h, e, l, a))
                    dgam[c][h][e][a] = acc / 2

    def sval(k, l, t, i):
        return schain(k, l, t, i)

    def nabla1(v, k, l, t, i):
        acc = schain(k, l, t, i, d1=v)
        for m_ in range(n):
            acc += gam[k][v][m_] * sval(m_, l, t, i) \
                + gam[l][v][m_] * sval(k, m_, t, i) \
                + gam[t][v][m_] * sval(k, l, m_, i) \
                + gam[i][v][m_] * sval(k, l, t, m_)
        return acc

    def nabla2(u, v, k, l, t, i):
        # d_u (nabla_v S) with Gamma corrections on the four slots and -Gamma^e_{uv} nabla_e
        acc = schain(k, l, t, i, d1=v, d2=u)
        for m_ in range(n):
            acc += dgam[k][v][m_][u] * sval(m_, l, t, i) \
                + dgam[l][v][m_][u] * sval(k, m_, t, i) \
                + dgam[t][v][m_][u] * sval(k, l, m_, i) \
                + dgam[i][v][m_][u] * sval(k, l, t, m_)
            acc += gam[k][v][m_] * schain(m_, l, t, i, d1=u) \
                + gam[l][v][m_] * schain(k, m_, t, i, d1=u) \
                + gam[t][v][m_] * schain(k, l, m_, i, d1=u) \
                + gam[i][v][m_] * schain(k, l, t, m_, d1=u)
        for m_ in range(n):
            acc += gam[k][u][m_] * nabla1(v, m_, l, t, i) \
                + gam[l][u][m_] * nabla1(v, k, m_, t, i) \
                + gam[t][u][m_] * nabla1(v, k, l, m_, i) \
                + gam[i][u][m_] * nabla1(v, k, l, t, m_)
            acc -= gam[m_][u][v] * nabla1(m_, k, l, t, i)
        return acc

    out = {}
    for a, b in sym_pairs(n):
        tot = 0.0
        for u in range(n):
            for v in range(n):
                tot += nabla2(u, v, a, u, v, b)
        out[(a, b)] = tot
    return out
