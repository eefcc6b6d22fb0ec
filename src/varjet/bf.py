"""Generalized BF Lagrangians: trace(beta ^ curvature) on the metric bundle.

A BetaForm packages the coefficient functions beta_{kl,j}^i(g) of a
skew-valued horizontal (n-2)-form (k < l, extended antisymmetrically).  The
associated second-order Lagrangian is

    L_beta = (-1)^{k+l+1} beta_{kl,i}^j y^{ih} y_{hl,jk} + L_beta^0,

whose value along metric jets equals the curvature trace
sum_{k<l} (-1)^{k+l+1} beta_{kl,j}^i (R^g)^j_{ikl} when beta satisfies the
skew constraint.  L_beta is affine in y'', so for such a beta
L_beta^0(y, y') = L_beta(y, y', y'' = 0) is the same trace with every second
derivative set to 0, which is how `l_beta_zero` computes it.  The
Einstein-Hilbert Lagrangian is the special case beta = beta_EH.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial

from .fwd import Jet, ring_unit, value_of
from .jets import (JetFunction, contract, delta, jet_of_section, pair_index,
                   point_ring, seed_point, sign1, sym_pairs,
                   total_derivative2_stencil, total_derivative_stencil)
from .metric import (MetricJet, christoffel, covariant_derivatives, curvature,
                     metric_from_jet_point)
from .varcore import TableAffineSupplier


class BetaConstraintError(ValueError):
    """beta fails the skew-adjointness (algebra-valuedness) constraint."""


class BetaForm:
    """Coefficients beta_{kl,j}^i(g) for k < l, read at the value of one
    metric jet at a time.

    `fn(mj)` must be ring-generic and return the callable
    `(k, l, j, i) -> beta_{kl,j}^i` (k < l) at the jet's metric value; what
    the coefficients share (g^{-1}, rho) is read from the jet, which forms
    it once.  Values for k >= l follow by antisymmetry.  The skew constraint
    beta_{ac,i}^d y^{ib} + beta_{ac,i}^b y^{id} = 0 is validated pointwise.
    """

    def __init__(self, n: int, fn, name: str = "beta"):
        self.n = n
        self.fn = fn
        self.name = name

    def table(self, mj: MetricJet):
        """beta[k][l][j][i] with the antisymmetric extension filled in."""
        n = self.n
        coeff = self.fn(mj)
        out = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for k in range(n):
            for l in range(k + 1, n):
                for j in range(n):
                    for i in range(n):
                        v = coeff(k, l, j, i)
                        out[k][l][j][i] = v
                        out[l][k][j][i] = -v
        return out

    def validate(self, mj: MetricJet) -> float:
        """Max residual of the skew constraint on the value parts of the
        jet's g^-1 and of the table; raises BetaConstraintError above 1e-10."""
        n = self.n
        ginv = [[value_of(v) for v in row] for row in mj.ginv]
        tab = self.table(mj)
        worst = 0.0
        for a in range(n):
            for c in range(n):
                block = [[value_of(v) for v in row] for row in tab[a][c]]
                for d in range(n):
                    for b in range(n):
                        s = 0
                        for i in range(n):
                            s = s + block[i][d] * ginv[i][b] + block[i][b] * ginv[i][d]
                        worst = max(worst, abs(float(s)))
        if worst > 1e-10:
            raise BetaConstraintError(f"skew constraint violated (residual {worst:.3e})")
        return worst


def beta_eh(n: int, signature) -> BetaForm:
    """(beta_EH)_{kl,i}^j = (-1)^{k+l+1} rho (delta^{ik} y^{jl}
    - delta^{il} y^{jk}); reproduces the E-H Lagrangian."""

    def fn(mj):
        ginv, rho = mj.ginv, mj.rho

        # (k, l, j, i): j the covariant slot and i the contravariant one (the
        # display has sub i / sup j), so this is beta_{kl, cov}^{contra}
        def coeff(k, l, j, i):
            return sign1(k + l) * rho * (delta(j, k) * ginv[i][l] - delta(j, l) * ginv[i][k])
        return coeff

    return BetaForm(n, fn, name="beta_EH")


def beta_from_antisym(n: int, a_entries):
    """beta = A g: beta_{kl,i}^d = sum_b A_{kl}^{db}(g) g_{bi} with A
    antisymmetric in (d, b); satisfies the skew constraint identically.

    `a_entries[(k,l)]` is an n x n antisymmetric matrix of callables of the
    metric row (or plain constants).
    """

    def fn(mj):
        g_row = mj.g

        def coeff(k, l, j, i):
            arow = [e(g_row) if callable(e) else e for e in a_entries[(k, l)][i]]
            return sum(arow[b] * g_row[pair_index(n, b, j)] for b in range(n))
        return coeff

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
    return sign1(k) * tab[k][l][t][j] + sign1(j) * tab[j][l][t][k]


def l_beta_zero(beta: BetaForm, mj: MetricJet):
    """L_beta^0, quadratic in first metric derivatives: the curvature trace
    `l_beta_trace` at this metric jet with y'' = 0, as L_beta is affine in
    y''.  The identity needs the skew constraint, so beta is validated at
    this jet's metric value; the y'' = 0 jet shares its g^-1.  The printed
    sum is the oracle `l_beta_zero_reference`."""
    beta.validate(mj)
    return l_beta_trace(beta, mj.with_slots(d2g=((0,) * len(mj.g),) * len(mj.g)))


def l_beta_zero_reference(beta: BetaForm, mj: MetricJet):
    """L_beta^0 exactly as displayed, a double sum of nine brackets (test
    oracle, any beta)."""
    n = beta.n
    ginv = mj.ginv
    aux = partial(_beta_aux, beta.table(mj))
    total = 0
    for k, l in sym_pairs(n):
        wkl = Fraction(1, 1 + delta(k, l))
        for r, s in sym_pairs(n):
            wrs = Fraction(1, 1 + delta(r, s))
            for i in range(n):
                for j in range(n):
                    br = 0
                    for t in range(n):
                        br = br + (sign1(s) * aux(s, t, k, l) * ginv[t][r]
                                   + sign1(r) * aux(r, t, k, l) * ginv[t][s]) * ginv[i][j]
                        br = br + (sign1(j) * aux(j, t, l, i) * ginv[t][r]
                                   + sign1(r) * aux(r, t, l, i) * ginv[t][j]) * ginv[k][s]
                        br = br + (sign1(j) * aux(j, t, k, i) * ginv[t][r]
                                   + sign1(r) * aux(r, t, k, i) * ginv[t][j]) * ginv[l][s]
                        br = br + (sign1(j) * aux(j, t, l, i) * ginv[t][s]
                                   + sign1(s) * aux(s, t, l, i) * ginv[t][j]) * ginv[k][r]
                        br = br + (sign1(j) * aux(j, t, k, i) * ginv[t][s]
                                   + sign1(s) * aux(s, t, k, i) * ginv[t][j]) * ginv[l][r]
                        br = br - (sign1(s) * aux(s, t, l, i) * ginv[t][r]
                                   + sign1(r) * aux(r, t, l, i) * ginv[t][s]) * ginv[k][j]
                        br = br - (sign1(s) * aux(s, t, k, i) * ginv[t][r]
                                   + sign1(r) * aux(r, t, k, i) * ginv[t][s]) * ginv[l][j]
                        br = br - (sign1(k) * aux(k, t, r, j) * ginv[t][l]
                                   + sign1(l) * aux(l, t, r, j) * ginv[t][k]) * ginv[i][s]
                        br = br - (sign1(k) * aux(k, t, s, j) * ginv[t][l]
                                   + sign1(l) * aux(l, t, s, j) * ginv[t][k]) * ginv[i][r]
                    total = total + wkl * wrs * Fraction(-1, 4) * br \
                        * mj.dcomp(k, l, i) * mj.dcomp(r, s, j)
    return total


def lij_block(beta: BetaForm, mj: MetricJet):
    """L^{jk}_{(hl)}: the affine second-derivative coefficients of L_beta.

    From the display (-1)^{k+l+1} beta_{kl,i}^j y^{ih} y_{hl,jk}: the stored
    coefficient of y_{(hl),(jk)} collects the symmetrizations over h<->l and
    j<->k with the usual 1/(2 - delta) weight.  Only the jet's metric value
    and g^-1 are read.
    """
    n = beta.n
    ginv = mj.ginv
    tab = beta.table(mj)

    def full_coeff(a, b, c, d):
        # coefficient T^{(ab),(cd)} of y_{ab,cd} in the *full* sum over
        # k,l,i,j,h of (-1)^{k+l+1} beta_{kl,i}^j y^{ih} y_{hl,jk}
        # y_{hl,jk}: (h,l) realizes {a,b} in both orders, (j,k) realizes
        # {c,d}; sign1(kk + l) = (-1)^{k+l+1}, 1-based
        fibre_reals = ((a, b),) if a == b else ((a, b), (b, a))
        deriv_reals = ((c, d),) if c == d else ((c, d), (d, c))
        return sum(sign1(kk + l) * tab[kk][l][i][j] * ginv[i][h]
                   for (h, l) in fibre_reals for (j, kk) in deriv_reals
                   for i in range(n))

    half = ring_unit(ginv[0][0]) / 2
    out = {}
    for a, b in sym_pairs(n):
        for c, d in sym_pairs(n):
            coef = full_coeff(a, b, c, d)
            out[(pair_index(n, a, b), c, d)] = coef if c == d else coef * half
    return out


def l_beta(beta: BetaForm, mj: MetricJet):
    """L_beta at an order-2 metric jet, from the affine coordinate form;
    `l_beta_zero` validates beta."""
    n = beta.n
    total = l_beta_zero(beta, mj)
    return sum(((2 - delta(c, d)) * coef * mj.d2g[ai][pair_index(n, c, d)]
                for (ai, c, d), coef in lij_block(beta, mj).items()), total)


def l_beta_trace(beta: BetaForm, mj: MetricJet):
    """Oracle: L_beta = sum_{k<l} (-1)^{k+l+1} beta_{kl,j}^i (R^g)^j_{ikl}."""
    n = beta.n
    cd = curvature(mj)
    tab = beta.table(mj)
    # sign1(k + l) = (-1)^{(k+1)+(l+1)+1}
    return sum(sign1(k + l) * tab[k][l][j][i] * cd.riemann[j][i][k][l]
               for k in range(n) for l in range(k + 1, n)
               for i in range(n) for j in range(n))


def jet_function(beta: BetaForm, n: int, signature) -> JetFunction:
    """L_beta as a generic jet function (for the varcore pipeline)."""
    return JetFunction(2, lambda p: l_beta(beta, metric_from_jet_point(p, signature)),
                       name=f"L_{beta.name}")


def affine_supplier(beta: BetaForm, n: int, signature) -> TableAffineSupplier:
    """Closed-form affine data of L_beta for the varcore pipeline."""

    def tables(x, y, dy):
        mj = MetricJet(n, tuple(signature), tuple(y), tuple(tuple(r) for r in dy))
        return l_beta_zero(beta, mj), lij_block(beta, mj)

    return TableAffineSupplier(n, len(sym_pairs(n)), tables)


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
    jet of the section.  Values are in the ring of x (see
    `jets.point_ring`).
    """
    n = beta.n
    ev = point_ring(x)
    p3 = jet_of_section(s, x, 3)
    cdat = curvature(metric_from_jet_point(p3, signature))
    gam = cdat.gamma
    npairs = len(sym_pairs(n))

    # beta o g and its formal x-derivatives D_r(beta o g) = y_w,r dbeta/dy_w,
    # as Jets over J^1 (cap 2, so the partials keep first-order data); Phi
    # is read to first order, so Gamma is truncated there
    seeded, jv = seed_point(p3.truncated(1), cap=2)
    smj = metric_from_jet_point(seeded, signature)
    gam1 = [[[v.truncated(1) for v in row] for row in plane] for plane in christoffel(smj)]
    ginv1 = smj.ginv
    tab = beta.table(smj)

    def dbog(k, l, i, j, r):   # D_r (beta o g)_{kl,i}^j
        v = tab[k][l][i][j]
        if not isinstance(v, Jet):
            return 0
        return sum(v.partial(jv.y(w)) * smj.dg[w][r] for w in range(npairs))

    # Phi_a^{rb} = sum_i psi[a][b][i] g^{ri}: the sum over k does not
    # depend on r, so it is formed once per (a, b, i)
    psi = [[[0] * n for _ in range(n)] for _ in range(n)]  # [a][b][i]
    for a in range(n):
        for b in range(n):
            for i in range(n):
                tot = 0
                for k in range(n):
                    inner = -dbog(k, a, i, b, k)
                    for mm in range(n):
                        inner = inner + tab[k][a][mm][b] * gam1[mm][k][i] \
                            - tab[k][a][i][mm] * gam1[b][k][mm]
                    tot = tot + sign1(k) * inner    # (-1)^k, 1-based
                psi[a][b][i] = tot
    phi = [[[sum(psi[a][b][i] * ginv1[r][i] for i in range(n)) for b in range(n)]
            for r in range(n)] for a in range(n)]  # [a][r][b]

    st = [total_derivative_stencil(jv, p3, r) for r in range(n)]

    def dphi(a, r, b):   # D_r Phi_a^{rb}
        v = phi[a][r][b]
        return contract(v, st[r]) if isinstance(v, Jet) else 0

    out = {}
    for a, b in sym_pairs(n):
        first = 0
        w_ab = pair_index(n, a, b)
        for k in range(n):
            for l in range(n):
                skl = sign1(k + l)   # (-1)^{k+l+1}, 1-based
                for i in range(n):
                    for j in range(n):
                        v = tab[k][l][i][j]
                        if isinstance(v, Jet):
                            first = first + skl * v.deriv(jv.y(w_ab)) \
                                * cdat.riemann[i][j][k][l]
        second = 0
        for r in range(n):
            second = second + sign1(a) * dphi(a, r, b) + sign1(b) * dphi(b, r, a)
        for l in range(n):
            sl = sign1(l)
            for r in range(n):
                second = second + sl * (value_of(phi[l][r][b]) * gam[a][r][l]
                                        + value_of(phi[l][r][a]) * gam[b][r][l])
        out[(a, b)] = ev(first / 2 - second / (1 + delta(a, b)))
    return out


def bilinear_form_beta(beta: BetaForm, mj: MetricJet):
    """The matrix (F_beta)_{r<=s;i, a<=b,j} of the regularity bilinear form,
    per the displayed closed formula; rows (rs, i), columns (ab, j), as
    nested lists in the ring of g (exact at a metric with rational entries
    and rational rho).  Each term reads its sum over t from the symmetric
    pair sym(x, y, p, q) = c[x][y][p][q] + c[y][x][p][q], c = (-1)^x
    beta_{xt}^{pq} g^{ty}, formed once for beta and once per g-partial."""
    n = beta.n
    pairs = sym_pairs(n)
    one = ring_unit(mj.g[0])
    seeded = MetricJet(n, mj.signature,
                       tuple(Jet.variable(w, mj.g[w], 1, one) for w in range(len(pairs))))
    tab_seeded = beta.table(seeded)
    g = [[value_of(v) for v in row] for row in seeded.ginv]
    idx = range(n)

    def contracted(f):    # sym for the table f(beta entry)
        tab = [[[[f(v) for v in row] for row in plane] for plane in block]
               for block in tab_seeded]
        c = [[[[sign1(x) * sum(_beta_aux(tab, x, t, p, q) * g[t][y] for t in idx)
                for q in idx] for p in idx] for y in idx] for x in idx]
        return lambda x, y, p, q: c[x][y][p][q] + c[y][x][p][q]

    sym = contracted(value_of)
    # the same with d beta / d g_w, one per stored slot w
    dsym = [contracted(lambda v: v.deriv(w) if isinstance(v, Jet) else 0)
            for w in range(len(pairs))]
    mat = []
    for r, s in pairs:
        for i in idx:
            mat.append([one / (2 * (1 + delta(a, b)) * (1 + delta(r, s))) * (
                -sym(a, b, r, s) * g[i][j] + sym(j, b, r, s) * g[i][a]
                + sym(a, j, r, s) * g[i][b] + sym(i, s, a, b) * g[r][j]
                + sym(i, r, a, b) * g[s][j] - sym(b, j, i, s) * g[r][a]
                - sym(b, j, i, r) * g[s][a] - sym(a, j, i, s) * g[r][b]
                - sym(a, j, i, r) * g[s][b] - sym(a, r, i, j) * g[b][s]
                - sym(a, s, i, j) * g[b][r] - sym(b, r, i, j) * g[a][s]
                - sym(b, s, i, j) * g[a][r]
                + (1 + delta(r, s)) * dsym[pair_index(n, r, s)](a, b, i, j)
                + (1 + delta(a, b)) * dsym[pair_index(n, a, b)](r, s, i, j))
                for a, b in pairs for j in idx])
    return mat


def flat_corollary_expression(beta: BetaForm, s, x, signature):
    """The contraction c_12^23 [ (nabla^g)^2 { sym_14(beta~^sharp o g) } ]
    along a metric section: the tensor whose vanishing characterizes flat
    solutions of the beta field equations.

    sym_14(beta~^sharp) has components S^{k l t i} = (-1)^l beta_{lj}^{ik}
    g^{jt} (indices in slot order), with beta_{lt}^{jk} the antisymmetrized
    auxiliary; the result is R^{ki} = (nabla^2 S)_{uv}^{k u v i}, in the
    ring of x.  `metric.covariant_derivatives` forms only the components
    of nabla nabla S that the contraction reads.
    """
    n = beta.n
    p3 = jet_of_section(s, x, 3)
    cd = curvature(metric_from_jet_point(p3, signature))
    # S as functions on J^0 (of the metric value); its x-derivatives along
    # the section are the total derivatives D_u S and D_uD_v S
    seeded, jv = seed_point(p3.truncated(0), cap=2)
    smj = metric_from_jet_point(seeded, signature)
    tab, giv = beta.table(smj), smj.ginv
    s_fn = {(k, l, t, i): sum(sign1(l) * _beta_aux(tab, l, j, i, k) * giv[j][t]
                              for j in range(n))
            for k, l, t, i in itertools.product(range(n), repeat=4)}
    st1 = [total_derivative_stencil(jv, p3, u) for u in range(n)]
    st2 = [[total_derivative2_stencil(jv, p3, v, u) for u in range(n)]
           for v in range(n)]
    _, nab2 = covariant_derivatives(cd, lambda idx: s_fn[idx].value,
                                    lambda u, idx: contract(s_fn[idx], st1[u]),
                                    lambda u, v, idx: contract(s_fn[idx], st2[v][u]), 4)
    return {(a, b): sum(nab2(u, v, (a, u, v, b)) for u in range(n) for v in range(n))
            for a, b in sym_pairs(n)}
