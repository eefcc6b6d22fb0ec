"""Linearized field equations along extremals (Jacobi equations).

The generic residual linearizes the Hamilton-Cartan system of a projectable
second-order Lagrangian: for a vertical field V along a section s,

    d2V/dx^i dx^j (dp_a^i/dy'^c_j) - V^c {...} - dV^c/dx^h {...} = 0,

with every brace a combination of first and second partials of the momenta
and Hamiltonian along j^1 s.  The Einstein-Hilbert specialization is the
explicit second-order operator in the metric, Christoffel symbols and
curvature; at a constant flat metric it degenerates to a constant-coefficient
operator whose matrix (quadratic polynomials in the formal symbols D^1..D^n)
is derived here exactly over the rationals, and whose polynomial solution
spaces are exact nullspace computations.

Both operators are linear in V, with coefficients that depend only on the
Lagrangian and j^2 s(x).  A :class:`JacobiCoefficients` record holds them as
blocks C2[a][c][i][j], C1[a][c][h] and C0[a][c] multiplying d_i d_j V^c,
d_h V^c and V^c in row a (for Einstein-Hilbert, a and c run over the stored
pairs, with the ordered sum over the slots of V^{ab} folded into the stored
pair), so a residual is one contraction against the 2-jet of V.  Each
residual function keeps the record of the last background it saw, keyed by
the supplier object (or signature), j^2 s(x) and the type of every jet
entry; suppliers are keyed by identity and treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement

from .jets import (JetPoint, MultiIndex, PolySection, jet_of_section,
                   pair_index, sym_pairs)
from .linalg import nullspace, rank
from .metric import curvature, metric_from_jet_point
from .poly import Poly
from .varcore import hc_first_family, pipeline


@dataclass
class JacobiCoefficients:
    """The coefficient blocks of a Jacobi operator at one background point,
    with the first-family Hamilton-Cartan gap of the background (None for
    the Einstein-Hilbert operator, which does not compute it)."""

    n: int
    c2: list
    c1: list
    c0: list
    hc_gap: float | None = None

    def residual(self, v_polys: list, x) -> list:
        """The operator applied to the field with components `v_polys`
        (polynomials in the base variables) at x."""
        n = self.n
        v0 = [p.eval(x) for p in v_polys]
        d1 = [[p.diff(i) for i in range(n)] for p in v_polys]
        v1 = [[d.eval(x) for d in row] for row in d1]
        v2 = [[[row[min(i, j)].diff(max(i, j)).eval(x) for j in range(n)]
               for i in range(n)] for row in d1]
        out = []
        for c2, c1, c0 in zip(self.c2, self.c1, self.c0):
            acc = 0
            for c in range(len(c0)):
                for i in range(n):
                    for j, k in enumerate(c2[c][i]):
                        if k:
                            acc = acc + v2[c][i][j] * k
            for c, k in enumerate(c0):
                if k:
                    acc = acc + v0[c] * k
            for c in range(len(c0)):
                for h, k in enumerate(c1[c]):
                    if k:
                        acc = acc + v1[c][h] * k
            out.append(acc)
        return out


_GENERIC_MEMO: dict = {}
_EH_MEMO: dict = {}


def _memoized(memo: dict, owner, p2: JetPoint, build) -> JacobiCoefficients:
    """One-entry memo.  Fraction(1, 2) == 0.5 and both hash alike, so the
    key holds the entry types: a float call must never get exact
    coefficients, or the reverse."""
    types = tuple(map(type, chain(p2.x, p2.y, chain.from_iterable(p2.dy),
                                  chain.from_iterable(p2.d2y))))
    key = (owner, p2, types)
    if key not in memo:
        memo.clear()
        memo[key] = build(p2)
    return memo[key]


# ---------------------------------------------------------------------------
# generic linearization


def _generic_coefficients(supplier, p2: JetPoint) -> JacobiCoefficients:
    n, m = p2.n, p2.m
    data = pipeline(supplier, p2.truncated(1), cap=2)
    jv = data.jv

    def dp(al, i, *labs):
        return data.p[(al, i)].deriv(*(jv.id_of[lab] for lab in labs))

    def dh(*labs):
        return data.h.deriv(*(jv.id_of[lab] for lab in labs))

    def bracket(al, c, lab, br):
        # minus the coefficient of the V^c (lab = y^c) or dV^c/dx^h
        # (lab = y'^c_h) term, given its leading part br
        for be in range(m):
            for i in range(n):
                br = br + p2.y1(be, i) * (dp(be, i, ("y", al), lab)
                                          - dp(al, i, ("y", be), lab))
                for j in range(n):
                    br = br - p2.y2(be, i, j) * dp(al, i, ("y1", be, j), lab)
        for i in range(n):
            br = br - dp(al, i, ("x", i), lab)
        return -br

    c2 = [[[[dp(al, i, ("y1", c, j)) for j in range(n)] for i in range(n)]
           for c in range(m)] for al in range(m)]
    c0 = [[bracket(al, c, ("y", c), dh(("y", al), ("y", c))) for c in range(m)]
          for al in range(m)]
    c1 = [[[bracket(al, c, ("y1", c, h), dp(c, h, ("y", al)) - dp(al, h, ("y", c))
                    + dh(("y", al), ("y1", c, h))) for h in range(n)]
           for c in range(m)] for al in range(m)]
    gap = max((abs(float(g)) for g in hc_first_family(data, p2)), default=0.0)
    return JacobiCoefficients(n, c2, c1, c0, gap)


def jacobi_coefficients(supplier, s: PolySection, x) -> JacobiCoefficients:
    """Coefficient blocks of the linearized Hamilton-Cartan equation along s
    at x, from one cap-2 pipeline at j^1 s(x), with the extremality gap of
    s at x."""
    return _generic_coefficients(supplier, jet_of_section(s, x, 2))


def jacobi_residual(supplier, s: PolySection, v_polys: list, x):
    """Residual of the linearized Hamilton-Cartan equation at x.

    `v_polys` are the components V^c of the vertical field (polynomials in
    the base variables, one per fibre coordinate).  Returns (residuals,
    hc_gap): hc_gap is the max first-family Hamilton-Cartan residual of s at
    x, which is 0 when s is extremal there.
    """
    coef = _memoized(_GENERIC_MEMO, supplier, jet_of_section(s, x, 2),
                     lambda p2: _generic_coefficients(supplier, p2))
    return coef.residual(v_polys, x), coef.hc_gap


# ---------------------------------------------------------------------------
# Einstein-Hilbert specialization


def _eh_coefficients(p2: JetPoint, signature) -> JacobiCoefficients:
    n, npairs = p2.n, p2.m
    mj = metric_from_jet_point(p2, signature)
    cdat = curvature(mj)
    gam = cdat.gamma
    g = cdat.ginv
    riem = cdat.riemann

    def d(i, j):
        return 1 if i == j else 0

    # helpers for the first-order bracket: T[c] = g^{sc} Gamma^l_{ls}
    # - g^{ls} (d_l g_{sb}) g^{cb}
    tr_gam = [sum(gam[la][la][sg] for la in range(n)) for sg in range(n)]
    t_vec = []
    for c in range(n):
        t1 = sum(g[sg][c] * tr_gam[sg] for sg in range(n))
        t2 = 0
        for la in range(n):
            for sg in range(n):
                for be in range(n):
                    t2 = t2 + g[la][sg] * mj.dcomp(sg, be, la) * g[c][be]
        t_vec.append(t1 - t2)

    half = Fraction(1, 2)
    c2 = [[[[0] * n for _ in range(n)] for _ in range(npairs)] for _ in range(npairs)]
    c1 = [[[0] * n for _ in range(npairs)] for _ in range(npairs)]
    c0 = [[0] * npairs for _ in range(npairs)]
    for row, (mu, nu) in enumerate(sym_pairs(n)):
        for a in range(n):
            # the zero-order bracket is sum_la g^{la b} inner[la]
            inner = []
            for la in range(n):
                v = riem[a][mu][nu][la]
                for r in range(n):
                    for t in range(n):
                        for sg in range(n):
                            v = v + g[a][r] * mj.comp(t, sg) \
                                * (gam[t][r][nu] * gam[sg][mu][la]
                                   - gam[t][r][la] * gam[sg][mu][nu])
                for sg in range(n):
                    v = v + gam[a][nu][sg] * gam[sg][mu][la] \
                        - gam[a][la][sg] * gam[sg][mu][nu] \
                        - gam[sg][sg][la] * gam[a][mu][nu] \
                        + gam[a][mu][sg] * gam[sg][nu][la]
                inner.append(v)
            for b in range(n):
                col = pair_index(n, a, b)
                cc2, cc1 = c2[row][col], c1[row][col]
                # second-order part
                for i in range(n):
                    for j in range(n):
                        co = ((d(a, nu) * d(j, mu) + d(a, mu) * d(nu, j)) * g[i][b]
                              - g[i][j] * d(a, nu) * d(b, mu)
                              - g[a][b] * d(i, nu) * d(j, mu))
                        if co != 0:
                            cc2[i][j] = cc2[i][j] + half * co
                # first-order part
                for i in range(n):
                    br = half * g[a][b] * gam[i][mu][nu] - g[i][b] * gam[a][mu][nu]
                    co = d(a, nu) * d(i, mu) + d(a, mu) * d(i, nu)
                    if co:
                        br = br + half * co * t_vec[b]
                    if d(a, mu) * d(b, nu):
                        br = br - half * t_vec[i]
                    for la in range(n):
                        br = br + half * d(i, nu) * g[la][a] * gam[b][mu][la]
                        br = br + half * d(i, mu) * g[la][a] * gam[b][la][nu]
                        br = br + half * d(b, nu) * (g[la][i] * gam[a][mu][la]
                                                     - g[la][a] * gam[i][mu][la])
                        br = br + half * d(b, mu) * (g[la][i] * gam[a][nu][la]
                                                     - g[la][a] * gam[i][nu][la])
                    cc1[i] = cc1[i] + br
                # zero-order part
                br0 = 0
                for la in range(n):
                    br0 = br0 + g[la][b] * inner[la]
                c0[row][col] = c0[row][col] + br0
    return JacobiCoefficients(n, c2, c1, c0)


def eh_jacobi_coefficients(s: PolySection, x, signature) -> JacobiCoefficients:
    """Coefficient blocks of the displayed second-order linear operator on
    vertical metric fields along a metric section at x (ring-generic: exact
    over Fractions)."""
    return _eh_coefficients(jet_of_section(s, x, 2), signature)


def eh_jacobi_residual(s: PolySection, v_polys: list, x, signature):
    """The displayed second-order linear operator on vertical metric fields,
    evaluated along a metric section at x (ring-generic: exact over
    Fractions).  v_polys are the stored components V^{ab}, a <= b."""
    coef = _memoized(_EH_MEMO, tuple(signature), jet_of_section(s, x, 2),
                     lambda p2: _eh_coefficients(p2, signature))
    return coef.residual(v_polys, x)


# ---------------------------------------------------------------------------
# the flat constant-coefficient operator


@dataclass
class DiffOpMatrix:
    """Matrix of quadratic polynomials in the formal symbols D^1..D^n.

    entries[A][B] maps a sorted index pair (a, b) to the rational
    coefficient of D^a D^b in P^A_B."""

    n: int
    npairs: int
    entries: list

    def apply_poly(self, v_polys: list) -> list:
        out = []
        for arow in range(self.npairs):
            acc = Poly.constant(self.n, 0)
            for brow in range(self.npairs):
                for (a, b), c in self.entries[arow][brow].items():
                    acc = acc + c * v_polys[brow].diff(a).diff(b)
            out.append(acc)
        return out

    def mode_matrix(self, k) -> list:
        """P(D -> i k): D^a D^b maps to -k_a k_b; real rational output."""
        out = []
        for arow in range(self.npairs):
            row = []
            for brow in range(self.npairs):
                acc = Fraction(0)
                for (a, b), c in self.entries[arow][brow].items():
                    acc -= c * k[a] * k[b]
                row.append(acc)
            out.append(row)
        return out


def flat_operator_matrix(eps) -> DiffOpMatrix:
    """Derive the constant-coefficient operator at the metric diag(eps)
    exactly: the coefficient of D^a D^b in P^A_B is the symmetrized
    second-order block C2[A][B] of the E-H Jacobi operator at x = 0 (the
    first- and zero-order blocks vanish at a constant metric)."""
    n = len(eps)
    npairs = len(sym_pairs(n))
    npos = sum(1 for e in eps if e > 0)
    sig = (npos, n - npos)
    sec = PolySection(n, [Poly.constant(n, Fraction(eps[a]) if a == b else Fraction(0))
                          for a, b in sym_pairs(n)])
    c2 = eh_jacobi_coefficients(sec, (Fraction(0),) * n, sig).c2
    half = Fraction(1, 2)
    entries = [[{} for _ in range(npairs)] for _ in range(npairs)]
    for arow in range(npairs):
        for brow in range(npairs):
            block = c2[arow][brow]
            for (a, b) in combinations_with_replacement(range(n), 2):
                c = block[a][b] + block[b][a]
                if a == b:
                    c = c * half
                if c != 0:
                    entries[arow][brow][(a, b)] = Fraction(c)
    return DiffOpMatrix(n, npairs, entries)


# ---------------------------------------------------------------------------
# polynomial solution spaces


def _homogeneous_exponents(n: int, r: int):
    out = []

    def rec(prefix, rest, left):
        if rest == 1:
            out.append(tuple(prefix + [left]))
            return
        for k in range(left + 1):
            rec(prefix + [k], rest - 1, left - k)

    rec([], n, r)
    return out


@dataclass
class SolutionSpace:
    degree: int
    dimension: int
    monomials: list        # exponent tuples
    basis: list            # vectors of Fractions over (field, monomial) cols
    constraint_rank: int

    def basis_fields(self, n: int) -> list:
        fields = []
        for vec in self.basis:
            comp = []
            for b_i in range(len(vec) // len(self.monomials)):
                terms = {}
                for m_i, e in enumerate(self.monomials):
                    c = vec[b_i * len(self.monomials) + m_i]
                    if c != 0:
                        terms[e] = c
                comp.append(Poly(n, terms))
            fields.append(comp)
        return fields


def polynomial_solution_space(op: DiffOpMatrix, degree: int) -> SolutionSpace:
    """Exact nullspace of the operator on homogeneous degree-r fields."""
    n = op.n
    mons = _homogeneous_exponents(n, degree)
    nm = len(mons)
    cols = op.npairs * nm
    out_mons = _homogeneous_exponents(n, degree - 2) if degree >= 2 else []
    rows = []
    for arow in range(op.npairs):
        for K in out_mons:
            row = [Fraction(0)] * cols
            for brow in range(op.npairs):
                for (a, b), c in op.entries[arow][brow].items():
                    # coefficient of x^K in c * d^2(x^J)/dx^a dx^b
                    J = list(K)
                    J[a] += 1
                    J[b] += 1
                    J = tuple(J)
                    factor = J[a] * (J[b] - (1 if a == b else 0))
                    row[brow * nm + mons.index(J)] += c * factor
            if any(v != 0 for v in row):
                rows.append(row)
    basis = nullspace(rows, ncols=cols)
    return SolutionSpace(degree, len(basis), mons, basis,
                         rank(rows) if rows else 0)


def polynomial_solves(op: DiffOpMatrix, v_polys: list) -> bool:
    return all(p.is_zero() for p in op.apply_poly(v_polys))


def derivative_shift_check(op: DiffOpMatrix, v_polys: list,
                           index: MultiIndex, quad_constraints=None) -> bool:
    """Shift a homogeneous degree-r solution down by the multi-index of
    order r-2 and check the resulting quadratic field: it must solve the
    operator, and satisfy any supplied quadratic constraint functionals
    (the stated factorial weights are produced by the exact polynomial
    differentiation)."""
    shifted = [p.diff_multi(index.entries) for p in v_polys]
    if not polynomial_solves(op, shifted):
        return False
    if quad_constraints is not None:
        if any(abs(float(cf(shifted))) > 0 for cf in quad_constraints):
            return False
    return True
