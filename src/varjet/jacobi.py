"""Linearized field equations along extremals (Jacobi equations).

The generic residual linearizes the Hamilton-Cartan system of a projectable
second-order Lagrangian: for a vertical field V along a section s,

    d2V/dx^i dx^j (dp_a^i/dy'^c_j) - V^c {...} - dV^c/dx^h {...} = 0,

with every brace a combination of first and second partials of the momenta
and Hamiltonian along j^1 s.  The braces hold D_i(dp_a^i/dy^c) and
D_i(dp_a^i/dy'^c_h); they take D_i from `jets` (`total_derivative_stencil`,
built once per point, contracted with each partial by `jets.contract`), so
the operator reads y'' only through those stencils, whose zero terms are
dropped.  The Einstein-Hilbert specialization is the
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
from functools import cached_property, lru_cache
from itertools import chain, combinations_with_replacement

from .fwd import ring_unit
from .jets import (JetPoint, PolySection, contract, delta, jet_of_section,
                   pair_index, sym_pairs, total_derivative_stencil)
from .linalg import integer_scaled, nullspace
from .metric import curvature, metric_from_jet_point
from .poly import Poly
from .varcore import hc_first_family, pipeline


@dataclass
class JacobiCoefficients:
    """The coefficient blocks of a Jacobi operator at one background point,
    with the first-family Hamilton-Cartan gap of the background in the ring
    of the data (None for the Einstein-Hilbert operator, which does not
    compute it)."""

    n: int
    c2: list
    c1: list
    c0: list
    hc_gap: float | Fraction | None = None

    def residual(self, v_polys: list, x) -> list:
        """The operator applied to the field with components `v_polys`
        (polynomials in the base variables) at x, read from its 2-jet there
        (`jets.jet_of_section`, in the ring of x)."""
        n = self.n
        jet = jet_of_section(PolySection(n, v_polys), x, 2)
        v0, v1, v2 = jet.y, jet.dy, jet.d2y
        out = []
        for c2, c1, c0 in zip(self.c2, self.c1, self.c0):
            acc = 0
            for c in range(len(c0)):
                for i in range(n):
                    for j, k in enumerate(c2[c][i]):
                        if k:
                            acc = acc + v2[c][pair_index(n, i, j)] * k
            for c, k in enumerate(c0):
                if k:
                    acc = acc + v0[c] * k
            for c in range(len(c0)):
                for h, k in enumerate(c1[c]):
                    if k:
                        acc = acc + v1[c][h] * k
            out.append(acc)
        return out


def _entry_types(p2: JetPoint) -> tuple:
    """Every entry's type, for the memo keys below: Fraction(1, 2) == 0.5
    and both hash alike, but a float call must never get exact blocks."""
    return tuple(map(type, chain(p2.x, p2.y, chain.from_iterable(p2.dy),
                                 chain.from_iterable(p2.d2y))))


@lru_cache(maxsize=1)
def _generic_memo(supplier, p2: JetPoint, types: tuple) -> JacobiCoefficients:
    return _generic_coefficients(supplier, p2)


@lru_cache(maxsize=1)
def _eh_memo(signature: tuple, p2: JetPoint, types: tuple) -> JacobiCoefficients:
    return _eh_coefficients(p2, signature)


# ---------------------------------------------------------------------------
# generic linearization


def _generic_coefficients(supplier, p2: JetPoint) -> JacobiCoefficients:
    n, m = p2.n, p2.m
    data = pipeline(supplier, p2.truncated(1), cap=2)
    jv, p, h = data.jv, data.p, data.h
    st = [total_derivative_stencil(jv, p2, i) for i in range(n)]
    y1 = [(be, i, p2.y1(be, i)) for be in range(m) for i in range(n) if p2.y1(be, i) != 0]

    def bracket(al, lab, br):
        # minus the coefficient of the V^c (lab the id of y^c) or dV^c/dx^h
        # (lab the id of y'^c_h) term, given its leading part br
        for be, i, v in y1:
            br = br + v * p[(be, i)].deriv(jv.y(al), lab)
        for i in range(n):
            br = br - contract(p[(al, i)], st[i], lab)
        return -br

    c2 = [[[[p[(al, i)].deriv(jv.y1(c, j)) for j in range(n)] for i in range(n)]
           for c in range(m)] for al in range(m)]
    c0 = [[bracket(al, jv.y(c), h.deriv(jv.y(al), jv.y(c))) for c in range(m)]
          for al in range(m)]
    c1 = [[[bracket(al, jv.y1(c, k), p[(c, k)].deriv(jv.y(al)) - p[(al, k)].deriv(jv.y(c))
                    + h.deriv(jv.y(al), jv.y1(c, k))) for k in range(n)]
           for c in range(m)] for al in range(m)]
    gap = max([0 * ring_unit(h), *map(abs, hc_first_family(data, p2))])
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
    hc_gap): hc_gap is the max |first-family Hamilton-Cartan residual| of s
    at x, in the ring of the data, which is 0 when s is extremal there.
    """
    p2 = jet_of_section(s, x, 2)
    coef = _generic_memo(supplier, p2, _entry_types(p2))
    return coef.residual(v_polys, x), coef.hc_gap


# ---------------------------------------------------------------------------
# Einstein-Hilbert specialization


def _eh_coefficients(p2: JetPoint, signature) -> JacobiCoefficients:
    n, npairs = p2.n, p2.m
    mj = metric_from_jet_point(p2, signature)
    cdat = curvature(mj)
    gam = cdat.gamma
    g = mj.ginv
    riem = cdat.riemann

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

    # the zero-order bracket reads P^a_{s nu} = g^{ar} g_{ts} Gamma^t_{r nu}
    # + Gamma^a_{nu s}, through the lowered Christoffels g_{ts} Gamma^t_{r nu}
    low = [[[sum(mj.comp(t, sg) * gam[t][r][nu] for t in range(n)) for nu in range(n)]
            for r in range(n)] for sg in range(n)]
    pg = [[[sum(g[a][r] * low[sg][r][nu] for r in range(n)) + gam[a][nu][sg]
            for nu in range(n)] for sg in range(n)] for a in range(n)]

    half = Fraction(1, 2)
    c2 = [[[[0] * n for _ in range(n)] for _ in range(npairs)] for _ in range(npairs)]
    c1 = [[[0] * n for _ in range(npairs)] for _ in range(npairs)]
    c0 = [[0] * npairs for _ in range(npairs)]
    for row, (mu, nu) in enumerate(sym_pairs(n)):
        for a in range(n):
            # the zero-order bracket is sum_la g^{la b} inner[la]
            inner = []
            for la in range(n):
                v = riem[a][mu][nu][la] - tr_gam[la] * gam[a][mu][nu]
                for sg in range(n):
                    v = v + pg[a][sg][nu] * gam[sg][mu][la] \
                        - pg[a][sg][la] * gam[sg][mu][nu] \
                        + gam[a][mu][sg] * gam[sg][nu][la]
                inner.append(v)
            for b in range(n):
                col = pair_index(n, a, b)
                cc2, cc1 = c2[row][col], c1[row][col]
                # second-order part: each Kronecker-weighted term only where
                # its deltas are 1
                for i in range(n):
                    for j in range(n):
                        co = 0
                        if a == nu and j == mu:
                            co = co + g[i][b]
                        if a == mu and j == nu:
                            co = co + g[i][b]
                        if a == nu and b == mu:
                            co = co - g[i][j]
                        if i == nu and j == mu:
                            co = co - g[a][b]
                        if co != 0:
                            cc2[i][j] = cc2[i][j] + half * co
                # first-order part
                for i in range(n):
                    br = half * g[a][b] * gam[i][mu][nu] - g[i][b] * gam[a][mu][nu]
                    co = delta(a, nu) * delta(i, mu) + delta(a, mu) * delta(i, nu)
                    if co:
                        br = br + half * co * t_vec[b]
                    if a == mu and b == nu:
                        br = br - half * t_vec[i]
                    for la in range(n):
                        if i == nu:
                            br = br + half * g[la][a] * gam[b][mu][la]
                        if i == mu:
                            br = br + half * g[la][a] * gam[b][la][nu]
                        if b == nu:
                            br = br + half * (g[la][i] * gam[a][mu][la]
                                              - g[la][a] * gam[i][mu][la])
                        if b == mu:
                            br = br + half * (g[la][i] * gam[a][nu][la]
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
    p2 = jet_of_section(s, x, 2)
    coef = _eh_memo(tuple(signature), p2, _entry_types(p2))
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

    @cached_property
    def _integer_terms(self) -> list:
        """terms[A]: one flat list of (B, a, b, d c) for each nonzero term
        c D^a D^b of P^A_B, with d the lcm of every coefficient's
        denominator (`linalg.integer_scaled`).  An empty entry P^A_B adds
        nothing.  Read by `mode_matrix` and `polynomial_solution_space`,
        so both build integer rows from the nonzero terms only."""
        terms = [[(brow, a, b, c) for brow, e in enumerate(row) for (a, b), c in e.items()]
                 for row in self.entries]
        nums = iter(integer_scaled(t[3] for row in terms for t in row)[0])
        return [[(brow, a, b, next(nums)) for brow, a, b, _ in row] for row in terms]

    def mode_matrix(self, k) -> list:
        """d P(D -> i k): D^a D^b maps to -k_a k_b, and d (the lcm of the
        coefficient denominators, 2 for the Lorentz operator) makes it an
        integer matrix for an integer k.  d does not change the kernel."""
        kk = [[ka * kb for kb in k] for ka in k]
        out = []
        for terms in self._integer_terms:
            row = [0] * self.npairs
            for brow, a, b, c in terms:
                row[brow] -= c * kk[a][b]
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
    col = {J: m_i for m_i, J in enumerate(mons)}
    rows = []
    for terms in op._integer_terms:
        for K in out_mons:
            # the operator scaled to integers (`_integer_terms`) has the
            # same kernel
            row = [0] * cols
            for brow, a, b, c in terms:
                # coefficient of x^K in c * d^2(x^J)/dx^a dx^b
                J = list(K)
                J[a] += 1
                J[b] += 1
                J = tuple(J)
                row[brow * nm + col[J]] += c * J[a] * (J[b] - delta(a, b))
            if any(row):
                rows.append(row)
    basis = nullspace(rows, ncols=cols)
    # rank-nullity: the rows have rank cols - dim ker
    return SolutionSpace(degree, len(basis), mons, basis, cols - len(basis))


def polynomial_solves(op: DiffOpMatrix, v_polys: list) -> bool:
    return all(p.is_zero() for p in op.apply_poly(v_polys))


def derivative_shift_check(op: DiffOpMatrix, v_polys: list, exponents: tuple) -> bool:
    """Shift a homogeneous degree-r solution down by the exponent tuple
    (I_1, ..., I_n) of order r - 2, d^|I|/dx^I, and check that the
    resulting quadratic field solves the operator (the factorial weights
    come from the exact polynomial differentiation)."""
    return polynomial_solves(op, [p.diff_multi(exponents) for p in v_polys])
