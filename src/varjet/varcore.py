"""Generic machinery for second-order Lagrangians with first-order momenta.

The pipeline: a Lagrangian whose second-derivative dependence is affine and
satisfies the cross-derivative (closedness) conditions descends to
first-order data

    L = L_a^{ij} y^a_(ij) + L_0,   L^i with dL^i/dy^a_h = L_a^{ih},
    A_a^i = dL_0/dy^a_i - dL^{ik}_a/dx^k - y^c_k dL^{ik}_a/dy^c
    p_a^i = A_a^i - dL^i/dy^a,     H = L_0 - y^a_i A_a^i - dL^i/dx^i,
    Lbar  = L_0 - dL^i/dx^i - y^a_i dL^i/dy^a,

all functions on the first-order jet bundle.  Everything downstream
(Hamilton-Cartan residuals, Euler-Lagrange and Helmholtz checks, the
regularity form, Noether currents) is assembled from truncated Taylor
expansions of L_0 and the L^{ij} block at a point, so the same code runs on
floats and exact rationals, and with either a black-box Lagrangian, whose
supplier seeds y'' and reads off its coefficients, or closed-form
coefficient tables.  Float-only are `hc_residual`'s second family (Newton
inversion), `bilinear_form_b` and `projectability_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .fwd import Jet, jet_sum, ring_unit
from .jets import (JetFunction, JetOrderError, JetPoint, JetVars, PolySection,
                   contract, delta, jet_of_section, pair_index,
                   point_ring, seed_point, sym_pairs, total_derivative2_stencil,
                   total_derivative_stencil)
from .poly import Poly


class QuadratureError(RuntimeError):
    """The fibre-primitive integrand is not a polynomial of degree <= 7."""


class NotProjectableError(ValueError):
    """Lagrangian fails the affineness / closedness conditions."""


@dataclass
class SecondOrderLagrangian:
    n: int
    m: int
    L: JetFunction


# ---------------------------------------------------------------------------
# projectability


@dataclass
class ProjectabilityReport:
    affine: bool
    projects_to_J2: bool
    projects_to_J1: bool
    max_affine_residual: float
    max_j2_residual: float
    max_first_tris_residual: float
    tol: float

    def summary(self) -> str:
        return (f"affine={self.affine} J2={self.projects_to_J2} "
                f"J1={self.projects_to_J1} "
                f"(residuals: affine {self.max_affine_residual:.2e}, "
                f"J2 {self.max_j2_residual:.2e}, "
                f"first-cross {self.max_first_tris_residual:.2e})")


def projectability_check(lag: SecondOrderLagrangian, samples,
                         tol: float = 1e-8) -> ProjectabilityReport:
    """Affineness in the second derivatives, the order-2 projectability PDE
    system, and the first-order cross-derivative conditions, evaluated at the
    given sample jets."""
    n, m = lag.n, lag.m
    worst_aff = worst_j2 = worst_tris = 0.0
    pairs = sym_pairs(n)
    for p in samples:
        q, jv = seed_point(p.truncated(2), 2)
        d2 = lag.L(q).deriv
        # affineness: all second partials in the y'' block vanish
        for a in range(m):
            for b in range(m):
                for p1 in pairs:
                    for p2 in pairs:
                        worst_aff = max(worst_aff, abs(float(d2(jv.y2(a, *p1),
                                                                jv.y2(b, *p2)))))
        # J^2 projectability system, for 1 <= a <= b <= c <= n
        for al in range(m):
            for be in range(m):
                for ia in range(n):
                    for ib in range(ia, n):
                        for ic in range(ib, n):
                            for i in range(n):
                                r = (Fraction(1, 2 - delta(i, ib))
                                     * d2(jv.y2(be, ia, ic), jv.y2(al, i, ib))
                                     + Fraction(1, 2 - delta(i, ia))
                                     * d2(jv.y2(be, ib, ic), jv.y2(al, i, ia))
                                     + Fraction(1, 2 - delta(i, ic))
                                     * d2(jv.y2(be, ia, ib), jv.y2(al, i, ic)))
                                worst_j2 = max(worst_j2, abs(float(r)))
        # first-order cross conditions dL_b^{ih}/dy^a_a' = dL_a^{ia'}/dy^b_h
        for r in _first_cross_residuals(d2, jv):
            worst_tris = max(worst_tris, abs(r))
    affine = worst_aff <= tol
    j2 = affine or worst_j2 <= tol
    j1 = affine and worst_tris <= tol
    return ProjectabilityReport(affine, j2, j1, worst_aff, worst_j2,
                                worst_tris, tol)


def _sp(i, j):
    return (i, j) if i <= j else (j, i)


def _first_cross_residuals(d2, jv: JetVars):
    """Residuals of dL_b^{ih}/dy^a_{a'} - dL_a^{ia'}/dy^b_h, which are also
    the components of the fibre differential of the w' contraction; `d2`
    reads a second partial of L by the ids of `jv`, a JetVars of order 2."""
    n, m = jv.n, jv.m
    res = []
    for al in range(m):
        for be in range(m):
            for i in range(n):
                for h in range(n):
                    for a in range(n):
                        lhs = Fraction(1, 2 - delta(i, h)) \
                            * d2(jv.y2(be, i, h), jv.y1(al, a))
                        rhs = Fraction(1, 2 - delta(i, a)) \
                            * d2(jv.y2(al, i, a), jv.y1(be, h))
                        res.append(float(lhs - rhs))
    return res


# ---------------------------------------------------------------------------
# Legendre / Poincare-Cartan coefficients of a general second-order Lagrangian


@dataclass
class LegendreCoefficients:
    lij: dict      # (alpha, i, j sorted) -> value, with the 1/(2-delta) factor
    li0: dict      # (alpha, i) -> value


def legendre_coefficients(lag: SecondOrderLagrangian, p: JetPoint) -> LegendreCoefficients:
    """The P-C coefficients L_a^{ij} and L_a^{i0} at an order-3 jet."""
    if p.order < 3:
        raise JetOrderError("Legendre coefficients need an order-3 jet")
    n, m = lag.n, lag.m
    q, jv = seed_point(p.truncated(2), 2)
    lq = lag.L(q)
    st = [total_derivative_stencil(jv, p, j) for j in range(n)]
    lij = {}
    for a in range(m):
        for (i, j) in sym_pairs(n):
            lij[(a, i, j)] = lq.deriv(jv.y2(a, i, j)) * Fraction(1, 2 - delta(i, j))
    li0 = {}
    for a in range(m):
        for i in range(n):
            total = lq.deriv(jv.y1(a, i))
            for j in range(n):
                dj = contract(lq, st[j], jv.y2(a, i, j))
                total = total - Fraction(1, 2 - delta(i, j)) * dj
            li0[(a, i)] = total
    return LegendreCoefficients(lij, li0)


# ---------------------------------------------------------------------------
# affine coefficient suppliers


def _raised(v, order: int) -> Jet:
    """v as a Jet of `order` with v's coefficients (a scalar as a constant):
    exact for an affine v; otherwise only the terms of degree `order` are
    missing, and a table truncated below `order` never reads them."""
    return v.truncated(order) if isinstance(v, Jet) else Jet.constant(v, order)


class GenericAffineSupplier:
    """Extract (L_0, L^{ij}) Taylor data from a black-box affine Lagrangian.

    `tables` raises its first-order Jets one order and evaluates L once,
    with every stored second-order slot seeded (value 0) at that order: L_0
    is the y''-free part and each L_a^{ij} the coefficient series of the
    corresponding y'' variable, both at the order of the arguments and
    exact, provided L is affine.  The block may depend on y', so the fibre
    primitive interpolates it along the ray; it must be a polynomial of
    degree <= 7 in y'.  For L = y''/(1 + y'^2) at n = 1, A and the
    regularity form are formed, and reading L^i, p, H or Lbar of the
    pipeline raises QuadratureError.
    """

    lij_sees_dy = True

    def __init__(self, lag: SecondOrderLagrangian):
        self.lag = lag
        self.jv = JetVars(lag.n, lag.m, 2)

    def tables(self, x, y, dy):
        n, m, jv = self.lag.n, self.lag.m, self.jv
        top = y[0].order + 1
        x, y = tuple(_raised(v, top) for v in x), tuple(_raised(v, top) for v in y)
        dy = tuple(tuple(_raised(v, top) for v in row) for row in dy)
        one = ring_unit(y[0])
        half = one / 2
        d2y = tuple(tuple(Jet.variable(jv.y2(a, i, j), 0, top, one)
                          for i, j in sym_pairs(n)) for a in range(m))
        out = self.lag.L(JetPoint(n, m, 2, x, y, dy, d2y))
        y2_ids = range(jv.y2(0, 0, 0), len(jv))
        lij = {}
        for a in range(m):
            for (i, j) in sym_pairs(n):
                cjet = out.partial(jv.y2(a, i, j))
                flat = cjet.without(y2_ids)
                if len(flat.coef) != len(cjet.coef):
                    raise NotProjectableError(
                        "Lagrangian is not affine in the second derivatives")
                lij[(a, i, j)] = flat if i == j else flat * half
        return out.without(y2_ids).truncated(top - 1), lij


class TableAffineSupplier:
    """Wrap a closed-form callable tables(x, y, dy) -> (L_0, {(a,i,j):
    L^{ij}_a}), whose block takes no first derivatives, so the fibre
    primitive is the contraction y^a_i L_a^{hi} of the block in hand.
    """

    lij_sees_dy = False

    def __init__(self, n: int, m: int, tables):
        self.n, self.m, self.tables = n, m, tables


# ---------------------------------------------------------------------------
# the first-order pipeline


@dataclass
class PipelineData:
    """Taylor data of the first-order objects at one jet point.

    All entries are Jets over the coordinates of J^1, numbered by `jv`, a
    JetVars of order 1: `jets.contract` reads them as functions on J^1.
    `cap` is the truncation order of A, p, H and Lbar (L_0, the block and
    L^i have cap + 1).  `pipeline` forms L_0, the block and A; L^i, p, H,
    Lbar and the three primitive fields are formed on first read, once,
    from `supplier` and `seeds`, and raise QuadratureError for a block the
    rule cannot integrate.  `primitive_method` says how L^i were obtained:
    "closed_form" (the contraction y^a_i L_a^{hi}, for a block without y')
    or "polynomial" (`fibre_primitive_jets`: exact over Fractions for a
    block of degree <= 7 in y', evidence, not proof, beyond), with
    `primitive_degree` the degree in t of the integrand and
    `primitive_residual` its miss at the check node.
    """

    n: int
    m: int
    jv: JetVars
    cap: int
    l0: Jet
    lij: dict
    a: dict       # (alpha, i) -> Jet, the reduced L_a^{i0}
    supplier: object = field(repr=False)
    seeds: JetPoint = field(repr=False)     # x, y and y' as Jets of cap + 1

    def lij_get(self, alpha, i, j):
        return self.lij[(alpha,) + _sp(i, j)]

    @cached_property
    def _primitives(self) -> tuple:
        """(L^i, method, degree, residual), read by the four fields below."""
        s, order = self.seeds, self.cap + 1
        if not self.supplier.lij_sees_dy:
            return _radial_contraction(self.lij, s.dy, order), "closed_form", 0, 0.0
        li, residual, degree = fibre_primitive_jets(self.supplier, s.x, s.y, s.dy,
                                                    self.lij, order)
        return li, "polynomial", degree, residual

    li = cached_property(lambda self: self._primitives[0])
    primitive_method = cached_property(lambda self: self._primitives[1])
    primitive_degree = cached_property(lambda self: self._primitives[2])
    primitive_residual = cached_property(lambda self: self._primitives[3])

    @cached_property
    def p(self) -> dict:
        """(alpha, i) -> p_a^i = A_a^i - dL^i/dy^a."""
        return {(al, i): self.a[(al, i)] - self.li[i].partial(self.jv.y(al))
                for al in range(self.m) for i in range(self.n)}

    @cached_property
    def h(self) -> Jet:
        """H = L_0 - y^a_i A_a^i - dL^i/dx^i."""
        n, m, dy = self.n, self.m, self.seeds.dy
        dli = [self.li[i].partial(self.jv.x(i)) for i in range(n)]
        return _minus_sum(self.cap, self.l0, [self.a[(al, i)] * dy[al][i]
                                             for al in range(m) for i in range(n)] + dli)

    @cached_property
    def lbar(self) -> Jet:
        """Lbar = L_0 - dL^i/dx^i - y^a_i dL^i/dy^a."""
        jv, dy, li = self.jv, self.seeds.dy, self.li
        rest = []
        for i in range(self.n):
            rest.append(li[i].partial(jv.x(i)))
            rest += [li[i].partial(jv.y(al)) * dy[al][i] for al in range(self.m)]
        return _minus_sum(self.cap, self.l0, rest)


def _minus_sum(order, first, rest):
    return jet_sum(order, [first, *rest], [1] + [-1] * len(rest))


def _radial_contraction(lij: dict, dy, cap: int) -> list:
    """y^a_i L_a^{hi} for each h, as Jets truncated at `cap`."""
    m, n = len(dy), len(dy[0])
    return [jet_sum(cap, [lij[(a,) + _sp(h, i)] * dy[a][i]
                          for a in range(m) for i in range(n)])
            for h in range(n)]


# the nodes 0, 1, 1/2, 1/4, 3/4, 1/8, 3/8, 5/8, 7/8 and the Newton basis
# prod_{l<k} (t - t_l): its integral over [0, 1] weighs f[t_0..t_k], and its
# value at t_k makes f[t_0..t_k] the miss at t_k of the interpolant one lower
_NODES = (Fraction(0), Fraction(1)) + tuple(
    Fraction(j, 2 ** e) for e in (1, 2, 3) for j in range(1, 2 ** e, 2))
_BASES = [math.prod((Poly.variable(1, 0) - s for s in _NODES[:k]), start=Poly.constant(1, 1))
          for k in range(len(_NODES))]
_WEIGHTS = tuple(sum(c / (e + 1) for (e,), c in b.terms.items()) for b in _BASES[:-1])
_SPANS = tuple(b.eval([t]) for b, t in zip(_BASES, _NODES))


def fibre_primitive_jets(supplier, x, y, dy, lij: dict, cap: int):
    """L^h = int_0^1 y^a_i L_a^{hi}(x, y, t y') dt as Jets of order `cap`,
    with the miss at the check node and the degree in t (see `PipelineData`).

    `lij` is the block at t = 1.  The Newton interpolant through the first
    eight nodes is integrated exactly if it predicts the ninth sample
    (exactly when every coefficient of the sampled Jets is an int or a
    Fraction, else to 1e-10 relative), else a QuadratureError carries the
    miss as a float.  The rule is exact for a block of degree <= 7 in y';
    over Fractions degree 8 always misses, and a higher degree or a
    non-polynomial block passes only by coincidence.
    """
    one = ring_unit(dy[0][0])
    f = [_radial_contraction(lij if t == 1 else supplier.tables(
        x, y, [[t * v for v in row] for row in dy])[1], dy, cap) for t in _NODES]
    exact = all(g.exact for s in f for g in s)
    tol = 0.0 if exact else 1e-10 * max(1.0, *(abs(g.value) for s in f for g in s))
    for j in range(1, len(f)):      # in place: f[k] becomes f[t_0, ..., t_k]
        for k in range(len(f) - 1, j - 1, -1):
            w = one / (_NODES[k] - _NODES[k - j])
            f[k] = [(a - b) * w for a, b in zip(f[k], f[k - 1])]

    def miss(k):    # at t_k, of the interpolant through t_0, ..., t_{k-1}
        return float(abs(_SPANS[k])) * max(
            (float(abs(c)) for g in f[k] for c in g.coef.values()), default=0.0)

    def off(k):
        return any(g.coef for g in f[k]) if exact else miss(k) > tol

    if off(8):
        raise QuadratureError(
            f"fibre primitive is not a polynomial of degree <= 7 in t: miss {miss(8):.3e}")
    degree = max((k for k in range(1, 8) if off(k)), default=0)
    return ([jet_sum(cap, [fk[h] for fk in f[:8]], _WEIGHTS) for h in range(len(x))],
            miss(8), degree)


def pipeline(supplier, q: JetPoint, cap: int = 1) -> PipelineData:
    """The first-order data at the order-1 jet q: L_0, the block and A,
    with the fibre primitives L^i, p, H and Lbar formed on first read.

    `cap` is the Taylor order retained for A, p, H and Lbar.  The seeds are
    those of `jets.seed_point` at order cap + 1, and `supplier.tables(x, y,
    dy)` returns L_0 and the block at the order of its arguments.  L^i are
    taken from the zero section: the contraction y^a_i L_a^{hi} of the
    block in hand when it sees no y' (`lij_sees_dy` false), otherwise
    `fibre_primitive_jets` of the block along the ray (see there).
    """
    n, m = q.n, q.m
    seeds, jv = seed_point(q.truncated(1), cap + 1)
    l0, lij = supplier.tables(seeds.x, seeds.y, seeds.dy)
    if not isinstance(l0, Jet):
        l0 = Jet.constant(l0, cap + 1)
    lij = {k: (v if isinstance(v, Jet) else Jet.constant(v, cap + 1))
           for k, v in lij.items()}
    a_tab = {}
    for al in range(m):
        for i in range(n):
            rest = []
            for k in range(n):
                lik = lij[(al,) + _sp(i, k)]
                rest.append(lik.partial(jv.x(k)))
                rest += [lik.partial(jv.y(c)) * seeds.dy[c][k] for c in range(m)]
            a_tab[(al, i)] = _minus_sum(cap, l0.partial(jv.y1(al, i)), rest)
    return PipelineData(n, m, jv, cap, l0, lij, a_tab, supplier, seeds)


# ---------------------------------------------------------------------------
# derived objects


def momenta_hamiltonian(supplier, q: JetPoint):
    """Momenta p_a^i, Hamiltonian H and the velocity Hessian dp = dp/dy';
    p and H are in the ring of the point (an exact zero is `Fraction(0)`)."""
    data = pipeline(supplier, q, cap=1)
    n, m = data.n, data.m
    one = ring_unit(q.y[0])
    p = [[data.p[(al, i)].value * one for i in range(n)] for al in range(m)]
    return p, data.h.value * one, _velocity_hessian(data), data


def _velocity_hessian(data: PipelineData) -> np.ndarray:
    """dp_a^i/dy'^b_j = dA_a^i/dy'^b_j - dL_b^{ij}/dy^a, the regularity
    form, as a float matrix, rows (a, i) and columns (b, j).  The y'
    partial of dL^i/dy^a is dL_b^{ij}/dy^a, so no fibre primitive is
    formed."""
    n, m, jv = data.n, data.m, data.jv
    return np.array([[float(data.a[(al, i)].deriv(jv.y1(be, j))
                            - data.lij_get(be, i, j).deriv(jv.y(al)))
                      for be in range(m) for j in range(n)]
                     for al in range(m) for i in range(n)])


def bar_lagrangian(supplier, q: JetPoint):
    """Value of Lbar, in the ring of the point, plus the defect of the
    momenta identity p = dLbar/dy'."""
    data = pipeline(supplier, q, cap=1)
    n, m = data.n, data.m
    worst = 0.0
    for al in range(m):
        for i in range(n):
            d = data.lbar.deriv(data.jv.y1(al, i)) - data.p[(al, i)].value
            worst = max(worst, abs(float(d)))
    return data.lbar.value * ring_unit(q.y[0]), worst, data


def bilinear_form_b(supplier, q: JetPoint):
    """The regularity bilinear form b[(i,a),(j,b)] = dA_a^i/dy^b_j
    - dL_b^{ij}/dy^a, its symmetry defect and condition number."""
    data = pipeline(supplier, q, cap=1)
    b = _velocity_hessian(data)
    defect = float(np.max(np.abs(b - b.T)))
    try:
        cond = float(np.linalg.cond(b))
    except np.linalg.LinAlgError:
        cond = float("inf")
    return b, defect, cond, data


@dataclass
class HCResult:
    """Hamilton-Cartan residuals at a point, with the Newton steps of the
    velocity reconstruction, whether it met its step test and the max |step|
    of its last iteration (0, False and 0.0 when the second family is
    skipped)."""

    first: list
    second: list | None
    dp_condition: float
    skipped_second: bool
    newton_iters: int = 0
    converged: bool = False
    final_step: float = 0.0


def hc_first_family(data: PipelineData, p2: JetPoint) -> list:
    """First Hamilton-Cartan family D_i(p_a^i) - dH/dy^a along a section
    with 2-jet p2, from pipeline data at p2.truncated(1), in the ring of the
    data.  The y-partial of H is the momentum-space one (see `hc_residual`).
    """
    n, m, jv = data.n, data.m, data.jv
    st = [total_derivative_stencil(jv, p2, i) for i in range(n)]
    out = []
    for al in range(m):
        acc = -data.h.deriv(jv.y(al))
        for be in range(m):
            for i in range(n):
                acc = acc - p2.y1(be, i) * data.p[(be, i)].deriv(jv.y(al))
        for i in range(n):
            acc = acc + contract(data.p[(al, i)], st[i])
        out.append(acc)
    return out


def hc_residual(supplier, s: PolySection, x) -> HCResult:
    """Hamilton-Cartan residuals along a section at a base point.

    First family: d(p_a^i o j1 s)/dx^i - dH/dy^a, where the y-partial of H
    is the momentum-space one (H regarded as a function of (x, y, p)); by
    the chain rule with dH/dp = -y' it equals the jet-coordinate partial
    plus y'^b_i dp_b^i/dy^a, which needs no momentum inversion; it is
    returned in the ring of x (see `jets.point_ring`).  Second family: the
    velocities reconstructed from the momenta by Newton inversion of
    p(x, y, .) minus the actual ds/dx, in floats; skipped with a flag when
    the condition number of dp exceeds 1e12.
    """
    n, m = s.n, s.m
    p2 = jet_of_section(s, x, 2)
    data = pipeline(supplier, p2.truncated(1), cap=1)
    ev = point_ring(x)
    first = [ev(v) for v in hc_first_family(data, p2)]
    pmat = np.array([[float(data.p[(al, i)].value) for i in range(n)]
                     for al in range(m)])
    dp = _velocity_hessian(data)
    cond = float(np.linalg.cond(dp)) if np.isfinite(dp).all() else float("inf")
    if not np.isfinite(cond) or cond > 1e12:
        return HCResult(first, None, cond, True)
    # Newton reconstruction of velocities from momenta, starting at rest
    target = pmat.reshape(-1)
    vel = np.zeros(m * n)
    xs = list(p2.x)
    ys = list(p2.y)
    converged = False
    for it in range(1, 61):
        q_try = JetPoint(n, m, 1, tuple(xs), tuple(ys),
                         tuple(tuple(vel[a * n:(a + 1) * n]) for a in range(m)))
        d_try = pipeline(supplier, q_try, cap=1)
        p_try = np.array([float(d_try.p[(al, i)].value)
                          for al in range(m) for i in range(n)])
        step = np.linalg.solve(_velocity_hessian(d_try), target - p_try)
        vel = vel + step
        final_step = float(np.max(np.abs(step)))
        if final_step < 1e-13 * max(1.0, float(np.max(np.abs(vel)))):
            converged = True
            break
    actual = np.array([p2.y1(al, i) for al in range(m) for i in range(n)])
    second = list(actual - vel)
    return HCResult(first, second, cond, False, it, converged, final_step)


def euler_lagrange(supplier, s: PolySection, x) -> list:
    """E_a(L) = dL/dy^a - D_i(A_a^i) along a section (projectable case),
    in the ring of x (see `jets.point_ring`)."""
    n, m = s.n, s.m
    ev = point_ring(x)
    p2 = jet_of_section(s, x, 2)
    data = pipeline(supplier, p2.truncated(1), cap=1)
    jv = data.jv
    st = [total_derivative_stencil(jv, p2, i) for i in range(n)]
    out = []
    for al in range(m):
        acc = data.l0.deriv(jv.y(al))
        for be in range(m):
            for (i, j) in sym_pairs(n):
                acc = acc + (2 - delta(i, j)) * p2.y2(be, i, j) \
                    * data.lij_get(be, i, j).deriv(jv.y(al))
        for i in range(n):
            acc = acc - contract(data.a[(al, i)], st[i])
        out.append(ev(acc))
    return out


def euler_lagrange_first_order(supplier, s: PolySection, x) -> list:
    """E_a(Lbar) = dLbar/dy^a - D_i(dLbar/dy^a_i) along a section, in the
    ring of x."""
    n, m = s.n, s.m
    ev = point_ring(x)
    p2 = jet_of_section(s, x, 2)
    data = pipeline(supplier, p2.truncated(1), cap=2)
    jv = data.jv
    st = [total_derivative_stencil(jv, p2, i) for i in range(n)]
    out = []
    for al in range(m):
        acc = data.lbar.deriv(jv.y(al))
        for i in range(n):
            g = data.lbar.partial(jv.y1(al, i))
            acc = acc - contract(g, st[i])
        out.append(ev(acc))
    return out

# ---------------------------------------------------------------------------
# Helmholtz conditions
#
# The three families of conditions on the Euler-Lagrange operator
# E_a = dL/dy^a - D_i A_a^i are evaluated along a section.  Their
# coefficients are partials of A, L_0 and the L^{ij} block: functions on J^1,
# two of them affine in y''.  The total derivatives D_j and D_iD_j of those
# coefficients are exact contractions of the higher partials from one cap-3
# pipeline with the order-3 jet of the section (Olver, Applications of Lie
# Groups to Differential Equations, GTM 107), so the check is exact over
# Fractions.


@dataclass
class HelmholtzResult:
    """The largest |residual| of each family, in the ring of x: an exact
    zero over Fractions is `Fraction(0)`, and a float point gives floats."""
    max_a: Fraction | float
    max_b: Fraction | float
    max_c: Fraction | float

    @property
    def max_all(self) -> Fraction | float:
        return max(self.max_a, self.max_b, self.max_c)


def helmholtz_residuals(supplier, s: PolySection, x,
                        perturb=None) -> HelmholtzResult:
    """Residuals of the three Helmholtz condition families along a section.

    One cap-3 pipeline at the order-3 jet of `s` at x supplies every term:
    the coefficient values, and their total derivatives D_j and D_iD_j as
    exact contractions of its partials with the jet, so over Fractions a
    variational operator gives exactly 0.  `perturb(tables, x) -> tables`
    optionally edits the value tables at x ("G", "TL1", "TL0", "V", "W");
    the derivative terms still come from the pipeline.  It exists so tests
    can feed a deliberately non-variational operator through the same
    evaluator.
    """
    n, m = s.n, s.m
    pairs = sym_pairs(n)
    p3 = jet_of_section(s, x, 3)
    data = pipeline(supplier, p3.truncated(1), cap=3)
    jv = data.jv

    # Each coefficient is a function on J^1 written as its terms (c, jet, ids),
    # sum c * d^|ids| jet / d ids, so every value and total derivative is read
    # from the pipeline's Jets without building a partial Jet.
    # G[al,si,k,l] = dE_al/dy''^si_(kl)
    g_fn = {}
    for al in range(m):
        for si in range(m):
            for (k, l) in pairs:
                terms = [(2 - delta(k, l), data.lij_get(si, k, l), (jv.y(al),)),
                         (-1, data.a[(al, k)], (jv.y1(si, l),))]
                if k < l:
                    terms.append((-1, data.a[(al, l)], (jv.y1(si, k),)))
                g_fn[(al, si, k, l)] = terms

    # TL1[al,si,i] = d^2L/dy^al dy'^si_i and TL0[al,si] = d^2L/dy^al dy^si
    # at the order-2 jet of s: partials of the one Jet L^ = L_0 +
    # sum (2 - delta_kl) y''^be_kl L^kl_be, L with the y'' of s put in
    blocks = [(be, k, l) for be in range(m) for (k, l) in pairs]
    lhat = jet_sum(data.l0.order, [data.l0] + [data.lij_get(*b) for b in blocks],
                   [1] + [(2 - delta(k, l)) * p3.y2(be, k, l) for be, k, l in blocks])
    tl1_fn = {(al, si, i): [(1, lhat, (jv.y(al), jv.y1(si, i)))]
              for al in range(m) for si in range(m) for i in range(n)}
    tl0_fn = {(al, si): [(1, lhat, (jv.y(al), jv.y(si)))]
              for al in range(m) for si in range(m)}
    # V[al,si,i] = dA_al^i/dy^si ; W[al,si,j,i] = dA_al^j/dy'^si_i
    v_fn = {(al, si, i): [(1, data.a[(al, i)], (jv.y(si),))]
            for al in range(m) for si in range(m) for i in range(n)}
    w_fn = {(al, si, j, i): [(1, data.a[(al, j)], (jv.y1(si, i),))]
            for al in range(m) for si in range(m) for j in range(n)
            for i in range(n)}

    def value(f):
        acc = 0
        for c, jet, ids in f:
            acc = acc + c * jet.deriv(*ids)
        return acc

    t0 = {name: {key: value(f) for key, f in fns.items()}
          for name, fns in (("G", g_fn), ("TL1", tl1_fn), ("TL0", tl0_fn),
                            ("V", v_fn), ("W", w_fn))}
    if perturb is not None:
        t0 = perturb(t0, x)

    # D_j and D_iD_j at this point, built once for every contraction below
    st1 = [total_derivative_stencil(jv, p3, j) for j in range(n)]
    st2 = [[total_derivative2_stencil(jv, p3, i, j) for j in range(n)]
           for i in range(n)]

    def d(f, st):
        acc = 0
        for c, jet, ids in f:
            acc = acc + c * contract(jet, st, *ids)
        return acc

    worst_a = worst_b = worst_c = ring_unit(p3.y[0]) * 0
    for al in range(m):
        for si in range(m):
            for (k, l) in pairs:
                worst_a = max(worst_a, abs(t0["G"][(al, si, k, l)]
                                           - t0["G"][(si, al, k, l)]))
    # family (b): dE_al/dy'^si_i + dE_si/dy'^al_i - (1+d_ij) D_j G_si_al^(ij)
    dedy1 = {}
    for (a, sg, i) in tl1_fn:
        acc = t0["TL1"][(a, sg, i)] - t0["V"][(a, sg, i)]
        for j in range(n):
            acc = acc - d(w_fn[(a, sg, j, i)], st1[j])
        dedy1[(a, sg, i)] = acc
    for al in range(m):
        for si in range(m):
            for i in range(n):
                r = dedy1[(al, si, i)] + dedy1[(si, al, i)]
                for j in range(n):
                    r = r - (1 + delta(i, j)) * d(g_fn[(si, al) + _sp(i, j)], st1[j])
                worst_b = max(worst_b, abs(r))
    # family (c): dE_al/dy^si - dE_si/dy^al + D_i(dE_si/dy'^al_i)
    #             - sum_{i<=j} D_iD_j G_si_al^(ij).
    # Expanding all three E-derivatives, the D_i V(si,al) contributions of
    # the second and third terms cancel, leaving the terms below.  D_i of
    # TL1 also differentiates its y'' factor, which brings in y'''.
    for al in range(m):
        for si in range(m):
            r = t0["TL0"][(al, si)] - t0["TL0"][(si, al)]
            for i in range(n):
                ids = (jv.y(si), jv.y1(al, i))
                r = r - d(v_fn[(al, si, i)], st1[i]) + d(tl1_fn[(si, al, i)], st1[i])
                for be in range(m):
                    for (k, l) in pairs:
                        r = r + (2 - delta(k, l)) * p3.y3(be, k, l, i) \
                            * data.lij_get(be, k, l).deriv(*ids)
                for j in range(n):
                    r = r - d(w_fn[(si, al, j, i)], st2[i][j])
            for (i, j) in pairs:
                r = r - d(g_fn[(si, al, i, j)], st2[i][j])
            worst_c = max(worst_c, abs(r))
    return HelmholtzResult(worst_a, worst_b, worst_c)


# ---------------------------------------------------------------------------
# prolongations, symmetries, Noether currents


@dataclass
class VectorField:
    """A projectable vector field u^i(x) d/dx^i + v^a(x, y) d/dy^a.

    `u` are polynomials in the n base variables; `v` in the n + m variables
    (base first, then fibre)."""

    n: int
    m: int
    u: list
    v: list


@dataclass
class Prolongation:
    """pr X at a jet point: u[i], v[a], v1[a][i] and v2[a][pair_index] (None
    for a first prolongation).  v^a_(ij) is affine in y'', with coefficients
    dvy[a][b] = dv^a/dy^b and -du[h][i] = -du^h/dx^i."""

    v: list
    v1: list
    v2: list | None
    u: list
    du: list
    dvy: list


def _prolongation(X: VectorField, x, y, dy, order: int, d2y=None) -> Prolongation:
    """pr X at (x, y, y', y'') (Olver, GTM 107, Thm 2.36):

        v^a_i    = D_i v^a - y^a_h D_i u^h,
        v^a_(ij) = D_i D_j v^a - y^a_h D_i D_j u^h - y^a_(hi) D_j u^h
                   - y^a_(hj) D_i u^h,

    which is D_J(v^a - u^h y^a_h) + u^h y^a_(J,h) after cancellation.
    The jets of u over x and of v over (x, y), to `order`, are those of
    `jets.jet_of_section` (x and y may hold Jets).  With d2y None, v2 is
    the y''-free part of v^a_(ij).
    """
    n, m = X.n, X.m
    ju = jet_of_section(PolySection(n, X.u), x, order)
    jw = jet_of_section(PolySection(n + m, X.v), tuple(x) + tuple(y), order)  # v over (x, y)
    du = [list(row) for row in ju.dy]           # du[h][i] = du^h/dx^i
    dvy = [list(row[n:]) for row in jw.dy]      # dvy[a][b] = dv^a/dy^b
    v1 = []
    for a in range(m):
        row = []
        for i in range(n):
            acc = jw.y1(a, i)
            for b in range(m):
                acc = acc + dy[b][i] * dvy[a][b]
            for h in range(n):
                acc = acc - du[h][i] * dy[a][h]
            row.append(acc)
        v1.append(row)
    if order < 2:
        return Prolongation(list(jw.y), v1, None, list(ju.y), du, dvy)
    v2 = []
    for a in range(m):
        row = []
        for (i, j) in sym_pairs(n):
            acc = jw.y2(a, i, j)
            for b in range(m):
                acc = acc + dy[b][j] * jw.y2(a, i, n + b) + dy[b][i] * jw.y2(a, j, n + b)
                if d2y is not None:
                    acc = acc + d2y[b][pair_index(n, i, j)] * dvy[a][b]
                for c in range(m):
                    acc = acc + dy[b][i] * dy[c][j] * jw.y2(a, n + b, n + c)
            for h in range(n):
                acc = acc - ju.y2(h, i, j) * dy[a][h]
                if d2y is not None:
                    acc = acc - du[h][i] * d2y[a][pair_index(n, h, j)] \
                              - du[h][j] * d2y[a][pair_index(n, h, i)]
            row.append(acc)
        v2.append(row)
    return Prolongation(list(jw.y), v1, v2, list(ju.y), du, dvy)


def prolong(X: VectorField, p: JetPoint, order: int = 2) -> Prolongation:
    """First (order 1) or first and second (order 2) prolongation of a
    projectable field at p; these need jet data of order 1 (resp. 2) only."""
    if p.order < 1 or (order >= 2 and p.order < 2):
        raise JetOrderError("prolongation needs jets of order >= its own order")
    return _prolongation(X, p.x, p.y, p.dy, order, p.d2y if order >= 2 else None)


class TransformedSupplier:
    """Affine data of the Lie-transformed Lagrangian L' = X^(2)(L) + div(u) L.

    pr^1 X of L_0 and of each L_a^{ij} is a directional derivative (Olver,
    GTM 107, Thm 2.36): the e-derivative at e = 0 of one call of the base
    tables at (x + e u, y + e v, y' + e v'), whose e-free part is the base
    tables.  e is one more variable of the same Jets, numbered above every
    jet coordinate.  The arguments are affine in their variables, so their
    order is raised exactly, and the tables come back at that order
    (scalars at scalars).  A supplier itself, so the pipeline applies to L'.
    The block takes y' only if the base block does.
    """

    def __init__(self, base, X: VectorField):
        self.base = base
        self.X = X
        self.lij_sees_dy = base.lij_sees_dy
        self.e_id = len(JetVars(X.n, X.m, 3))

    def tables(self, x, y, dy):
        n, m, e_id = self.X.n, self.X.m, self.e_id
        scalar = not isinstance(y[0], Jet)
        order = 0 if scalar else y[0].order
        top = order + 1
        x, y = [_raised(v, top) for v in x], [_raised(v, top) for v in y]
        dy = [[_raised(v, top) for v in row] for row in dy]
        # pr X at (x, y, y'); the y'' terms of v^a_(ij) go into the L' block
        pro = _prolongation(self.X, x, y, dy, 2)
        e = Jet.variable(e_id, 0, top, ring_unit(y[0]))
        l0_e, lij_e = self.base.tables(
            [x[i] + e * pro.u[i] for i in range(n)],
            [y[a] + e * pro.v[a] for a in range(m)],
            [[dy[a][i] + e * pro.v1[a][i] for i in range(n)] for a in range(m)])

        def split(t):
            """t and dt/de at e = 0, at the order of the arguments."""
            if not isinstance(t, Jet):
                return Jet.constant(t, order), Jet(order, {})
            return t.without((e_id,)).truncated(order), t.partial(e_id).without((e_id,))

        l0, dl0 = split(l0_e)
        lij, dlij = {}, {}
        for k, t in lij_e.items():
            lij[k], dlij[k] = split(t)
        du = pro.du
        div = sum(du[i][i] for i in range(n))
        lij_out = {}
        for al in range(m):
            for (i, j) in sym_pairs(n):
                acc = dlij[(al, i, j)] + lij[(al, i, j)] * div
                for be in range(m):
                    acc = acc + lij[(be, i, j)] * pro.dvy[be][al]
                for r in range(n):
                    acc = acc - lij[(al,) + _sp(r, j)] * du[i][r] \
                              - lij[(al,) + _sp(r, i)] * du[j][r]
                lij_out[(al, i, j)] = acc
        l0_out = sum((lij[(be, h, l)] * ((2 - delta(h, l)) * pro.v2[be][k])
                      for be in range(m) for k, (h, l) in enumerate(sym_pairs(n))),
                     dl0 + l0 * div)
        if scalar:
            return l0_out.value, {k: v.value for k, v in lij_out.items()}
        return l0_out, lij_out


def symmetry_transform(supplier, X: VectorField):
    """The transformed affine data as a supplier, and L' as a JetFunction."""
    tsup = TransformedSupplier(supplier, X)

    def fn(p: JetPoint):
        l0, lij = tsup.tables(p.x, p.y, p.dy)
        return sum(((2 - delta(i, j)) * lij[(al, i, j)] * p.y2(al, i, j)
                    for al in range(X.m) for (i, j) in sym_pairs(X.n)), l0)

    return tsup, JetFunction(2, fn, name="transformed Lagrangian")


def noether_current(supplier, X: VectorField, s: PolySection, x) -> list:
    """Components J^i of the contracted Poincare-Cartan form along j^1 s,
    in the basis (-1)^{i-1} v_i:

        J^i = A_a^i (v^a - u^k y^a_k) + L_a^{ih} (v^a_h - u^k y^a_(hk))
              + u^i L,

    in the ring of x.  The form is closed along extremals when X is an
    infinitesimal symmetry.  J reads only the values of L_0, the block and
    A, which need first partials at most, so a cap-0 pipeline supplies it.
    """
    n, m = s.n, s.m
    ev = point_ring(x)
    p2 = jet_of_section(s, x, 2)
    data = pipeline(supplier, p2.truncated(1), cap=0)
    pro = prolong(X, p2, order=1)
    u = pro.u
    lval = ev(sum(((2 - delta(i, j)) * data.lij_get(al, i, j).value * p2.y2(al, i, j)
                   for al in range(m) for (i, j) in sym_pairs(n)), data.l0.value))
    out = []
    for i in range(n):
        acc = u[i] * lval
        for al in range(m):
            vert = pro.v[al] - sum(u[k] * p2.y1(al, k) for k in range(n))
            acc = acc + ev(data.a[(al, i)].value) * vert
            for h in range(n):
                vert1 = pro.v1[al][h] - sum(u[k] * p2.y2(al, h, k) for k in range(n))
                acc = acc + ev(data.lij_get(al, i, h).value) * vert1
        out.append(acc)
    return out


def noether_divergence(supplier, X: VectorField, s: PolySection, x) -> float:
    """sum_i dJ^i/dx^i by Richardson central differences of
    `noether_current` at the step h = 1e-3: a float estimate in every
    ring of x, with an error of order h^4 that it does not report.  At a
    Fraction point it is not the exact -E_a Q^a of Noether's identity: on a
    curved section with rational rho the two differ by about 1e-12.  An
    exact divergence, built from the pipeline and the D_j stencils, would
    no longer call `noether_current`, so it waits on a benchmark change
    that stops requiring that call's span."""
    n, h = s.n, 1e-3
    total = 0.0
    for i in range(n):
        def val(t):
            xs = list(x)
            xs[i] += t
            return noether_current(supplier, X, s, xs)[i]
        d_h = (val(h) - val(-h)) / (2 * h)
        d_h2 = (val(h / 2) - val(-h / 2)) / h
        total += (4 * d_h2 - d_h) / 3
    return total


# ---------------------------------------------------------------------------
# a random family of projectable second-order Lagrangians (test stock)


def random_projectable_lagrangian(rng, n: int, m: int) -> SecondOrderLagrangian:
    """An affine Lagrangian with closedness built in:

    L^{ij}_a = c_a d^2 Phi/dt_i dt_j with t_i = sum_a c_a y^a_i, plus a
    random zero-order part; the cross-derivative conditions hold by symmetry
    of the potential's Hessian.
    """
    c = [rng.uniform(0.5, 1.5) * (1 if rng.uniform() < 0.5 else -1)
         for _ in range(m)]
    # potential Phi(x, t): random cubic in the n t-variables, quadratic in x
    nv = 2 * n
    phi = Poly.constant(nv, 0)
    for _ in range(6):
        e = [0] * nv
        e[int(rng.integers(0, n))] += 1
        for _ in range(int(rng.integers(2, 4))):
            e[n + int(rng.integers(0, n))] += 1
        phi = phi + Poly(nv, {tuple(e): Fraction(str(round(rng.uniform(-1, 1), 3)))})
    phi_tt = [[phi.diff(n + i).diff(n + j) for j in range(n)] for i in range(n)]
    # zero-order part: random polynomial in (x, y, y')
    nv0 = n + m + m * n
    l0p = Poly.constant(nv0, 0)
    for _ in range(8):
        e = [0] * nv0
        for _ in range(int(rng.integers(1, 4))):
            e[int(rng.integers(0, nv0))] += 1
        l0p = l0p + Poly(nv0, {tuple(e): Fraction(str(round(rng.uniform(-1, 1), 3)))})

    def fn(p: JetPoint):
        t = [sum(c[a] * p.y1(a, i) for a in range(m)) for i in range(n)]
        pt = list(p.x) + t
        acc = l0p.eval(list(p.x) + list(p.y)
                       + [p.y1(a, i) for a in range(m) for i in range(n)])
        return sum(((2 - delta(i, j)) * c[a] * phi_tt[i][j].eval(pt) * p.y2(a, i, j)
                    for a in range(m) for (i, j) in sym_pairs(n)), acc)

    return SecondOrderLagrangian(n, m, JetFunction(2, fn, name="random projectable"))
