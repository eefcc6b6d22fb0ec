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
floats and exact rationals, and with either the generic bump extraction from
a black-box Lagrangian or closed-form coefficient tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .fwd import Jet, ring_one, value_of
from .jets import (JetFunction, JetOrderError, JetPoint, JetVars, PolySection,
                   jet_of_section, pair_index, seed_point, sym_pairs,
                   total_derivative_j1, total_derivative2_j1)
from .poly import Poly


class QuadratureError(RuntimeError):
    """Fibre-primitive quadrature failed to converge."""


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
    for p in samples:
        seeded, jv = seed_point(p.truncated(2), cap=2)
        out = lag.L(seeded)

        def d2(lab1, lab2):
            return float(value_of(out.deriv(jv.id_of[lab1], jv.id_of[lab2])))

        pairs = sym_pairs(n)
        # affineness: all second partials in the y'' block vanish
        for a in range(m):
            for b in range(m):
                for p1 in pairs:
                    for p2 in pairs:
                        worst_aff = max(worst_aff, abs(d2(("y2", a, p1),
                                                          ("y2", b, p2))))
        # J^2 projectability system, for 1 <= a <= b <= c <= n
        for al in range(m):
            for be in range(m):
                for ia in range(n):
                    for ib in range(n):
                        if ib < ia:
                            continue
                        for ic in range(n ):
                            if ic < ib:
                                continue
                            for i in range(n):
                                r = (Fraction(1, 2 - _d(i, ib))
                                     * d2(("y2", be, _sp(ia, ic)), ("y2", al, _sp(i, ib)))
                                     + Fraction(1, 2 - _d(i, ia))
                                     * d2(("y2", be, _sp(ib, ic)), ("y2", al, _sp(i, ia)))
                                     + Fraction(1, 2 - _d(i, ic))
                                     * d2(("y2", be, _sp(ia, ib)), ("y2", al, _sp(i, ic))))
                                worst_j2 = max(worst_j2, abs(float(r)))
        # first-order cross conditions dL_b^{ih}/dy^a_a' = dL_a^{ia'}/dy^b_h
        for r in _first_cross_residuals(out, jv, n, m):
            worst_tris = max(worst_tris, abs(r))
    affine = worst_aff <= tol
    j2 = affine or worst_j2 <= tol
    j1 = affine and worst_tris <= tol
    return ProjectabilityReport(affine, j2, j1, worst_aff, worst_j2,
                                worst_tris, tol)


def _d(i, j):
    return 1 if i == j else 0


def _sp(i, j):
    return (i, j) if i <= j else (j, i)


def _first_cross_residuals(out: Jet, jv: JetVars, n: int, m: int):
    """Residuals of dL_b^{ih}/dy^a_{a'} - dL_a^{ia'}/dy^b_h, which are also
    the components of the fibre differential of the w' contraction."""
    def d2(lab1, lab2):
        return float(value_of(out.deriv(jv.id_of[lab1], jv.id_of[lab2])))

    res = []
    for al in range(m):
        for be in range(m):
            for i in range(n):
                for h in range(n):
                    for a in range(n):
                        lhs = Fraction(1, 2 - _d(i, h)) \
                            * d2(("y2", be, _sp(i, h)), ("y1", al, a))
                        rhs = Fraction(1, 2 - _d(i, a)) \
                            * d2(("y2", al, _sp(i, a)), ("y1", be, h))
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
    seeded, jv = seed_point(p.truncated(2), cap=2)
    out = lag.L(seeded)

    def d1(lab):
        return out.deriv(jv.id_of[lab])

    def d2(lab1, lab2):
        return out.deriv(jv.id_of[lab1], jv.id_of[lab2])

    lij = {}
    for a in range(m):
        for (i, j) in sym_pairs(n):
            lij[(a, i, j)] = d1(("y2", a, (i, j))) * Fraction(1, 2 - _d(i, j))
    li0 = {}
    for a in range(m):
        for i in range(n):
            total = d1(("y1", a, i))
            for j in range(n):
                # D_j of dL/dy_(ij), via the chain rule over stored coords
                g = lambda lab: d2(("y2", a, _sp(i, j)), lab)
                dj = g(("x", j))
                for b in range(m):
                    dj = dj + p.y1(b, j) * g(("y", b))
                    for k in range(n):
                        dj = dj + p.y2(b, k, j) * g(("y1", b, k))
                    for (k, l) in sym_pairs(n):
                        dj = dj + p.y3(b, k, l, j) * g(("y2", b, (k, l)))
                total = total - Fraction(1, 2 - _d(i, j)) * dj
            li0[(a, i)] = total
    return LegendreCoefficients(lij, li0)


# ---------------------------------------------------------------------------
# affine coefficient suppliers


class GenericAffineSupplier:
    """Extract (L_0, L^{ij}) Taylor data from a black-box affine Lagrangian.

    One evaluation of L with the first-order coordinates seeded to order
    cap+1 and every stored second-order slot seeded (value 0) yields L_0 as
    the y''-free part and each L_a^{ij} as the coefficient series of the
    corresponding y'' variable, exactly, provided L is affine.
    """

    extra_cap = 1

    def __init__(self, lag: SecondOrderLagrangian):
        self.lag = lag

    def tables(self, x, y, dy, jv: JetVars, cap: int):
        n, m = self.lag.n, self.lag.m
        one = ring_one(value_of(y[0]))
        d2y = tuple(
            tuple(Jet.variable(jv.id_of[("y2", a, pr)], 0, cap + 1, one)
                  for pr in sym_pairs(n)) for a in range(m))
        p2 = JetPoint(n, m, 2, tuple(x), tuple(y), tuple(tuple(r) for r in dy), d2y)
        out = self.lag.L(p2)
        j1_ids = range(jv.id_of[("y2", 0, (0, 0))])
        lij = {}
        for a in range(m):
            for (i, j) in sym_pairs(n):
                vid = jv.id_of[("y2", a, (i, j))]
                cjet = out.partial(vid)
                flat = cjet.restricted(j1_ids)
                if len(flat.coef) != len(cjet.coef):
                    raise NotProjectableError(
                        "Lagrangian is not affine in the second derivatives")
                flat.order = cap
                lij[(a, i, j)] = flat * Fraction(1, 2 - _d(i, j))
        l0 = out.restricted(j1_ids)
        l0.order = cap
        return l0, lij


class TableAffineSupplier:
    """Wrap closed-form callables (x, y, dy) -> (L_0, {(a,i,j): L^{ij}_a})."""

    extra_cap = 0

    def __init__(self, n: int, m: int, fn):
        self.n, self.m, self.fn = n, m, fn

    def tables(self, x, y, dy, jv: JetVars, cap: int):
        return self.fn(x, y, dy)


# ---------------------------------------------------------------------------
# the first-order pipeline


@dataclass
class PipelineData:
    """Taylor data of the first-order objects at one jet point.

    All entries are Jets over the J^1 coordinate variables enumerated by
    `jv`; `cap` is the guaranteed truncation order of A, p, H, Lbar.
    """

    n: int
    m: int
    jv: JetVars
    cap: int
    l0: Jet
    lij: dict
    li: list
    a: dict       # (alpha, i) -> Jet, the reduced L_a^{i0}
    p: dict       # (alpha, i) -> Jet
    h: Jet
    lbar: Jet
    quad_residual: float = 0.0

    def lij_get(self, alpha, i, j):
        return self.lij[(alpha,) + _sp(i, j)]


_GL_CACHE: dict = {}


def _gl_nodes(npts: int):
    if npts not in _GL_CACHE:
        xs, ws = np.polynomial.legendre.leggauss(npts)
        _GL_CACHE[npts] = (xs, ws)
    return _GL_CACHE[npts]


def _jet_dist(a: Jet, b: Jet) -> float:
    keys = set(a.coef) | set(b.coef)
    worst = 0.0
    for k in keys:
        worst = max(worst, abs(float(value_of(a.coef.get(k, 0) - b.coef.get(k, 0)))))
    return worst


def fibre_primitive_jets(supplier, x, y, dy, jv: JetVars, cap: int,
                         tol: float = 1e-10):
    """L^h = int_0^1 y^a_i L_a^{hi}(x, y, t y') dt as Jets, plus a residual.

    The radial primitive from the zero section.  If the integrand is
    t-independent (coefficients not depending on the first derivatives, as
    for every closed-form instantiation here) the integral is exact; else
    16-node Gauss-Legendre with panel doubling until the change is below
    `tol` (up to 4 doublings, then a QuadratureError carries the residual).
    """
    n, m = jv.n, jv.m

    lij_of = getattr(supplier, "lij_only", None)

    def integrand(t):
        dyt = [[t * v for v in row] for row in dy]
        if lij_of is not None:
            lij = lij_of(x, y, dyt, jv, cap)
        else:
            _, lij = supplier.tables(x, y, dyt, jv, cap)
        out = []
        for h in range(n):
            s = Jet(cap, {})
            for a in range(m):
                for i in range(n):
                    s = s + dy[a][i] * lij[(a,) + _sp(h, i)]
            out.append(s)
        return out

    i0, imid, i1 = integrand(Fraction(0)), integrand(Fraction(1, 2)), integrand(Fraction(1))
    if all(i0[h].coef == imid[h].coef == i1[h].coef for h in range(n)):
        return i1, 0.0

    def panels(k):
        xs, ws = _gl_nodes(16)
        acc = [Jet(cap, {}) for _ in range(n)]
        width = 1.0 / k
        for p_i in range(k):
            left = p_i * width
            for t, w in zip(xs, ws):
                vals = integrand(left + width * (t + 1) / 2)
                for h in range(n):
                    acc[h] = acc[h] + (w * width / 2) * vals[h]
        return acc

    prev = panels(1)
    for k in (2, 4, 8, 16):
        cur = panels(k)
        change = max(_jet_dist(prev[h], cur[h]) for h in range(n))
        scale = max(1.0, max(abs(float(value_of(cur[h].value))) for h in range(n)))
        if change <= tol * scale:
            return cur, change
        prev = cur
    raise QuadratureError(f"fibre primitive quadrature stalled at residual {change:.3e}")


def pipeline(supplier, q: JetPoint, cap: int = 1,
             with_primitives: bool = True) -> PipelineData:
    """Assemble the first-order data (A, p, H, Lbar) at the order-1 jet q.

    `cap` is the Taylor order retained for A/p/H/Lbar.  The fibre primitives
    L^i are taken from the zero section.  With `with_primitives=False` the
    quadrature is skipped and only L_0, the coefficient block and A are
    produced (enough for Euler-Lagrange and Helmholtz work).
    """
    n, m = q.n, q.m
    jv = JetVars(n, m, 2)
    seed_cap = cap + 1 + supplier.extra_cap
    one = ring_one(q.y[0])
    x = [Jet.variable(jv.id_of[("x", i)], q.x[i], seed_cap, one) for i in range(n)]
    y = [Jet.variable(jv.id_of[("y", a)], q.y[a], seed_cap, one) for a in range(m)]
    dy = [[Jet.variable(jv.id_of[("y1", a, i)], q.dy[a][i], seed_cap, one)
           for i in range(n)] for a in range(m)]

    l0, lij = supplier.tables(x, y, dy, jv, cap + 1)
    if not isinstance(l0, Jet):
        l0 = Jet.constant(l0, cap + 1)
    lij = {k: (v if isinstance(v, Jet) else Jet.constant(v, cap + 1))
           for k, v in lij.items()}
    if with_primitives:
        li, quad_res = fibre_primitive_jets(supplier, x, y, dy, jv, cap + 1)
    else:
        li, quad_res = None, 0.0

    def xv(i):
        return jv.id_of[("x", i)]

    def yv(a):
        return jv.id_of[("y", a)]

    def y1v(a, i):
        return jv.id_of[("y1", a, i)]

    a_tab = {}
    for al in range(m):
        for i in range(n):
            acc = l0.partial(y1v(al, i))
            for k in range(n):
                lik = lij[(al,) + _sp(i, k)]
                acc = acc - lik.partial(xv(k))
                for c in range(m):
                    acc = acc - dy[c][k] * lik.partial(yv(c))
            a_tab[(al, i)] = acc
    if not with_primitives:
        return PipelineData(n, m, jv, cap, l0, lij, None, a_tab, None, None,
                            None, 0.0)
    p_tab = {}
    for al in range(m):
        for i in range(n):
            p_tab[(al, i)] = a_tab[(al, i)] - li[i].partial(yv(al))
    h = Jet(cap + 1, dict(l0.coef))
    for al in range(m):
        for i in range(n):
            h = h - dy[al][i] * a_tab[(al, i)]
    for i in range(n):
        h = h - li[i].partial(xv(i))
    lbar = Jet(cap + 1, dict(l0.coef))
    for i in range(n):
        lbar = lbar - li[i].partial(xv(i))
        for al in range(m):
            lbar = lbar - dy[al][i] * li[i].partial(yv(al))
    return PipelineData(n, m, jv, cap, l0, lij, li, a_tab, p_tab, h, lbar,
                        float(quad_res))


def pipeline_from_lagrangian(lag: SecondOrderLagrangian, q: JetPoint,
                             cap: int = 1, **kw) -> PipelineData:
    return pipeline(GenericAffineSupplier(lag), q, cap, **kw)


# ---------------------------------------------------------------------------
# derived objects


def momenta_hamiltonian(supplier, q: JetPoint, cap: int = 1):
    """Momenta p_a^i, Hamiltonian H and the velocity Hessian dp = dp/dy'."""
    data = pipeline(supplier, q, cap=max(cap, 1))
    n, m = data.n, data.m
    p = [[data.p[(al, i)].value for i in range(n)] for al in range(m)]
    return p, data.h.value, _velocity_hessian(data), data


def _velocity_hessian(data: PipelineData) -> np.ndarray:
    """dp_a^i/dy'^b_j as a float matrix, rows (a, i) and columns (b, j)."""
    n, m, jv = data.n, data.m, data.jv
    return np.array([[float(value_of(data.p[(al, i)].deriv(jv.y1(be, j))))
                      for be in range(m) for j in range(n)]
                     for al in range(m) for i in range(n)])


def bar_lagrangian(supplier, q: JetPoint):
    """Value of Lbar plus the defect of the momenta identity p = dLbar/dy'."""
    data = pipeline(supplier, q, cap=1)
    n, m = data.n, data.m
    worst = 0.0
    for al in range(m):
        for i in range(n):
            d = data.lbar.deriv(data.jv.id_of[("y1", al, i)]) - data.p[(al, i)].value
            worst = max(worst, abs(float(value_of(d))))
    return data.lbar.value, worst, data


def bilinear_form_b(supplier, q: JetPoint):
    """The regularity bilinear form b[(i,a),(j,b)] = dA_a^i/dy^b_j
    - dL_b^{ij}/dy^a, its symmetry defect and condition number."""
    data = pipeline(supplier, q, cap=1)
    n, m = data.n, data.m
    b = np.zeros((m * n, m * n))
    for al in range(m):
        for i in range(n):
            for be in range(m):
                for j in range(n):
                    v = data.a[(al, i)].deriv(data.jv.id_of[("y1", be, j)]) \
                        - data.lij_get(be, i, j).deriv(data.jv.id_of[("y", al)])
                    b[al * n + i][be * n + j] = float(value_of(v))
    defect = float(np.max(np.abs(b - b.T)))
    try:
        cond = float(np.linalg.cond(b))
    except np.linalg.LinAlgError:
        cond = float("inf")
    return b, defect, cond, data


@dataclass
class HCResult:
    """Hamilton-Cartan residuals at a point, with the Newton steps of the
    velocity reconstruction and whether it met its step test (0 and False
    when the second family is skipped)."""

    first: list
    second: list | None
    dp_condition: float
    skipped_second: bool
    newton_iters: int = 0
    converged: bool = False


def hc_first_family(data: PipelineData, p2: JetPoint) -> list:
    """First Hamilton-Cartan family D_i(p_a^i) - dH/dy^a along a section
    with 2-jet p2, from pipeline data at p2.truncated(1), in the ring of the
    data.  The y-partial of H is the momentum-space one (see `hc_residual`).
    """
    n, m, jv = data.n, data.m, data.jv
    out = []
    for al in range(m):
        acc = -data.h.deriv(jv.y(al))
        for be in range(m):
            for i in range(n):
                acc = acc - p2.y1(be, i) * data.p[(be, i)].deriv(jv.y(al))
        for i in range(n):
            acc = acc + total_derivative_j1(data.p[(al, i)], jv, p2, i)
        out.append(acc)
    return out


def hc_residual(supplier, s: PolySection, x, cond_cap: float = 1e12) -> HCResult:
    """Hamilton-Cartan residuals along a section at a base point.

    First family: d(p_a^i o j1 s)/dx^i - dH/dy^a, where the y-partial of H
    is the momentum-space one (H regarded as a function of (x, y, p)); by
    the chain rule with dH/dp = -y' it equals the jet-coordinate partial
    plus y'^b_i dp_b^i/dy^a, which needs no momentum inversion.  Second
    family: the velocities reconstructed from the momenta by Newton
    inversion of p(x, y, .) minus the actual ds/dx; skipped with a flag
    when dp is ill-conditioned.
    """
    n, m = s.n, s.m
    p2 = jet_of_section(s, x, 2)
    data = pipeline(supplier, p2.truncated(1), cap=1)
    first = [float(v) for v in hc_first_family(data, p2)]
    pmat = np.array([[float(value_of(data.p[(al, i)].value)) for i in range(n)]
                     for al in range(m)])
    dp = _velocity_hessian(data)
    cond = float(np.linalg.cond(dp)) if np.isfinite(dp).all() else float("inf")
    if not np.isfinite(cond) or cond > cond_cap:
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
        p_try = np.array([float(value_of(d_try.p[(al, i)].value))
                          for al in range(m) for i in range(n)])
        step = np.linalg.solve(_velocity_hessian(d_try), target - p_try)
        vel = vel + step
        if float(np.max(np.abs(step))) < 1e-13 * max(1.0, float(np.max(np.abs(vel)))):
            converged = True
            break
    actual = np.array([p2.y1(al, i) for al in range(m) for i in range(n)])
    second = list(actual - vel)
    return HCResult(first, second, cond, False, it, converged)


def euler_lagrange(supplier, s: PolySection, x) -> list:
    """E_a(L) = dL/dy^a - D_i(A_a^i) along a section (projectable case)."""
    n, m = s.n, s.m
    p2 = jet_of_section(s, x, 2)
    data = pipeline(supplier, p2.truncated(1), cap=1, with_primitives=False)
    jv = data.jv
    out = []
    for al in range(m):
        acc = data.l0.deriv(jv.id_of[("y", al)])
        for be in range(m):
            for (i, j) in sym_pairs(n):
                acc = acc + (2 - _d(i, j)) * p2.y2(be, i, j) \
                    * data.lij_get(be, i, j).deriv(jv.id_of[("y", al)])
        for i in range(n):
            acc = acc - total_derivative_j1(data.a[(al, i)], jv, p2, i)
        out.append(float(value_of(acc)))
    return out


def euler_lagrange_first_order(supplier, s: PolySection, x) -> list:
    """E_a(Lbar) = dLbar/dy^a - D_i(dLbar/dy^a_i) along a section."""
    n, m = s.n, s.m
    p2 = jet_of_section(s, x, 2)
    data = pipeline(supplier, p2.truncated(1), cap=2)
    jv = data.jv
    out = []
    for al in range(m):
        acc = data.lbar.deriv(jv.id_of[("y", al)])
        for i in range(n):
            g = data.lbar.partial(jv.id_of[("y1", al, i)])
            acc = acc - total_derivative_j1(g, jv, p2, i)
        out.append(float(value_of(acc)))
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


class _Partials:
    """sum_t c_t * (d^|ids_t| jet_t / d ids_t) as a function on J^1.

    Exposes `deriv` like a Jet, which is all `total_derivative_j1` and
    `total_derivative2_j1` read, and reads every partial through the parent
    Jets instead of building the partial Jets."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def deriv(self, *vars):
        acc = 0
        for c, jet, ids in self.terms:
            acc = acc + c * jet.deriv(*ids, *vars)
        return acc


@dataclass
class HelmholtzResult:
    max_a: float
    max_b: float
    max_c: float

    @property
    def max_all(self) -> float:
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
    data = pipeline(supplier, p3.truncated(1), cap=3, with_primitives=False)
    jv = data.jv

    # G[al,si,k,l] = dE_al/dy''^si_(kl)
    g_fn = {}
    for al in range(m):
        for si in range(m):
            for (k, l) in pairs:
                terms = [(2 - _d(k, l), data.lij_get(si, k, l), (jv.y(al),)),
                         (-1, data.a[(al, k)], (jv.y1(si, l),))]
                if k < l:
                    terms.append((-1, data.a[(al, l)], (jv.y1(si, k),)))
                g_fn[(al, si, k, l)] = _Partials(terms)

    # TL1[al,si,i] = d^2L/dy^al dy'^si_i and TL0[al,si] = d^2L/dy^al dy^si
    # at the order-2 jet of s; both affine in y''
    def y2_affine(ids):
        terms = [(1, data.l0, ids)]
        for be in range(m):
            for (k, l) in pairs:
                terms.append(((2 - _d(k, l)) * p3.y2(be, k, l),
                              data.lij_get(be, k, l), ids))
        return _Partials(terms)

    tl1_fn = {(al, si, i): y2_affine((jv.y(al), jv.y1(si, i)))
              for al in range(m) for si in range(m) for i in range(n)}
    tl0_fn = {(al, si): y2_affine((jv.y(al), jv.y(si)))
              for al in range(m) for si in range(m)}
    # V[al,si,i] = dA_al^i/dy^si ; W[al,si,j,i] = dA_al^j/dy'^si_i
    v_fn = {(al, si, i): _Partials([(1, data.a[(al, i)], (jv.y(si),))])
            for al in range(m) for si in range(m) for i in range(n)}
    w_fn = {(al, si, j, i): _Partials([(1, data.a[(al, j)], (jv.y1(si, i),))])
            for al in range(m) for si in range(m) for j in range(n)
            for i in range(n)}

    t0 = {name: {key: f.deriv() for key, f in fns.items()}
          for name, fns in (("G", g_fn), ("TL1", tl1_fn), ("TL0", tl0_fn),
                            ("V", v_fn), ("W", w_fn))}
    if perturb is not None:
        t0 = perturb(t0, x)

    def d1(f, j):
        return total_derivative_j1(f, jv, p3, j)

    def d2(f, i, j):
        return total_derivative2_j1(f, jv, p3, i, j)

    worst_a = worst_b = worst_c = 0
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
            acc = acc - d1(w_fn[(a, sg, j, i)], j)
        dedy1[(a, sg, i)] = acc
    for al in range(m):
        for si in range(m):
            for i in range(n):
                r = dedy1[(al, si, i)] + dedy1[(si, al, i)]
                for j in range(n):
                    r = r - (1 + _d(i, j)) * d1(g_fn[(si, al) + _sp(i, j)], j)
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
                r = r - d1(v_fn[(al, si, i)], i) + d1(tl1_fn[(si, al, i)], i)
                for be in range(m):
                    for (k, l) in pairs:
                        r = r + (2 - _d(k, l)) * p3.y3(be, k, l, i) \
                            * data.lij_get(be, k, l).deriv(*ids)
                for j in range(n):
                    r = r - d2(w_fn[(si, al, j, i)], i, j)
            for (i, j) in pairs:
                r = r - d2(g_fn[(si, al, i, j)], i, j)
            worst_c = max(worst_c, abs(r))
    return HelmholtzResult(float(worst_a), float(worst_b), float(worst_c))


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

    def u_val(self, x):
        return [p.eval(x) for p in self.u]

    def v_val(self, x, y):
        pt = list(x) + list(y)
        return [p.eval(pt) for p in self.v]

    def divergence(self, x):
        return sum(self.u[i].diff(i).eval(x) for i in range(self.n))


@dataclass
class Prolongation:
    v: list
    v1: list          # v1[a][i]
    v2: list | None   # v2[a][pair_index]


def prolong(X: VectorField, p: JetPoint, order: int = 2) -> Prolongation:
    """First and second prolongation components of a projectable field.

    v^a_i = D_i(v^a - u^h y^a_h) + u^h y^a_(hi) and likewise for v^a_(ij);
    after cancellation these need jet data of order 1 (resp. 2) only.
    """
    n, m = X.n, X.m
    if p.order < 1 or (order >= 2 and p.order < 2):
        raise JetOrderError("prolongation needs jets of order >= its own order")
    pt = list(p.x) + list(p.y)
    v0 = [X.v[a].eval(pt) for a in range(m)]
    du = [[X.u[h].diff(i).eval(p.x) for i in range(n)] for h in range(n)]
    d2u = [[[X.u[h].diff(i).diff(j).eval(p.x) for j in range(n)]
            for i in range(n)] for h in range(n)]
    dvx = [[X.v[a].diff(i).eval(pt) for i in range(n)] for a in range(m)]
    dvy = [[X.v[a].diff(n + b).eval(pt) for b in range(m)] for a in range(m)]
    d2vxx = [[[X.v[a].diff(i).diff(j).eval(pt) for j in range(n)]
              for i in range(n)] for a in range(m)]
    d2vxy = [[[X.v[a].diff(i).diff(n + b).eval(pt) for b in range(m)]
              for i in range(n)] for a in range(m)]
    d2vyy = [[[X.v[a].diff(n + b).diff(n + c).eval(pt) for c in range(m)]
              for b in range(m)] for a in range(m)]
    v1 = []
    for a in range(m):
        row = []
        for i in range(n):
            acc = dvx[a][i]
            for b in range(m):
                acc = acc + p.y1(b, i) * dvy[a][b]
            for h in range(n):
                acc = acc - du[h][i] * p.y1(a, h)
            row.append(acc)
        v1.append(row)
    if order < 2:
        return Prolongation(v0, v1, None)
    v2 = []
    for a in range(m):
        row = []
        for (i, j) in sym_pairs(n):
            acc = d2vxx[a][i][j]
            for b in range(m):
                acc = acc + p.y1(b, j) * d2vxy[a][i][b] + p.y1(b, i) * d2vxy[a][j][b]
                acc = acc + p.y2(b, i, j) * dvy[a][b]
                for c in range(m):
                    acc = acc + p.y1(b, i) * p.y1(c, j) * d2vyy[a][b][c]
            for h in range(n):
                acc = acc - d2u[h][i][j] * p.y1(a, h)
                acc = acc - du[h][i] * p.y2(a, h, j) - du[h][j] * p.y2(a, h, i)
            row.append(acc)
        v2.append(row)
    return Prolongation(v0, v1, v2)


class TransformedSupplier:
    """Affine data of the Lie-transformed Lagrangian L' = X^(2)(L) + div(u) L.

    Produces the transformed block L'^{ab}_a and zero-order part L'_0 from the
    base supplier's tables by one inner derivative pass; itself a supplier, so
    the whole pipeline (projectability, momenta, Noether) applies to L'.
    """

    def __init__(self, base, X: VectorField):
        self.base = base
        self.X = X
        self.extra_cap = base.extra_cap + 1

    def tables(self, x, y, dy, jv: JetVars, cap: int):
        n, m = self.X.n, self.X.m
        ijv = JetVars(n, m, 2)
        one = ring_one(value_of(y[0]))
        icap = cap + 1 + self.base.extra_cap
        ix = [Jet.variable(ijv.id_of[("x", i)], x[i], icap, one) for i in range(n)]
        iy = [Jet.variable(ijv.id_of[("y", a)], y[a], icap, one) for a in range(m)]
        idy = [[Jet.variable(ijv.id_of[("y1", a, i)], dy[a][i], icap, one)
                for i in range(n)] for a in range(m)]
        l0, lij = self.base.tables(ix, iy, idy, ijv, cap + 1)

        pt = list(x) + list(y)
        u = [p.eval(x) for p in self.X.u]
        du = [[self.X.u[h].diff(r).eval(x) for r in range(n)] for h in range(n)]
        d2u = [[[self.X.u[h].diff(r).diff(s_).eval(x) for s_ in range(n)]
                for r in range(n)] for h in range(n)]
        v0 = [p.eval(pt) for p in self.X.v]
        dvx = [[self.X.v[a].diff(i).eval(pt) for i in range(n)] for a in range(m)]
        dvy = [[self.X.v[a].diff(n + b).eval(pt) for b in range(m)] for a in range(m)]
        d2vxx = [[[self.X.v[a].diff(i).diff(j).eval(pt) for j in range(n)]
                  for i in range(n)] for a in range(m)]
        d2vxy = [[[self.X.v[a].diff(i).diff(n + b).eval(pt) for b in range(m)]
                  for i in range(n)] for a in range(m)]
        d2vyy = [[[self.X.v[a].diff(n + b).diff(n + c).eval(pt) for c in range(m)]
                  for b in range(m)] for a in range(m)]
        div = sum(du[i][i] for i in range(n))
        v1 = []
        for a in range(m):
            row = []
            for i in range(n):
                acc = dvx[a][i]
                for b in range(m):
                    acc = acc + dy[b][i] * dvy[a][b]
                for h in range(n):
                    acc = acc - du[h][i] * dy[a][h]
                row.append(acc)
            v1.append(row)

        def x1_of(jet: Jet):
            acc = 0
            for i in range(n):
                acc = acc + u[i] * jet.deriv(ijv.id_of[("x", i)])
            for a in range(m):
                acc = acc + v0[a] * jet.deriv(ijv.id_of[("y", a)])
                for i in range(n):
                    acc = acc + v1[a][i] * jet.deriv(ijv.id_of[("y1", a, i)])
            return acc

        lij_out = {}
        for al in range(m):
            for (i, j) in sym_pairs(n):
                acc = x1_of(lij[(al, i, j)]) + div * lij[(al, i, j)].value
                for be in range(m):
                    acc = acc + dvy[be][al] * lij[(be, i, j)].value
                for r in range(n):
                    acc = acc - du[i][r] * lij[(al,) + _sp(r, j)].value \
                              - du[j][r] * lij[(al,) + _sp(r, i)].value
                lij_out[(al, i, j)] = acc
        l0_out = x1_of(l0) + div * l0.value
        for be in range(m):
            for h in range(n):
                for k in range(n):
                    t = d2vxx[be][h][k]
                    for ga in range(m):
                        t = t + d2vxy[be][k][ga] * dy[ga][h] \
                              + d2vxy[be][h][ga] * dy[ga][k]
                        for sg in range(m):
                            t = t + d2vyy[be][ga][sg] * dy[ga][h] * dy[sg][k]
                    for r in range(n):
                        t = t - d2u[r][h][k] * dy[be][r]
                    l0_out = l0_out + t * lij[(be,) + _sp(h, k)].value
        return l0_out, lij_out


def symmetry_transform(supplier, X: VectorField, n: int, m: int):
    """The transformed affine data as a supplier, and L' as a JetFunction."""
    tsup = TransformedSupplier(supplier, X)

    def fn(p: JetPoint):
        jv = JetVars(n, m, 2)
        l0, lij = tsup.tables(p.x, p.y, p.dy, jv, 0)
        acc = l0
        for al in range(m):
            for (i, j) in sym_pairs(n):
                acc = acc + (2 - _d(i, j)) * lij[(al, i, j)] * p.y2(al, i, j)
        return acc

    return tsup, JetFunction(2, fn, name="transformed Lagrangian")


def lagrangian_value(supplier, p2: JetPoint, jv: JetVars | None = None):
    """L at an order-2 point, reconstructed from the affine data."""
    n, m = p2.n, p2.m
    if jv is None:
        jv = JetVars(n, m, 2)
    l0, lij = supplier.tables(p2.x, p2.y, p2.dy, jv, 0)
    acc = l0 if not isinstance(l0, Jet) else l0.value
    for al in range(m):
        for (i, j) in sym_pairs(n):
            c = lij[(al, i, j)]
            c = c.value if isinstance(c, Jet) else c
            acc = acc + (2 - _d(i, j)) * c * p2.y2(al, i, j)
    return acc


def noether_current(supplier, X: VectorField, s: PolySection, x) -> list:
    """Components J^i of the contracted Poincare-Cartan form along j^1 s,
    in the basis (-1)^{i-1} v_i:

        J^i = A_a^i (v^a - u^k y^a_k) + L_a^{ih} (v^a_h - u^k y^a_(hk))
              + u^i L.

    The form is closed along extremals when X is an infinitesimal symmetry.
    """
    n, m = s.n, s.m
    p2 = jet_of_section(s, x, 2)
    data = pipeline(supplier, p2.truncated(1), cap=1)
    pro = prolong(X, p2, order=1)
    u = X.u_val(p2.x)
    lval = float(value_of(lagrangian_value(supplier, p2)))
    out = []
    for i in range(n):
        acc = u[i] * lval
        for al in range(m):
            vert = pro.v[al] - sum(u[k] * p2.y1(al, k) for k in range(n))
            acc = acc + float(value_of(data.a[(al, i)].value)) * vert
            for h in range(n):
                vert1 = pro.v1[al][h] - sum(u[k] * p2.y2(al, h, k) for k in range(n))
                acc = acc + float(value_of(data.lij_get(al, i, h).value)) * vert1
        out.append(acc)
    return out


def noether_divergence(supplier, X: VectorField, s: PolySection, x,
                       h: float = 1e-3) -> float:
    """sum_i dJ^i/dx^i by Richardson central differences."""
    n = s.n
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
        for a in range(m):
            for (i, j) in sym_pairs(n):
                acc = acc + (2 - _d(i, j)) * c[a] * phi_tt[i][j].eval(pt) \
                    * p.y2(a, i, j)
        return acc

    return SecondOrderLagrangian(n, m, JetFunction(2, fn, name="random projectable"))
