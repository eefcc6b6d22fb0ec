"""Pseudo-Riemannian metric jets and the classical curvature tensors.

Metric components double as the fibre coordinates of the bundle of metrics,
so a :class:`MetricJet` of order r converts losslessly to a
:class:`~varjet.jets.JetPoint` with m = n(n+1)/2 and back.  All tensor
formulas are written over generic scalar rings; numpy enters only for the
signature validation of float metrics and the sampling in
`random_metric_jet`.  A MetricJet forms its inverse g^-1 and volume factor
rho once, on first read; every reader of the same jet shares them, and
`mat_inverse` and `mat_det` are called nowhere else.  The Levi-Civita
derivatives nabla T and nabla nabla T of a tensor field are formed only by
`covariant_derivatives`, component by component on read: the Noether
current, the flat BF corollary, `sigma_nabla` and
`covariant_derivative_residual` read them, and only this module reads
`CurvatureData.dgamma`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .fwd import ring_sqrt, ring_unit, value_of
from .jets import JetPoint, pair_index, sym_pairs, sym_triples


class SingularMetricError(ValueError):
    """Metric too close to the degenerate locus."""


# ---------------------------------------------------------------------------
# generic dense linear algebra (works over Jets and Fractions)


def mat_det(a):
    """Determinant by cofactor expansion along the first row (n = 1 and 2
    written out), in the ring of the entries: no division."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    det = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        term = a[0][j] * mat_det(minor)
        det = term + det if j % 2 == 0 else det - term
    return det


def _check_nonsingular(det: float, rows) -> None:
    """Refuse a float |det| of at most 1e-12 times the product of the row
    2-norms (Hadamard's bound on |det|): singular to working precision."""
    bound = math.prod(math.hypot(*row) for row in rows)
    if abs(det) <= 1e-12 * bound:
        raise SingularMetricError(
            f"|det| = {abs(det):.3e} against the Hadamard bound {bound:.3e}")


def mat_inverse(a):
    """Inverse by adjugate (dimensions here are <= 4): each cofactor times
    one reciprocal of det, in the ring of its value (Fractions for ints).

    Raises SingularMetricError at a zero value part of det and, for a float
    det, when `_check_nonsingular` refuses it.
    """
    n = len(a)
    det = mat_det(a)
    d0 = value_of(det)
    if d0 == 0:
        raise SingularMetricError("zero determinant")
    if isinstance(d0, float):
        _check_nonsingular(d0, [map(value_of, row) for row in a])
    rdet = ring_unit(d0) / det
    inv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[a[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            cof = mat_det(minor) if minor else 1
            inv[j][i] = cof * rdet if (i + j) % 2 == 0 else -cof * rdet
    return inv


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricJet:
    """Symmetric metric components and their x-derivatives at a point.

    g, dg, d2g, d3g are stored once per sorted component pair (a <= b);
    derivative slots are themselves symmetric in the differentiation indices.
    `ginv` (g^-1 as a full n x n list), `rho` (sqrt|det g|) and
    `rho_gpairs` (the products rho g^p g^q of its stored slots) are formed
    from g on first read and kept, so each metric row is inverted once per
    jet and each pair product formed once; a singular row raises
    SingularMetricError there.
    """

    n: int
    signature: tuple[int, int]           # (n_plus, n_minus)
    g: tuple                             # g[pair_index]
    dg: tuple = ()                       # dg[pair_index][k]
    d2g: tuple = ()                      # d2g[pair_index][pair_index(k<=l)]
    d3g: tuple = ()                      # d3g[pair_index][triple_index]

    @property
    def order(self) -> int:
        if self.d3g:
            return 3
        if self.d2g:
            return 2
        if self.dg:
            return 1
        return 0

    def comp(self, a: int, b: int):
        return self.g[pair_index(self.n, a, b)]

    def dcomp(self, a: int, b: int, k: int):
        return self.dg[pair_index(self.n, a, b)][k]

    def d2comp(self, a: int, b: int, k: int, l: int):
        return self.d2g[pair_index(self.n, a, b)][pair_index(self.n, k, l)]

    def matrix(self):
        n = self.n
        return [[self.comp(a, b) for b in range(n)] for a in range(n)]

    @cached_property
    def ginv(self):
        return mat_inverse(self.matrix())

    @cached_property
    def rho(self):
        self.ginv       # a singular row raises here, as on reading ginv
        return ring_sqrt(abs(mat_det(self.matrix())))

    @cached_property
    def rho_gpairs(self):
        """rho g^p g^q for the stored slots p, q of g^-1 (the pairs a <= b
        of `sym_pairs`), as an N x N list, N = n(n+1)/2, whose [p][q] and
        [q][p] are one value: (rho g^p) g^q for p <= q, so N + N(N+1)/2
        products.  The EH tables `l0` and `lij_rs` read only these."""
        gs = [self.ginv[a][b] for a, b in sym_pairs(self.n)]
        out = [[None] * len(gs) for _ in gs]
        for p, gp in enumerate(gs):
            rgp = self.rho * gp
            for q in range(p, len(gs)):
                out[p][q] = out[q][p] = rgp * gs[q]
        return out

    def with_slots(self, **slots) -> MetricJet:
        """This jet with other derivative slots (dg, d2g, d3g).  g is kept,
        so the copy shares g^-1, forming it here if it is not yet formed,
        and rho and the pair table if they are."""
        out = replace(self, **slots)
        out.__dict__["ginv"] = self.ginv
        for name in ("rho", "rho_gpairs"):
            if name in self.__dict__:
                out.__dict__[name] = self.__dict__[name]
        return out

    def validate(self) -> None:
        """Nondegeneracy (`_check_nonsingular`, in floats) and the declared
        signature."""
        gm = np.array([[float(value_of(v)) for v in row] for row in self.matrix()])
        _check_nonsingular(float(np.linalg.det(gm)), gm)
        eig = np.linalg.eigvalsh(0.5 * (gm + gm.T))
        npos = int(np.sum(eig > 0))
        if (npos, self.n - npos) != self.signature:
            raise SingularMetricError(
                f"signature {(npos, self.n - npos)} != declared {self.signature}")

    def to_jet_point(self, order: int | None = None) -> JetPoint:
        if order is None:
            order = self.order
        n = self.n
        m = len(self.g)
        return JetPoint(
            n, m, order, (0,) * n, tuple(self.g),
            tuple(tuple(row) for row in self.dg) if order >= 1 else (),
            tuple(tuple(row) for row in self.d2g) if order >= 2 else (),
            tuple(tuple(row) for row in self.d3g) if order >= 3 else ())


def metric_from_jet_point(p: JetPoint, signature) -> MetricJet:
    return MetricJet(p.n, tuple(signature), tuple(p.y),
                     tuple(tuple(r) for r in p.dy),
                     tuple(tuple(r) for r in p.d2y),
                     tuple(tuple(r) for r in p.d3y))


@dataclass(frozen=True)
class CurvatureData:
    """Christoffel symbols and curvature of the Levi-Civita connection.

    gamma[i][j][k] = Gamma^i_{jk}; riemann[i][j][k][l] = R^i_{jkl} with

        R^i_{jkl} = d Gamma^i_{jl}/dx^k - d Gamma^i_{jk}/dx^l
                    + Gamma^m_{jl} Gamma^i_{km} - Gamma^m_{jk} Gamma^i_{lm},

    ricci[j][l] = R^k_{jkl} and scalar = g^{jl} ricci[j][l];
    dgamma[i][j][k][r] = d Gamma^i_{jk}/dx^r, symmetric in (j, k):

        d_r Gamma^i_{jk} = -(G dG_r)^i_b Gamma^b_{jk}
                           + 1/2 G^{il} (g_{lj,kr} + g_{lk,jr} - g_{jk,lr})

    with G = g^-1 and dG_r = (g_{ab,r}), as d_r G = -G dG_r G.
    """

    gamma: tuple
    riemann: tuple
    ricci: tuple
    scalar: object
    dgamma: tuple


def christoffel(mj: MetricJet):
    """Gamma^i_{jk} = 1/2 g^{il} (g_{lj,k} + g_{lk,j} - g_{jk,l}), as
    gamma[i][j][k]."""
    if mj.order < 1:
        raise ValueError("Christoffel symbols need a metric jet of order >= 1")
    n = mj.n
    ginv = mj.ginv
    half = ring_unit(ginv[0][0]) / 2
    gam = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                s = 0
                for l in range(n):
                    s = s + ginv[i][l] * (mj.dcomp(l, j, k) + mj.dcomp(l, k, j)
                                          - mj.dcomp(j, k, l))
                val = s * half
                gam[i][j][k] = val
                gam[i][k][j] = val
    return gam


def curvature(mj: MetricJet) -> CurvatureData:
    """Levi-Civita curvature, Ricci form R_{jl} = R^k_{jkl}, scalar curvature."""
    if mj.order < 2:
        raise ValueError("curvature needs a metric jet of order >= 2")
    n = mj.n
    gam, ginv = christoffel(mj), mj.ginv
    half = ring_unit(ginv[0][0]) / 2
    dgam = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for r in range(n):
        gdg = [[sum(ginv[i][a] * mj.dcomp(a, b, r) for a in range(n))
                for b in range(n)] for i in range(n)]       # (G dG_r)^i_b
        for i in range(n):
            for j in range(n):
                for k in range(j, n):
                    s = 0
                    for l in range(n):
                        s = s + ginv[i][l] * (mj.d2comp(l, j, k, r) + mj.d2comp(l, k, j, r)
                                              - mj.d2comp(j, k, l, r))
                    val = s * half
                    for b in range(n):
                        val = val - gdg[i][b] * gam[b][j][k]
                    dgam[i][j][k][r] = val
                    dgam[i][k][j][r] = val
    riem = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(k + 1, n):    # antisymmetric in (k, l)
                    s = dgam[i][j][l][k] - dgam[i][j][k][l]
                    for mm in range(n):
                        s = s + gam[mm][j][l] * gam[i][k][mm] \
                              - gam[mm][j][k] * gam[i][l][mm]
                    riem[i][j][k][l] = s
                    riem[i][j][l][k] = -s
    ricci = [[0] * n for _ in range(n)]
    for j in range(n):
        for l in range(n):
            s = 0
            for k in range(n):
                s = s + riem[k][j][k][l]
            ricci[j][l] = s
    scal = 0
    for j in range(n):
        for l in range(n):
            scal = scal + ginv[j][l] * ricci[j][l]
    return CurvatureData(tuple(map(tuple, (tuple(map(tuple, g)) for g in gam))),
                         _freeze4(riem), tuple(map(tuple, ricci)), scal, _freeze4(dgam))


def _freeze4(t):
    return tuple(tuple(tuple(tuple(r) for r in p) for p in q) for q in t)


def _connection_terms(c, n: int, upper: int, idx: tuple, read):
    """sum over m < n and the slots s of idx of c(idx[s], m) read(idx with
    m at s) on the first `upper` slots, minus c(m, idx[s]) read(...) on the
    rest: with c(a, m) = Gamma^a_{vm} the Gamma-terms of nabla_v, with
    c(a, m) = d_u Gamma^a_{vm} the terms that d_u adds to them."""
    acc = 0
    for s, a in enumerate(idx):
        for m in range(n):
            j = idx[:s] + (m,) + idx[s + 1:]
            acc = acc + c(a, m) * read(j) if s < upper else acc - c(m, a) * read(j)
    return acc


def covariant_derivatives(cd, t, dt, d2t, upper: int):
    """Levi-Civita nabla T and nabla nabla T at one point, from component
    readers over index tuples I: t(I) = T_I, dt(u, I) = d_u T_I and
    d2t(u, v, I) = d_u d_v T_I, the first `upper` slots of I contravariant
    and the rest covariant.  `cd` is the CurvatureData at the point, or
    the Christoffel table alone when only nabla T is read.

    Returns the readers nab(v, I) = (nabla_v T)_I and nab2(u, v, I) =
    (nabla_u nabla_v T)_I: d_u (nabla_v T)_I (dGamma-terms on T and
    Gamma-terms on d_u T), plus the Gamma-terms of nabla_u on the slots I
    of nabla T and -Gamma^m_{uv} (nabla_m T)_I for its covariant slot v.
    Each component, and each dt read, is formed on first read and kept for
    later reads of the same readers; no full tensor is built.
    """
    gam = getattr(cd, "gamma", cd)
    n = len(gam)
    dt = cache(dt)

    @cache
    def nab(v, idx):
        return dt(v, idx) + _connection_terms(lambda a, m: gam[a][v][m], n, upper, idx, t)

    @cache
    def nab2(u, v, idx):
        dgam = cd.dgamma
        d_nab = (d2t(u, v, idx)
                 + _connection_terms(lambda a, m: dgam[a][v][m][u], n, upper, idx, t)
                 + _connection_terms(lambda a, m: gam[a][v][m], n, upper, idx,
                                     lambda j: dt(u, j)))
        return (d_nab + _connection_terms(lambda a, m: gam[a][u][m], n, upper, idx,
                                          lambda j: nab(v, j))
                - sum(gam[m][u][v] * nab(m, idx) for m in range(n)))

    return nab, nab2


def sigma_nabla(gamma, g_row, n: int, signature) -> MetricJet:
    """The 1-jet of metric with value g and vanishing covariant derivative.

    `gamma[i][j][k]` are the symbols of a symmetric linear connection; the
    output's first derivatives dg_{ij,k} = Gamma^h_{ik} g_{hj} + Gamma^h_{jk}
    g_{hi} are minus the Gamma-terms of nabla_k g_{ij} (`covariant_derivatives`
    at dg = 0), the unique choice making (nabla g)_x = 0.
    """
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if gamma[i][j][k] != gamma[i][k][j]:
                    raise ValueError("connection symbols must be symmetric")
    nab, _ = covariant_derivatives(gamma, lambda idx: g_row[pair_index(n, *idx)],
                                   lambda k, idx: 0, None, 0)
    dg = tuple(tuple(-nab(k, pr) for k in range(n)) for pr in sym_pairs(n))
    return MetricJet(n, tuple(signature), tuple(g_row), dg)


def covariant_derivative_residual(mj: MetricJet) -> float:
    """max |nabla_k g_ij| for the metric jet's own Levi-Civita symbols."""
    nab, _ = covariant_derivatives(christoffel(mj), lambda idx: mj.comp(*idx),
                                   lambda k, idx: mj.dcomp(*idx, k), None, 0)
    return max(abs(float(value_of(nab(k, pr))))
               for pr in sym_pairs(mj.n) for k in range(mj.n))


# ---------------------------------------------------------------------------
# samplers and stock metrics


def signature_diagonal(n: int, signature) -> list[int]:
    npos, nneg = signature
    if npos + nneg != n:
        raise ValueError("signature does not sum to the dimension")
    return [1] * npos + [-1] * nneg


def random_metric_jet(rng: np.random.Generator, n: int, signature,
                      order: int = 2) -> MetricJet:
    """g = A D A^T with |det A| in [1/2, 2]; derivative slots uniform in [-1,1]."""
    d = np.diag(signature_diagonal(n, signature)).astype(float)
    while True:
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        if 0.5 <= abs(np.linalg.det(a)) <= 2.0:
            break
    gm = a @ d @ a.T
    npairs = len(sym_pairs(n))
    g = tuple(gm[i, j] for i, j in sym_pairs(n))
    dg = tuple(tuple(rng.uniform(-1, 1, n)) for _ in range(npairs))
    d2g = d3g = ()
    if order >= 2:
        d2g = tuple(tuple(rng.uniform(-1, 1, npairs)) for _ in range(npairs))
    if order >= 3:
        ntrip = len(sym_triples(n))
        d3g = tuple(tuple(rng.uniform(-1, 1, ntrip)) for _ in range(npairs))
    mj = MetricJet(n, tuple(signature), g, dg if order >= 1 else (), d2g, d3g)
    mj.validate()
    return mj


def constant_metric_jet(diag, order: int = 2) -> MetricJet:
    n = len(diag)
    npos = sum(1 for v in diag if value_of(v) > 0)
    npairs = len(sym_pairs(n))
    g = tuple(diag[i] if i == j else 0 for i, j in sym_pairs(n))
    zeros1 = tuple((0,) * n for _ in range(npairs))
    zeros2 = tuple((0,) * npairs for _ in range(npairs))
    zeros3 = tuple((0,) * len(sym_triples(n)) for _ in range(npairs))
    return MetricJet(n, (npos, n - npos), g,
                     zeros1 if order >= 1 else (),
                     zeros2 if order >= 2 else (),
                     zeros3 if order >= 3 else ())
