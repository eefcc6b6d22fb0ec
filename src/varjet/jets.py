"""Coordinate-level jet calculus.

Jets of sections of a fibred manifold R^n x R^m -> R^n are stored up to
order 3 in the coordinates (x^i, y^a, y^a_i, y^a_(ij), y^a_(ijk)).
Symmetric slots are stored once per sorted index tuple; every accessor
accepts indices in any order.

The total derivative (Olver, Applications of Lie Groups to Differential
Equations, GTM 107)

    D_j = d/dx^j + sum_{|I| <= r}  y^a_{I+(j)} d/dy^a_I

is written once, as the stencil of `total_derivative_stencil`, and D_iD_j
as that of `total_derivative2_stencil`: the (coefficient, partial ids, key)
triples of the operator at one jet point.  `contract` applies a stencil to
a function G, or to a partial of G, by one keyed lookup in G's coefficients
per term, and `total_derivative` and `total_derivative2` are
stencil + contract; G is a `Jet` over the coordinates of a `JetVars`, and
the order r of that `JetVars` is the domain J^r of G.  At a jet of order
>= r + 1 (r + 2 for D_iD_j) the chain rule ``D_j G (j^{r+1} s) = d/dx^j [G(j^r s)]`` holds
exactly, over any ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .fwd import Jet, key_from_vars, key_multiplicity, ring_unit


# ---------------------------------------------------------------------------
# symmetric index bookkeeping


def sym_pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations_with_replacement(range(n), 2))


def sym_triples(n: int) -> list[tuple[int, int, int]]:
    return list(combinations_with_replacement(range(n), 3))


def pair_index(n: int, i: int, j: int) -> int:
    """Position of the sorted pair (i,j) in sym_pairs(n)."""
    if i > j:
        i, j = j, i
    # pairs (0,0)..(0,n-1), (1,1)..(1,n-1), ...
    return i * n - i * (i - 1) // 2 + (j - i)


def delta(i: int, j: int) -> int:
    """Kronecker delta."""
    return 1 if i == j else 0


def sign1(i: int) -> int:
    """(-1)^(i+1) for a 0-based index i: the printed sign (-1)^k at the
    1-based position k = i + 1."""
    return -1 if (i + 1) % 2 else 1


def triple_index(n: int, i: int, j: int, k: int) -> int:
    """Position of the sorted triple (i,j,k) in sym_triples(n)."""
    i, j, k = sorted((i, j, k))
    # T(n) - T(n - i) triples start below i, T(r) = r(r+1)(r+2)/6
    r = n - i
    return (n * (n + 1) * (n + 2) - r * (r + 1) * (r + 2)) // 6 + pair_index(r, j - i, k - i)


# ---------------------------------------------------------------------------
# jet points


class JetOrderError(ValueError):
    """Requested derivative data beyond the stored jet order."""


@dataclass(frozen=True)
class JetPoint:
    """A jet of a section up to order <= 3 at a single base point."""

    n: int
    m: int
    order: int
    x: tuple
    y: tuple
    dy: tuple = ()    # dy[a][i]
    d2y: tuple = ()   # d2y[a][pair_index]
    d3y: tuple = ()   # d3y[a][triple_index]

    def __post_init__(self):
        if not (0 <= self.order <= 3):
            raise JetOrderError(f"jet order {self.order} outside 0..3")

    def y1(self, a: int, i: int):
        if self.order < 1:
            raise JetOrderError("first derivatives not stored")
        return self.dy[a][i]

    def y2(self, a: int, i: int, j: int):
        if self.order < 2:
            raise JetOrderError("second derivatives not stored")
        return self.d2y[a][pair_index(self.n, i, j)]

    def y3(self, a: int, i: int, j: int, k: int):
        if self.order < 3:
            raise JetOrderError("third derivatives not stored")
        return self.d3y[a][triple_index(self.n, i, j, k)]

    def truncated(self, order: int) -> "JetPoint":
        if order > self.order:
            raise JetOrderError("cannot raise jet order by truncation")
        return JetPoint(self.n, self.m, order, self.x, self.y,
                        self.dy if order >= 1 else (),
                        self.d2y if order >= 2 else (),
                        self.d3y if order >= 3 else ())


@dataclass
class PolySection:
    """A section whose fibre components are polynomials in x^1..x^n."""

    n: int
    polys: list  # one Poly(nvars=n) per fibre coordinate

    @property
    def m(self) -> int:
        return len(self.polys)


def point_ring(x):
    """The conversion for polynomial values at x: `float` when a coordinate
    of x is a float, the identity at an exact x.  `Poly.eval` returns a
    term's exact coefficient when the term does not depend on x, so without
    it a float point would give some exact values."""
    return float if any(isinstance(c, float) for c in x) else _identity


def _identity(v):
    return v


def jet_of_section(s: PolySection, x, order: int) -> JetPoint:
    """Jet coordinates y^a_I = (d^|I| s^a / dx^I)(x) for |I| <= order, in
    the ring of x (see `point_ring`)."""
    if order > 3:
        raise JetOrderError("jets only stored up to order 3")
    n = s.n
    x = tuple(x)
    ev = point_ring(x)
    y = tuple(ev(p.eval(x)) for p in s.polys)
    dy = d2y = d3y = ()
    if order >= 1:
        dy = tuple(tuple(ev(p.diff(i).eval(x)) for i in range(n)) for p in s.polys)
    if order >= 2:
        d2y = tuple(tuple(ev(p.diff(i).diff(j).eval(x)) for i, j in sym_pairs(n))
                    for p in s.polys)
    if order >= 3:
        d3y = tuple(tuple(ev(p.diff(i).diff(j).diff(k).eval(x))
                          for i, j, k in sym_triples(n)) for p in s.polys)
    return JetPoint(n, s.m, order, x, y, dy, d2y, d3y)


# ---------------------------------------------------------------------------
# jet functions and their partials


@dataclass
class JetFunction:
    """A scalar function of a jet point, evaluable over any coefficient ring.

    `fn` must be written with ring operations only (+ - * / ** sqrt), so that
    evaluating it on a seeded JetPoint propagates derivatives.
    """

    order: int
    fn: object
    name: str = ""

    def __call__(self, p: JetPoint):
        if p.order < self.order:
            raise JetOrderError(
                f"{self.name or 'jet function'} needs order {self.order}, got {p.order}")
        return self.fn(p)


class JetVars:
    """Enumeration of the jet coordinates of J^order(R^n x R^m) as AD ids.

    Labels are tuples: ('x', i), ('y', a), ('y1', a, i), ('y2', a, (i, j)),
    ('y3', a, (i, j, k)) with sorted index tuples.  The ids of a lower order
    are a prefix of those of a higher one.  A function written as a Jet over
    these ids is a function on J^order: `order` is the domain that
    `total_derivative` and `total_derivative2` read.
    """

    def __init__(self, n: int, m: int, order: int):
        self.n, self.m, self.order = n, m, order
        labels: list[tuple] = [("x", i) for i in range(n)]
        labels += [("y", a) for a in range(m)]
        if order >= 1:
            labels += [("y1", a, i) for a in range(m) for i in range(n)]
        if order >= 2:
            labels += [("y2", a, p) for a in range(m) for p in sym_pairs(n)]
        if order >= 3:
            labels += [("y3", a, t) for a in range(m) for t in sym_triples(n)]
        self.labels = labels
        self.id_of = {lab: k for k, lab in enumerate(labels)}

    def __len__(self):
        return len(self.labels)

    def x(self, i):
        return self.id_of[("x", i)]

    def y(self, a):
        return self.id_of[("y", a)]

    def y1(self, a, i):
        return self.id_of[("y1", a, i)]

    def y2(self, a, i, j):
        return self.id_of[("y2", a, (min(i, j), max(i, j)))]

    def y3(self, a, i, j, k):
        return self.id_of[("y3", a, tuple(sorted((i, j, k))))]


def seed_point(p: JetPoint, cap: int) -> tuple[JetPoint, JetVars]:
    """Replace every coordinate of `p` by a Jet seed.

    Each coordinate becomes an independent AD variable truncated at total
    order `cap`, with the unit of the ring of y (x may hold int 0 at float
    data), numbered by the returned JetVars of order `p.order`.
    """
    jv = JetVars(p.n, p.m, p.order)
    one = ring_unit(p.y[0])

    def seed(lab, val):
        return Jet.variable(jv.id_of[lab], val, cap, one)

    x = tuple(seed(("x", i), p.x[i]) for i in range(p.n))
    y = tuple(seed(("y", a), p.y[a]) for a in range(p.m))
    dy = d2y = d3y = ()
    if p.order >= 1:
        dy = tuple(tuple(seed(("y1", a, i), p.dy[a][i]) for i in range(p.n))
                   for a in range(p.m))
    if p.order >= 2:
        d2y = tuple(tuple(seed(("y2", a, pr), p.d2y[a][k])
                          for k, pr in enumerate(sym_pairs(p.n)))
                    for a in range(p.m))
    if p.order >= 3:
        d3y = tuple(tuple(seed(("y3", a, tr), p.d3y[a][k])
                          for k, tr in enumerate(sym_triples(p.n)))
                    for a in range(p.m))
    return JetPoint(p.n, p.m, p.order, x, y, dy, d2y, d3y), jv


class PartialTable:
    """First and second partials of a jet function at a point."""

    def __init__(self, jet: Jet, jv: JetVars):
        self.jet = jet
        self.jv = jv

    @property
    def value(self):
        return self.jet.value

    def d(self, lab) -> object:
        return self.jet.deriv(self.jv.id_of[lab])

    def d2(self, lab1, lab2) -> object:
        return self.jet.deriv(self.jv.id_of[lab1], self.jv.id_of[lab2])


def jet_partials(F: JetFunction, p: JetPoint, cap: int = 2) -> PartialTable:
    """Value with first and second partials of F w.r.t. every jet coordinate."""
    if p.order != F.order:
        raise JetOrderError("point order must match the declared order of F")
    seeded, jv = seed_point(p, cap)
    return PartialTable(F(seeded), jv)


# ---------------------------------------------------------------------------
# total derivatives
#
# G is a function on J^r, r = jv.order, given by its partials: a Jet over the
# ids of jv (the varcore pipeline's L_0, L^ij block and momenta, or a seeded
# evaluation).  D_j G and D_iD_j G at a jet point are then contractions of
# those partials with the jet coordinates of the next orders.  A stencil is
# that contraction written out once per point: a list of (coefficient,
# partial ids, packed key of the ids) triples, with D G = sum c G.deriv(*ids)
# and no term whose coefficient is 0.  A caller that applies one D to many
# functions, or to many partials of one function, at the same point builds
# the stencil once and passes it to `contract`.


def contract(G, stencil, *ids):
    """sum_t c_t G.deriv(*ids, *ids_t) over the (c_t, ids_t, key_t) of a
    stencil: the stencil's operator applied to the partial dG/d(ids), read
    from G's own coefficients by one lookup at key(ids) + key_t per term (no
    partial Jet is built).  A hit is scaled by the multiplicity of
    ids + ids_t when that is not 1; a miss adds c_t * 0, so the sum keeps
    the ring that `G.deriv` gives it.  A read past `G.order` raises
    `ValueError`.  With no ids, the operator applied to G."""
    get, room, base = G.coef.get, G.order - len(ids), key_from_vars(ids)
    total = 0
    for c, t, k in stencil:
        if len(t) > room:
            raise ValueError(f"jet truncated at order {G.order}, asked {ids + t}")
        g = get(base + k)
        if g is None:
            total = total + c * 0
        else:
            m = key_multiplicity(ids + t)
            total = total + c * (g if m == 1 else g * m)
    return total


def _stencil(terms: dict) -> list:
    """The (c, ids, key) triples of the terms {ids: c} with c != 0."""
    return [(c, ids, key_from_vars(ids)) for ids, c in terms.items() if c != 0]


def total_derivative_stencil(jv: JetVars, p: JetPoint, j: int) -> list:
    """D_j at p for functions on J^r (r = jv.order), p of order >= r + 1."""
    r = jv.order
    if p.order < r + 1:
        raise JetOrderError(f"D_j of a function on J^{r} needs a jet of order "
                            f"{r + 1}, got {p.order}")
    terms = {(jv.x(j),): 1}
    for a in range(p.m):
        terms[(jv.y(a),)] = p.y1(a, j)
        if r >= 1:
            for i in range(p.n):
                terms[(jv.y1(a, i),)] = p.y2(a, i, j)
        if r >= 2:
            for (i, k) in sym_pairs(p.n):
                terms[(jv.y2(a, i, k),)] = p.y3(a, i, k, j)
    return _stencil(terms)


def total_derivative2_stencil(jv: JetVars, p: JetPoint, i: int, j: int) -> list:
    """D_iD_j at p for functions on J^r (r = jv.order <= 1), p of order
    >= r + 2.  A mixed partial that the expansion reaches twice (the
    y^a y^b and y'^a_k y'^b_l blocks, and the x-terms when i = j) is one
    term, with the summed coefficient."""
    r = jv.order
    if r > 1 or p.order < r + 2:
        raise JetOrderError(f"D_iD_j of a function on J^{r} needs r <= 1 and a "
                            f"jet of order {r + 2}, got {p.order}")
    n, m = p.n, p.m
    terms: dict = {}

    def add(c, *ids):
        ids = tuple(sorted(ids))
        acc = terms.get(ids)
        terms[ids] = c if acc is None else acc + c

    add(1, jv.x(i), jv.x(j))
    for a in range(m):
        ya_i, ya_j = p.y1(a, i), p.y1(a, j)
        add(ya_i, jv.x(j), jv.y(a))
        add(ya_j, jv.x(i), jv.y(a))
        add(p.y2(a, i, j), jv.y(a))
        for b in range(m):
            add(ya_i * p.y1(b, j), jv.y(a), jv.y(b))
        if r == 0:
            continue
        for k in range(n):
            yak_j, yak_i = p.y2(a, j, k), p.y2(a, i, k)
            add(yak_j, jv.x(i), jv.y1(a, k))
            add(yak_i, jv.x(j), jv.y1(a, k))
            add(p.y3(a, i, j, k), jv.y1(a, k))
            for b in range(m):
                add(yak_j * p.y1(b, i) + yak_i * p.y1(b, j), jv.y1(a, k), jv.y(b))
            for l in range(n):
                for b in range(m):
                    add(yak_j * p.y2(b, i, l), jv.y1(a, k), jv.y1(b, l))
    return _stencil(terms)


def total_derivative(G, jv: JetVars, p: JetPoint, j: int):
    """D_j G for G on J^r (r = jv.order), at p of order >= r + 1."""
    return contract(G, total_derivative_stencil(jv, p, j))


def total_derivative2(G, jv: JetVars, p: JetPoint, i: int, j: int):
    """D_i D_j G for G on J^r (r = jv.order <= 1), at p of order >= r + 2."""
    return contract(G, total_derivative2_stencil(jv, p, i, j))
