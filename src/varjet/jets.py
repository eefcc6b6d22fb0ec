"""Coordinate-level jet calculus.

Jets of sections of a fibred manifold R^n x R^m -> R^n are stored up to
order 3 in the coordinates (x^i, y^a, y^a_i, y^a_(ij), y^a_(ijk)).
Symmetric slots are stored once per sorted index tuple; every accessor
accepts indices in any order.  `jet_of_section` is the one place that
forms the jet of a polynomial field, and `JetVars` numbers the coordinates
as AD ids by their storage position.

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
from itertools import combinations_with_replacement, count

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
    the ring of x (see `point_ring`).  The point may hold Jets: the entries
    are then Jets (or exact constants) in the variables of those Jets."""
    if order > 3:
        raise JetOrderError("jets only stored up to order 3")
    n, x = s.n, tuple(x)
    ev = point_ring(x)
    # each partial is one diff of the partial below it
    d1 = [[p.diff(i) for i in range(n)] for p in s.polys] if order >= 1 else []
    d2 = [[row[i].diff(j) for i, j in sym_pairs(n)] for row in d1] if order >= 2 else []
    d3 = [[row[pair_index(n, i, j)].diff(k) for i, j, k in sym_triples(n)]
          for row in d2] if order >= 3 else []

    def at(polys):
        return tuple(ev(q.eval(x)) for q in polys)

    return JetPoint(n, s.m, order, x, at(s.polys),
                    *(tuple(map(at, d)) for d in (d1, d2, d3)))


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
    """The jet coordinates of J^order(R^n x R^m) as AD ids, numbered by
    position in JetPoint storage order: x^i, y^a, then the blocks y^a_i,
    y^a_(ij) and y^a_(ijk), each row a after row a - 1 and a row in
    `sym_pairs` (`sym_triples`) order.  Every accessor accepts indices in
    any order, and one above `order` raises JetOrderError.  The ids of a
    lower order are a prefix of those of a higher one.  A function written
    as a Jet over these ids is a function on J^order: `order` is the domain
    that `total_derivative` and `total_derivative2` read.
    """

    def __init__(self, n: int, m: int, order: int):
        self.n, self.m, self.order = n, m, order
        self._n2, self._n3 = n * (n + 1) // 2, n * (n + 1) * (n + 2) // 6
        self._off2 = n + m + m * n
        self._off3 = self._off2 + m * self._n2

    def __len__(self):
        ends = (self.n + self.m, self._off2, self._off3, self._off3 + self.m * self._n3)
        return ends[self.order]

    def _need(self, order):
        if self.order < order:
            raise JetOrderError(f"no order-{order} coordinates on J^{self.order}")

    def x(self, i):
        return i

    def y(self, a):
        return self.n + a

    def y1(self, a, i):
        self._need(1)
        return self.n + self.m + a * self.n + i

    def y2(self, a, i, j):
        self._need(2)
        return self._off2 + a * self._n2 + pair_index(self.n, i, j)

    def y3(self, a, i, j, k):
        self._need(3)
        return self._off3 + a * self._n3 + triple_index(self.n, i, j, k)


def seed_point(p: JetPoint, cap: int) -> tuple[JetPoint, JetVars]:
    """Replace every coordinate of `p` by a Jet seed.

    Each coordinate becomes an independent AD variable truncated at total
    order `cap`, with the unit of the ring of y (x may hold int 0 at float
    data).  One counter numbers the seeds in storage order, x, y and the
    blocks up to `p.order`, so a coordinate's id is its position, the id
    that the returned JetVars of order `p.order` gives it.
    """
    one = ring_unit(p.y[0])
    ids = count()

    def seeded(vals):
        return tuple(Jet.variable(next(ids), v, cap, one) for v in vals)

    x, y = seeded(p.x), seeded(p.y)
    blocks = [tuple(seeded(row) for row in block)
              for block in (p.dy, p.d2y, p.d3y)[:p.order]]
    return JetPoint(p.n, p.m, p.order, x, y, *blocks), JetVars(p.n, p.m, p.order)


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
