"""Coordinate-level jet calculus.

Jets of sections of a fibred manifold R^n x R^m -> R^n are stored up to
order 3 in the coordinates (x^i, y^a, y^a_i, y^a_(ij), y^a_(ijk)).
Symmetric slots are stored once per sorted index tuple; every accessor
accepts indices in any order.  Total derivatives implement

    D_j = d/dx^j + sum_I  y^a_{I+(j)} d/dy^a_I

over the stored coordinates, which makes the chain rule
``D_j F (j^{r+1} s) = d/dx^j [F(j^r s)]`` hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .fwd import Jet, ring_one


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


def triple_index(n: int, i: int, j: int, k: int) -> int:
    i, j, k = sorted((i, j, k))
    idx = 0
    for a, b, c in combinations_with_replacement(range(n), 3):
        if (a, b, c) == (i, j, k):
            return idx
        idx += 1
    raise IndexError((i, j, k))


@dataclass(frozen=True)
class MultiIndex:
    """Multi-index I = (i_1, ..., i_n) of partial-derivative exponents."""

    entries: tuple[int, ...]

    @property
    def order(self) -> int:
        return sum(self.entries)

    @staticmethod
    def unit(n: int, j: int) -> "MultiIndex":
        e = [0] * n
        e[j] = 1
        return MultiIndex(tuple(e))

    @staticmethod
    def from_indices(n: int, indices) -> "MultiIndex":
        e = [0] * n
        for j in indices:
            e[j] += 1
        return MultiIndex(tuple(e))

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        return MultiIndex(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def indices(self) -> tuple[int, ...]:
        out = []
        for i, k in enumerate(self.entries):
            out.extend([i] * k)
        return tuple(out)

    def factorial(self) -> int:
        f = 1
        for k in self.entries:
            for j in range(2, k + 1):
                f *= j
        return f


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

    def jet_at(self, x, order: int) -> JetPoint:
        return jet_of_section(self, x, order)

    def value(self, x) -> list:
        return [p.eval(x) for p in self.polys]


def jet_of_section(s: PolySection, x, order: int) -> JetPoint:
    """Jet coordinates y^a_I = (d^|I| s^a / dx^I)(x) for |I| <= order: all
    floats when a coordinate of x is a float, as evaluated at exact x."""
    if order > 3:
        raise JetOrderError("jets only stored up to order 3")
    n = s.n
    x = tuple(x)
    ev = float if any(isinstance(c, float) for c in x) else (lambda v: v)
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
    ('y3', a, (i, j, k)) with sorted index tuples.
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


def seed_point(p: JetPoint, cap: int, upto: int | None = None) -> tuple[JetPoint, JetVars]:
    """Replace the coordinates of `p` (up to jet order `upto`) by Jet seeds.

    Every seeded coordinate becomes an independent AD variable truncated at
    total order `cap`; coordinates above `upto` are left as plain numbers.
    """
    if upto is None:
        upto = p.order
    jv = JetVars(p.n, p.m, upto)
    one = ring_one(p.x[0] if p.n else 1)

    def seed(lab, val):
        return Jet.variable(jv.id_of[lab], val, cap, one)

    x = tuple(seed(("x", i), p.x[i]) for i in range(p.n))
    y = tuple(seed(("y", a), p.y[a]) for a in range(p.m))
    dy = d2y = d3y = ()
    if upto >= 1 and p.order >= 1:
        dy = tuple(tuple(seed(("y1", a, i), p.dy[a][i]) for i in range(p.n))
                   for a in range(p.m))
    elif p.order >= 1:
        dy = p.dy
    if upto >= 2 and p.order >= 2:
        d2y = tuple(tuple(seed(("y2", a, pr), p.d2y[a][k])
                          for k, pr in enumerate(sym_pairs(p.n)))
                    for a in range(p.m))
    elif p.order >= 2:
        d2y = p.d2y
    if upto >= 3 and p.order >= 3:
        d3y = tuple(tuple(seed(("y3", a, tr), p.d3y[a][k])
                          for k, tr in enumerate(sym_triples(p.n)))
                    for a in range(p.m))
    elif p.order >= 3:
        d3y = p.d3y
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


def total_derivative(F: JetFunction, j: int, p: JetPoint):
    """Total derivative D_j F evaluated at a jet of order >= F.order + 1."""
    if p.order < F.order + 1:
        raise JetOrderError("total derivative needs one more jet order than F")
    seeded, jv = seed_point(p.truncated(F.order), cap=1)
    out = F(seeded)

    def g(lab):
        return out.deriv(jv.id_of[lab])

    total = g(("x", j))
    for a in range(p.m):
        total = total + p.y1(a, j) * g(("y", a))
        if F.order >= 1:
            for i in range(p.n):
                total = total + p.y2(a, i, j) * g(("y1", a, i))
        if F.order >= 2:
            for (i, k) in sym_pairs(p.n):
                total = total + p.y3(a, i, k, j) * g(("y2", a, (i, k)))
    return total


# ---------------------------------------------------------------------------
# total derivatives of first-order data given as Jets
#
# The varcore pipeline extracts first-order functions (L_0, the L^ij block,
# momenta...) as Jets over the J^1 coordinates.  D_j and D_iD_j of those
# functions are then plain contractions of their stored partials with the
# higher jet coordinates.


def total_derivative_j1(G: Jet, jv: JetVars, p: JetPoint, j: int):
    """D_j G for G a function on J^1 (as a Jet over jv), at p of order >= 2."""
    total = G.deriv(jv.x(j))
    for a in range(p.m):
        total = total + p.y1(a, j) * G.deriv(jv.y(a))
        for i in range(p.n):
            total = total + p.y2(a, i, j) * G.deriv(jv.y1(a, i))
    return total


def total_derivative2_j1(G: Jet, jv: JetVars, p: JetPoint, i: int, j: int):
    """D_i D_j G for G a function on J^1, at a jet point of order >= 3."""
    n, m = p.n, p.m
    d = G.deriv
    total = d(jv.x(i), jv.x(j))
    for a in range(m):
        ya_i, ya_j = p.y1(a, i), p.y1(a, j)
        total = total + ya_i * d(jv.x(j), jv.y(a)) + ya_j * d(jv.x(i), jv.y(a))
        total = total + p.y2(a, i, j) * d(jv.y(a))
        for b in range(m):
            total = total + ya_i * p.y1(b, j) * d(jv.y(a), jv.y(b))
        for k in range(n):
            total = total + p.y2(a, j, k) * d(jv.x(i), jv.y1(a, k)) \
                          + p.y2(a, i, k) * d(jv.x(j), jv.y1(a, k))
            total = total + p.y3(a, i, j, k) * d(jv.y1(a, k))
            for b in range(m):
                total = total + (p.y2(a, j, k) * p.y1(b, i)
                                 + p.y2(a, i, k) * p.y1(b, j)) * d(jv.y1(a, k), jv.y(b))
            for l in range(n):
                for b in range(m):
                    total = total + p.y2(a, j, k) * p.y2(b, i, l) \
                        * d(jv.y1(a, k), jv.y1(b, l))
    return total
