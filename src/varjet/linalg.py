"""Exact linear algebra over the rationals and Gaussian rationals.

Row reduction, rank and nullspace with Fraction (or QC) entries; the Jacobi
dimension counts and the Fourier mode classification must be exact rank
statements, not numerical-rank guesses.

Rows of ints and Fractions are reduced fraction-free: each row is scaled to
integers by the lcm of its denominators, a row is eliminated against the
pivot row as pv*row_i - f*row_r and divided by the gcd of its entries, and
each pivot row is divided by its pivot once at the end (E. H. Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968, for integer-preserving elimination).
The RREF is unique, so this equals field elimination, entry for entry, and
its entries are Fractions.  Any other ring, such as the Gaussian rationals
(QC), is eliminated over its field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


@dataclass(frozen=True)
class QC:
    """Gaussian rational a + b i with exact Fraction parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re=0, im=0) -> "QC":
        return QC(Fraction(re), Fraction(im))

    def __add__(self, o):
        o = _as_qc(o)
        return QC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __sub__(self, o):
        return self + (-_as_qc(o))

    def __rsub__(self, o):
        return _as_qc(o) + (-self)

    def __mul__(self, o):
        o = _as_qc(o)
        return QC(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = _as_qc(o)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QC((self.re * o.re + self.im * o.im) / d,
                  (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, o):
        return _as_qc(o) / self

    def __eq__(self, o):
        o = _as_qc(o)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}*i)"


QC_I = QC(Fraction(0), Fraction(1))


def _as_qc(x) -> QC:
    if isinstance(x, QC):
        return x
    if isinstance(x, (int, Fraction)):
        return QC(Fraction(x), Fraction(0))
    raise TypeError(f"cannot coerce {x!r} to a Gaussian rational")


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form (in place on a copy) and pivot columns.

    Rows of ints and Fractions take the integer path and come back as
    Fractions; any other ring (QC) is eliminated over its field."""
    m = [list(r) for r in rows]
    if all(isinstance(v, (int, Fraction)) for r in m for v in r):
        m, pivots = _integer_rref([_integer_row(r) for r in m])
        ncols = len(m[0]) if m else 0
        red = [[Fraction(v, row[c]) for v in row] for row, c in zip(m, pivots)]
        red += [[Fraction(0)] * ncols for _ in range(len(m) - len(pivots))]
        return red, pivots
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _integer_row(row: list) -> list[int]:
    """The row scaled to primitive integers (lcm of the denominators, then
    gcd of the numerators)."""
    den = lcm(*(v.denominator for v in row))
    return _primitive([v.numerator * (den // v.denominator) for v in row])


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def _integer_rref(m: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan on primitive integer rows (in place).

    Returns the reduced echelon form with every row primitive (the gcd of
    its entries is 1; a pivot row is +-lcm(denominators) times its RREF
    row) and the pivot columns.  Pivots are chosen as in `rref`'s field
    path: the first nonzero entry at or below the current row."""
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        pv = prow[c]
        for i in range(nrows):
            f = m[i][c]
            if i != r and f:
                m[i] = _primitive([pv * a - f * b for a, b in zip(m[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows) -> int:
    if not rows:
        return 0
    return len(rref(rows)[1])


def nullspace(rows: list[list], ncols: int | None = None) -> list[list]:
    """Exact basis of the kernel of the matrix (rows of Fractions/QC)."""
    if not rows:
        if ncols is None:
            raise ValueError("empty matrix needs explicit column count")
        zero, one = Fraction(0), Fraction(1)
        return [[one if i == j else zero for j in range(ncols)]
                for i in range(ncols)]
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    zero = red[0][0] * 0
    one = zero + 1
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def in_row_space(rows: list[list], vec: list) -> bool:
    """Whether `vec` is a rational combination of the rows (exact)."""
    base = rank(rows)
    return rank(rows + [list(vec)]) == base


def solve_exact(a_rows: list[list], b: list):
    """One exact solution x of A x = b (A given by rows), or None."""
    ncols = len(a_rows[0])
    aug = [list(r) + [bv] for r, bv in zip(a_rows, b)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    zero = red[0][0] * 0
    x = [zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x
