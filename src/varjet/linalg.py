"""Exact linear algebra over the rationals.

Row reduction, rank, nullspace and determinant with int and Fraction
entries; the Jacobi dimension counts, the Fourier mode classification and
the EH regularity and symmetry checks must be exact rank statements, not
numerical-rank guesses.

Rows are reduced fraction-free: each row is scaled to integers by the lcm
of its denominators (an all-int row is taken as it is), a row is
eliminated against the pivot row as pv*row_i - f*row_r and divided by the
gcd of its entries, and each pivot row is divided by its pivot once at the
end (E. H. Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968, for
integer-preserving elimination).  The RREF is unique, so this equals field
elimination, entry for entry, and its entries are Fractions.  A `Fraction`
is formed only for a returned value: `rref` forms one per nonzero
off-pivot cell of its result and shares one zero and one 1 (every pivot
cell), `nullspace` reads the off-pivot cells, `rank` and `in_row_space`
count the pivots of the integer elimination and form none.  `det` runs
Bareiss's elimination, every division exact, on the rows scaled to
integers.  Any other entry type raises `TypeError`.

`integer_scaled` is the one scaling path to integer numerators over one
denominator: the rows and determinants here, the exact `y_table`, the
flat pairing and the integer terms of the flat operator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _check_entries(rows: list[list], routine: str) -> None:
    """Raise the `TypeError` naming the first entry that is neither an int
    nor a Fraction (the error path of a None from `integer_scaled`)."""
    for r in rows:
        for v in r:
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"{routine} takes int and Fraction entries, not "
                                f"{type(v).__name__} {v!r}")


def integer_scaled(values) -> tuple[list[int], int] | None:
    """(nums, d) with values[i] == nums[i] / d, d the lcm of the values'
    denominators (1 for all ints), for an iterable of ints and Fractions;
    None if any value is of another type."""
    values = list(values)
    if all(type(v) is int for v in values):
        return values, 1
    if not all(isinstance(v, (int, Fraction)) for v in values):
        return None
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form (a new matrix of Fractions) and pivot
    columns.  Entries must be ints or Fractions; any other raises
    `TypeError`.  A Fraction is formed for each nonzero cell right of a
    pivot, from the primitive integer pivot row; every pivot cell is one
    shared `Fraction(1)` and every zero cell, padding rows included, one
    shared `Fraction(0)`."""
    m, pivots = _integer_rref([_integer_row(r) for r in rows])
    zero, one = Fraction(0), Fraction(1)
    ncols = len(m[0]) if m else 0
    red = [[zero] * c + [one] + [Fraction(v, row[c]) if v else zero for v in row[c + 1:]]
           for row, c in zip(m, pivots)]
    red += [[zero] * ncols for _ in range(len(m) - len(pivots))]
    return red, pivots


def _integer_row(row: list, routine: str = "rref") -> list[int]:
    """The row scaled to primitive integers (`integer_scaled`, then the
    gcd of the numerators); an entry of another type raises `TypeError`,
    named for `routine`."""
    scaled = integer_scaled(row)
    if scaled is None:
        _check_entries([row], routine)
    return _primitive(scaled[0])


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def _integer_rref(m: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan on primitive integer rows (in place).

    Returns the reduced echelon form with every row primitive (the gcd of
    its entries is 1; a pivot row is +-lcm(denominators) times its RREF
    row) and the pivot columns.  The pivot is the first nonzero entry at
    or below the current row."""
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


def det(rows: list[list]) -> Fraction:
    """Determinant of a square matrix of ints and Fractions (any other
    entry raises `TypeError`): Bareiss's elimination on the rows scaled to
    integers by the lcm of all denominators, whose k-th pivot is a k x k
    minor, so every division by the previous pivot is exact."""
    scaled = integer_scaled(v for r in rows for v in r)
    if scaled is None:
        _check_entries(rows, "det")
    nums, den = scaled
    n = len(rows)
    m = [nums[i * n:(i + 1) * n] for i in range(n)]
    sign, prev = 1, 1
    for k in range(n - 1):
        swap = next((i for i in range(k, n) if m[i][k]), None)
        if swap is None:
            return Fraction(0)
        if swap != k:
            m[k], m[swap], sign = m[swap], m[k], -sign
        for ri in m[k + 1:]:
            ri[k + 1:] = [(m[k][k] * a - ri[k] * b) // prev
                          for a, b in zip(ri[k + 1:], m[k][k + 1:])]
        prev = m[k][k]
    return Fraction(sign * m[-1][-1] if n else 1, den ** n)


def rank(rows) -> int:
    """Exact rank of the matrix (rows of ints and Fractions): the pivot
    count of the integer elimination, with no Fraction formed."""
    if not rows:
        return 0
    return len(_integer_rref([_integer_row(r, "rank") for r in rows])[1])


def nullspace(rows: list[list], ncols: int | None = None) -> list[list]:
    """Exact basis of the kernel of the matrix (rows of ints and
    Fractions), one Fraction vector per free column.  Its entries are the
    negated free columns of `rref` at the pivot positions, a 1 at the free
    column and one shared `Fraction(0)` elsewhere."""
    zero, one = Fraction(0), Fraction(1)
    if not rows:
        if ncols is None:
            raise ValueError("empty matrix needs explicit column count")
        return [[one if i == j else zero for j in range(ncols)]
                for i in range(ncols)]
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            if red[r][fc]:
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
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x
