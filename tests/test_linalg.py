"""Exact row reduction and determinant: the integer paths of `rref` and
`det` against plain field elimination, and the entries they refuse."""

import random
import re
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from varjet import linalg
from varjet.linalg import det, in_row_space, nullspace, rank, rref, solve_exact


def field_rref(rows):
    """Gauss-Jordan over the field of the entries (ints read as Fractions),
    first nonzero entry at or below the current row as pivot."""
    m = [[F(v) if isinstance(v, int) else v for v in r] for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def field_nullspace(rows):
    """Kernel basis from `field_rref`: one vector per free column."""
    red, pivots = field_rref(rows)
    ncols = len(rows[0])
    zero = red[0][0] * 0
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[fc] = zero + 1
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def field_det(rows):
    """Gaussian elimination over the field, the sign flipped per swap."""
    m = [[F(v) for v in r] for r in rows]
    d = F(1)
    for k in range(len(m)):
        p = next((i for i in range(k, len(m)) if m[i][k]), None)
        if p is None:
            return F(0)
        if p != k:
            m[k], m[p], d = m[p], m[k], -d
        d *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return d


def typed(rows):
    return [[(type(v), v) for v in r] for r in rows]


def _entry(rng, kind):
    if rng.random() < 0.4:
        return 0 if kind == "int" else F(0)
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        return rng.randint(-9, 9)
    return F(rng.randint(-9, 9), rng.randint(1, 12))


def seeded_matrices():
    """Fraction, int and mixed matrices: wide, tall, square and 1x1 shapes,
    with zero rows, repeated rows and zero columns mixed in."""
    rng = random.Random(2024)
    out = []
    for kind in ("fraction", "int", "mixed"):
        for nrows, ncols in [(1, 1), (1, 1), (3, 7), (7, 3), (5, 5), (6, 6),
                             (2, 9), (9, 2), (8, 8), (4, 10)]:
            for _ in range(6):
                m = [[_entry(rng, kind) for _ in range(ncols)] for _ in range(nrows)]
                if nrows > 2 and rng.random() < 0.5:
                    m[rng.randrange(nrows)] = list(m[rng.randrange(nrows)])
                if nrows > 2 and rng.random() < 0.3:
                    m[rng.randrange(nrows)] = [0] * ncols
                if ncols > 2 and rng.random() < 0.3:
                    c = rng.randrange(ncols)
                    for row in m:
                        row[c] = F(0)
                if nrows > 3 and rng.random() < 0.3:
                    # low rank: every row a combination of the first two
                    a, b = m[0], m[1]
                    for i in range(2, nrows):
                        s, t = F(rng.randint(-3, 3), 2), rng.randint(-2, 2)
                        m[i] = [s * x + t * y for x, y in zip(a, b)]
                out.append(m)
    return out


def test_rref_rank_nullspace_match_field_elimination():
    for m in seeded_matrices():
        red, pivots = rref(m)
        want, want_pivots = field_rref(m)
        assert pivots == want_pivots, m
        assert typed(red) == typed(want), m
        assert rank(m) == len(want_pivots)
        assert typed(nullspace(m)) == typed(field_nullspace(m)), m


def test_rank_counts_integer_pivots_without_rref(monkeypatch):
    """`rank` and `in_row_space` read the pivots of the integer elimination
    and form no RREF: with `rref` made to raise they still agree with
    field elimination on every seeded matrix."""
    def refuse(rows):
        raise AssertionError("rank must not call rref")

    monkeypatch.setattr(linalg, "rref", refuse)
    for m in seeded_matrices():
        want = len(field_rref(m)[1])
        assert rank(m) == want, m
        assert in_row_space(m, m[-1]) and in_row_space(m, [0] * len(m[0]))
        assert in_row_space(m[:-1], m[-1]) == (rank(m[:-1]) == want), m


def test_det_matches_field_elimination():
    """On the square seeded matrices (singular ones among them), on row
    swaps and on the empty matrix."""
    square = [m for m in seeded_matrices() if len(m) == len(m[0])]
    assert sum(field_det(m) == 0 for m in square) > 0
    for m in square + [[[0, 2], [3, 0]], [[0, 0, 1], [0, 1, 0], [F(1, 2), 0, 0]]]:
        got = det(m)
        assert type(got) is F and got == field_det(m), m
    assert det([]) == 1


def test_integer_scaled_is_numerators_over_the_lcm():
    """Each value is its int numerator over the lcm of the denominators
    (1 for ints and for no values); any other entry type gives None."""
    for m in seeded_matrices():
        for row in m:
            nums, d = linalg.integer_scaled(row)
            assert d == lcm(*(F(v).denominator for v in row)), row
            assert all(type(v) is int for v in nums)
            assert [F(v, d) for v in nums] == row, row
    assert linalg.integer_scaled([]) == ([], 1)
    assert linalg.integer_scaled(iter([3, -2])) == ([3, -2], 1)
    for entry in (0.5, 1j, "1"):
        assert linalg.integer_scaled([F(1, 2), entry]) is None


def test_rref_shares_one_fraction_across_pivot_cells():
    """Every pivot cell of the RREF is one shared `Fraction(1)`."""
    for m in seeded_matrices():
        red, pivots = rref(m)
        cells = [red[r][c] for r, c in enumerate(pivots)]
        assert all(v is cells[0] for v in cells) and cells[:1] in ([], [1]), m


def test_rref_leaves_its_input_alone():
    m = [[2, 4], [F(1, 3), 5]]
    rref(m)
    assert m == [[2, 4], [F(1, 3), 5]] and type(m[0][0]) is int


def test_integer_elimination_keeps_rows_primitive():
    """Each pivot row of the integer elimination is +-lcm(denominators)
    times its RREF row, with no common factor left."""
    for m in seeded_matrices():
        ints, pivots = linalg._integer_rref([linalg._integer_row(r) for r in m])
        want, _ = field_rref(m)
        for row, c, wrow in zip(ints, pivots, want):
            assert gcd(*row) == 1, (m, row)
            scale = lcm(*(v.denominator for v in wrow))
            sign = 1 if row[c] > 0 else -1
            assert [sign * v for v in row] == [scale * v for v in wrow], (m, row)
        assert all(v == 0 for row in ints[len(pivots):] for v in row)


def test_nullspace_of_int_rows_is_fraction_kernel():
    rng = random.Random(7)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
        m = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        basis = nullspace(m)
        assert len(basis) == ncols - rank(m)
        for v in basis:
            assert all(type(x) is F for x in v)
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
    assert all(type(x) is F for v in nullspace([], ncols=3) for x in v)


def test_solve_exact_over_int_rows():
    a = [[2, 1, 0], [0, 3, 6]]
    x = solve_exact(a, [4, 9])
    assert all(type(v) is F for v in x)
    assert [sum(c * v for c, v in zip(row, x)) for row in a] == [4, 9]
    assert solve_exact([[1, 1], [2, 2]], [1, 3]) is None


@pytest.mark.parametrize("entry", [0.5, 1j])
def test_non_rational_entries_raise(entry):
    """Floats and complex numbers are refused, with the entry named."""
    with pytest.raises(TypeError, match=re.escape(repr(entry))):
        rref([[F(1), entry]])
    with pytest.raises(TypeError, match=re.escape(repr(entry))):
        det([[F(1), entry], [0, 1]])
    with pytest.raises(TypeError, match=re.escape(repr(entry))):
        rank([[F(1), entry]])


def test_every_exact_routine_takes_the_integer_path(monkeypatch):
    calls = []
    integer_rref = linalg._integer_rref

    def counted(m):
        calls.append(m)
        return integer_rref(m)

    monkeypatch.setattr(linalg, "_integer_rref", counted)
    m = [[1, F(1, 2), 0], [2, 1, F(3)]]
    for routine in (lambda: rank(m), lambda: nullspace(m),
                    lambda: in_row_space(m, [0, 0, 3]),
                    lambda: solve_exact(m, [1, 2])):
        calls.clear()
        routine()
        assert calls, routine
