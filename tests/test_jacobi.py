"""Linearized equations: flat operator table, polynomial solution spaces,
generic-vs-closed-form residuals."""

from fractions import Fraction

import numpy as np
import pytest

from varjet.einstein import EHLagrangian, affine_supplier
from varjet.jacobi import (DiffOpMatrix, derivative_shift_check,
                           eh_jacobi_coefficients, eh_jacobi_residual,
                           flat_operator_matrix, jacobi_coefficients,
                           jacobi_residual, polynomial_solution_space,
                           polynomial_solves)
from varjet.jets import (MultiIndex, PolySection, jet_of_section, pair_index,
                         sym_pairs)
from varjet.linalg import in_row_space
from varjet.poly import Poly, parse_poly
from varjet.varcore import TableAffineSupplier

F = Fraction
H = F(1, 2)

# the printed operator table for eps = (-1, 1, 1, 1); rows/cols are the pair
# basis (11),(12),(13),(14),(22),(23),(24),(33),(34),(44); D-keys 0-based.
# P[A][B] = {(a, b): coefficient of D^{a+1} D^{b+1}}.
PRINTED_P = {
    (0, 0): {(1, 1): -H, (2, 2): -H, (3, 3): -H},
    (0, 1): {(0, 1): F(1)},
    (0, 2): {(0, 2): F(1)},
    (0, 3): {(0, 3): F(1)},
    (0, 4): {(0, 0): -H},
    (0, 7): {(0, 0): -H},
    (0, 9): {(0, 0): -H},
    (1, 1): {(2, 2): -H, (3, 3): -H},
    (1, 2): {(1, 2): H},
    (1, 3): {(1, 3): H},
    (1, 5): {(0, 2): H},
    (1, 6): {(0, 3): H},
    (1, 7): {(0, 1): -H},
    (1, 9): {(0, 1): -H},
    (2, 1): {(1, 2): H},
    (2, 2): {(1, 1): -H, (3, 3): -H},
    (2, 3): {(2, 3): H},
    (2, 4): {(0, 2): -H},
    (2, 5): {(0, 1): H},
    (2, 8): {(0, 3): H},
    (2, 9): {(0, 2): -H},
    (3, 1): {(1, 3): H},
    (3, 2): {(2, 3): H},
    (3, 3): {(1, 1): -H, (2, 2): -H},
    (3, 4): {(0, 3): -H},
    (3, 6): {(0, 1): H},
    (3, 7): {(0, 3): -H},
    (3, 8): {(0, 2): H},
    (4, 0): {(1, 1): H},
    (4, 1): {(0, 1): F(-1)},
    (4, 4): {(0, 0): H, (2, 2): -H, (3, 3): -H},
    (4, 5): {(1, 2): F(1)},
    (4, 6): {(1, 3): F(1)},
    (4, 7): {(1, 1): -H},
    (4, 9): {(1, 1): -H},
    (5, 0): {(1, 2): H},
    (5, 1): {(0, 2): -H},
    (5, 2): {(0, 1): -H},
    (5, 5): {(0, 0): H, (3, 3): -H},
    (5, 6): {(2, 3): H},
    (5, 8): {(1, 3): H},
    (5, 9): {(1, 2): -H},
    (6, 0): {(1, 3): H},
    (6, 1): {(0, 3): -H},
    (6, 3): {(0, 1): -H},
    (6, 5): {(2, 3): H},
    (6, 6): {(0, 0): H, (2, 2): -H},
    (6, 7): {(1, 3): -H},
    (6, 8): {(1, 2): H},
    (7, 0): {(2, 2): H},
    (7, 2): {(0, 2): F(-1)},
    (7, 4): {(2, 2): -H},
    (7, 5): {(1, 2): F(1)},
    (7, 7): {(0, 0): H, (1, 1): -H},
    (7, 8): {(2, 3): F(1)},
    (7, 9): {(2, 2): -H},
    (8, 0): {(2, 3): H},
    (8, 2): {(0, 3): -H},
    (8, 3): {(0, 2): -H},
    (8, 4): {(2, 3): -H},
    (8, 5): {(1, 3): H},
    (8, 6): {(1, 2): H},
    (8, 8): {(0, 0): H, (1, 1): -H},
    (9, 0): {(3, 3): H},
    (9, 3): {(0, 3): F(-1)},
    (9, 4): {(3, 3): -H},
    (9, 6): {(1, 3): F(1)},
    (9, 7): {(3, 3): -H},
    (9, 8): {(2, 3): F(1)},
    (9, 9): {(0, 0): H, (1, 1): -H, (2, 2): -H},
}

# the ten printed quadratic-coefficient constraints, as (lhs, rhs-terms):
# entries (coef, field A 1-based, (j, k) 1-based) with lambda^A_{jk}.
EQ_LAMBDAS = [
    ((1, (2, 2)), [(1, 2, (1, 2)), (-1, 5, (1, 1)), (1, 5, (3, 3)),
                   (1, 5, (4, 4)), (-1, 6, (2, 3)), (-1, 7, (2, 4)),
                   (1, 8, (2, 2)), (1, 10, (2, 2))]),
    ((1, (2, 3)), [(1, 2, (1, 3)), (1, 3, (1, 2)), (-2, 6, (1, 1)),
                   (2, 6, (4, 4)), (-1, 7, (3, 4)), (-1, 9, (2, 4)),
                   (1, 10, (2, 3))]),
    ((1, (2, 4)), [(1, 2, (1, 4)), (1, 4, (1, 2)), (-1, 6, (3, 4)),
                   (-2, 7, (1, 1)), (2, 7, (3, 3)), (1, 8, (2, 4)),
                   (-1, 9, (2, 3))]),
    ((1, (3, 3)), [(1, 3, (1, 3)), (1, 5, (3, 3)), (-1, 6, (2, 3)),
                   (-1, 8, (1, 1)), (1, 8, (2, 2)), (-1, 9, (3, 4)),
                   (1, 10, (3, 3))]),
    ((1, (3, 4)), [(1, 3, (1, 4)), (1, 4, (1, 3)), (1, 5, (3, 4)),
                   (-1, 6, (2, 4)), (-1, 7, (2, 3)), (-2, 9, (1, 1)),
                   (2, 9, (2, 2))]),
    ((1, (4, 4)), [(1, 4, (1, 4)), (-1, 5, (4, 4)), (1, 7, (2, 4)),
                   (-2, 5, (3, 3)), (2, 6, (2, 3)), (-2, 8, (2, 2)),
                   (-1, 10, (2, 2)), (1, 9, (3, 4)), (-1, 10, (3, 3)),
                   (-1, 10, (1, 1))]),
    ((2, (2, 3)), [(2, 3, (2, 2)), (2, 3, (4, 4)), (-1, 4, (3, 4)),
                   (1, 5, (1, 3)), (-1, 6, (1, 2)), (-1, 9, (1, 4)),
                   (1, 10, (1, 3))]),
    ((2, (2, 4)), [(-1, 3, (3, 4)), (2, 4, (2, 2)), (2, 4, (3, 3)),
                   (1, 5, (1, 4)), (-1, 7, (1, 2)), (1, 8, (1, 4)),
                   (-1, 9, (1, 3))]),
    ((2, (3, 3)), [(-1, 2, (4, 4)), (1, 3, (2, 3)), (1, 4, (2, 4)),
                   (1, 6, (1, 3)), (1, 7, (1, 4)), (-1, 8, (1, 2)),
                   (-1, 10, (1, 2))]),
    ((8, (4, 4)), [(-2, 5, (3, 3)), (-2, 5, (4, 4)), (2, 6, (2, 3)),
                   (2, 7, (2, 4)), (-2, 8, (2, 2)), (-2, 10, (2, 2)),
                   (2, 9, (3, 4)), (-2, 10, (3, 3))]),
]

LORENTZ = (-1, 1, 1, 1)
_OP_CACHE = {}


def lorentz_op():
    if "op" not in _OP_CACHE:
        _OP_CACHE["op"] = flat_operator_matrix(LORENTZ)
    return _OP_CACHE["op"]


def eq_lambda_functional(space, lhs, rhs):
    """Evaluate (lambda_lhs - sum rhs) on each basis vector of a degree-2
    solution space; coefficients lambda^A_{jk} multiply x^j x^k."""
    n = 4
    mons = space.monomials
    nm = len(mons)

    def coeff(vec, field_1b, jk_1b):
        j, k = jk_1b
        e = [0] * n
        e[j - 1] += 1
        e[k - 1] += 1
        return vec[(field_1b - 1) * nm + mons.index(tuple(e))]

    out = []
    for vec in space.basis:
        (cl, jkl), terms = lhs, rhs
        acc = cl * coeff(vec, lhs[0], lhs[1]) if False else 0
        acc = coeff(vec, lhs[0], lhs[1])
        for c, a, jk in rhs:
            acc -= c * coeff(vec, a, jk)
        out.append(acc)
    return out


def test_flat_operator_matches_printed_table_up_to_known_typo():
    """The derived operator is compared entry-by-entry with the printed
    table.  Exactly one discrepancy exists: the printed P_8^8 omits the
    -1/2 (D^4)^2 term required by the diagonal-row symmetry pattern
    (P_5^5 and P_10^10 carry the analogous two terms) and by the
    derivation; the paper's Fourier-mode display inherits the same
    omission in its U^8 row."""
    op = lorentz_op()
    diffs = []
    for arow in range(10):
        for brow in range(10):
            mine = op.entries[arow][brow]
            printed = PRINTED_P.get((arow, brow), {})
            keys = set(mine) | set(printed)
            for k in keys:
                a = mine.get(k, F(0))
                b = printed.get(k, F(0))
                if a != b:
                    diffs.append((arow, brow, k, a, b))
    assert diffs == [(7, 7, (3, 3), F(-1, 2), F(0))], \
        f"table discrepancies: {diffs}"


def test_flat_operator_applied_to_constants_is_zero():
    op = lorentz_op()
    for brow in range(10):
        probe = [Poly.constant(4, 0)] * 10
        probe[brow] = Poly.constant(4, 1)
        assert all(p.is_zero() for p in op.apply_poly(probe))


def test_solution_space_dimensions():
    op = lorentz_op()
    assert polynomial_solution_space(op, 0).dimension == 10
    assert polynomial_solution_space(op, 1).dimension == 40
    space = polynomial_solution_space(op, 2)
    assert space.dimension == 90
    assert space.constraint_rank == 10


def test_eq_lambdas_hold_on_basis():
    """Six of the ten printed quadratic-coefficient relations hold verbatim
    on the computed basis.  Relations 4, 6 and 10 as printed are consistent
    only with the operator table's typo'd P_8^8 entry (they hold on the
    printed-operator nullspace and acquire corrected forms under the derived
    operator); relation 9 is misprinted outright (it fails under both
    operators: six of its terms carry a spurious factor 2).  The corrected
    forms, derived by exact elimination with pivots on the printed
    left-hand variables, hold identically."""
    op = lorentz_op()
    space = polynomial_solution_space(op, 2)
    verbatim_ok = {1, 2, 3, 5, 7, 8}
    for idx, (lhs, rhs) in enumerate(EQ_LAMBDAS, start=1):
        vals = eq_lambda_functional(space, lhs, rhs)
        if idx in verbatim_ok:
            assert all(v == 0 for v in vals), idx
        else:
            assert any(v != 0 for v in vals), idx
    for lhs, rhs in CORRECTED_EQ_LAMBDAS:
        vals = eq_lambda_functional(space, lhs, rhs)
        assert all(v == 0 for v in vals), lhs


# corrected forms of the four misprinted relations (exact elimination with
# the same left-hand variables)
CORRECTED_EQ_LAMBDAS = [
    ((1, (3, 3)), [(1, 3, (1, 3)), (-1, 5, (4, 4)), (1, 7, (2, 4)),
                   (-1, 8, (1, 1)), (-1, 10, (2, 2))]),
    ((1, (4, 4)), [(1, 4, (1, 4)), (-1, 5, (3, 3)), (1, 6, (2, 3)),
                   (-1, 8, (2, 2)), (-1, 10, (1, 1))]),
    ((2, (3, 3)), [(-1, 2, (4, 4)), (F(1, 2), 3, (2, 3)), (F(1, 2), 4, (2, 4)),
                   (F(1, 2), 6, (1, 3)), (F(1, 2), 7, (1, 4)),
                   (F(-1, 2), 8, (1, 2)), (F(-1, 2), 10, (1, 2))]),
    ((8, (4, 4)), [(-1, 5, (3, 3)), (-1, 5, (4, 4)), (1, 6, (2, 3)),
                   (1, 7, (2, 4)), (-1, 8, (2, 2)), (-1, 10, (2, 2)),
                   (1, 9, (3, 4)), (-1, 10, (3, 3))]),
]


def test_printed_basis_entries_solve():
    """Spot checks from the printed quadratic basis list."""
    op = lorentz_op()
    n = 4

    def field(*terms):
        comp = [Poly.constant(n, 0) for _ in range(10)]
        for c, a_1b, (j, k) in terms:
            comp[a_1b - 1] = comp[a_1b - 1] + c * Poly.variable(n, j - 1) \
                * Poly.variable(n, k - 1)
        return comp

    assert polynomial_solves(op, field((1, 1, (1, 1))))          # (x1)^2 E1
    assert polynomial_solves(op, field((1, 1, (1, 2))))          # x1 x2 E1
    assert not polynomial_solves(op, field((1, 1, (2, 2))))      # (x2)^2 E1 alone
    assert polynomial_solves(op, field((1, 1, (2, 2)), (1, 2, (1, 2))))
    assert polynomial_solves(op, field((1, 2, (1, 1))))          # (x1)^2 E2
    assert polynomial_solves(op, field((-1, 1, (2, 2)), (1, 5, (1, 1))))
    assert polynomial_solves(op, field((2, 1, (2, 3)), (1, 6, (4, 4))))
    # ((x4)^2 - (x3)^2) E2 and ((x4)^2 - (x3)^2)(E1 + E5)
    assert polynomial_solves(op, field((1, 2, (4, 4)), (-1, 2, (3, 3))))
    assert polynomial_solves(op, field((1, 1, (4, 4)), (-1, 1, (3, 3)),
                                       (1, 5, (4, 4)), (-1, 5, (3, 3))))


def test_derivative_shift_check():
    op = lorentz_op()
    space3 = polynomial_solution_space(op, 3)
    assert space3.dimension > 0
    fields = space3.basis_fields(4)
    eq_rows = None
    for f in fields[:5]:
        for j in range(4):
            idx = MultiIndex.unit(4, j)
            assert derivative_shift_check(op, f, idx)
    # identity reduction at degree 2
    space2 = polynomial_solution_space(op, 2)
    f2 = space2.basis_fields(4)[0]
    assert derivative_shift_check(op, f2, MultiIndex((0, 0, 0, 0)))
    # negative control: a non-solution cubic fails at least one shift
    bad = [Poly.constant(4, 0) for _ in range(10)]
    bad[0] = Poly.variable(4, 1) ** 3
    ok = all(derivative_shift_check(op, bad, MultiIndex.unit(4, j))
             for j in range(4))
    assert not ok


def test_eh_jacobi_zero_field_and_constants():
    n = 3
    sec = PolySection(n, [Poly.constant(n, 1.0 if a == b else 0.0)
                          for a, b in sym_pairs(n)])
    zero = [Poly.constant(n, 0) for _ in range(len(sym_pairs(n)))]
    res = eh_jacobi_residual(sec, zero, (0.1, 0.2, 0.3), (3, 0))
    assert all(v == 0 for v in res)
    const = [Poly.constant(n, 0.7) for _ in range(len(sym_pairs(n)))]
    res2 = eh_jacobi_residual(sec, const, (0.1, 0.2, 0.3), (3, 0))
    assert all(v == 0 for v in res2)


def variation_fields(n, eta, psi):
    """V = d/dt|_0 of g_t = (D phi_t)^T eta (D phi_t), phi_t = id + t psi."""
    out = []
    for a, b in sym_pairs(n):
        acc = Poly.constant(n, 0)
        for c in range(n):
            acc = acc + eta[c] * (psi[c].diff(a) * (Poly.variable(n, c) * 0
                                                    + _unit(n, c, b))
                                  + _unit(n, c, a) * psi[c].diff(b))
        out.append(acc)
    return out


def _unit(n, c, b):
    # d(x^c)/dx^b as a constant polynomial
    return Poly.constant(n, 1 if c == b else 0)


def test_variation_of_extremals_is_jacobi_field():
    """V = d/dt g_t for a family of flat metrics solves the linearized
    equations, both in the generic and the closed-form evaluation."""
    rng = np.random.default_rng(51)
    n, sig = 2, (2, 0)
    names = {f"x{i+1}": i for i in range(n)}
    eta = [1.0, 1.0]
    psi = [parse_poly("x1*x2/3 + x2^2/5", names, n),
           parse_poly("x1^2/4 - x1*x2/6", names, n)]
    # V_ab = sum_c eta_c (dpsi^c/dx^a delta_cb + delta_ca dpsi^c/dx^b)
    v_polys = []
    for a, b in sym_pairs(n):
        acc = eta[b] * psi[b].diff(a) + eta[a] * psi[a].diff(b)
        v_polys.append(acc)
    sec = PolySection(n, [Poly.constant(n, eta[a] if a == b else 0.0)
                          for a, b in sym_pairs(n)])
    eh = EHLagrangian(n, sig)
    sup = affine_supplier(eh)
    for _ in range(3):
        x = [rng.uniform(-0.4, 0.4) for _ in range(n)]
        res, gap = jacobi_residual(sup, sec, v_polys, x)
        assert gap <= 1e-10
        assert max(abs(float(v)) for v in res) <= 1e-7
        res2 = eh_jacobi_residual(sec, v_polys, x, sig)
        assert max(abs(float(v)) for v in res2) <= 1e-7


def test_closed_form_is_invertible_recombination_of_generic():
    """The displayed E-H operator and the generic linearization are related
    by an invertible coefficient recombination (a constant matrix at a flat
    metric): exactly verified over the rationals at Minkowski, and the two
    systems have identical polynomial solution spaces."""
    from itertools import combinations_with_replacement
    from varjet.jacobi import DiffOpMatrix
    from varjet.linalg import rank, solve_exact
    n, sig = 4, (1, 3)
    eps = [F(-1), F(1), F(1), F(1)]
    eh = EHLagrangian(n, sig)
    sup = affine_supplier(eh)
    npairs = 10
    sec = PolySection(n, [Poly.constant(n, eps[a] if a == b else F(0))
                          for a, b in sym_pairs(n)])
    x0 = tuple(F(0) for _ in range(n))
    entries = [[{} for _ in range(npairs)] for _ in range(npairs)]
    for brow in range(npairs):
        for (a, b) in combinations_with_replacement(range(n), 2):
            probe = [Poly.constant(n, F(0))] * npairs
            probe[brow] = Poly.variable(n, a) * Poly.variable(n, b)
            rg, gap = jacobi_residual(sup, sec, probe, x0)
            assert gap == 0
            scale = F(1, 1 if a != b else 2)
            for arow in range(npairs):
                c = rg[arow] * scale
                if c != 0:
                    entries[arow][brow][(a, b)] = F(c)
    op_gen = DiffOpMatrix(n, npairs, entries)
    op_closed = lorentz_op()
    keys = list(combinations_with_replacement(range(n), 2))

    def rowvec(op, arow):
        return [op.entries[arow][brow].get(k, F(0))
                for brow in range(npairs) for k in keys]

    gen_rows = [rowvec(op_gen, arow) for arow in range(npairs)]
    closed_rows = [rowvec(op_closed, arow) for arow in range(npairs)]
    assert rank(gen_rows) == 10
    assert rank(gen_rows + closed_rows) == 10      # same row space
    # exact recombination matrix, invertible
    at = [[gen_rows[c][j] for c in range(npairs)] for j in range(len(gen_rows[0]))]
    m_rows = []
    for arow in range(npairs):
        sol = solve_exact(at, [closed_rows[arow][j] for j in range(len(at))])
        assert sol is not None
        m_rows.append(sol)
    assert rank(m_rows) == 10
    # the generic-operator solution space is the same 90-dimensional space
    s_gen = polynomial_solution_space(op_gen, 2)
    assert s_gen.dimension == 90
    for f in polynomial_solution_space(op_closed, 2).basis_fields(4)[:8]:
        assert polynomial_solves(op_gen, f)


def test_closed_vs_generic_blocks_on_curved_chart():
    """Along a flat polynomial background with nonzero Christoffels the
    displayed operator's second- and first-order coefficient blocks are an
    invertible pointwise recombination of the generic linearization; the
    displayed zero-order bracket is NOT (a defect of the printed display:
    the generic path passes the variation-of-extremals oracle to machine
    precision on the same background, see the next test)."""
    n, sig = 3, (3, 0)
    names = {f"x{i+1}": i for i in range(n)}
    eta = [1.0, 1.0, 1.0]
    phi = [parse_poly("x1 + x2^2/7", names, n),
           parse_poly("x2 - x1^2/9 + x1*x3/8", names, n),
           parse_poly("x3 + x1*x2/6", names, n)]
    polys = []
    for a, b in sym_pairs(n):
        acc = Poly.constant(n, 0)
        for c in range(n):
            acc = acc + eta[c] * phi[c].diff(a) * phi[c].diff(b)
        polys.append(acc)
    sec = PolySection(n, polys)
    eh = EHLagrangian(n, sig)
    sup = affine_supplier(eh)
    npairs = len(sym_pairs(n))
    x = (0.15, -0.1, 0.2)

    def shifted(i):
        return Poly.variable(n, i) - Poly.constant(n, x[i])

    def block_rows(probes):
        g_rows, c_rows = [], []
        for v in probes:
            rg, _ = jacobi_residual(sup, sec, v, x)
            rc = eh_jacobi_residual(sec, v, x, sig)
            g_rows.append([float(u) for u in rg])
            c_rows.append([float(u) for u in rc])
        return np.array(g_rows).T, np.array(c_rows).T

    v2_probes = []
    for brow in range(npairs):
        for i, j in sym_pairs(n):
            v = [Poly.constant(n, 0)] * npairs
            v[brow] = shifted(i) * shifted(j)
            v2_probes.append(v)
    v1_probes = []
    for brow in range(npairs):
        for i in range(n):
            v = [Poly.constant(n, 0)] * npairs
            v[brow] = shifted(i)
            v1_probes.append(v)
    g2, c2 = block_rows(v2_probes)
    m, *_ = np.linalg.lstsq(g2.T, c2.T, rcond=None)
    m = m.T
    assert np.max(np.abs(m @ g2 - c2)) <= 1e-10
    assert abs(np.linalg.det(m)) > 1e-12
    g1, c1 = block_rows(v1_probes)
    assert np.max(np.abs(m @ g1 - c1)) <= 1e-10
    # the displayed zero-order bracket does not follow the same recombination
    v0_probes = []
    for brow in range(npairs):
        v = [Poly.constant(n, 0)] * npairs
        v[brow] = Poly.constant(n, 1)
        v0_probes.append(v)
    g0, c0 = block_rows(v0_probes)
    assert np.max(np.abs(m @ g0 - c0)) > 1e-3


def test_variation_of_extremals_n3_curved_chart():
    """V = d/dt g_t for a family of flat metrics in a curved chart is
    annihilated by the generic linearization (machine precision)."""
    n, sig = 3, (3, 0)
    names = {f"x{i+1}": i for i in range(n)}
    eta = [1.0, 1.0, 1.0]
    phi = [parse_poly("x1 + x2^2/7", names, n),
           parse_poly("x2 - x1^2/9 + x1*x3/8", names, n),
           parse_poly("x3 + x1*x2/6", names, n)]
    psi = [parse_poly("x2*x3/5", names, n),
           parse_poly("x1^2/6 - x3", names, n),
           parse_poly("x1*x2/4", names, n)]
    polys, v_polys = [], []
    for a, b in sym_pairs(n):
        acc = Poly.constant(n, 0)
        vacc = Poly.constant(n, 0)
        for c in range(n):
            acc = acc + eta[c] * phi[c].diff(a) * phi[c].diff(b)
            vacc = vacc + eta[c] * (psi[c].diff(a) * phi[c].diff(b)
                                    + phi[c].diff(a) * psi[c].diff(b))
        polys.append(acc)
        v_polys.append(vacc)
    sec = PolySection(n, polys)
    eh = EHLagrangian(n, sig)
    sup = affine_supplier(eh)
    for x in [(0.15, -0.1, 0.2), (0.0, 0.05, -0.1)]:
        res, gap = jacobi_residual(sup, sec, v_polys, x)
        assert gap <= 1e-10
        assert max(abs(float(v)) for v in res) <= 1e-10


def test_generic_residual_exact_rational_on_quadratic_solutions():
    """Exact-arithmetic check at the Minkowski point: every quadratic
    solution of the derived operator has exactly vanishing generic residual
    (the two systems share their kernel over the rationals)."""
    n = 4
    eps = [F(-1), F(1), F(1), F(1)]
    eh = EHLagrangian(n, (1, 3))
    sup = affine_supplier(eh)
    sec = PolySection(n, [Poly.constant(n, eps[a] if a == b else F(0))
                          for a, b in sym_pairs(n)])
    op = lorentz_op()
    space = polynomial_solution_space(op, 2)
    x0 = tuple(F(0) for _ in range(n))
    for f in space.basis_fields(4)[:6]:
        res, gap = jacobi_residual(sup, sec, f, x0)
        assert gap == 0
        assert all(v == 0 for v in res)
    # and a non-solution has a nonzero exact residual
    bad = [Poly.constant(n, F(0)) for _ in range(10)]
    bad[0] = Poly.variable(n, 1) ** 2
    res, _ = jacobi_residual(sup, sec, bad, x0)
    assert any(v != 0 for v in res)


def test_linearity_of_residual():
    n, sig = 2, (2, 0)
    names = {f"x{i+1}": i for i in range(n)}
    sec = PolySection(n, [Poly.constant(n, 1.0 if a == b else 0.0)
                          for a, b in sym_pairs(n)])
    eh = EHLagrangian(n, sig)
    sup = affine_supplier(eh)
    v1 = [parse_poly("x1^2", names, n), parse_poly("x2", names, n),
          parse_poly("x1*x2", names, n)]
    v2 = [parse_poly("x2^2", names, n), parse_poly("x1", names, n),
          parse_poly("1", names, n)]
    v12 = [a + b for a, b in zip(v1, v2)]
    x = (0.2, -0.3)
    r1, _ = jacobi_residual(sup, sec, v1, x)
    r2, _ = jacobi_residual(sup, sec, v2, x)
    r12, _ = jacobi_residual(sup, sec, v12, x)
    for a, b, c in zip(r1, r2, r12):
        assert abs(float(a) + float(b) - float(c)) <= 1e-12


def test_flat_operator_from_c2_equals_probe_loop():
    """Reading the operator off the C2 block gives, entry by entry over
    Fractions, the matrix derived by applying the E-H Jacobi operator to the
    monomial probes x^a x^b at x = 0 (n = 3 Lorentzian)."""
    n, npairs, eps = 3, 6, (-1, 1, 1)
    sec = PolySection(n, [Poly.constant(n, F(eps[a]) if a == b else F(0))
                          for a, b in sym_pairs(n)])
    x0 = (F(0),) * n
    entries = [[{} for _ in range(npairs)] for _ in range(npairs)]
    for brow in range(npairs):
        for a, b in sym_pairs(n):
            probe = [Poly.constant(n, 0)] * npairs
            probe[brow] = Poly.variable(n, a) * Poly.variable(n, b)
            for arow, c in enumerate(eh_jacobi_residual(sec, probe, x0, (2, 1))):
                c = c * (H if a == b else 1)
                if c != 0:
                    entries[arow][brow][(a, b)] = c
    op = flat_operator_matrix(eps)
    assert op.entries == entries
    assert all(type(c) is F for row in op.entries for e in row for c in e.values())


def _assert_memo_ring_safe(memo_call, cold_call, s, xf, xq):
    """Alternate float and exact calls at points with equal 2-jets (dyadic
    values, exact in floats): every result is in the ring of its point and
    equals a cold build, hit or miss."""
    assert jet_of_section(s, xf, 2) == jet_of_section(s, xq, 2)
    got = {}
    for x, ring in [(xf, float), (xq, F), (xq, F), (xf, float), (xf, float)]:
        res = memo_call(x)
        assert all(type(r) is ring for r in res)
        assert res == cold_call(x)
        got[ring] = res
    assert any(r != 0 for r in got[F])
    assert all(abs(float(q) - f) <= 1e-12 * max(1.0, abs(f))
               for q, f in zip(got[F], got[float]))


def test_generic_residual_memo_is_ring_safe():
    # n = m = 1 would do; n = 2 with L^{ij} depending on (x, y) only, so the
    # cross-derivative conditions hold trivially
    def fn(x, y, dy):
        l0 = dy[0][0] * dy[0][0] * H + dy[0][1] * dy[0][1] * F(1, 3) \
            + x[0] * y[0] * dy[0][1]
        return l0, {(0, 0, 0): y[0] * y[0] * F(1, 3), (0, 0, 1): x[1] * y[0],
                    (0, 1, 1): H}

    sup = TableAffineSupplier(2, 1, fn)
    names = {"x1": 0, "x2": 1}
    s = PolySection(2, [parse_poly("1 + x1^2/4 - x1*x2/8", names, 2)])
    v = [parse_poly("x1^2*x2/2 - x2/3 + 1/4", names, 2)]
    _assert_memo_ring_safe(
        lambda x: jacobi_residual(sup, s, v, x)[0],
        lambda x: jacobi_coefficients(sup, s, x).residual(v, x),
        s, (0.5, -0.25), (F(1, 2), F(-1, 4)))


def test_eh_residual_memo_is_ring_safe():
    n, sig = 3, (3, 0)
    names = {f"x{i+1}": i for i in range(n)}
    phi = [parse_poly("x1 + x2^2/4", names, n),
           parse_poly("x2 - x1^2/8 + x1*x3/8", names, n),
           parse_poly("x3 + x1*x2/2", names, n)]
    sec = PolySection(n, [sum((phi[c].diff(a) * phi[c].diff(b) for c in range(n)),
                              Poly.constant(n, 0)) for a, b in sym_pairs(n)])
    v = [parse_poly(t, names, n) for t in
         ("x1^2/3", "x2*x3", "1/5", "x1 - x3^2/4", "x1*x2*x3", "x2^2/2 + 1")]
    _assert_memo_ring_safe(
        lambda x: eh_jacobi_residual(sec, v, x, sig),
        lambda x: eh_jacobi_coefficients(sec, x, sig).residual(v, x),
        sec, (0.5, -0.25, 0.125), (F(1, 2), F(-1, 4), F(1, 8)))
