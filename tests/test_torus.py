"""Torus Fourier modes, the presymplectic pairing tables, cohomology classes
and the radical probe."""

import random
from fractions import Fraction as F
from itertools import product
from math import gcd

import numpy as np
import pytest
from test_linalg import field_nullspace, field_rref, typed

from varjet.jets import pair_index
from varjet.linalg import integer_scaled, rank
from varjet.torus import (BasisField, ModeVector, SideConditionError,
                          basis_field, basis_field_as_tabulated,
                          cohomology_class, gauge_mode_amplitudes,
                          lorentz_operator, mode_solve, presymplectic_pair,
                          radical_probe, upsilon_matrix_flat,
                          upsilon_natural_flat, y_table_flat)


# ---------------------------------------------------------------------------
# mode solving


def test_mode_zero_gives_full_space():
    res = mode_solve((0, 0, 0, 0))
    assert res.dimension == 10


def test_paper_example_mode_1_2_0_0():
    """k = (1,2,0,0): the literature's solution (U2 = U5/4, U6 = U7 = 0)
    is in the kernel; the kernel itself is the full 4-dimensional gauge
    space (the case analysis in the literature dropped three of the four
    diffeomorphism directions)."""
    res = mode_solve((1, 2, 0, 0))
    assert res.dimension == 4
    assert res.kernel_is_gauge
    claimed = [F(0)] * 10
    claimed[pair_index(4, 0, 1)] = F(1, 4)
    claimed[pair_index(4, 1, 1)] = F(1)
    assert res.contains(claimed)
    assert res.paper_dimension == 1


def test_mode_classification_sweep():
    """Exact dimensions over the four mode classes: 4 off the null cone,
    6 on it (gauge plus two polarizations), 10 at zero; class-by-class the
    kernel off the null cone is exactly the span of the gauge modes, and
    the literature's claimed solution rays always lie inside."""
    rng = np.random.default_rng(61)
    seen = {1: 0, 2: 0, 3: 0, 4: 0}
    trials = 0
    while min(seen.values()) < 8 and trials < 600:
        trials += 1
        k = list(int(v) for v in rng.integers(-5, 6, size=4))
        # force lower classes into the sample mix
        if trials % 4 == 1:
            k[1] = 0
        if trials % 4 == 2:
            k[1] = k[3] = 0
        if trials % 4 == 3:
            k[1] = k[2] = k[3] = 0
        k = tuple(k)
        if all(v == 0 for v in k):
            continue
        res = mode_solve(k)
        seen[res.paper_class] += 1
        if res.is_null:
            assert res.dimension == 6
        else:
            assert res.dimension == 4
            assert res.kernel_is_gauge
        # the xi_2-gauge direction is the literature's k2 != 0 ray
        if res.paper_class == 1:
            ray = [F(0)] * 10
            ray[pair_index(4, 0, 1)] = F(k[0], 2 * k[1])
            ray[pair_index(4, 1, 1)] = F(1)
            ray[pair_index(4, 1, 2)] = F(k[2], 2 * k[1])
            ray[pair_index(4, 1, 3)] = F(k[3], 2 * k[1])
            assert res.contains(ray)
    assert min(seen.values()) >= 8


def test_gauge_modes_solve_exactly():
    rng = np.random.default_rng(62)
    op = lorentz_operator()
    for _ in range(25):
        k = tuple(int(v) for v in rng.integers(-4, 5, size=4))
        mat = op.mode_matrix(k)
        for g in gauge_mode_amplitudes(k):
            for row in mat:
                assert sum(c * v for c, v in zip(row, g)) == 0


def test_mode_sweep_matches_rational_reference():
    """Every mode with entries in -2..2: `mode_matrix` is the int matrix
    2 P(ik), and `mode_solve` equals field elimination of P(ik) built from
    the operator's entries."""
    op = lorentz_operator()
    for k in product(range(-2, 3), repeat=4):
        p = [[-sum((c * k[a] * k[b] for (a, b), c in e.items()), F(0)) for e in row]
             for row in op.entries]
        mat = op.mode_matrix(k)
        assert all(type(v) is int for row in mat for v in row)
        assert mat == [[2 * v for v in row] for row in p]
        basis = field_nullspace(p)
        gauge = [g for g in gauge_mode_amplitudes(k) if any(g)]
        gdim = len(field_rref(gauge)[1])
        gauge_in = all(sum(a * b for a, b in zip(r, g)) == 0 for r in p for g in gauge)
        res = mode_solve(k)
        assert res.dimension == len(basis), k
        assert typed(res.basis) == typed(basis), k
        assert res.gauge_dimension == gdim, k
        assert res.kernel_is_gauge == (gauge_in and len(basis) == gdim), k


def test_spec_example_mode_3_0_2_0():
    """k = (3,0,2,0): the claimed relations U2 = (3/2) U6 and
    U1 = -3(3 U8 - 4 U3)/4 cut a 3-dimensional subspace of the true
    4-dimensional gauge kernel."""
    res = mode_solve((3, 0, 2, 0))
    assert res.dimension == 4 and res.kernel_is_gauge
    v1 = [F(0)] * 10
    v1[pair_index(4, 0, 1)] = F(3, 2)
    v1[pair_index(4, 1, 2)] = F(1)
    assert res.contains(v1)
    v2 = [F(0)] * 10
    u3, u8 = F(2), F(0)
    v2[pair_index(4, 0, 2)] = u3
    v2[pair_index(4, 2, 2)] = u8
    v2[pair_index(4, 0, 0)] = u1 = F(-3) * (3 * u8 - 4 * u3) / 4
    assert u1 == 6
    assert res.contains(v2)


# ---------------------------------------------------------------------------
# basis fields


def test_basis_fields_lie_in_kernel():
    rng = np.random.default_rng(63)
    op = lorentz_operator()
    for _ in range(20):
        k = tuple(int(v) for v in rng.integers(-5, 6, size=4))
        for h in range(1, 9):
            try:
                f = basis_field(h, k)
            except SideConditionError:
                continue
            mat = op.mode_matrix(f.mode.k)
            for row in mat:
                assert sum(c * v for c, v in zip(row, f.amp)) == 0, (h, k)


def test_basis_field_x8_and_side_conditions():
    f = basis_field(8, (5, 0, 0, 0))
    assert f.amp[pair_index(4, 0, 0)] == 1
    assert sum(1 for v in f.amp if v != 0) == 1
    with pytest.raises(SideConditionError):
        basis_field(1, (2, 0, 0, 0))
    with pytest.raises(SideConditionError):
        basis_field(4, (1, 0, 2, 3))


def test_tabulated_x1_x6_variants_not_in_kernel():
    op = lorentz_operator()
    for h, k in [(1, (2, 0, 3, 0)), (6, (2, 0, 5, 0))]:
        f = basis_field_as_tabulated(h, k)
        mat = op.mode_matrix(f.mode.k)
        residual = [sum(c * v for c, v in zip(row, f.amp)) for row in mat]
        assert any(v != 0 for v in residual), h
        g = basis_field(h, k)
        mat2 = op.mode_matrix(g.mode.k)
        assert all(sum(c * v for c, v in zip(row, g.amp)) == 0 for row in mat2)


# ---------------------------------------------------------------------------
# pairing tables (exact)


def _printed_tables(k, l):
    """Every printed pairing family: key (a, b, component-or-selector) ->
    exact value (the i-coefficient as a Fraction, as `presymplectic_pair`
    returns it)."""
    k1, k2, k3, k4 = k
    l1, l2, l3, l4 = l
    E = {}
    for (a, b) in [(1, 1), (2, 2), (3, 2), (7, 2), (3, 3), (5, 3), (5, 5),
                   (7, 3), (7, 5), (7, 7), (8, 8)]:
        E[(a, b, "all")] = 0
    E[(6, 5, "ix4")] = 0
    E[(8, 5, "ix4")] = 0
    for (a, b) in [(2, 1), (3, 1), (5, 2), (6, 2), (6, 3), (7, 6), (8, 2),
                   (8, 3), (8, 7)]:
        E[(a, b, "ix2")] = 0
    E[(6, 5, 4)] = F(-(k3 * (k1 + l1)))
    E[(8, 5, 4)] = F(-(k1 + l1), 2)
    E[(2, 1, 2)] = F((k4 ** 2 + k1 * l1 - k3 * l3) * (l1 ** 2 - l3 ** 2)
                     + (k1 ** 2 + k3 ** 2) * (l1 ** 2 + l3 ** 2), 2 * k4 * l3 ** 2)
    E[(3, 1, 2)] = F((k1 * l1 - k3 * l3) * (l1 ** 2 - l3 ** 2)
                     + (k1 ** 2 + k3 ** 2) * (l1 ** 2 + l3 ** 2), 2 * k3 * l3 ** 2)
    E[(5, 2, 2)] = F(2 * l1)
    E[(6, 2, 2)] = F(-(k3 * k1 * l1 - k3 ** 2 * l3 - 2 * l1 * l3 + k3 * l1 ** 2
                       + k3 * l3 ** 2 + k3 * l4 ** 2), l4)
    E[(6, 3, 2)] = F(-(k3 * k1 * l1 - k3 ** 2 * l3 + k3 * l1 ** 2 - 2 * l1 * l3
                       + k3 * l3 ** 2), l3)
    E[(7, 6, 2)] = F((k1 + l1) * l3)
    E[(8, 2, 2)] = F(-(k1 * l1 + l1 ** 2 + l3 ** 2 + l4 ** 2), 2 * l4)
    E[(8, 3, 2)] = F(-(k1 * l1 + l1 ** 2 + l3 ** 2), 2 * l3)
    E[(8, 7, 2)] = F(-(k1 + l1), 2)
    E[(4, 1, 1)] = F(-(k1 * l1 ** 2 + k1 * l3 ** 2 - 2 * l1 * l3 ** 2),
                     4 * l3 ** 2)
    E[(4, 1, 2)] = F(k1 * l1 ** 3 - k3 * l1 ** 2 * l3
                     + (k1 ** 2 + k3 ** 2) * (l1 ** 2 + l3 ** 2)
                     - k1 * l1 * l3 ** 2 + k3 * l3 ** 3
                     + k4 ** 2 * (l1 ** 2 - l3 ** 2), 4 * k2 * l3 ** 2)
    E[(4, 1, 3)] = F(-(k3 * l3 ** 2 - 2 * l1 ** 2 * l3 + k3 * l1 ** 2),
                     4 * l3 ** 2)
    E[(4, 1, 4)] = F(-(k4 * (l1 ** 2 - l3 ** 2)), 4 * l3 ** 2)
    E[(4, 2, 1)] = F(k2 * l1, 2 * l4)
    E[(4, 2, 2)] = F(-((l1 + k1) * l1 - (l3 + k3) * l3 - (l4 + k4) * l4),
                     2 * l4)
    E[(4, 2, 3)] = F(-(k2 * l3), 2 * l4)
    E[(4, 2, 4)] = F(-k2, 2)
    E[(4, 3, 1)] = F(k2 * l1, 2 * l3)
    E[(4, 3, 2)] = F(-((l1 + k1) * l1 - (k3 + l3) * l3), 2 * l3)
    E[(4, 3, 3)] = F(-k2, 2)
    E[(4, 3, 4)] = 0
    E[(4, 4, 1)] = F(-((k1 * l2 - l1 * k2) * (l2 + k2)), 4 * k2 * l2)
    E[(4, 4, 2)] = F((k1 + l1) * (l2 * k1 - k2 * l1)
                     + (l3 + k3) * (k2 * l3 - l2 * k3)
                     + (l4 + k4) * (k2 * l4 - l2 * k4), 4 * k2 * l2)
    E[(4, 4, 3)] = F(-((l3 * k2 - k3 * l2) * (l2 + k2)), 4 * l2 * k2)
    E[(4, 4, 4)] = F(-((l4 * k2 - k4 * l2) * (l2 + k2)), 4 * l2 * k2)
    for i in (1, 2, 3):
        E[(5, 1, i)] = 0
    E[(5, 1, 4)] = F(l1 ** 3 + k1 * l1 ** 2 + k1 * l3 ** 2 - l1 * l3 ** 2,
                     2 * l3 ** 2)
    E[(5, 4, 1)] = F(-l4, 2)
    E[(5, 4, 2)] = F(l1 * l4, l2)
    E[(5, 4, 3)] = 0
    E[(5, 4, 4)] = F(k1 - l1, 2)
    E[(6, 4, 1)] = F(k3 * l1 + k3 - l3, 2)
    E[(6, 4, 2)] = F(-(k1 * k3 * l1 - k3 ** 2 * l3 + k3 * l1 ** 2
                       - 2 * l3 * l1 + k3 * l3 ** 2 + k3 * l4 ** 2), 2 * l2)
    E[(6, 4, 3)] = F(k1 - l1 + k3 * l3 - 2 * k3 ** 2, 2)
    E[(6, 4, 4)] = F(k3 * l4, 2)
    E[(6, 6, 1)] = F(k3 ** 2 - l3 ** 2)
    E[(6, 6, 2)] = 0
    E[(6, 6, 3)] = F(-((k1 + l1) * (k3 - l3)))
    E[(6, 6, 4)] = 0
    E[(7, 4, 1)] = F(-l2, 2)
    E[(7, 4, 2)] = F(k1 + l1, 2)
    E[(7, 4, 3)] = 0
    E[(7, 4, 4)] = 0
    E[(8, 4, 1)] = F(l1, 4)
    E[(8, 4, 2)] = F(-(k1 * l1 + l1 ** 2 + l3 ** 2 + l4 ** 2), 4 * l2)
    E[(8, 4, 3)] = F(l3, 4)
    E[(8, 4, 4)] = F(l4, 4)
    return E


def _sample_kl(rng):
    while True:
        k = tuple(int(v) for v in rng.integers(-5, 6, size=4))
        l = tuple(int(v) for v in rng.integers(-5, 6, size=4))
        if 0 not in (k[1], k[2], k[3], l[1], l[2], l[3]) and k[0] and l[0]:
            return k, l


def test_all_printed_pairing_families_reproduced_exactly():
    """Each of the 73 printed pairing families is reproduced exactly in
    rational arithmetic under the tabulated field convention (the
    literature's tables use X_1 with the +k1^2/k3^2 sign, contradicting its
    own field list, and the printed non-kernel X_6)."""
    rng = np.random.default_rng(64)
    for _ in range(20):
        k, l = _sample_kl(rng)
        E = _printed_tables(k, l)
        for (a, b, comp), val in E.items():
            X = basis_field_as_tabulated(a, k)
            Y = basis_field_as_tabulated(b, l)
            w = presymplectic_pair(X, Y)
            if comp == "all":
                assert all(not w.coeff[i] for i in range(4)), (a, b, k, l)
            elif comp == "ix4":
                assert all(not w.coeff[i] for i in (0, 1, 2)), (a, b, k, l)
            elif comp == "ix2":
                assert all(not w.coeff[i] for i in (0, 2, 3)), (a, b, k, l)
            else:
                assert w.coeff[comp - 1] == val, (a, b, comp, k, l)


def _dense_pair(x_field, y_field):
    """The pairing i-coefficients by the full 10x10x4x4 contraction."""
    ytab = y_table_flat()
    kv, lv, a_amp, b_amp = x_field.mode, y_field.mode, x_field.amp, y_field.amp
    coeff = []
    for i in range(4):
        acc = F(0)
        for klp, abp, j in product(range(10), range(10), range(4)):
            y = ytab[abp][i][klp][j]
            if y != 0:
                acc += y * (kv[j] * a_amp[klp] * b_amp[abp]
                            - lv[j] * a_amp[abp] * b_amp[klp])
        coeff.append(acc)
    return coeff


def test_pairing_matches_dense_contraction():
    """The integer contraction equals the dense Fraction one, in type too.
    The second label set, with components up to 7, has pairs of fields
    whose amplitude denominators (k1/k3, k3/k4, 2 k2, ...) are coprime and
    above 1, so the product of both amplitude denominators is exercised."""
    for seed, limit in ((65, 3), (70, 7)):
        rng = random.Random(seed)
        labels = {h: tuple(rng.choice([v for v in range(-limit, limit + 1) if v])
                           for _ in range(4)) for h in range(1, 9)}
        fields = [basis_field(h, labels[h]) for h in range(1, 9)]
        fields += [basis_field_as_tabulated(h, labels[h]) for h in (1, 6)]
        dens = [integer_scaled(f.amp)[1] for f in fields]
        assert limit < 7 or any(gcd(a, b) == 1 < min(a, b)
                                for a, b in product(dens, repeat=2))
        for x_field, y_field in product(fields, repeat=2):
            w = presymplectic_pair(x_field, y_field)
            want = _dense_pair(x_field, y_field)
            assert w.mode == x_field.mode + y_field.mode
            assert [(c, type(c) is F) for c in w.coeff] == [(c, True) for c in want]
            assert type(w.closedness_defect()) is F


def test_pairing_refuses_inexact_amplitudes():
    f = basis_field(8, (1, 1, 1, 1))
    with pytest.raises(TypeError, match="amplitudes"):
        presymplectic_pair(BasisField(8, f.mode, tuple(map(float, f.amp))), f)


def test_pairing_mode_is_sum_of_modes():
    rng = np.random.default_rng(65)
    k, l = _sample_kl(rng)
    X = basis_field(2, k)
    Y = basis_field(4, l)
    w = presymplectic_pair(X, Y)
    assert w.mode.k == tuple(a + b for a, b in zip(X.mode.k, Y.mode.k))


def test_antisymmetry_exact():
    rng = np.random.default_rng(66)
    for _ in range(50):
        k, l = _sample_kl(rng)
        a = int(rng.integers(1, 9))
        b = int(rng.integers(1, 9))
        X = basis_field(a, k)
        Y = basis_field(b, l)
        w1 = presymplectic_pair(X, Y)
        w2 = presymplectic_pair(Y, X)
        for i in range(4):
            assert w1.coeff[i] + w2.coeff[i] == 0


def test_fourier_closedness_exact():
    """sum_i mode_i coeff_i = 0 exactly for every pairing of *kernel*
    fields (the 3-form is closed mode by mode along Jacobi fields); the
    non-kernel tabulated variants of X_1/X_6 violate closedness, which
    confirms they are not Jacobi fields."""
    rng = np.random.default_rng(67)
    for _ in range(50):
        k, l = _sample_kl(rng)
        a = int(rng.integers(1, 9))
        b = int(rng.integers(1, 9))
        w = presymplectic_pair(basis_field(a, k), basis_field(b, l))
        assert not w.closedness_defect()
    # negative control: the tabulated X_6 variant breaks closedness
    w_bad = presymplectic_pair(basis_field_as_tabulated(6, (2, 0, 5, 0)),
                               basis_field_as_tabulated(4, (1, 2, 3, 4)))
    assert w_bad.closedness_defect()


# ---------------------------------------------------------------------------
# cohomology classes


def test_cohomology_zero_without_constant_mode():
    rng = np.random.default_rng(68)
    k, l = _sample_kl(rng)
    # generic modes: no component of k + l vanishes
    if any((a + b) == 0 for a, b in zip(basis_field(4, k).mode,
                                        basis_field(4, l).mode)):
        l = tuple(v + 1 for v in l)
    w = presymplectic_pair(basis_field(4, k), basis_field(4, l))
    if all(v != 0 for v in w.mode.k):
        assert all(not c for c in cohomology_class(w))


def test_class_x6_x4_v2_entry():
    """[omega_2(X_6^k, X_4^l)] = -i k3 (k3^2 - k1)/l2 [v_2] under
    k1 + l1 = k3 + l3 = l4 = 0, l2 != 0 (fully legal side conditions)."""
    rng = np.random.default_rng(69)
    for _ in range(20):
        k1, k3 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        l2 = int(rng.integers(1, 6))
        k = (k1, 0, k3, 0)
        l = (-k1, l2, -k3, 0)
        w = presymplectic_pair(basis_field_as_tabulated(6, k),
                               basis_field_as_tabulated(4, l))
        cls = cohomology_class(w)
        expected = F(-(k3 * (k3 ** 2 - k1)), l2)
        assert cls[1] == expected
        assert all(not cls[i] for i in (0, 2, 3))


def test_class_x4_x1_v2_entry_with_volume_factor():
    """[omega_2(X_4^k, X_1^l)] = 8 i pi^3 k1^2/k2 [v_2]: the raw
    constant-cycle coefficient is i k1^2/k2; the printed factor 8 pi^3 is
    the (2 pi)^3 cycle volume (proportionality only is asserted)."""
    rng = np.random.default_rng(70)
    for _ in range(20):
        k1, k2, k3 = (int(rng.integers(1, 6)) for _ in range(3))
        k = (k1, k2, k3, 0)
        l = (-k1, 0, -k3, 0)
        w = presymplectic_pair(basis_field_as_tabulated(4, k),
                               basis_field_as_tabulated(1, l))
        cls = cohomology_class(w)
        assert cls[1] == F(k1 * k1, k2)
        vol = float(2 * np.pi) ** 3
        assert abs(vol * float(cls[1]) - 8 * np.pi ** 3 * k1 ** 2 / k2) < 1e-9


def test_class_x5_x4_v4_entry_via_l2_independence():
    """[omega_2(X_5^k, X_4^l)] = i k1 [v_4] under k1 + l1 = l3 = 0: the
    printed side condition l2 = 0 is unsatisfiable for X_4, but the
    coefficient is l2-independent and matches i k1 for every legal l2."""
    rng = np.random.default_rng(71)
    for _ in range(20):
        k1 = int(rng.integers(1, 6))
        l4 = int(rng.integers(-5, 6))
        vals = set()
        for l2 in (1, 2, 3, -2):
            k = (k1, 0, 0, 0)
            l = (-k1, l2, 0, l4)
            w = presymplectic_pair(basis_field_as_tabulated(5, k),
                                   basis_field_as_tabulated(4, l))
            vals.add(w.coeff[3])
        assert vals == {F(k1)}


def test_class_x8_x4_entries_via_limits():
    """[omega_2(X_8^k, X_4^l)] entries (i l_j/4)[v_j] for j = 1, 3, 4 under
    their side conditions, via l2-independence of the coefficients."""
    rng = np.random.default_rng(72)
    for _ in range(10):
        k1 = int(rng.integers(1, 6))
        l1, l3, l4 = (int(rng.integers(-5, 6)) for _ in range(3))
        # v1 entry: l3 = l4 = 0, coefficient i l1 / 4, any k1 + l1
        vals = {presymplectic_pair(
            basis_field_as_tabulated(8, (k1, 0, 0, 0)),
            basis_field_as_tabulated(4, (l1, l2, 0, 0))).coeff[0]
            for l2 in (1, 2, 3)}
        assert vals == {F(l1, 4)}
        # v3 entry: k1 + l1 = l4 = 0
        vals = {presymplectic_pair(
            basis_field_as_tabulated(8, (k1, 0, 0, 0)),
            basis_field_as_tabulated(4, (-k1, l2, l3, 0))).coeff[2]
            for l2 in (1, 2, 3)}
        assert vals == {F(l3, 4)}
        # v4 entry: k1 + l1 = l3 = 0
        vals = {presymplectic_pair(
            basis_field_as_tabulated(8, (k1, 0, 0, 0)),
            basis_field_as_tabulated(4, (-k1, l2, 0, l4))).coeff[3]
            for l2 in (1, 2, 3)}
        assert vals == {F(l4, 4)}


# ---------------------------------------------------------------------------
# radical probe


def test_radical_probe_regularity_and_kernel():
    modes = {"default": (2, 3, 4, 5)}
    rep = radical_probe(modes)
    assert rep.upsilon_det_nonzero
    assert rep.criterion_surjective
    assert 0 <= rep.kernel_dimension <= 8
    # the zero field is always in the kernel of the pairing map
    assert rank([[F(1) if i == j else F(0) for j in range(8)]
                 for i in range(8)]) == 8


def test_upsilon_matrices_flat():
    ups = upsilon_matrix_flat()
    assert rank(ups) == 40
    unat = upsilon_natural_flat()
    assert rank(unat) == 10
    # every entry is (Y_aibj + Y_ajbi) / (1 + delta_ij), a Fraction
    ytab = y_table_flat()
    cols = [(b, i, j) for b in range(10) for i in range(4) for j in range(i, 4)]
    assert [len(row) for row in unat] == [len(cols)] * 10
    for a, row in enumerate(unat):
        for v, (b, i, j) in zip(row, cols):
            want = (ytab[a][i][b][j] + ytab[a][j][b][i]) / (1 + (i == j))
            assert type(v) is F and v == want, (a, b, i, j)
