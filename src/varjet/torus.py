"""Global linearized solutions on the flat Lorentzian 4-torus.

Fourier modes turn the constant-coefficient linearized operator into a
rational 10x10 matrix per integer mode vector; kernels are exact nullspace
computations.  For every nonzero mode the kernel contains the four
diffeomorphism (gauge) modes V_ab = k_a xi_b + k_b xi_a; off the null cone
k_1^2 = k_2^2 + k_3^2 + k_4^2 these exhaust it (dimension 4), on the null
cone two wave polarizations join (dimension 6).  The literature's mode-3
basis fields are particular gauge directions and are validated against the
kernel.  The presymplectic pairing of two mode fields is assembled from the
momentum-coefficient table at the flat metric and is exact in Gaussian
rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .einstein import EHLagrangian
from .jacobi import DiffOpMatrix, flat_operator_matrix
from .jets import pair_index, sym_pairs
from .linalg import QC, QC_I, nullspace, rank, rref

LORENTZ_EPS = (-1, 1, 1, 1)


@dataclass(frozen=True)
class ModeVector:
    k: tuple

    def __iter__(self):
        return iter(self.k)

    def __getitem__(self, i):
        return self.k[i]

    def __add__(self, other):
        return ModeVector(tuple(a + b for a, b in zip(self.k, other.k)))

    def is_zero(self):
        return all(v == 0 for v in self.k)

    def is_null(self):
        return self.k[0] ** 2 == sum(v * v for v in self.k[1:])


class SideConditionError(ValueError):
    """Basis field requested outside its printed validity domain."""


_OPERATOR_CACHE: dict = {}


def lorentz_operator(eps=LORENTZ_EPS) -> DiffOpMatrix:
    key = tuple(eps)
    if key not in _OPERATOR_CACHE:
        _OPERATOR_CACHE[key] = flat_operator_matrix(list(eps))
    return _OPERATOR_CACHE[key]


def gauge_mode_amplitudes(k, n: int = 4) -> list:
    """The n amplitude vectors of the diffeomorphism modes
    V_ab = k_a xi_b + k_b xi_a (up to the overall i factor)."""
    out = []
    pairs = sym_pairs(n)
    for direction in range(n):
        amp = [Fraction(0)] * len(pairs)
        for pos, (a, b) in enumerate(pairs):
            v = 0
            if b == direction:
                v += k[a]
            if a == direction:
                v += k[b]
            amp[pos] = Fraction(v)
        out.append(amp)
    return out


@dataclass
class ModeSolveResult:
    k: ModeVector
    dimension: int
    basis: list
    paper_class: int          # 1: k2 != 0; 2: k4 != 0; 3: k3 != 0; 4: rest
    paper_dimension: int      # the literature's claimed dimension
    gauge_dimension: int      # rank of the four gauge modes
    kernel_is_gauge: bool     # kernel == span(gauge modes)?
    is_null: bool

    def contains(self, vec) -> bool:
        rows = [list(b) for b in self.basis]
        return rank(rows) == rank(rows + [list(vec)])


def classify_mode(k) -> tuple:
    """The literature's case order and its claimed dimension."""
    if k[1] != 0:
        return 1, 1
    if k[3] != 0:
        return 2, 1
    if k[2] != 0:
        return 3, 3
    return 4, (10 if all(v == 0 for v in k) else 4)


def mode_solve(k, op: DiffOpMatrix | None = None) -> ModeSolveResult:
    if op is None:
        op = lorentz_operator()
    kv = ModeVector(tuple(int(v) for v in k))
    mat = op.mode_matrix(kv.k)
    rows = [r for r in mat if any(v != 0 for v in r)]
    basis = nullspace(rows, ncols=op.npairs) if rows else \
        nullspace([], ncols=op.npairs)
    cls, pdim = classify_mode(kv.k)
    gauge = [g for g in gauge_mode_amplitudes(kv.k, op.n)
             if any(v != 0 for v in g)]
    gdim = rank(gauge) if gauge else 0
    kernel_rows = [list(b) for b in basis]
    gauge_in = all(rank(kernel_rows) == rank(kernel_rows + [g]) for g in gauge)
    kernel_is_gauge = gauge_in and len(basis) == gdim
    return ModeSolveResult(kv, len(basis), basis, cls, pdim, gdim,
                           kernel_is_gauge, kv.is_null())


# ---------------------------------------------------------------------------
# the mode-basis fields of the literature example


@dataclass(frozen=True)
class BasisField:
    """X_h^k: an amplitude 10-vector attached to an effective mode vector.

    Amplitudes are exact rationals; the field is amp * exp(i mode . x)."""

    h: int
    mode: ModeVector
    amp: tuple


def basis_field(h: int, k) -> BasisField:
    """The fields X_1..X_8; indices follow the stored-pair order
    (11),(12),(13),(14),(22),(23),(24),(33),(34),(44).

    X_6 is implemented as exp(i(k1 x^1 + k3 x^3)) {(2 k1/k3) d/dy_11
    + d/dy_13}: the printed coefficient 2 k3 fails the mode system for
    k3^2 != k1 and the corrected one is forced by the kernel membership."""
    k = tuple(int(v) for v in k)
    k1, k2, k3, k4 = k
    amp = [Fraction(0)] * 10
    if h == 1:
        if k3 == 0:
            raise SideConditionError("X_1 needs k3 != 0")
        mode = (k1, 0, k3, 0)
        amp[pair_index(4, 2, 2)] = Fraction(1)
        amp[pair_index(4, 0, 0)] = -Fraction(k1 * k1, k3 * k3)
    elif h == 2:
        if k4 == 0:
            raise SideConditionError("X_2 needs k4 != 0")
        mode = (k1, 0, k3, k4)
        amp[pair_index(4, 0, 1)] = Fraction(k1, k4)
        amp[pair_index(4, 1, 2)] = Fraction(k3, k4)
        amp[pair_index(4, 1, 3)] = Fraction(1)
    elif h == 3:
        if k3 == 0:
            raise SideConditionError("X_3 needs k3 != 0")
        mode = (k1, 0, k3, 0)
        amp[pair_index(4, 0, 1)] = Fraction(k1, k3)
        amp[pair_index(4, 1, 2)] = Fraction(1)
    elif h == 4:
        if k2 == 0:
            raise SideConditionError("X_4 needs k2 != 0")
        mode = (k1, k2, k3, k4)
        amp[pair_index(4, 0, 1)] = Fraction(k1, 2 * k2)
        amp[pair_index(4, 1, 1)] = Fraction(1)
        amp[pair_index(4, 1, 2)] = Fraction(k3, 2 * k2)
        amp[pair_index(4, 1, 3)] = Fraction(k4, 2 * k2)
    elif h == 5:
        mode = (k1, 0, 0, 0)
        amp[pair_index(4, 0, 3)] = Fraction(1)
    elif h == 6:
        if k3 == 0:
            raise SideConditionError("X_6 needs k3 != 0")
        mode = (k1, 0, k3, 0)
        amp[pair_index(4, 0, 0)] = Fraction(2 * k1, k3)
        amp[pair_index(4, 0, 2)] = Fraction(1)
    elif h == 7:
        mode = (k1, 0, 0, 0)
        amp[pair_index(4, 0, 1)] = Fraction(1)
    elif h == 8:
        mode = (k1, 0, 0, 0)
        amp[pair_index(4, 0, 0)] = Fraction(1)
    else:
        raise ValueError("basis fields are numbered 1..8")
    return BasisField(h, ModeVector(mode), tuple(amp))


def basis_field_as_tabulated(h: int, k) -> BasisField:
    """The field convention the literature's pairing tables were computed
    with.  It differs from the kernel-valid fields in two places: X_1
    carries +k1^2/k3^2 on d/dy_11 (the field list prints the minus sign,
    which is the Jacobi one) and X_6 carries the printed 2 k3 coefficient
    (not in the kernel).  Every tabulated pairing family is reproduced
    exactly under this convention and only under it; see the tests."""
    f = basis_field(h, k)
    k = tuple(int(v) for v in k)
    amp = list(f.amp)
    if h == 1:
        amp[pair_index(4, 0, 0)] = Fraction(k[0] * k[0], k[2] * k[2])
    elif h == 6:
        amp[pair_index(4, 0, 0)] = Fraction(2 * k[2])
    return BasisField(h, f.mode, tuple(amp))


# ---------------------------------------------------------------------------
# presymplectic pairing


@dataclass
class PresymplecticValue:
    """omega_2^i(X, Y) = coeff[i] * exp(i mode . x) for i = 1..4."""

    mode: ModeVector
    coeff: tuple   # four QC values

    def closedness_defect(self) -> QC:
        acc = QC.of(0)
        for i in range(4):
            acc = acc + self.mode[i] * self.coeff[i]
        return acc


_Y_FLAT_CACHE: dict = {}


def y_table_flat(eps=LORENTZ_EPS):
    key = tuple(eps)
    if key not in _Y_FLAT_CACHE:
        n = len(eps)
        npos = sum(1 for e in eps if e > 0)
        eh = EHLagrangian(n, (npos, n - npos))
        g_row = tuple(Fraction(eps[a]) if a == b else Fraction(0)
                      for a, b in sym_pairs(n))
        _Y_FLAT_CACHE[key] = eh.y_table(g_row)
    return _Y_FLAT_CACHE[key]


def presymplectic_pair(x_field: BasisField, y_field: BasisField,
                       eps=LORENTZ_EPS) -> PresymplecticValue:
    """omega_2^i(X, Y) from the momentum-coefficient contraction

        sum_{kl<=, ab<=} Y_{ab}^{i;kl,j} (dV^{kl}/dx^j W^{ab}
                                          - V^{ab} dW^{kl}/dx^j),

    exact in Gaussian rationals; the result is a single Fourier mode."""
    ytab = y_table_flat(eps)
    n = len(eps)
    kv, lv = x_field.mode, y_field.mode
    a_amp, b_amp = x_field.amp, y_field.amp
    npairs = len(sym_pairs(n))
    coeff = []
    for i in range(n):
        acc = Fraction(0)
        for klp in range(npairs):
            for abp in range(npairs):
                for j in range(n):
                    y = ytab[abp][i][klp][j]
                    if y == 0:
                        continue
                    acc += y * (kv[j] * a_amp[klp] * b_amp[abp]
                                - lv[j] * a_amp[abp] * b_amp[klp])
        coeff.append(QC_I * acc)
    return PresymplecticValue(kv + lv, tuple(coeff))


def cohomology_class(w: PresymplecticValue) -> tuple:
    """Per direction i: the coefficient of the i-th cycle class.

    The component on [v_i] survives exactly when every mode component other
    than the i-th vanishes (integration over the i-th coordinate 3-cycle
    through the origin); for the fully constant mode this is the ordinary
    constant-Fourier-coefficient extraction."""
    out = []
    for i in range(4):
        if all(w.mode[j] == 0 for j in range(4) if j != i):
            out.append(w.coeff[i])
        else:
            out.append(QC.of(0))
    return tuple(out)


# ---------------------------------------------------------------------------
# radical probe


def upsilon_matrix_flat(eps=LORENTZ_EPS):
    """The mn x mn matrix (dp_a^i/dy'^b_j) at the flat metric (the Y table
    reshaped); its nonsingularity is the regularity hypothesis."""
    ytab = y_table_flat(eps)
    n = len(eps)
    npairs = len(sym_pairs(n))
    rows = []
    for a in range(npairs):
        for i in range(n):
            rows.append([ytab[a][i][b][j] for b in range(npairs)
                         for j in range(n)])
    return rows


def upsilon_natural_flat(eps=LORENTZ_EPS):
    """The symmetrized map of the Hessian criterion: rows indexed by the
    fibre pair, columns by (pair, i <= j)."""
    ytab = y_table_flat(eps)
    n = len(eps)
    npairs = len(sym_pairs(n))
    rows = []
    for a in range(npairs):
        row = []
        for b in range(npairs):
            for (i, j) in sym_pairs(n):
                v = (ytab[a][i][b][j] + ytab[a][j][b][i]) \
                    * Fraction(1, 1 + (1 if i == j else 0))
                row.append(v)
        rows.append(row)
    return rows


@dataclass
class RadicalProbeReport:
    fields: list
    pair_matrix: list          # pointwise values at x = 0: [a][b] -> 4 QC
    kernel_dimension: int
    kernel: list
    upsilon_rank: int
    upsilon_det_nonzero: bool
    upsilon_natural_rank: int
    criterion_surjective: bool


def radical_probe(modes: dict, eps=LORENTZ_EPS) -> RadicalProbeReport:
    """Kernel of the truncated pairing over the eight basis fields at the
    given mode labels (dict h -> k), plus the regularity checks.

    The full radical vanishes by the theory; the truncation only reports
    the kernel of the available block, it does not assert zero."""
    fields = [basis_field(h, modes.get(h, modes.get("default"))) for h in range(1, 9)]
    mat = [[presymplectic_pair(fa, fb, eps) for fb in fields] for fa in fields]
    # pointwise value at x = 0: the coefficient vector itself
    rows = []
    for a in range(8):
        # stack the 4 components of omega_2(X_a, X_b) for all b
        for i in range(4):
            rows.append([mat[a][b].coeff[i] for b in range(8)])
    kern = nullspace(rows, ncols=8)
    ups = upsilon_matrix_flat(eps)
    ur = rank(ups)
    unat = upsilon_natural_flat(eps)
    unr = rank(unat)
    return RadicalProbeReport(
        fields=fields,
        pair_matrix=[[mat[a][b].coeff for b in range(8)] for a in range(8)],
        kernel_dimension=len(kern),
        kernel=kern,
        upsilon_rank=ur,
        upsilon_det_nonzero=(ur == len(ups)),
        upsilon_natural_rank=unr,
        criterion_surjective=(unr == len(unat)),
    )
