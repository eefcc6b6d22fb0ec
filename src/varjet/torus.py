"""Global linearized solutions on the flat Lorentzian 4-torus.

Fourier modes turn the constant-coefficient linearized operator into an
integer 10x10 matrix per integer mode vector (the symbol scaled by the lcm
of its coefficient denominators); kernels are exact nullspace computations.
For every nonzero mode the kernel contains the four diffeomorphism (gauge)
modes V_ab = k_a xi_b + k_b xi_a; off the null cone
k_1^2 = k_2^2 + k_3^2 + k_4^2 these exhaust it (dimension 4), on the null
cone two wave polarizations join (dimension 6).  The literature's mode-3
basis fields are particular gauge directions and are validated against the
kernel.  The presymplectic pairing of two mode fields is assembled from the
momentum-coefficient table at the flat metric; each component is i times
an exact rational, and the rational is what it returns.  The contraction
runs on integers: the table and each field's amplitudes are scaled to
integer numerators over one denominator (`linalg.integer_scaled`), and one
Fraction is formed per returned component.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import mul

from .einstein import EHLagrangian
from .jacobi import DiffOpMatrix, flat_operator_matrix
from .jets import pair_index, sym_pairs
from .linalg import in_row_space, integer_scaled, nullspace, rank
from .metric import constant_metric_jet

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

    def is_null(self):
        return self.k[0] ** 2 == sum(v * v for v in self.k[1:])


class SideConditionError(ValueError):
    """Basis field requested outside its printed validity domain."""


@cache
def lorentz_operator() -> DiffOpMatrix:
    return flat_operator_matrix(list(LORENTZ_EPS))


def gauge_mode_amplitudes(k, n: int = 4) -> list:
    """The n amplitude vectors of the diffeomorphism modes
    V_ab = k_a xi_b + k_b xi_a (up to the overall i factor)."""
    return [[Fraction(v) for v in g] for g in _gauge_rows(k, n)]


def _gauge_rows(k, n: int) -> list:
    return [[(k[a] if b == direction else 0) + (k[b] if a == direction else 0)
             for a, b in sym_pairs(n)] for direction in range(n)]


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
        return in_row_space([list(b) for b in self.basis], vec)


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
    basis = nullspace(rows, ncols=op.npairs)
    cls, pdim = classify_mode(kv.k)
    gauge = [g for g in _gauge_rows(kv.k, op.n) if any(g)]
    gdim = rank(gauge)
    # the basis spans the exact kernel, so g lies in it iff M g = 0, read
    # over the nonzero entries of g only
    gauge_nz = [[(j, v) for j, v in enumerate(g) if v] for g in gauge]
    gauge_in = all(sum(r[j] * v for j, v in g) == 0 for r in rows for g in gauge_nz)
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
    """omega_2^i(X, Y) = i coeff[i] exp(i mode . x) for i = 1..4 (the
    overall i factor is not stored)."""

    mode: ModeVector
    coeff: tuple   # four Fractions

    def closedness_defect(self) -> Fraction:
        """sum_i mode_i coeff_i; it vanishes exactly when the pairing is
        closed."""
        return sum((self.mode[i] * self.coeff[i] for i in range(4)), Fraction(0))


@cache
def y_table_flat():
    """The momentum-coefficient table Y at the flat metric diag(LORENTZ_EPS)."""
    flat = constant_metric_jet([Fraction(e) for e in LORENTZ_EPS], order=0)
    return EHLagrangian(4, flat.signature).y_table(flat)


@cache
def _y_table_flat_integer():
    """`y_table_flat()` as (integer table, d): Y == table / d entrywise."""
    ytab = y_table_flat()
    nums, d = integer_scaled(v for a in ytab for yi in a for yb in yi for v in yb)
    it = iter(nums)
    return [[[[next(it) for _ in yb] for yb in yi] for yi in a] for a in ytab], d


def presymplectic_pair(x_field: BasisField, y_field: BasisField) -> PresymplecticValue:
    """omega_2^i(X, Y) from the momentum-coefficient contraction

        sum_{kl<=, ab<=} Y_{ab}^{i;kl,j} (dV^{kl}/dx^j W^{ab}
                                          - V^{ab} dW^{kl}/dx^j),

    a single Fourier mode i c_i exp(i (k + l) . x) with c_i an exact
    Fraction; the coefficients c_i are returned.  The sum runs on integers,
    over the pairs of nonzero amplitudes of X and Y only: the flat Y table
    and each field's amplitudes scaled to integer numerators over one
    denominator, one Fraction(sum, denominators) per c_i.  Amplitudes must
    be ints or Fractions; any other raises `TypeError`."""
    ytab, yden = _y_table_flat_integer()
    k, l = x_field.mode.k, y_field.mode.k
    xs, ys = integer_scaled(x_field.amp), integer_scaled(y_field.amp)
    if xs is None or ys is None:
        raise TypeError("presymplectic_pair takes int and Fraction amplitudes")
    a_nz = [(p, v) for p, v in enumerate(xs[0]) if v]
    b_nz = [(q, v) for q, v in enumerate(ys[0]) if v]
    den = yden * xs[1] * ys[1]
    coeff = []
    for i in range(4):
        acc = 0
        # with V^p W^q: the first term at (kl, ab) = (p, q), the second at
        # (ab, kl) = (p, q)
        for p, av in a_nz:
            for q, bv in b_nz:
                acc += av * bv * (sum(map(mul, ytab[q][i][p], k))
                                  - sum(map(mul, ytab[p][i][q], l)))
        coeff.append(Fraction(acc, den))
    return PresymplecticValue(x_field.mode + y_field.mode, tuple(coeff))


def cohomology_class(w: PresymplecticValue) -> tuple:
    """Per direction i: the coefficient of the i-th cycle class, without
    the overall factor i (as in `PresymplecticValue`).

    The component on [v_i] survives exactly when every mode component other
    than the i-th vanishes (integration over the i-th coordinate 3-cycle
    through the origin); for the fully constant mode this is the ordinary
    constant-Fourier-coefficient extraction."""
    out = []
    for i in range(4):
        if all(w.mode[j] == 0 for j in range(4) if j != i):
            out.append(w.coeff[i])
        else:
            out.append(Fraction(0))
    return tuple(out)


# ---------------------------------------------------------------------------
# radical probe


def upsilon_matrix_flat():
    """The mn x mn matrix (dp_a^i/dy'^b_j) at the flat metric (the Y table
    reshaped); its nonsingularity is the regularity hypothesis."""
    ytab = y_table_flat()
    rows = []
    for a in range(10):
        for i in range(4):
            rows.append([ytab[a][i][b][j] for b in range(10) for j in range(4)])
    return rows


def upsilon_natural_flat():
    """The symmetrized map of the Hessian criterion: rows indexed by the
    fibre pair a, columns by (pair b, i <= j), entries (Y_{a i b j} +
    Y_{a j b i}) / (1 + delta_ij), that is Y_{a i b i} at i = j."""
    ytab = y_table_flat()
    return [[ytab[a][i][b][j] + ytab[a][j][b][i] if i != j else ytab[a][i][b][i]
             for b in range(10) for i, j in sym_pairs(4)] for a in range(10)]


@dataclass
class RadicalProbeReport:
    fields: list
    pair_matrix: list          # i-coefficients at x = 0: [a][b] -> 4 Fractions
    kernel_dimension: int
    kernel: list
    upsilon_rank: int
    upsilon_det_nonzero: bool
    upsilon_natural_rank: int
    criterion_surjective: bool


def radical_probe(modes: dict) -> RadicalProbeReport:
    """Kernel of the truncated pairing over the eight basis fields at the
    given mode labels (dict h -> k), plus the regularity checks.

    The full radical vanishes by the theory; the truncation only reports
    the kernel of the available block, it does not assert zero."""
    fields = [basis_field(h, modes.get(h, modes.get("default"))) for h in range(1, 9)]
    mat = [[presymplectic_pair(fa, fb) for fb in fields] for fa in fields]
    # pointwise value at x = 0: i times the coefficient vector; the common
    # factor i leaves the kernel unchanged
    rows = []
    for a in range(8):
        # stack the 4 components of omega_2(X_a, X_b) for all b
        for i in range(4):
            rows.append([mat[a][b].coeff[i] for b in range(8)])
    kern = nullspace(rows, ncols=8)
    ups = upsilon_matrix_flat()
    ur = rank(ups)
    unat = upsilon_natural_flat()
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
