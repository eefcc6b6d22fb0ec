"""The three benchmark workloads: seeded inputs, one pass of artifact calls,
and a check of every output.

A pass is one fixed unit of work.  Every public artifact call in it is one
op; `Pass.op` times it and checks its output right after, with tracing
paused during the check.  The stage times (`flat_operator_s`, ...) are the
summed times of the ops in that stage, and `wall_s` is their total, so
output checks and input generation are never timed as work.

Exact outputs are compared with the digests in `digest.json`, which
`make_digest.py` writes; float outputs are held to the tolerances the
tier-1 tests use for the same check.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# Artifact calls go through the module attribute (`varcore.hc_residual`),
# so that the traced run sees the tracer's wrapper installed there.
from varjet import bf, jacobi, torus, varcore
from varjet.einstein import EHLagrangian, affine_supplier, natural_lift
from varjet.jacobi import DiffOpMatrix
from varjet.jets import PolySection, sym_pairs
from varjet.poly import Poly

from spans import Tracer

HERE = Path(__file__).resolve().parent
LORENTZ3 = (-1, 1, 1)

# Pass sizes, scaled so that one pass of the longest workload fits the
# benchmark's run length (see BENCHMARK.json).
N_MODES = 600
NULL_SHARE = 0.25
N_FLOAT_PROBES = 8
N_EXACT_PROBES = 12

# Modes whose exact kernels are pinned in digest.json: k = 0, the paper's
# (1,2,0,0) and (3,0,2,0), and null-cone modes.  Every sample contains them.
REFERENCE_MODES = [(0, 0, 0, 0), (1, 2, 0, 0), (3, 0, 2, 0), (5, 3, 4, 0),
                   (3, 2, 2, 1), (-3, 1, -2, 2), (2, 1, -3, 4)]

# Tier-1 tolerances for the same checks.
TOL_HC = 1e-10           # test_varcore: H-C families on flat metrics
TOL_JACOBI = 1e-10       # test_jacobi: variation of extremals, curved chart
TOL_HELMHOLTZ = 1e-7     # test_symmetry: Helmholtz, n = 3
TOL_NOETHER = 1e-6       # test_symmetry: natural-lift divergence
TOL_EL = 1e-6            # test_bf / test_varcore: E-L along flat sections


# ---------------------------------------------------------------------------
# digests of exact outputs


def sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def operator_rows(op: DiffOpMatrix) -> list:
    return sorted([A, B, a, b, str(c)]
                  for A in range(op.npairs) for B in range(op.npairs)
                  for (a, b), c in op.entries[A][B].items())


def operator_from_rows(n: int, npairs: int, rows: list) -> DiffOpMatrix:
    entries = [[{} for _ in range(npairs)] for _ in range(npairs)]
    for A, B, a, b, c in rows:
        entries[A][B][(a, b)] = Fraction(c)
    return DiffOpMatrix(n, npairs, entries)


def vectors_digest(vectors) -> str:
    return sha([[str(v) for v in vec] for vec in vectors])


def load_digest() -> dict:
    return json.loads((HERE / "digest.json").read_text())


def load_flat_operator_n4(digest: dict) -> DiffOpMatrix:
    rows = json.loads((HERE / "data" / "flat_operator_n4.json").read_text())
    if sha(rows) != digest["flat_operator_n4"]:
        raise ValueError("data/flat_operator_n4.json does not match digest.json")
    return operator_from_rows(4, 10, rows)


# ---------------------------------------------------------------------------
# one pass


class Pass:
    """Times and checks the ops of one pass.  With an active tracer each
    stage is a span; checks run with the tracer paused."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer if tracer is not None else Tracer()
        self.stages: dict[str, float] = {}
        self.probe_ms: list[float] = []
        self.attempted = 0
        self.failed: list[str] = []

    def op(self, stage: str, label: str, call, check, probe: bool = False):
        """Run one artifact call, add its time to `stage`, check its output.

        `check(result)` returns True when the output is right; a call or
        check that raises counts as a failed op."""
        self.attempted += 1
        try:
            with self.tracer.span(f"bench.{stage}"):
                t0 = perf_counter()
                result = call()
                dt = perf_counter() - t0
        except Exception as exc:  # a failing artifact call is a failed op
            self.failed.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        self.stages[stage] = self.stages.get(stage, 0.0) + dt
        if probe:
            self.probe_ms.append(dt * 1e3)
        with self.tracer.paused():
            try:
                ok = check(result)
            except Exception as exc:  # a check that cannot run is a failure
                ok = False
                label = f"{label}: check raised {type(exc).__name__}: {exc}"
        if not ok:
            self.failed.append(label)
        return result

    @property
    def wall_s(self) -> float:
        return sum(self.stages.values())


# ---------------------------------------------------------------------------
# flat_torus: exact operator, solution spaces, mode sweep, pairing


def _null_modes(limit: int) -> list:
    """All null vectors k1^2 = k2^2 + k3^2 + k4^2 != 0 with |k_i| <= limit."""
    out = []
    rng = range(-limit, limit + 1)
    for k2 in rng:
        for k3 in rng:
            for k4 in rng:
                s = k2 * k2 + k3 * k3 + k4 * k4
                r = int(round(s ** 0.5))
                if s and r * r == s and r <= limit:
                    out += [(r, k2, k3, k4), (-r, k2, k3, k4)]
    return out


def _nonzero(rng, limit):
    return rng.choice([v for v in range(-limit, limit + 1) if v])


def flat_torus_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    digest = load_digest()
    op4 = load_flat_operator_n4(digest)
    null = _null_modes(6)
    modes = list(REFERENCE_MODES)
    n_null = int(N_MODES * NULL_SHARE) - sum(1 for k in modes if _is_null(k))
    modes += rng.sample(null, n_null)
    while len(modes) < N_MODES:
        k = tuple(rng.randint(-6, 6) for _ in range(4))
        if any(k) and not _is_null(k):
            modes.append(k)
    rng.shuffle(modes)
    # basis field X_h needs k2 != 0 (h = 4), k3 != 0 (h = 1, 3, 6), k4 != 0
    # (h = 2): draw every label with all components nonzero
    labels = {h: tuple(_nonzero(rng, 4) for _ in range(4)) for h in range(1, 9)}
    fields = [torus.basis_field(h, labels[h]) for h in range(1, 9)]
    in_kernel = [_mat_vec_zero(op4.mode_matrix(f.mode.k), f.amp) for f in fields]
    return {"digest": digest, "op4": op4, "modes": modes, "labels": labels,
            "fields": fields, "in_kernel": in_kernel,
            "properties": {
                "modes": len(modes),
                "null_cone_share": sum(map(_is_null, modes)) / len(modes),
                "zero_modes": sum(1 for k in modes if not any(k)),
                "pairing_fields": len(fields),
                "kernel_valid_fields": sum(in_kernel),
                "pairings": len(fields) ** 2,
                "derived_operator_eps": list(LORENTZ3)}}


def _is_null(k) -> bool:
    return any(k) and k[0] ** 2 == k[1] ** 2 + k[2] ** 2 + k[3] ** 2


def _mat_vec_zero(mat, vec) -> bool:
    """Exact test of mat @ vec == 0 (entries Fractions or QC)."""
    return all(sum(a * b for a, b in zip(row, vec)) == 0 for row in mat)


def flat_torus_pass(inp: dict, p: Pass) -> None:
    dg, op4 = inp["digest"], inp["op4"]

    p.op("flat_operator_s", "flat_operator_matrix(-1,1,1)",
         lambda: jacobi.flat_operator_matrix(LORENTZ3),
         lambda op: sha(operator_rows(op)) == dg["flat_operator_n3"])

    for deg in range(5):
        want = dg["solution_spaces"][deg]

        def check_space(sp, want=want):
            if [sp.dimension, sp.constraint_rank, vectors_digest(sp.basis)] != \
                    [want["dimension"], want["rank"], want["basis"]]:
                return False
            # exactness on the first and last basis fields
            fields = sp.basis_fields(4)
            return all(jacobi.polynomial_solves(op4, f)
                       for f in (fields[:1] + fields[-1:]))

        p.op("solution_spaces_s", f"polynomial_solution_space(deg={deg})",
             lambda deg=deg: jacobi.polynomial_solution_space(op4, deg), check_space)

    ref = dg["mode_kernels"]
    for k in inp["modes"]:
        def check_mode(r, k=k):
            # kernel dimension 10 at k = 0, 6 on the null cone, 4 off it;
            # the basis and the four gauge modes lie in the exact kernel
            mat = op4.mode_matrix(k)
            if any(k):
                if (r.dimension != (6 if _is_null(k) else 4) or r.gauge_dimension != 4
                        or r.kernel_is_gauge == _is_null(k)
                        or not all(_mat_vec_zero(mat, g)
                                   for g in torus.gauge_mode_amplitudes(k))):
                    return False
            elif r.dimension != 10:
                return False
            if not all(_mat_vec_zero(mat, b) for b in r.basis):
                return False
            key = ",".join(map(str, k))
            return key not in ref or vectors_digest(r.basis) == ref[key]

        p.op("mode_sweep_s", f"mode_solve{k}",
             lambda k=k: torus.mode_solve(k, op4), check_mode)

    labels, fields, in_kernel = inp["labels"], inp["fields"], inp["in_kernel"]
    table = {}
    for a in range(8):
        for b in range(8):
            def check_pair(w, a=a, b=b):
                table[(a, b)] = w
                if (b, a) in table and any(x != -y for x, y in
                                           zip(w.coeff, table[(b, a)].coeff)):
                    return False          # exact antisymmetry
                if in_kernel[a] and in_kernel[b]:
                    return w.closedness_defect() == 0
                return True

            p.op("pairing_s", f"presymplectic_pair(X{a + 1},X{b + 1})",
                 lambda a=a, b=b: torus.presymplectic_pair(fields[a], fields[b]),
                 check_pair)

    def check_radical(rep):
        if not (rep.upsilon_det_nonzero and rep.criterion_surjective):
            return False
        if len(table) == 64 and any(rep.pair_matrix[a][b] != table[(a, b)].coeff
                                    for a in range(8) for b in range(8)):
            return False
        rows = [[rep.pair_matrix[a][b][i] for b in range(8)]
                for a in range(8) for i in range(4)]
        return rep.kernel_dimension == len(rep.kernel) and all(
            _mat_vec_zero(rows, vec) for vec in rep.kernel)

    p.op("pairing_s", "radical_probe", lambda: torus.radical_probe(labels),
         check_radical)


# ---------------------------------------------------------------------------
# float_checks_n3: flat Euclidean metric in a seeded curved chart


def _quadratic(rng, n, x):
    p = Poly.constant(n, 0)
    for i, j in sym_pairs(n):
        if rng.random() < 0.5:
            p = p + Fraction(rng.choice((-1, 1)), rng.randint(5, 12)) * x[i] * x[j]
    return p


def float_checks_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    n, sig, eta = 3, (3, 0), (1, 1, 1)
    x = [Poly.variable(n, i) for i in range(n)]
    phi = [x[c] + _quadratic(rng, n, x) for c in range(n)]
    polys = []
    for a, b in sym_pairs(n):
        acc = Poly.constant(n, 0)
        for c in range(n):
            acc = acc + eta[c] * phi[c].diff(a) * phi[c].diff(b)
        polys.append(acc)
    fields = []
    for _ in range(N_FLOAT_PROBES):
        # V = d/dt g_t for the flat metrics pulled back by phi + t psi
        psi = [_quadratic(rng, n, x) + Fraction(rng.randint(-3, 3), 7) * x[rng.randrange(n)]
               for _ in range(n)]
        fields.append([sum((eta[c] * (psi[c].diff(a) * phi[c].diff(b)
                                      + phi[c].diff(a) * psi[c].diff(b))
                            for c in range(n)), Poly.constant(n, 0))
                       for a, b in sym_pairs(n)])
    u = [_quadratic(rng, n, x) + x[(c + 1) % n] for c in range(n)]
    eh = EHLagrangian(n, sig)
    beta = bf.beta_eh(n, sig)
    return {"n": n, "sig": sig, "section": PolySection(n, polys),
            "point": tuple(rng.uniform(-0.2, 0.2) for _ in range(n)),
            "fields": fields, "supplier": affine_supplier(eh),
            "lift": varcore.VectorField(n, len(sym_pairs(n)), u, natural_lift(n, u)),
            "beta": beta, "bf_supplier": bf.affine_supplier(beta, n, sig),
            "properties": {"n": n, "jacobi_probes": len(fields),
                           "helmholtz_points": 1, "noether_points": 1}}


def _small(values, tol) -> bool:
    return max(abs(float(v)) for v in values) <= tol


def float_checks_pass(inp: dict, p: Pass) -> None:
    sup, s, x = inp["supplier"], inp["section"], inp["point"]

    p.op("hc_point_s", "hc_residual", lambda: varcore.hc_residual(sup, s, x),
         lambda r: (not r.skipped_second and _small(r.first, TOL_HC)
                    and _small(r.second, TOL_HC)))
    for i, v in enumerate(inp["fields"]):
        p.op("jacobi_probes_s", f"jacobi_residual(field {i})",
             lambda v=v: jacobi.jacobi_residual(sup, s, v, x),
             lambda r: _small(r[0], TOL_JACOBI) and r[1] <= TOL_JACOBI, probe=True)
    p.op("helmholtz_point_s", "helmholtz_residuals",
         lambda: varcore.helmholtz_residuals(sup, s, x),
         lambda r: r.max_all <= TOL_HELMHOLTZ)
    p.op("noether_point_s", "noether_divergence",
         lambda: varcore.noether_divergence(sup, inp["lift"], s, x),
         lambda d: abs(d) <= TOL_NOETHER)
    p.op("el_point_s", "euler_lagrange(EH)", lambda: varcore.euler_lagrange(sup, s, x),
         lambda r: _small(r, TOL_EL))
    el_bf = p.op("el_point_s", "euler_lagrange(BF, beta_EH)",
                 lambda: varcore.euler_lagrange(inp["bf_supplier"], s, x),
                 lambda r: _small(r, TOL_EL))

    def check_covariant(r):
        # vanishes, and agrees with the generic E-L of the same Lagrangian
        return _small(r.values(), TOL_EL) and (el_bf is None or all(
            abs(el_bf[k] - r[ab]) <= TOL_EL for k, ab in enumerate(sym_pairs(inp["n"]))))

    p.op("el_point_s", "el_residual_beta(beta_EH)",
         lambda: bf.el_residual_beta(inp["beta"], s, x, inp["sig"]), check_covariant)


# ---------------------------------------------------------------------------
# jacobi_exact_n4: exact generic Jacobi probes at Minkowski


def jacobi_exact_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    n = 4
    eps = [Fraction(e) for e in (-1, 1, 1, 1)]
    x = [Poly.variable(n, i) for i in range(n)]
    fields = []
    for _ in range(N_EXACT_PROBES):
        xi = []
        for c in range(n):
            p = Fraction(rng.randint(-5, 5), 3) * x[c] * x[rng.randrange(n)]
            for i in range(n):
                for j in range(i, n):
                    for k in range(j, n):
                        if rng.random() < 0.3:
                            p = p + Fraction(rng.randint(-5, 5), rng.randint(1, 7)) \
                                * x[i] * x[j] * x[k]
            xi.append(p)
        # gauge field V_ab = eps_b d_a xi^b + eps_a d_b xi^a
        fields.append([eps[b] * xi[b].diff(a) + eps[a] * xi[a].diff(b)
                       for a, b in sym_pairs(n)])
    # the non-solution control: V_11 = c (x^j)^2 with j spatial
    bad = [Poly.constant(n, 0) for _ in sym_pairs(n)]
    bad[0] = Fraction(rng.randint(1, 5), rng.randint(1, 5)) * x[rng.randint(1, 3)] ** 2
    eh = EHLagrangian(n, (1, 3))
    return {"section": PolySection(n, [Poly.constant(n, eps[a] if a == b else Fraction(0))
                                       for a, b in sym_pairs(n)]),
            "point": (Fraction(0),) * n,
            "fields": fields, "control": bad, "supplier": affine_supplier(eh),
            "properties": {"n": n, "gauge_fields": len(fields), "controls": 1}}


def jacobi_exact_pass(inp: dict, p: Pass) -> None:
    sup, s, x = inp["supplier"], inp["section"], inp["point"]
    for i, v in enumerate(inp["fields"]):
        p.op("jacobi_probes_s", f"jacobi_residual(gauge field {i})",
             lambda v=v: jacobi.jacobi_residual(sup, s, v, x),
             lambda r: all(c == 0 for c in r[0]) and r[1] == 0, probe=True)
    p.op("jacobi_probes_s", "jacobi_residual(non-solution control)",
         lambda: jacobi.jacobi_residual(sup, s, inp["control"], x),
         lambda r: any(c != 0 for c in r[0]) and r[1] == 0, probe=True)


WORKLOADS = {
    "flat_torus": (flat_torus_inputs, flat_torus_pass),
    "float_checks_n3": (float_checks_inputs, float_checks_pass),
    "jacobi_exact_n4": (jacobi_exact_inputs, jacobi_exact_pass),
}
