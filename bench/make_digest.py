"""Regenerate the exact reference data the benchmark checks against.

    PYTHONPATH=src python3 bench/make_digest.py

Derives the flat Minkowski operator at n = 4 (about a minute), writes its
entries to `data/flat_operator_n4.json` (the flat_torus workload's operator
input), and writes `digest.json`: SHA-256 digests of the n = 4 entries, of
the n = 3 operator that the workload derives on every pass, of the
solution spaces at degrees 0-4 and of the kernels of the reference modes.
Run it only when a change to `varjet` is meant to change these outputs.
"""

from __future__ import annotations

import json

from varjet import jacobi, torus
from workloads import (HERE, LORENTZ3, REFERENCE_MODES, operator_rows, sha,
                       vectors_digest)


def main() -> None:
    op4 = jacobi.flat_operator_matrix((-1, 1, 1, 1))
    rows4 = operator_rows(op4)
    (HERE / "data").mkdir(exist_ok=True)
    (HERE / "data" / "flat_operator_n4.json").write_text(json.dumps(rows4) + "\n")
    spaces = []
    for deg in range(5):
        sp = jacobi.polynomial_solution_space(op4, deg)
        spaces.append({"degree": deg, "dimension": sp.dimension,
                       "rank": sp.constraint_rank, "basis": vectors_digest(sp.basis)})
    kernels = {",".join(map(str, k)): vectors_digest(torus.mode_solve(k, op4).basis)
               for k in REFERENCE_MODES}
    digest = {
        "flat_operator_n4": sha(rows4),
        "flat_operator_n3": sha(operator_rows(jacobi.flat_operator_matrix(LORENTZ3))),
        "solution_spaces": spaces,
        "mode_kernels": kernels,
    }
    (HERE / "digest.json").write_text(json.dumps(digest, indent=1) + "\n")


if __name__ == "__main__":
    main()
