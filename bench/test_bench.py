"""Tests of the benchmark itself (not part of tier-1).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

The workload tests run one traced pass of each workload in a fresh process,
about a minute in all.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from spans import Tracer  # noqa: E402

# Spans every traced pass of the workload must record at least once: the
# artifact calls the benchmark makes, and the layers under them.
EXPECTED_SPANS = {
    "flat_torus": ["jacobi.flat_operator_matrix", "jacobi.polynomial_solution_space",
                   "torus.mode_solve", "torus.basis_field", "torus.presymplectic_pair",
                   "torus.radical_probe", "linalg.nullspace", "linalg.rref"],
    "float_checks_n3": ["varcore.hc_residual", "jacobi.jacobi_residual",
                        "varcore.helmholtz_residuals", "varcore.noether_divergence",
                        "varcore.noether_current", "varcore.euler_lagrange",
                        "bf.el_residual_beta", "bf.l_beta_zero", "varcore.pipeline",
                        "einstein.EHLagrangian.l0", "einstein.EHLagrangian.lij_rs",
                        "fwd.Jet.__mul__", "fwd.Jet.partial", "jets.jet_of_section"],
    "jacobi_exact_n4": ["jacobi.jacobi_residual", "varcore.pipeline",
                        "einstein.EHLagrangian.l0", "einstein.EHLagrangian.lij_rs",
                        "fwd.Jet.__mul__", "fwd.Jet.partial", "jets.jet_of_section"],
}


def traced_pass(workload: str, seed: int = 1) -> dict:
    out = subprocess.run(
        [sys.executable, "-B", str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--role", "pass", "--trace"],
        check=True, capture_output=True, text=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(EXPECTED_SPANS))
def test_traced_pass_records_expected_spans(workload):
    res = traced_pass(workload)
    assert res["failed"] == []
    missing = [s for s in EXPECTED_SPANS[workload] if res["calls"].get(s, 0) < 1]
    assert missing == []
    if workload == "flat_torus":
        assert res["layers"]["fwd.mul_calls"] == 0


def test_tracer_wraps_every_namespace_and_restores():
    import varjet.jacobi
    import varjet.varcore
    from varjet.fwd import Jet

    original = varjet.varcore.pipeline
    tr = Tracer()
    tr.install()
    try:
        assert varjet.jacobi.pipeline is varjet.varcore.pipeline
        assert varjet.varcore.pipeline is not original
        tr.active = True
        a = Jet.variable(0, 2.0, 2)
        _ = a * a
        _ = 3.0 * a          # __rmul__
        with tr.paused():
            _ = a * a
        tr.active = False
    finally:
        tr.uninstall()
    assert varjet.varcore.pipeline is original
    assert tr.calls["fwd.Jet.__mul__"] == 2
    assert tr.extra["fwd.mul_term_pairs"] == 2 * 2 + 2
    assert tr.self_time["fwd.Jet.__mul__"] >= 0
