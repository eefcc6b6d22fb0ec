"""Benchmark runner for varjet: seeded paper-artifact workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass runs in a fresh,
single-threaded interpreter (bench/worker.py), one at a time, so the
package's module caches start cold on each pass.

--trace 0   Passes while at least half of another fits in S seconds (at
            least one), with setup-only interpreters before the first
            pass and after each.  Reports the end-to-end metrics: medians
            over the run's passes (setup: over all its interpreters).
--trace 1   One untraced and one traced pass.  Reports the per-layer
            metrics of the traced pass and `trace.overhead`, its wall time
            over the untraced one.  Spans go to bench/out/.

The next-to-last stdout line is a JSON report with every metric of the
workload, the seeded inputs' properties and the environment.  The last line
is the result: {"correct", "attempted", "failed", "metrics"}, with the
metric names of BENCHMARK.json.  A failed output check makes `correct`
false; a crash or timeout exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Setup-only interpreters: some before the first pass and some after each
# pass, so that the setup samples spread over the whole run.
SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_PASS = 2
DEADLINE_S = 170           # a run must end well within 180 s

WORKLOADS = ("flat_torus", "float_checks_n3", "jacobi_exact_n4")


def unit_of(name: str) -> str:
    if name == "trace.overhead":
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name == "peak_rss_mb":
        return "MB"
    if name == "fail_share":
        return "share"
    return "count"


def commit_id() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = perf_counter()
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")

    def child(self, role: str, trace: bool = False, spans: Path | None = None) -> dict:
        cmd = [sys.executable, "-B", str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--role", role]
        if trace:
            cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (t0 - self.start)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit(f"run: {role} process of {self.workload} timed out")
        if proc.returncode != 0:
            sys.exit(f"run: {role} process of {self.workload} exited {proc.returncode}")
        res = json.loads(out.strip().splitlines()[-1])
        res["setup_s"] = res["ready_at"] - t0
        res["elapsed_s"] = perf_counter() - t0
        return res

    def elapsed(self) -> float:
        return perf_counter() - self.start


def stage_metrics(passes: list) -> dict:
    """Median over passes of each stage's time, and the median probe time."""
    names = sorted({name for p in passes for name in p["stages"]})
    out = {name: statistics.median(p["stages"].get(name, 0.0) for p in passes)
           for name in names}
    probes = [ms for p in passes for ms in p["probe_ms"]]
    if probes:
        out["jacobi_probe_ms"] = statistics.median(probes)
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        sys.exit(f"run: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "varjet" / "__init__.py").is_file():
        sys.exit("run: no varjet sources under src/ (run from a checkout of the repository)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    r = Runner(args.workload, args.seed)
    report: dict = {}          # every metric of the workload
    report_extra: dict = {}
    if args.trace:
        base = r.child("pass")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        traced = r.child("pass", trace=True, spans=spans)
        passes = [base, traced]
        layers = dict(traced["layers"], **{"trace.overhead": traced["wall_s"] / base["wall_s"]})
        report.update(layers, untraced_wall_s=base["wall_s"], traced_wall_s=traced["wall_s"])
        report_extra["spans_file"] = str(spans.relative_to(ROOT))
        listed = spec["per_layer"]
        values = layers
    else:
        setups = [r.child("setup")["setup_s"] for _ in range(SETUP_PROBES_FIRST)]
        passes = []
        while True:
            passes.append(r.child("pass"))
            setups += [r.child("setup")["setup_s"] for _ in range(SETUP_PROBES_PER_PASS)]
            # start another pass only if at least half of it fits
            per_pass = statistics.median(p["elapsed_s"] for p in passes)
            if r.elapsed() + per_pass / 2 > args.seconds:
                break
        setups += [p["setup_s"] for p in passes]
        values = {"wall_s": statistics.median(p["wall_s"] for p in passes),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}
        values.update(stage_metrics(passes))
        report.update(values)
        report_extra["setup_samples"] = len(setups)
        listed = spec["end_to_end"]

    attempted = sum(p["attempted"] for p in passes)
    failed = [f for p in passes for f in p["failed"]]
    report["fail_share"] = len(failed) / attempted
    print(json.dumps({"report": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes) - (1 if args.trace else 0), **report_extra,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in report.items()},
        "failed_ops": failed[:20],
        "inputs": passes[0]["inputs"],
        "env": {"python": passes[0]["python"], "numpy": passes[0]["numpy"],
                "platform": platform.platform(), "nproc": os.cpu_count(),
                "commit": commit_id()},
    }}))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))


if __name__ == "__main__":
    main()
