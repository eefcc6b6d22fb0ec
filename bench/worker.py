"""One fresh-process pass of a workload; started by run.py.

    python3 -B bench/worker.py --workload NAME --seed N --role setup|pass
                               [--trace] [--spans FILE]

Imports `varjet` from the checkout's `src/`, builds the seeded inputs and
notes the monotonic clock (`ready_at`).  With `--role setup` it stops there.
With `--role pass` it runs one pass, checks every output and prints one
JSON line with the stage times, per-probe times, op counts and peak memory.
With `--trace` the pass runs under the span tracer, and the per-layer
metrics are added (spans go to `--spans`).
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_varjet():
    if not (SRC / "varjet" / "__init__.py").is_file():
        sys.exit(f"worker: no varjet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import varjet
    if Path(varjet.__file__).resolve().parent != SRC / "varjet":
        sys.exit(f"worker: imported varjet from {varjet.__file__}, not {SRC}")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--role", choices=("setup", "pass"), required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    import_varjet()
    import numpy
    from workloads import WORKLOADS, Pass
    make_inputs, run_pass = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    out = {"ready_at": perf_counter(), "inputs": inputs["properties"],
           "python": platform.python_version(), "numpy": numpy.__version__}
    if args.role == "pass":
        tracer = None
        if args.trace:
            from spans import Tracer, layer_metrics
            tracer = Tracer()
            tracer.install()
            tracer.active = True
        p = Pass(tracer)
        run_pass(inputs, p)
        out.update(wall_s=p.wall_s, stages=p.stages, probe_ms=p.probe_ms,
                   attempted=p.attempted, failed=p.failed,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            tracer.active = False
            out["layers"] = layer_metrics(tracer)
            out["calls"] = tracer.calls
            if args.spans:
                tracer.dump(args.spans, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(out))


if __name__ == "__main__":
    main()
