"""Span tracer for the benchmark's traced run.

`Tracer.install()` wraps, from outside the package, every public function
and method of the `varjet` modules plus `Jet.__mul__` (and its `__rmul__`
alias).  A wrapped function is replaced in every module namespace that holds
it, so `varjet.jacobi.pipeline` and `varjet.varcore.pipeline` are the same
traced object.  Each call is a span named `<module>.<qualname>`, for
example `varcore.pipeline` or `einstein.EHLagrangian.l0`.

Per span name the tracer keeps the call count, the total time and the self
time (the span's duration minus the time covered by its child spans).  The
first `RECORDS_PER_NAME` spans of each name are also kept in memory as
`(id, parent, name, start, end)` records and written out at the end with
`dump()`; the counts and times cover every call.  Nothing is written while
the benchmark runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from contextlib import contextmanager
from time import perf_counter

# Dunder methods traced in addition to the public names.
TRACED_DUNDERS = {("Jet", "__mul__"), ("Jet", "__rmul__")}

# Public helpers left untraced: index arithmetic and accessors that do no
# layer work but are called millions of times, so that wrapping them would
# dominate the traced run.  Their time counts as their caller's self time.
UNTRACED = {"fwd.var_key", "fwd.key_from_vars", "fwd.key_multiplicity",
            "fwd.key_exponent", "fwd.value_of", "fwd.ring_one",
            "fwd.Jet.deriv", "fwd.Jet.constant",
            "jets.pair_index", "jets.triple_index", "jets.sym_pairs",
            "jets.sym_triples", "jets.JetPoint.y1", "jets.JetPoint.y2",
            "jets.JetPoint.y3", "jets.JetVars.x", "jets.JetVars.y",
            "jets.JetVars.y1", "jets.JetVars.y2", "jets.JetVars.y3",
            "metric.MetricJet.comp", "metric.MetricJet.dcomp",
            "metric.MetricJet.d2comp", "varcore.PipelineData.lij_get",
            "torus.ModeVector.is_zero", "torus.ModeVector.is_null"}

RECORDS_PER_NAME = 2000

# Spans whose per-call count of nested `varcore.pipeline` calls is kept.
PIPELINE_SCOPES = ("varcore.hc_residual", "varcore.helmholtz_residuals",
                   "jacobi.jacobi_residual")


class Tracer:
    def __init__(self):
        self.active = False
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.extra: dict[str, int] = {}          # computed operation counts
        self.nested_pipelines: dict[str, list] = {s: [] for s in PIPELINE_SCOPES}
        self.records: list = []
        self.records_dropped = 0
        self._stack: list = []
        self._next_id = 1
        self._pipelines = 0
        self._originals: list = []               # (owner, attr, original)

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][2] if self._stack else 0
        sid = self._next_id
        self._next_id += 1
        frame = [perf_counter(), 0.0, sid, parent, name, self._pipelines]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        t1 = perf_counter()
        self._stack.pop()
        t0, child, sid, parent, name, pipes0 = frame
        dur = t1 - t0
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        if self._stack:
            self._stack[-1][1] += dur
        if name == "varcore.pipeline":
            self._pipelines += 1
        elif name in self.nested_pipelines:
            self.nested_pipelines[name].append(self._pipelines - pipes0)
        if self.calls[name] <= RECORDS_PER_NAME:
            self.records.append((sid, parent, name, t0, t1))
        else:
            self.records_dropped += 1

    def count(self, key: str, amount: int) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a stage of a pass)."""
        if not self.active:
            yield
            return
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    @contextmanager
    def paused(self):
        """Calls made inside (output checks) are not traced."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if note is not None:
                note(tracer, args, kwargs)
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return traced

    def install(self) -> None:
        """Wrap the public functions and methods of every varjet module."""
        pkg = importlib.import_module("varjet")
        modules = [importlib.import_module(f"varjet.{m.name}")
                   for m in pkgutil.iter_modules(pkg.__path__)]
        wrapped: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj) and name not in UNTRACED:
                    wrapped[id(obj)] = self._wrap(obj, name, _NOTES.get(name))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        # replace every module-level reference, including re-imports
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def _wrap_class(self, cls, layer: str) -> None:
        done: dict[int, object] = {}
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_")
            if not (public or (cls.__name__, attr) in TRACED_DUNDERS):
                continue
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            if not inspect.isfunction(fn):
                continue
            name = f"{layer}.{cls.__name__}.{fn.__name__}"
            if name in UNTRACED:
                continue
            if id(raw) not in done:
                w = self._wrap(fn, name, _NOTES.get(name))
                done[id(raw)] = staticmethod(w) if is_static else w
            self._originals.append((cls, attr, raw))
            setattr(cls, attr, done[id(raw)])

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._originals):
            setattr(owner, attr, obj)
        self._originals.clear()

    # -- output -----------------------------------------------------------

    def dump(self, path: str, meta: dict) -> None:
        names = sorted({r[2] for r in self.records})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "meta": meta,
            "names": names,
            "spans": [[sid, parent, index[name], t0, t1]
                      for sid, parent, name, t0, t1 in self.records],
            "spans_dropped": self.records_dropped,
            "calls": self.calls,
            "self_s": self.self_time,
            "total_s": self.total,
            "counts": self.extra,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- computed operation counts, taken from a call's arguments -------------

def _note_mul(tracer, args, kwargs):
    a, b = args[0], args[1]
    nb = len(b.coef) if hasattr(b, "coef") else 1
    tracer.count("fwd.mul_term_pairs", len(a.coef) * nb)


def _note_pipeline(tracer, args, kwargs):
    cap = kwargs.get("cap", args[2] if len(args) > 2 else 1)
    tracer.count(f"varcore.pipeline_cap{cap}_calls", 1)


def _note_rref(tracer, args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    tracer.count("linalg.rref_cells", len(rows) * (len(rows[0]) if rows else 0))


_NOTES = {
    "fwd.Jet.__mul__": _note_mul,
    "varcore.pipeline": _note_pipeline,
    "linalg.rref": _note_rref,
}


# -- per-layer metrics ------------------------------------------------------

def layer_metrics(tr: Tracer) -> dict:
    """The per-layer metrics of one traced pass: call counts, computed
    operation counts and self times, keyed `<layer>.<metric>`."""
    calls = lambda name: tr.calls.get(name, 0)            # noqa: E731
    self_s = lambda name: tr.self_time.get(name, 0.0)     # noqa: E731
    extra = lambda key: tr.extra.get(key, 0)              # noqa: E731

    def per_call(scope):
        counts = tr.nested_pipelines[scope]
        return sum(counts) / len(counts) if counts else 0

    newton = [c - 1 for c in tr.nested_pipelines["varcore.hc_residual"]]
    return {
        "fwd.mul_calls": calls("fwd.Jet.__mul__"),
        "fwd.mul_term_pairs": extra("fwd.mul_term_pairs"),
        "fwd.mul_s": self_s("fwd.Jet.__mul__"),
        "fwd.partial_calls": calls("fwd.Jet.partial"),
        "einstein.l0_calls": calls("einstein.EHLagrangian.l0"),
        "einstein.l0_s": self_s("einstein.EHLagrangian.l0"),
        "einstein.lij_rs_calls": calls("einstein.EHLagrangian.lij_rs"),
        "einstein.lij_rs_s": self_s("einstein.EHLagrangian.lij_rs"),
        "varcore.pipeline_cap1_calls": extra("varcore.pipeline_cap1_calls"),
        "varcore.pipeline_cap2_calls": extra("varcore.pipeline_cap2_calls"),
        "varcore.pipeline_s": self_s("varcore.pipeline"),
        "varcore.pipeline_calls_per_helmholtz_point": per_call("varcore.helmholtz_residuals"),
        "varcore.noether_current_calls": calls("varcore.noether_current"),
        "varcore.hc_newton_iters": sum(newton),
        "varcore.hc_newton_capped": sum(1 for it in newton if it >= 60),
        "jacobi.generic_residual_calls": calls("jacobi.jacobi_residual"),
        "jacobi.generic_residual_s": self_s("jacobi.jacobi_residual"),
        "jacobi.pipeline_calls_per_probe": per_call("jacobi.jacobi_residual"),
        "jacobi.eh_residual_calls": calls("jacobi.eh_jacobi_residual"),
        "jacobi.eh_residual_s": self_s("jacobi.eh_jacobi_residual"),
        "metric.curvature_calls": calls("metric.curvature"),
        "metric.curvature_s": self_s("metric.curvature"),
        "metric.mat_inverse_calls": calls("metric.mat_inverse"),
        "metric.mat_inverse_s": self_s("metric.mat_inverse"),
        "poly.eval_calls": calls("poly.Poly.eval"),
        "poly.diff_calls": calls("poly.Poly.diff"),
        "poly.s": sum(v for k, v in tr.self_time.items() if k.startswith("poly.")),
        "linalg.rref_calls": calls("linalg.rref"),
        "linalg.rref_cells": extra("linalg.rref_cells"),
        "linalg.rref_s": self_s("linalg.rref"),
        "torus.mode_solve_calls": calls("torus.mode_solve"),
        "torus.mode_solve_s": self_s("torus.mode_solve"),
        "torus.pair_calls": calls("torus.presymplectic_pair"),
        "torus.pair_s": self_s("torus.presymplectic_pair"),
        "jets.jet_of_section_calls": calls("jets.jet_of_section"),
        "bf.el_residual_s": self_s("bf.el_residual_beta"),
        "bf.l_beta_zero_calls": calls("bf.l_beta_zero"),
    }
