"""Span tracing around the public functions of fltrans, for traced runs.

``Tracer.install`` rebinds each traced function, at every attribute of
every ``fltrans`` module that holds it, to a wrapper that records a span
(name, start, end, parent, op id).  Rebinding every binding matters: the
modules import each other's functions by name, so wrapping only the
defining module would miss most calls.  An untraced run never calls
``install`` and runs the program untouched.

Self time is a span's duration minus the durations of its child spans.
Spans are kept in memory for the first traced pass only (a pass of
``paper_grid`` records about 0.6 million) and written as JSON at the end;
the per-layer aggregates cover every traced pass.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# module -> public functions wrapped in a traced run
TRACED = {
    "numerics": ("bessel_j", "bessel_j_zero", "integrate_adaptive",
                 "integrate_semi_infinite", "integrate_oscillatory"),
    "radial_fourier": ("kernel_ghat", "forward", "inverse"),
    "laplace": ("inverse_laplace", "forward_laplace"),
    "pairs": ("eval_fl",),
    "verify": ("spacetime_transform", "fl_inversion", "build_sample_grid",
               "verify_pair_mixed"),
    "rte2d": ("verify_rte_mixed", "check_energy"),
}
INTEGRATORS = ("numerics.integrate_adaptive", "numerics.integrate_semi_infinite",
               "numerics.integrate_oscillatory")
# spans under which an inverse_laplace call serves mixed-domain verification
VERIFY_SPANS = ("verify.fl_inversion", "verify.build_sample_grid",
                "verify.verify_pair_mixed")

# (metric, unit, better): the per-layer metrics of BENCHMARK.json
PER_LAYER = (
    ("numerics.bessel_j.calls", "count", "lower"),
    ("numerics.bessel_j.calls_x_gt_8", "count", "lower"),
    ("numerics.bessel_j.self_ms", "ms", "lower"),
    ("numerics.bessel_j_zero.calls", "count", "lower"),
    ("numerics.integrate_adaptive.calls", "count", "lower"),
    ("numerics.integrate_adaptive.evals", "count", "lower"),
    ("numerics.integrate_adaptive.self_ms", "ms", "lower"),
    ("numerics.integrate_semi_infinite.calls", "count", "lower"),
    ("numerics.integrate_semi_infinite.evals", "count", "lower"),
    ("numerics.integrate_semi_infinite.self_ms", "ms", "lower"),
    ("numerics.integrate_oscillatory.calls", "count", "lower"),
    ("numerics.integrate_oscillatory.evals", "count", "lower"),
    ("numerics.integrate_oscillatory.self_ms", "ms", "lower"),
    ("numerics.integrate_oscillatory.not_converged", "count", "lower"),
    ("radial_fourier.kernel_ghat.calls", "count", "lower"),
    ("radial_fourier.kernel_ghat.self_ms", "ms", "lower"),
    ("radial_fourier.forward.calls", "count", "lower"),
    ("radial_fourier.forward.ms", "ms", "lower"),
    ("radial_fourier.inverse.calls", "count", "lower"),
    ("radial_fourier.inverse.ms", "ms", "lower"),
    ("laplace.inverse_laplace.calls", "count", "lower"),
    ("laplace.inverse_laplace.image_evals", "count", "lower"),
    ("laplace.inverse_laplace.self_ms", "ms", "lower"),
    ("laplace.forward_laplace.calls", "count", "lower"),
    ("laplace.forward_laplace.evals", "count", "lower"),
    ("laplace.forward_laplace.ms", "ms", "lower"),
    ("pairs.eval_fl.calls", "count", "lower"),
    ("pairs.eval_fl.self_ms", "ms", "lower"),
    ("verify.spacetime_transform.calls", "count", "lower"),
    ("verify.spacetime_transform.evals", "count", "lower"),
    ("verify.spacetime_transform.ms", "ms", "lower"),
    ("verify.fl_inversion.calls", "count", "lower"),
    ("verify.fl_inversion.ms", "ms", "lower"),
    ("verify.build_sample_grid.ms", "ms", "lower"),
    ("verify.verify_pair_mixed.ms", "ms", "lower"),
    ("verify.inversions_per_point", "inversions/point", "lower"),
    ("verify.report.ms", "ms", "lower"),
    ("rte2d.verify_rte_mixed.ms", "ms", "lower"),
    ("rte2d.check_energy.ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)
# counters that must repeat exactly from pass to pass and run to run
EXACT_SUFFIXES = (".calls", ".calls_x_gt_8", ".evals", ".not_converged",
                  ".image_evals")

_OP_SPAN = "bench.op"


class Tracer:
    """Records spans and per-layer aggregates while installed."""

    def __init__(self) -> None:
        self._clock = time.perf_counter_ns
        self._t0 = self._clock()
        self._index: dict[str, int] = {}
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.outer_ns: list[int] = []   # durations of spans with no same-name ancestor
        self.evals: list[int] = []
        self._depth: list[int] = []
        self.extra = {"calls_x_gt_8": 0, "not_converged": 0, "image_evals": 0,
                      "verify_inversions": 0}
        # open frames: [name index, start ns, child ns, evals under span, span id]
        self._stack: list[list] = []
        self._integrators_open = 0
        self._next_id = 0
        self.op_id = -1
        self.keep_spans = True
        self.spans = {key: array("q" if key.endswith("_ns") else "i") for key in
                      ("id", "name", "parent", "op", "start_ns", "end_ns")}
        self._restore: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans

    def _name_index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            for column in (self.calls, self.self_ns, self.outer_ns,
                           self.evals, self._depth):
                column.append(0)
        return idx

    def _enter(self, idx: int) -> list:
        frame = [idx, self._clock(), 0, 0, self._next_id]
        self._next_id += 1
        self._depth[idx] += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = self._clock()
        stack = self._stack
        stack.pop()
        idx, start, child, evals, span_id = frame
        dur = end - start
        self.calls[idx] += 1
        self.self_ns[idx] += dur - child
        self.evals[idx] += evals
        self._depth[idx] -= 1
        if self._depth[idx] == 0:
            self.outer_ns[idx] += dur
        parent = -1
        if stack:
            stack[-1][2] += dur
            parent = stack[-1][4]
        if self.keep_spans:
            spans = self.spans
            spans["id"].append(span_id)
            spans["name"].append(idx)
            spans["parent"].append(parent)
            spans["op"].append(self.op_id)
            spans["start_ns"].append(start - self._t0)
            spans["end_ns"].append(end - self._t0)

    def _integrated(self, idx: int, evaluations: int) -> None:
        self.evals[idx] += evaluations
        # an outermost integrator's evaluations count towards every span
        # open above it, so aggregating layers see the work done under them
        if self._integrators_open == 0:
            for open_frame in self._stack:
                open_frame[3] += evaluations

    def run_op(self, op_id: int, name: str, fn):
        """Call fn() under a root span for one benchmark op."""
        self.op_id = op_id
        frame = self._enter(self._name_index(name or _OP_SPAN))
        try:
            return fn()
        finally:
            self._exit(frame)

    # ------------------------------------------------------------- wrappers

    def _wrapper(self, name: str, fn):
        idx = self._name_index(name)
        enter, leave = self._enter, self._exit

        if name in INTEGRATORS:
            def wrapper(*args, **kwargs):
                frame = enter(idx)
                self._integrators_open += 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._integrators_open -= 1
                    leave(frame)
                self._integrated(idx, result.evaluations)
                if name == "numerics.integrate_oscillatory" and not result.converged:
                    self.extra["not_converged"] += 1
                return result
        elif name == "numerics.bessel_j":
            def wrapper(order, x):
                frame = enter(idx)
                try:
                    return fn(order, x)
                finally:
                    leave(frame)
                    if x > 8.0:
                        self.extra["calls_x_gt_8"] += 1
        elif name == "laplace.inverse_laplace":
            verify_idx = {self._name_index(n) for n in VERIFY_SPANS}
            extra = self.extra

            def wrapper(image, *args, **kwargs):
                feval = getattr(image, "eval", image)

                def counted(s):
                    extra["image_evals"] += 1
                    return feval(s)

                if any(f[0] in verify_idx for f in self._stack):
                    extra["verify_inversions"] += 1
                frame = enter(idx)
                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    leave(frame)
        else:
            def wrapper(*args, **kwargs):
                frame = enter(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame)
        return wrapper

    def install(self) -> None:
        """Rebind every traced function at every fltrans binding."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "fltrans" or n.startswith("fltrans.")]
        for mod_name, functions in TRACED.items():
            home = importlib.import_module(f"fltrans.{mod_name}")
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrapper(f"{mod_name}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -------------------------------------------------------------- results

    def snapshot(self) -> dict:
        """Cumulative per-layer figures, in the units of PER_LAYER."""
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.evals"] = self.evals[idx]
            out[f"{name}.self_ms"] = self.self_ns[idx] / 1e6
            out[f"{name}.ms"] = self.outer_ns[idx] / 1e6
        out["numerics.bessel_j.calls_x_gt_8"] = self.extra["calls_x_gt_8"]
        out["numerics.integrate_oscillatory.not_converged"] = self.extra["not_converged"]
        out["laplace.inverse_laplace.image_evals"] = self.extra["image_evals"]
        out["verify.inversions"] = self.extra["verify_inversions"]
        return out

    def write_spans(self, path) -> int:
        """Write the kept spans as columnar JSON; returns the span count."""
        head = {"names": self.names, "clock": "perf_counter_ns from tracer start"}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(head)[:-1])
            for key, column in self.spans.items():  # column by column, to stay small
                handle.write(f', "{key}": [')
                handle.write(",".join(map(str, column)))
                handle.write("]")
            handle.write("}\n")
        return len(self.spans["id"])


def per_pass(before: dict, after: dict) -> dict:
    """Difference of two snapshots: the figures of the passes between."""
    return {key: after[key] - before.get(key, 0) for key in after}


def layer_metrics(pass_figures: list[dict], points_per_pass: int,
                  overhead_pct: float) -> tuple[dict, list[str]]:
    """Per-layer metrics as the mean over traced passes.

    Returns the metrics and the names of counters that differed between
    passes (empty when the program is deterministic, as it should be).
    """
    n = len(pass_figures)
    keys = set().union(*pass_figures)
    mean = {k: sum(p.get(k, 0) for p in pass_figures) / n for k in keys}
    unsteady = sorted(k for k in keys if k.endswith(EXACT_SUFFIXES)
                      and len({p.get(k, 0) for p in pass_figures}) > 1)
    inversions = mean.get("verify.inversions", 0)
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name == "verify.inversions_per_point":
            value = inversions / points_per_pass if points_per_pass else 0.0
        elif name == "trace.overhead_pct":
            value = overhead_pct
        else:
            value = mean.get(name, 0)
        if unit == "count" and float(value).is_integer():
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, unsteady
