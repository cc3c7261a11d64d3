"""Outside-in tracer for diskops.

The tracer wraps the public functions of each diskops module, and a few
listed class methods, by attribute replacement on the imported modules.
Calls made inside a module resolve through the module globals, so they
are caught too.  No file under ``src/`` changes.

Each wrapped call records one span (name, parent span, start, end) in
memory, in a flat integer array that the garbage collector does not
scan.  ``metrics()`` derives self time per function and per layer from
the spans, and ``write()`` dumps the spans when the run ends.

Some wrappers also add computed work counts, taken from the arguments of
the call.  These are counts of work the code is asked to do (products,
coefficients, matrix sizes), not measured bytes or speeds, and they
repeat exactly for the same inputs.
"""

from __future__ import annotations

import array
import collections
import functools
import importlib
import inspect
import json
import time

LAYERS = ("series", "spaces", "operators", "blaschke", "pick", "checks", "report", "cli")

# Class methods traced as spans, per layer.  Other methods, such as the
# trivial getter SpaceWeights.has_closed_form_kernel (about 100k calls in
# pick-batch), stay unwrapped so that tracing overhead stays small.
SPAN_METHODS = {
    "blaschke": (("BlaschkeProduct", "series"),),
}


def _cauchy_product(counts, result, a, b, order):
    la, lb = len(a.coeffs), len(b.coeffs)
    counts["series.cauchy_product.macs"] += la * lb
    counts["series.cauchy_product.outputs_convolved"] += la + lb - 1
    counts["series.cauchy_product.outputs_kept"] += min(order + 1, la + lb - 1)


def _operator_norm(counts, result, t):
    counts["operators.operator_norm.dim3"] += t.dim**3


def _kernel_eval_series(counts, result, space, w, z, order):
    counts["spaces.kernel_eval_series.terms"] += order + 1


def _emit_reports(counts, result, reports, fmt="text"):
    counts["report.bytes"] += len(result)


def _kernel_coeffs(counts, result, self, n_max):
    counts["spaces.kernel_coeffs.coeffs"] += n_max + 1


def _post_init(counts, result, self):
    counts["series.PowerSeries.constructions"] += 1


# Work counters attached to traced functions, keyed by span name.  Their
# parameter names match the wrapped function, so keyword calls bind too.
SPAN_COUNTERS = {
    "series.cauchy_product": _cauchy_product,
    "operators.operator_norm": _operator_norm,
    "spaces.kernel_eval_series": _kernel_eval_series,
    "report.emit_reports": _emit_reports,
}

# Methods that are counted but get no span: they are called too often,
# and do too little, for a span to be worth its cost.
COUNT_ONLY = (
    ("spaces", "SpaceWeights", "kernel_coeffs", _kernel_coeffs),
    ("series", "PowerSeries", "__post_init__", _post_init),
)


class Tracer:
    """Spans and work counts for one process, held in memory."""

    def __init__(self):
        self.names: list[str] = []
        # four entries per span: name index, offset of the parent span, start ns, end ns
        self.spans = array.array("q")
        self.counts: collections.Counter = collections.Counter()
        self.errors: dict[str, list[BaseException]] = collections.defaultdict(list)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap the public functions and listed methods of every layer."""
        modules = {layer: importlib.import_module(f"diskops.{layer}") for layer in LAYERS}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                self._replace(module, attr, self._span(name, layer, obj, SPAN_COUNTERS.get(name)))
            for cls_name, method in SPAN_METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                name = f"{layer}.{cls_name}.{method}"
                self._replace(cls, method, self._span(name, layer, getattr(cls, method), None))
        for layer, cls_name, method, counter in COUNT_ONLY:
            cls = getattr(modules[layer], cls_name)
            self._replace(cls, method, self._counted(getattr(cls, method), counter))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _counted(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counter(counts, result, *args, **kwargs)
            return result

        return wrapper

    def _span(self, name: str, layer: str, fn, counter):
        name_index = len(self.names)
        self.names.append(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns
        seen_errors = self.errors[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            offset = len(spans)
            spans.extend((name_index, stack[-1] if stack else -1, clock(), 0))
            stack.append(offset)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # one exception crossing several spans of a layer counts once
                if not any(exc is e for e in seen_errors):
                    seen_errors.append(exc)
                raise
            finally:
                spans[offset + 3] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, result, *args, **kwargs)
            return result

        return wrapper

    def function_times(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        spans = self.spans
        child_ns = collections.Counter()
        for offset in range(0, len(spans), 4):
            parent = spans[offset + 1]
            if parent >= 0:
                child_ns[parent] += spans[offset + 3] - spans[offset + 2]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for offset in range(0, len(spans), 4):
            row = out[self.names[spans[offset]]]
            duration = spans[offset + 3] - spans[offset + 2]
            row["calls"] += 1
            row["total_s"] += duration * 1e-9
            row["self_s"] += (duration - child_ns[offset]) * 1e-9
        return out

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: span times, call counts and work counts."""
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, row in self.function_times().items():
            out[f"{name}.calls"] = row["calls"]
            out[f"{name}.self_s"] = row["self_s"]
            out[f"{name}.total_s"] = row["total_s"]
            layer_self[name.split(".", 1)[0]] += row["self_s"]
        for layer, seconds in layer_self.items():
            out[f"{layer}.self_s"] = seconds
            out[f"{layer}.errors"] = len(self.errors.get(layer, ()))
        out.update(self.counts)
        convolved = self.counts["series.cauchy_product.outputs_convolved"]
        kept = self.counts["series.cauchy_product.outputs_kept"]
        out["series.cauchy_product.kept_frac"] = kept / convolved if convolved else 0.0
        return out

    def write(self, path: str) -> None:
        """Dump the spans, four integers each: name index, offset of the
        parent span (-1 for none), start ns, end ns."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans.tolist()}, handle,
                      separators=(",", ":"))
