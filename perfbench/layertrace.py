"""Per-layer spans and counters, recorded from outside the program.

``LayerTracer`` replaces the public module-level functions of each layer
module of ``germimage`` with timing wrappers, in every ``germimage`` module
that holds a reference to them (``from .algebra import gcd`` in
``classifier`` binds a second name that must be wrapped as well).  Module
code looks these names up at call time, so calls between modules, and a
module's calls to its own public functions, pass through the wrappers.
Private helpers (``_name``) and methods are not wrapped; their time counts
as self time of the public function that called them.

A span is one call of a wrapped function.  Its self time is its duration
minus the durations of its child spans.  Self times of all spans plus the
time covered by no span add up to the traced wall time.

Nothing is written while tracing: spans are folded into per-function
totals in memory and turned into metrics by ``layer_metrics``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("parsing", "algebra", "classifier", "groebner", "probe", "kernels", "corpus", "report")


class FunctionStats:
    __slots__ = ("calls", "self_s", "outer_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.outer_s = 0.0  # duration of calls not nested in a call of the same function
        self.depth = 0


class LayerTracer:
    """Context manager that traces the layer modules while it is active."""

    def __init__(self):
        self.stats = {}  # "layer.function" -> FunctionStats
        self.calls_via = {}  # ("module the caller named it in", "layer.function") -> calls
        self.counters = {
            "samples": 0,
            "evaluate_points": 0,
            "binned": 0,
            "bin_hits": 0,
            "max_coeff_bits": 0,
            "prop_crit_established": 0,
            "prop_crit_gap_line": 0,
            "prop_crit_inconclusive": 0,
            "gap_search_hits": 0,
            "recheck_calls": 0,
            "recheck_s": 0.0,
        }
        self.layer_outer_s = {layer: 0.0 for layer in LAYERS}  # outermost spans per layer
        self.covered_s = 0.0  # wall time inside at least one span
        self._layer_depth = {layer: 0 for layer in LAYERS}
        self._stack = []  # open spans: [qualname, start, child seconds]
        self._patched = []  # (module, attribute, original)
        self._observers = {
            "probe.unit_ball_samples": self._on_samples,
            "kernels.evaluate_batch": self._on_evaluate,
            "kernels.bin_hits": self._on_bin,
            "algebra.gcd": self._on_gcd,
            "classifier.prop_crit_check": self._on_prop_crit,
            "classifier.bounded_gap_curve_search": self._on_gap_search,
        }

    # -- installation -------------------------------------------------------

    def __enter__(self):
        originals = {}  # function -> "layer.function"
        for layer in LAYERS:
            mod = importlib.import_module(f"germimage.{layer}")
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    originals[obj] = f"{layer}.{name}"
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "germimage" or mod_name.startswith("germimage.")):
                continue
            short = mod_name.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    setattr(mod, attr, self._wrap(obj, originals[obj], short))
                    self._patched.append((mod, attr, obj))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()
        return False

    def _wrap(self, fn, qualname, namespace):
        stats = self.stats.setdefault(qualname, FunctionStats())
        layer = qualname.partition(".")[0]
        layer_depth = self._layer_depth
        via_key = (namespace, qualname)
        observer = self._observers.get(qualname)
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [qualname, perf_counter(), 0.0]
            stack.append(frame)
            stats.depth += 1
            layer_depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                stats.depth -= 1
                layer_depth[layer] -= 1
                duration = end - frame[1]
                stats.calls += 1
                stats.self_s += duration - frame[2]
                if stats.depth == 0:
                    stats.outer_s += duration
                if layer_depth[layer] == 0:
                    tracer.layer_outer_s[layer] += duration
                if stack:
                    stack[-1][2] += duration
                else:
                    tracer.covered_s += duration
                tracer.calls_via[via_key] = tracer.calls_via.get(via_key, 0) + 1
                if parent == "corpus.run_entry" and qualname in _RECHECKED:
                    tracer.counters["recheck_calls"] += 1
                    tracer.counters["recheck_s"] += duration
            if observer is not None:
                observer(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def exclude(self, seconds):
        """Leave ``seconds`` just spent outside the program out of every open span."""
        for frame in self._stack:
            frame[1] += seconds

    # -- counters taken from arguments and results --------------------------

    def _on_samples(self, args, kwargs, result):
        self.counters["samples"] += int(result.shape[0])

    def _on_evaluate(self, args, kwargs, result):
        self.counters["evaluate_points"] += int(result.shape[0])

    def _on_bin(self, args, kwargs, result):
        u = args[0] if args else kwargs["u"]
        self.counters["binned"] += len(u)
        self.counters["bin_hits"] += int(result.sum())

    def _on_gcd(self, args, kwargs, result):
        bits = self.counters["max_coeff_bits"]
        for poly in (*args, result):
            for _, c in poly.terms:
                for part in (c.re, c.im):
                    bits = max(bits, part.numerator.bit_length(), part.denominator.bit_length())
        self.counters["max_coeff_bits"] = bits

    def _on_prop_crit(self, args, kwargs, result):
        key = {
            "Established": "prop_crit_established",
            "GapLineFound": "prop_crit_gap_line",
            "Inconclusive": "prop_crit_inconclusive",
        }[result.kind.value]
        self.counters[key] += 1

    def _on_gap_search(self, args, kwargs, result):
        if result:
            self.counters["gap_search_hits"] += 1


# Calls that ``corpus.run_entry`` makes itself after ``classify`` has run.
_RECHECKED = frozenset(
    {"algebra.decompose", "algebra.zero_set_germ_included", "classifier.prop_crit_check"}
)


def _outer_ms(tracer, qualname):
    stats = tracer.stats.get(qualname)
    return stats.outer_s * 1e3 if stats else 0.0


def _calls(tracer, qualname):
    stats = tracer.stats.get(qualname)
    return stats.calls if stats else 0


def layer_metrics(tracer, wall_s):
    """Metric name -> (value, unit) for one traced pass of ``wall_s`` seconds."""
    c = tracer.counters
    m = {}
    for layer in LAYERS:
        self_s = sum(
            st.self_s for name, st in tracer.stats.items() if name.startswith(layer + ".")
        )
        m[f"{layer}.self_ms"] = (self_s * 1e3, "ms")
    m["unattributed_ms"] = ((wall_s - tracer.covered_s) * 1e3, "ms")
    m["parsing.parse_ms"] = (tracer.layer_outer_s["parsing"] * 1e3, "ms")
    m["report.build_ms"] = (tracer.layer_outer_s["report"] * 1e3, "ms")
    m["algebra.gcd_calls"] = (_calls(tracer, "algebra.gcd"), "count")
    m["algebra.gcd_ms"] = (_outer_ms(tracer, "algebra.gcd"), "ms")
    m["algebra.max_coeff_bits"] = (c["max_coeff_bits"], "bits")
    m["algebra.inclusion_calls"] = (_calls(tracer, "algebra.zero_set_germ_included"), "count")
    m["algebra.inclusion_ms"] = (_outer_ms(tracer, "algebra.zero_set_germ_included"), "ms")
    m["algebra.decompose_ms"] = (_outer_ms(tracer, "algebra.decompose"), "ms")
    m["algebra.squarefree_ms"] = (_outer_ms(tracer, "algebra.squarefree_part"), "ms")
    m["classifier.prop_crit_ms"] = (_outer_ms(tracer, "classifier.prop_crit_check"), "ms")
    m["classifier.prop_crit_calls"] = (_calls(tracer, "classifier.prop_crit_check"), "count")
    for outcome in ("established", "gap_line", "inconclusive"):
        m[f"classifier.prop_crit_{outcome}"] = (c[f"prop_crit_{outcome}"], "count")
    search = "classifier.bounded_gap_curve_search"
    m["classifier.gap_search_ms"] = (_outer_ms(tracer, search), "ms")
    m["classifier.gap_search_calls"] = (_calls(tracer, search), "count")
    m["classifier.gap_search_hits"] = (c["gap_search_hits"], "count")
    m["classifier.gap_verify_gcd_calls"] = (
        tracer.calls_via.get(("classifier", "algebra.gcd"), 0),
        "count",
    )
    m["groebner.image_curve_ms"] = (_outer_ms(tracer, "groebner.image_curve_equation"), "ms")
    m["groebner.image_curve_calls"] = (_calls(tracer, "groebner.image_curve_equation"), "count")
    m["probe.sample_ms"] = (_outer_ms(tracer, "probe.unit_ball_samples"), "ms")
    m["probe.samples"] = (c["samples"], "count")
    m["kernels.evaluate_ms"] = (_outer_ms(tracer, "kernels.evaluate_batch"), "ms")
    m["kernels.evaluate_points"] = (c["evaluate_points"], "count")
    m["kernels.bin_ms"] = (_outer_ms(tracer, "kernels.bin_hits"), "ms")
    m["kernels.bin_hit_ratio"] = (
        c["bin_hits"] / c["binned"] if c["binned"] else 0.0,
        "ratio",
    )
    m["corpus.recheck_ms"] = (c["recheck_s"] * 1e3, "ms")
    m["corpus.recheck_calls"] = (c["recheck_calls"], "count")
    return m
