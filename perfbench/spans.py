"""Outside trace of the gausschar layers.

The trace replaces, from outside the package, every binding through which
callers reach a traced function: module attributes, names imported into
other modules, dict entries that hold the function (verify's dispatch
table) and class attributes (``__rmul__`` is the same object as
``__mul__``).  Each wrapper pushes a span on a stack, so a span's self time
is its duration minus the time covered by the wrapped spans it called.
Spans are aggregated in memory per name and written out with the run
record when the benchmark ends; nothing is written while measuring.

A target that no longer exists in the package is recorded as absent and its
metrics are left out; the trace never fails because a name is gone.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

_now = time.perf_counter

# (span name, module, attribute path).  Several bindings may share a span.
TARGETS = (
    ("cyclo.mul", "gausschar.cyclo", "CyclotomicElement.__mul__"),
    ("cyclo.mul", "gausschar.cyclo", "CyclotomicElement.__rmul__"),
    ("cyclo.galois", "gausschar.cyclo", "CyclotomicElement.galois"),
    ("cyclo.norm_squared", "gausschar.cyclo", "CyclotomicElement.norm_squared"),
    ("cyclo.embed", "gausschar.cyclo", "CyclotomicElement.embed"),
    ("cyclo.in_subfield", "gausschar.cyclo", "CyclotomicElement.in_subfield"),
    ("cyclo.sum_of_zeta_powers", "gausschar.cyclo", "sum_of_zeta_powers"),
    ("cyclo.zeta_pow", "gausschar.cyclo", "zeta_pow"),
    # First touch of an order: the cached per-order table is built here.
    ("cyclo.context", "gausschar.cyclo", "_OrderContext"),
    ("spectral.twisted_gauss_sum", "gausschar.spectral", "twisted_gauss_sum"),
    ("spectral.spectral_witness", "gausschar.spectral", "spectral_witness"),
    ("spectral.norm_tests", "gausschar.spectral", "has_unit_fourier_magnitude"),
    ("spectral.kurlberg_test", "gausschar.spectral", "kurlberg_test"),
    ("spectral.autocorrelation", "gausschar.spectral", "autocorrelation"),
    ("modp.enumerate", "gausschar.modp", "enumerate_unit_functions"),
    ("modp.oracle", "gausschar.modp", "is_character_oracle"),
    ("verify.prop_1_1", "gausschar.verify", "verify_prop_1_1"),
    ("verify.thm_1_2", "gausschar.verify", "verify_thm_1_2"),
    ("verify.cor_1_3", "gausschar.verify", "verify_cor_1_3"),
    ("verify.lemma_2_1", "gausschar.verify", "verify_lemma_2_1"),
    ("verify.prop_2_2", "gausschar.verify", "verify_prop_2_2"),
    ("verify.cor_2_3", "gausschar.verify", "verify_cor_2_3"),
    ("verify.thm_1_7", "gausschar.verify", "verify_thm_1_7"),
    ("verify.remark_counterexample", "gausschar.verify", "remark_counterexample"),
    ("verify.remark_p_divides_n", "gausschar.verify", "search_p_divides_n"),
)

TRACED_SPANS = frozenset(span for span, _, _ in TARGETS)

VERIFY_STATEMENTS = tuple(span.split(".", 1)[1] for span, _, _ in TARGETS
                          if span.startswith("verify."))

CLI_SUBCOMMANDS = ("classify", "gauss-sum", "fourier", "autocorr", "verify")

# Per-layer metrics: name -> unit.  Calls and self times are per measured
# pass; build_s is the whole process's first-touch time.
LAYER_UNITS = {}
for _span in ("cyclo.mul", "cyclo.galois", "cyclo.embed", "cyclo.in_subfield",
              "cyclo.sum_of_zeta_powers", "spectral.twisted_gauss_sum",
              "spectral.spectral_witness", "spectral.kurlberg_test",
              "spectral.autocorrelation", "modp.oracle"):
    LAYER_UNITS[_span + ".calls"] = "count"
    LAYER_UNITS[_span + ".self_s"] = "s"
LAYER_UNITS.update({
    "cyclo.norm_squared.calls": "count",
    "cyclo.zeta_pow.calls": "count",
    "cyclo.context.build_s": "s",
    "spectral.norm_tests.calls": "count",
    "spectral.norm_tests.hit_ratio": "ratio",
    "spectral.norms_per_witness": "ratio",
    "modp.functions_enumerated": "count",
    "modp.enumerate.self_s": "s",
})
for _stmt in VERIFY_STATEMENTS:
    LAYER_UNITS[f"verify.{_stmt}.s"] = "s"
LAYER_UNITS["verify.thm_1_2_p7_n6.s"] = "s"
LAYER_UNITS["verify.loop.self_s"] = "s"
LAYER_UNITS["cli.interpreter_ms"] = "ms"
LAYER_UNITS["cli.import_ms"] = "ms"
for _sub in CLI_SUBCOMMANDS:
    LAYER_UNITS[f"cli.{_sub}.self_ms"] = "ms"
LAYER_UNITS["trace.overhead_ratio"] = "ratio"

# Metrics named apart from the span they are computed from.
_DERIVED_FROM = {
    "modp.functions_enumerated": "modp.enumerate",
    "spectral.norms_per_witness": "spectral.norm_tests",
}


class Tracer:
    """Span stack, per-name aggregates and the bindings it replaced."""

    def __init__(self):
        self.stack = []        # one [child_seconds, span_name] per open span
        self.agg = {}          # span name -> [calls, self_s, total_s]
        self.counters = {}     # counter name -> int
        self.roots = []        # (label, duration_s, self_s) of benchmark operations
        self.absent = []       # span names whose target is gone
        self._undo = []
        self._wrappers = set()

    # -- recording -----------------------------------------------------------

    def _close(self, name, t0):
        d = _now() - t0
        child = self.stack.pop()[0]
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += d - child
        a[2] += d
        if self.stack:
            self.stack[-1][0] += d

    def _wrap(self, name, fn):
        stack, close = self.stack, self._close

        def traced(*args, **kwargs):
            stack.append([0.0, name])
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, t0)
        return traced

    def _wrap_norm_test(self, name, fn):
        # Counts hits, and the tests made on behalf of a witness search.
        stack, close, counters = self.stack, self._close, self.counters

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == "spectral.spectral_witness":
                counters["norms_in_witness"] = counters.get("norms_in_witness", 0) + 1
            stack.append([0.0, name])
            t0 = _now()
            try:
                hit = fn(*args, **kwargs)
            finally:
                close(name, t0)
            if hit:
                counters["norm_hits"] = counters.get("norm_hits", 0) + 1
            return hit
        return traced

    def _wrap_enumeration(self, name, fn):
        # Times the generator's next() calls, which build each table.
        stack, close, counters = self.stack, self._close, self.counters

        def stream(gen):
            while True:
                stack.append([0.0, name])
                t0 = _now()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    close(name, t0)
                counters["functions_enumerated"] = counters.get("functions_enumerated", 0) + 1
                yield item

        def traced(*args, **kwargs):
            return stream(fn(*args, **kwargs))
        return traced

    @contextmanager
    def span(self, label):
        """Root span for one benchmark operation; kept individually."""
        self.stack.append([0.0, label])
        t0 = _now()
        try:
            yield
        finally:
            d = _now() - t0
            child = self.stack.pop()[0]
            self.roots.append((label, d, d - child))

    def reset(self, keep=()):
        """Forget everything recorded so far except the named spans."""
        self.agg = {k: v for k, v in self.agg.items() if k in keep}
        self.counters.clear()
        self.roots.clear()

    # -- installing ----------------------------------------------------------

    def install(self):
        """Wrap every binding of every target among the loaded package modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "gausschar" or name.startswith("gausschar."))]
        for name, module_name, path in TARGETS:
            orig = _resolve(module_name, path)
            if id(orig) in self._wrappers:
                continue  # another binding of an already wrapped function
            if orig is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            if name == "spectral.norm_tests":
                wrapper = self._wrap_norm_test(name, orig)
            elif name == "modp.enumerate":
                wrapper = self._wrap_enumeration(name, orig)
            else:
                wrapper = self._wrap(name, orig)
            self._wrappers.add(id(wrapper))
            for module in modules:
                self._rebind(module, orig, wrapper)

    def _rebind(self, module, orig, wrapper):
        for key, value in list(vars(module).items()):
            if value is orig:
                self._set(setattr, module, key, wrapper, orig)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is orig:
                        self._set(dict.__setitem__, value, k, wrapper, orig)
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for k, v in list(vars(value).items()):
                    if v is orig:
                        self._set(setattr, value, k, wrapper, orig)

    def _set(self, setter, container, key, wrapper, orig):
        setter(container, key, wrapper)
        self._undo.append((setter, container, key, orig))

    def uninstall(self):
        self._wrappers.clear()
        while self._undo:
            setter, container, key, orig = self._undo.pop()
            setter(container, key, orig)

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self, passes):
        """Per-layer values from the spans; absent targets are left out."""
        out = {}

        def agg(span):      # calls, self_s, total_s
            return self.agg.get(span, (0, 0.0, 0.0))

        for metric in LAYER_UNITS:
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = agg(span)[0] / passes
            elif kind == "self_s" and span in TRACED_SPANS:
                out[metric] = agg(span)[1] / passes
        out["cyclo.context.build_s"] = agg("cyclo.context")[2]
        norms = agg("spectral.norm_tests")[0]
        witnesses = agg("spectral.spectral_witness")[0]
        out["spectral.norm_tests.hit_ratio"] = (
            self.counters.get("norm_hits", 0) / norms if norms else 0.0)
        out["spectral.norms_per_witness"] = (
            self.counters.get("norms_in_witness", 0) / witnesses if witnesses else 0.0)
        out["modp.functions_enumerated"] = self.counters.get("functions_enumerated", 0) / passes
        for stmt in VERIFY_STATEMENTS:
            out[f"verify.{stmt}.s"] = agg(f"verify.{stmt}")[2] / passes
        out["verify.loop.self_s"] = sum(agg(f"verify.{stmt}")[1]
                                        for stmt in VERIFY_STATEMENTS) / passes
        out["verify.thm_1_2_p7_n6.s"] = sum(
            d for label, d, _ in self.roots if label == "thm_1_2/7/6") / passes
        for span in self.absent:
            for metric in list(out):
                if metric.startswith(span + ".") or _DERIVED_FROM.get(metric) == span:
                    del out[metric]
        return out

    def aggregates(self):
        """The in-memory spans, for the run record."""
        return {name: {"calls": a[0], "self_s": a[1], "total_s": a[2]}
                for name, a in sorted(self.agg.items())}


def _resolve(module_name, path):
    obj = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part, None)
    if obj is None:
        return None
    if isinstance(obj, type):
        return vars(obj).get(parts[-1])
    return getattr(obj, parts[-1], None)
