"""Per-layer tracing of ambclink from outside the package.

A `Tracer` wraps every public function of each layer module in each namespace
where a caller looks it up: a name bound by `from .x import f` in another
ambclink module, a re-export in the `ambclink` package, or a module object
bound by `from . import x` (replaced by a proxy whose public functions are
wrapped). Calls inside one module are not boundaries and stay untouched.
Each wrapped call records a span (layer, function, start, end, parent) in
memory; `summary()` turns the spans into self times and counts after the
traced region. Every replaced name is restored on exit.

With `pool=True` the tracer also swaps `ProcessPoolExecutor` for a subclass
that counts pools opened, tasks submitted and pickled task-argument bytes.
Spans are not collected inside pool workers, so traced runs are serial.
"""

from __future__ import annotations

import functools
import inspect
import pickle
import sys
import time
import types
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np

LAYERS = ("config", "channel", "analysis", "frontend", "estimation",
          "oracles", "verify", "montecarlo", "cli")
VERIFY_CHECKS = ("check_moments_vs_expansion", "check_moments_vs_montecarlo",
                 "check_q_function", "check_threshold_near_optimality",
                 "check_deflection", "check_linear_reduction",
                 "check_model_validity_guard")

# Calls whose arguments or result feed a counter; only these keep references
# to them, so large sample arrays are never held.
_KEEP_ARGS = {("frontend", None), ("analysis", "hypothesis_moments")}
_KEEP_RESULT = {"channel"}

LAYER, FUNC, START, END, PARENT, DATA, RAISED = range(7)


def ambclink_namespaces():
    """The package and every loaded ambclink submodule."""
    return [m for name, m in sorted(sys.modules.items())
            if (name == "ambclink" or name.startswith("ambclink."))
            and isinstance(m, types.ModuleType)]


def _layer_modules():
    return {sys.modules[f"ambclink.{layer}"]: layer for layer in LAYERS}


def _public_functions(module):
    return {name: value for name, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    """Context manager that traces calls between ambclink layers."""

    def __init__(self, calls: bool = True, pool: bool = False):
        self.trace_calls = calls
        self.count_pool = pool
        self.spans: list[list] = []
        self.pool_counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._entries: list[int] = []   # first span of each traced region

    # -- installing and restoring -------------------------------------
    def __enter__(self):
        self._entries.append(len(self.spans))
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _replace(self, namespace, name, value):
        self._saved.append((namespace, name, getattr(namespace, name)))
        setattr(namespace, name, value)

    def _restore(self):
        while self._saved:
            namespace, name, original = self._saved.pop()
            setattr(namespace, name, original)

    def _install(self):
        layer_of_module = _layer_modules()
        layer_of_function = {
            fn: (layer, name)
            for module, layer in layer_of_module.items()
            for name, fn in _public_functions(module).items()
        }
        pool_class = self._counting_pool() if self.count_pool else None
        for namespace in ambclink_namespaces():
            for name, value in list(vars(namespace).items()):
                if pool_class is not None and value is ProcessPoolExecutor:
                    self._replace(namespace, name, pool_class)
                if not self.trace_calls:
                    continue
                if inspect.isfunction(value) and value in layer_of_function:
                    layer, func = layer_of_function[value]
                    if layer_of_module.get(namespace) != layer:
                        self._replace(namespace, name, self._wrap(layer, func, value))
                elif (isinstance(value, types.ModuleType) and value in layer_of_module
                      and value is not namespace):
                    self._replace(namespace, name,
                                  self._proxy(value, layer_of_module[value]))
        if self.trace_calls:
            # run_all_checks looks its checks up in verify's own namespace
            verify = sys.modules["ambclink.verify"]
            for name in VERIFY_CHECKS:
                if inspect.isfunction(getattr(verify, name, None)):
                    self._replace(verify, name,
                                  self._wrap("verify", name, getattr(verify, name)))

    def _proxy(self, module, layer):
        proxy = types.ModuleType(module.__name__, module.__doc__)
        proxy.__dict__.update(vars(module))
        for name, fn in _public_functions(module).items():
            setattr(proxy, name, self._wrap(layer, name, fn))
        return proxy

    def _wrap(self, layer, func, fn):
        spans, stack = self.spans, self._stack
        keep_args = (layer, None) in _KEEP_ARGS or (layer, func) in _KEEP_ARGS
        keep_result = layer in _KEEP_RESULT
        signature = inspect.signature(fn) if keep_args else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, func, 0.0, 0.0, stack[-1] if stack else -1, None, False]
            spans.append(span)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                span[START] = start
                stack.pop()
            if keep_args:
                span[DATA] = (signature, args, kwargs)
            elif keep_result:
                span[DATA] = result
            return result

        return traced

    def _counting_pool(self):
        counts = self.pool_counts

        class CountingPool(ProcessPoolExecutor):
            _mapping = False

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                counts["opened"] += 1

            def _record(self, task):
                counts["tasks"] += 1
                counts["task_bytes"] += len(pickle.dumps(task))

            def map(self, fn, *iterables, **kwargs):
                tasks = list(zip(*iterables))
                for task in tasks:
                    self._record(task)
                self._mapping = True
                try:
                    return super().map(fn, *(zip(*tasks) if tasks else [()]), **kwargs)
                finally:
                    self._mapping = False

            def submit(self, fn, /, *args, **kwargs):
                if not self._mapping:
                    self._record((args, kwargs))
                return super().submit(fn, *args, **kwargs)

        return CountingPool

    # -- summarising ---------------------------------------------------
    def summary(self, entries=None) -> dict:
        """Self time and counts per layer, from the spans recorded so far.

        `entries` limits the summary to those traced regions (0 = the first
        `with` block); by default every region counts.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        self_s, calls, raised = Counter(), Counter(), Counter()
        checks = Counter()
        mode_symbols, mode_self = Counter(), Counter()
        samples = 0
        draws, distinct_draws = 0, set()
        evals, distinct_evals = 0, set()
        root_s = 0.0
        entry = 0
        for i, span in enumerate(self.spans):
            # realizations count as distinct within one traced region (one call)
            while entry < len(self._entries) and self._entries[entry] <= i:
                entry += 1
            if entries is not None and entry - 1 not in entries:
                continue
            layer, func, data = span[LAYER], span[FUNC], span[DATA]
            duration = span[END] - span[START]
            own = duration - child[i]
            self_s[layer] += own
            calls[layer] += 1
            raised[layer] += span[RAISED]
            if span[PARENT] < 0:
                root_s += duration
            if layer == "verify" and func.startswith("check_"):
                checks[func] += duration
            if data is None:
                continue
            if layer == "frontend":
                bound = data[0].bind(*data[1], **data[2]).arguments
                if "bits" in bound and "params" in bound and "mode" in bound:
                    symbols = int(np.size(bound["bits"]))
                    samples += symbols * bound["params"].n_samples
                    mode_symbols[bound["mode"]] += symbols
                    mode_self[bound["mode"]] += own
            elif layer == "analysis":
                bound = data[0].bind(*data[1], **data[2]).arguments
                evals += 1
                distinct_evals.add((entry, bound.get("real"), bound.get("mode")))
            elif layer == "channel" and hasattr(data, "h0") and hasattr(data, "htr"):
                draws += 1
                distinct_draws.add((entry, data.h0, data.htr))
        return {
            "self_s": dict(self_s), "calls": dict(calls), "checks_s": dict(checks),
            "root_s": root_s, "samples": samples,
            "mode_symbols": dict(mode_symbols), "mode_self_s": dict(mode_self),
            "draws": draws, "distinct_draws": len(distinct_draws),
            "evals": evals, "distinct_evals": len(distinct_evals),
            "raised": dict(raised),
            "pool": dict(self.pool_counts),
        }

    def span_records(self):
        """The spans as plain records, times relative to the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        return [{"layer": s[LAYER], "func": s[FUNC], "start": s[START] - origin,
                 "end": s[END] - origin, "parent": s[PARENT]} for s in self.spans]
