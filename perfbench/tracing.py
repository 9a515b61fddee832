"""Span tracer installed from outside the package.

`Tracer.install` wraps the public functions of each layer module and patches
every `reeslab.*` namespace that imported them, so calls between layers are
seen too. A span records its name, start, end and parent; self time is its
duration minus its children. Hot calls (`VectorSpan.add`, pivot-recursion
nodes, `normal_form`) are not spans: they are counted and their time is
summed under the enclosing span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
from time import perf_counter

LAYERS = ("rings", "groebner", "hilbert", "rees", "betti", "_linalg", "ginreg",
          "asymptotics", "diagonals", "cache", "problemfile", "cli")
# The monomial kernel of `rings` has no public boundary: only parsing is a span.
ONLY = {"rings": ("parse_polynomial",)}
HOT = {("hilbert", "monomial_quotient_numerator"): "hilbert.pivot_nodes",
       ("groebner", "normal_form"): "groebner.normal_form_calls"}
# Total (not self) durations of these spans are reported as they are.
TOTALS = {"groebner.ideal_power": "groebner.power_s",
          "problemfile.load_problem": "problemfile.load_s",
          "rings.parse_polynomial": "rings.parse_s"}


class Tracer:
    def __init__(self):
        self.clear()

    def clear(self):
        self.spans = []      # [layer, name, parent index or -1, start, end, hot time inside]
        self.stack = []
        self.counts = {}
        self.hot_s = {}      # layer -> time of outermost hot calls
        self.totals = {}
        self._open = {}      # span name -> nesting depth, so totals skip recursion

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    # -- spans -----------------------------------------------------------------
    def _enter(self, layer, name):
        self.spans.append([layer, name, self.stack[-1] if self.stack else -1, perf_counter(), None, 0.0])
        self.stack.append(len(self.spans) - 1)
        self._open[name] = self._open.get(name, 0) + 1

    def _exit(self):
        rec = self.spans[self.stack.pop()]
        rec[4] = perf_counter()
        name = rec[1]
        self._open[name] -= 1
        if name in TOTALS and not self._open[name]:
            key = TOTALS[name]
            self.totals[key] = self.totals.get(key, 0.0) + rec[4] - rec[3]

    def _span(self, layer, name, fn, observe=None):
        def wrapper(*args, **kwargs):
            self._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if observe is not None:
                observe(self, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _hot(self, layer, counter, fn, useful=None):
        depth = [0]

        def wrapper(*args, **kwargs):
            self.count(counter)
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                depth[0] -= 1
                self.hot_s[layer] = self.hot_s.get(layer, 0.0) + elapsed
                if self.stack:
                    self.spans[self.stack[-1]][5] += elapsed
            if useful is not None and result:
                self.count(useful)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _cache_lookup_store(self, fn):
        """The producer the CLI hands to the cache becomes a `cli` span."""
        from reeslab.cache import cache_dir

        def wrapper(key, producer, enabled=True, directory=None):
            produced = []

            def traced_producer():
                produced.append(True)
                self._enter("cli", "cli.produce")
                try:
                    return producer()
                finally:
                    self._exit()

            self._enter("cache", "cache.cache_lookup_store")
            try:
                result = fn(key, traced_producer, enabled, directory)
            finally:
                self._exit()
            if enabled:
                if produced:
                    self.count("cache.misses")
                    path = os.path.join(directory or cache_dir(), key + ".json")
                    self.count("cache.bytes_written", os.path.getsize(path))
                else:
                    self.count("cache.hits")
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------------
    def install(self):
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module("reeslab." + layer)
            names = ONLY.get(layer) or [
                n for n, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not n.startswith("_")
            ]
            for n in names:
                fn = getattr(mod, n)
                if (layer, n) in HOT:
                    w = self._hot(layer, HOT[layer, n], fn)
                elif (layer, n) == ("cache", "cache_lookup_store"):
                    w = self._cache_lookup_store(fn)
                else:
                    w = self._span(layer, "%s.%s" % (layer, n), fn, OBSERVERS.get((layer, n)))
                wrapped[id(fn)] = w
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "reeslab" or name.startswith("reeslab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    setattr(mod, attr, w)
        span_cls = importlib.import_module("reeslab._linalg").VectorSpan
        span_cls.add = self._hot("_linalg", "linalg.rows", span_cls.add, useful="linalg.useful")

    # -- results -------------------------------------------------------------------
    def summary(self):
        """Self time per layer, counters and total durations, for the spans so far."""
        child = [0.0] * len(self.spans)
        for layer, name, parent, start, end, hot in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        self_s = dict(self.hot_s)
        for i, (layer, name, parent, start, end, hot) in enumerate(self.spans):
            if end is not None:
                self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child[i] - hot
        return {"self_s": self_s, "counts": dict(self.counts), "totals": dict(self.totals)}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (layer, name, parent, start, end, hot) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent, "start": start,
                                     "end": end, "hot_s": hot}) + "\n")


def _betti_table(tracer, table):
    a, b = table.window
    tracer.count("betti.tables")
    tracer.count("betti.bidegrees", (a + 1) * (b + 1))
    tracer.count("betti.entries", len(table.entries))
    tracer.count("betti.nonzero_bidegrees", len({d for _, d, _ in table.entries}))


def _basis(tracer, gb):
    tracer.count("groebner.basis_calls")
    tracer.count("groebner.basis_polys", len(gb.polys))


OBSERVERS = {
    ("betti", "graded_betti_table"): _betti_table,
    ("betti", "bigraded_betti_table"): _betti_table,
    ("groebner", "groebner_basis"): _basis,
    ("ginreg", "apply_coordinate_change"): lambda t, r: t.count("ginreg.trials"),
    ("rees", "rees_presentation"): lambda t, r: t.count("rees.presentations"),
    ("hilbert", "hilbert_series_ideal"): lambda t, r: t.count("hilbert.series_calls"),
    ("hilbert", "hilbert_series_monomial"): lambda t, r: t.count("hilbert.series_calls"),
}
