"""Spans around walklabel's public functions, installed from outside.

Tracer.install wraps every function a layer module lists in __all__ and
puts the wrapper into every walklabel module global that holds the
original. Modules that did `from .graphs import two_cycles` (verify) or
`from .bigmath import to_decimal` (cli) look the name up in their own
globals, so patching only the defining module would miss those calls.

A call opens a span only when the innermost open span belongs to another
layer. Recursion inside a layer (torus.a_rec, b_rec) and a layer's calls
to its own public functions therefore cost one check, not a span.

count_torus(70) alone makes about 3.8 million bigmath calls, so a span
stands for every call of one function under one parent span:
[id, parent id, layer, name, first start, last end, summed duration,
calls], times in perf_counter seconds. Ids index the span list; the
parent of a root span is -1. The children of a span ran inside its calls,
so its self time is its summed duration minus theirs.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

LAYERS = ("cli", "verify", "oracle", "trees", "combs", "torus", "twocycles", "series", "graphs", "bigmath")

# oracle functions that run a subset DP; the key keeps the arguments after the graph
DP_FUNCTIONS = ("count_labelings", "count_labelings_from", "count_completions", "count_labelings_from_before")

ID, PARENT, LAYER, NAME, FIRST, LAST, TOTAL, CALLS = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        # the root entry stands for "no open span"; its children are the root spans
        self._root = [-1, -1, None, None, 0.0, 0.0, 0.0, 0, {}]
        self.stack: list[list] = [self._root]
        self.dp_calls: Counter = Counter()
        self.series_terms = 0

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"walklabel.{layer}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if callable(fn) and not isinstance(fn, type) and getattr(fn, "__module__", None) == module.__name__:
                    wrappers[id(fn)] = self._wrap(layer, name, fn)
        for modname, module in list(sys.modules.items()):
            if modname == "walklabel" or modname.startswith("walklabel."):
                for name, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        setattr(module, name, wrappers[id(value)])

    def _child(self, parent: list, layer: str, name: str, now: float) -> list:
        span = [len(self.spans), parent[ID], layer, name, now, now, 0.0, 0, {}]
        self.spans.append(span)
        parent[8][layer, name] = span
        return span

    def _wrap(self, layer: str, name: str, fn):
        stack = self.stack
        clock = time.perf_counter
        dp_call = layer == "oracle" and name in DP_FUNCTIONS
        series_expand = layer == "series" and name == "expand_rational"
        key = (layer, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top[LAYER] == layer:
                return fn(*args, **kwargs)
            if dp_call:
                rest = tuple(tuple(sorted(set(a))) if isinstance(a, (list, set, frozenset, tuple)) else a
                             for a in args[1:])
                self.dp_calls[(name, args[0].n, args[0].masks, rest)] += 1
            t0 = clock()
            span = top[8].get(key) or self._child(top, layer, name, t0)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span[TOTAL] += t1 - t0
                span[CALLS] += 1
                span[LAST] = t1
            if series_expand:
                self.series_terms += len(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """A span the benchmark itself opens around a block."""
        t0 = time.perf_counter()
        top = self.stack[-1]
        span = top[8].get((layer, name)) or self._child(top, layer, name, t0)
        self.stack.append(span)
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            span[TOTAL] += t1 - t0
            span[CALLS] += 1
            span[LAST] = t1

    def records(self) -> list[list]:
        return [s[:8] for s in self.spans]


def self_times(spans: list[list]) -> list[float]:
    """Each span's summed duration minus that of its direct children."""
    out = [s[TOTAL] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[TOTAL]
    return out
