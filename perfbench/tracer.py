"""Outside-in spans around the public functions of rotlat's modules.

``install`` replaces each traced function, in every rotlat module namespace
that binds it, by a wrapper that records one span per call: name, start,
end, parent span and operation id.  Calls between rotlat modules therefore
nest as they happen, without any change to the program.  Spans stay in
memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Public functions the workloads cross, per layer (the module under src/rotlat).
TRACED = {
    "fields": ("make_field",),
    "constructions": ("build", "module_from_json", "is_ideal", "in_module"),
    "gram": ("gram", "det_exact", "det_via_formula", "embedding_csv"),
    "verify": ("verify_rotated_dn", "verify_ambient_zn", "lll_reduce"),
    "distance": ("dp_closed_form", "min_norm_search", "table1_csv"),
    "feasibility": ("dn_feasibility",),
}

# Counters read from a traced call's return value: span name -> (counter, getter).
COUNTERS = {
    "distance.min_norm_search": ("distance.min_norm_evaluated", lambda result: result.evaluated),
}

# A span is [id, name, start_ns, end_ns, parent_id, op]; parent_id is None at the root.
ID, NAME, START, END, PARENT, OP = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.op = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> list:
        span = [len(self.spans), name, time.perf_counter_ns(), None,
                self._stack[-1] if self._stack else None, self.op]
        self.spans.append(span)
        self._stack.append(span[ID])
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                key, get = counter
                self.counters[key] = self.counters.get(key, 0) + get(result)
            return result

        return traced

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], {}
        return spans, counters


def install(tracer: Tracer) -> None:
    """Route every call of a traced rotlat function through the tracer."""
    importlib.import_module("rotlat")
    importlib.import_module("rotlat.cli")
    namespaces = [m for name, m in sys.modules.items() if name == "rotlat" or name.startswith("rotlat.")]
    for layer, names in TRACED.items():
        module = sys.modules[f"rotlat.{layer}"]
        for name in names:
            original = getattr(module, name)
            wrapper = tracer.wrap(original, f"{layer}.{name}")
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)


# -- analysis -------------------------------------------------------------


def self_times(spans: list[list]) -> dict[int, int]:
    """Each span's duration minus the durations of its direct children (ns)."""
    own = {s[ID]: s[END] - s[START] for s in spans}
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def span_metrics(spans: list[list], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer figures of one pass.

    ``<layer>.<function>_s`` is the time inside the outermost calls of that
    function; ``<layer>.self_s`` the time spent in the layer itself, with the
    spans of other calls it made taken out.
    """
    by_id = {s[ID]: s for s in spans}
    own = self_times(spans)
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for s in spans:
        add(f"{layer_of(s[NAME])}.self_s", own[s[ID]] / 1e9)
        parent = s[PARENT]
        nested = False
        while parent is not None:
            if by_id[parent][NAME] == s[NAME]:
                nested = True
                break
            parent = by_id[parent][PARENT]
        if not nested:
            add(f"{s[NAME]}_s", (s[END] - s[START]) / 1e9)
        if s[NAME] == "verify.verify_ambient_zn":
            # the ambient trace-form Gram is what the call does besides LLL
            add("verify.ambient_gram_s", own[s[ID]] / 1e9)
        if s[NAME] == "constructions.in_module" and s[PARENT] is not None \
                and by_id[s[PARENT]][NAME] == "constructions.is_ideal":
            add("constructions.ideal_products", 1)
    for key, value in counters.items():
        add(key, value)
    return out
