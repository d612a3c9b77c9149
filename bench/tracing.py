"""Spans and call counts for the traced run, recorded from outside funcfield.

``install`` rebinds every public function of each funcfield module, in every
funcfield module that holds a binding of it (``towers`` imports
``factorize`` by name, for instance), to a wrapper that records a span: name,
start, end, parent span and query id, kept in memory and written out when
the pass ends.  The field key operations and the cheap ``Poly`` operations
are counted only, since a span per call would cost more than the call.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

SPAN_METHODS = (("poly", "Poly", "pow_mod", "poly.pow_mod"),)
COUNT_METHODS = (
    ("field", "FieldHandle", "mul_k", "field.mul_k"),
    ("field", "FieldHandle", "add_k", "field.add_k"),
    ("field", "FieldHandle", "sub_k", "field.sub_k"),
    ("field", "FieldHandle", "inv_k", "field.inv_k"),
    ("poly", "Poly", "__mul__", "poly.mul"),
    ("poly", "Poly", "__divmod__", "poly.divmod"),
    ("poly", "Poly", "gcd", "poly.gcd"),
)
QUERY_SPAN = "query"


class Tracer:
    """Span list, span stack and counters of one traced pass."""

    def __init__(self):
        self.spans = []        # [name, start_ns, end_ns, parent index or -1, query id]
        self.stack = []
        self.counts = {}
        self.qid = -1
        self.classes = set()   # (query id, class ident) returned by ProjPoint.from_value

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.qid])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return functools.wraps(fn)(wrapper)

    def counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def run_query(self, qid, fn, *args):
        self.qid = qid
        return self.span(QUERY_SPAN, fn)(*args)

    # -- aggregation --

    def self_times(self):
        """Per-span self time: duration minus the part covered by its children."""
        spans = self.spans
        covered = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                p_start, p_end = spans[parent][1], spans[parent][2]
                covered[parent] += max(0, min(end, p_end) - max(start, p_start))
        return [(s[2] - s[1]) - c for s, c in zip(spans, covered)]

    def summary(self, wall_ns):
        """Calls and self seconds per span name, counters, and the accounting
        check: all self times plus the gap between queries equal the wall time."""
        self_ns = self.self_times()
        calls, self_total = {}, {}
        for (name, *_), own in zip(self.spans, self_ns):
            calls[name] = calls.get(name, 0) + 1
            self_total[name] = self_total.get(name, 0) + own
        roots = sum(s[2] - s[1] for s in self.spans if s[3] < 0)
        gap = wall_ns - roots
        unclosed = sum(1 for s in self.spans if s[2] == 0)
        from_value = self.counts.get("towers.from_value", 0)
        return {
            "calls": calls,
            "self_s": {name: ns / 1e9 for name, ns in self_total.items()},
            "counts": dict(self.counts),
            "class_yield": len(self.classes) / from_value if from_value else 0.0,
            "spans": len(self.spans),
            "accounting_ok": unclosed == 0 and sum(self_ns) + gap == wall_ns,
            "gap_s": gap / 1e9,
        }

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start_ns", "end_ns", "parent", "query"],
                       "spans": [[index[s[0]]] + s[1:] for s in self.spans]},
                      fh, separators=(",", ":"))


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def install(modules: dict) -> Tracer:
    """Wrap funcfield's public functions and methods; return the tracer.

    ``modules`` maps a short layer name (``"factor"``) to the module object.
    """
    tracer = Tracer()
    replacement = {}
    for short, module in modules.items():
        for name, fn in _public_functions(module):
            replacement[id(fn)] = tracer.span(f"{short}.{name}", fn)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "funcfield" or mod_name.startswith("funcfield."):
            for name, obj in list(vars(module).items()):
                if id(obj) in replacement:
                    setattr(module, name, replacement[id(obj)])
    for short, cls_name, attr, label in SPAN_METHODS:
        cls = getattr(modules[short], cls_name)
        setattr(cls, attr, tracer.span(label, getattr(cls, attr)))
    for short, cls_name, attr, label in COUNT_METHODS:
        cls = getattr(modules[short], cls_name)
        setattr(cls, attr, tracer.counted(label, getattr(cls, attr)))

    proj_point = modules["towers"].ProjPoint
    from_value = tracer.counted("towers.from_value",
                                proj_point.__dict__["from_value"].__func__)

    def from_value_recorded(cls, value, base):
        point = from_value(cls, value, base)
        tracer.classes.add((tracer.qid, point.ident()))
        return point

    proj_point.from_value = classmethod(from_value_recorded)
    return tracer
