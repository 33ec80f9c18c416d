"""Spans around the public calls into each orthochron module.

``Tracer.install`` replaces each layer function in every orthochron module
that imported it, and the ``OrthoLattice`` methods on the class, so spans
follow the real command path: ``cli`` calls ``validate``, which calls
``happened_before``; ``OrthoLattice.to_dot`` calls ``hasse_edges``, which
reads ``downset_masks``.  Spans are kept in memory and written out once.
A layer's self time is its span's duration minus its direct children's.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

# (module, attribute, span name, counters taken from the result)
FUNCTIONS = [
    ("trace_model", "parse_trace", "trace_model.parse",
     lambda t: {"trace_model.processes": len(t.processes), "trace_model.messages": len(t.messages)}),
    ("trace_model", "validate", "trace_model.validate", None),
    ("causal_core", "happened_before", "causal_core.happened_before",
     lambda cs: {"causal_core.happened_before_calls": 1}),
    ("chronology", "time_points", "chronology.time_points",
     lambda tl: {"chronology.time_points": len(tl)}),
    ("ortholattice", "enumerate_closed", "ortholattice.enumerate",
     lambda lat: {"ortholattice.closed_sets": len(lat)}),
    ("logic_eval", "parse_formula", "logic_eval.parse_formula", None),
    ("logic_eval", "eval_ortho", "logic_eval.eval", None),
    ("logic_eval", "eval_boolean", "logic_eval.eval", None),
    ("logic_eval", "compare_laws", "logic_eval.compare_laws",
     lambda r: {"logic_eval.instantiations": r.checked}),
    ("cli", "closed_sets_by_definition", "cli.oracle", None),
]
# OrthoLattice attributes: (attribute, span name, counters)
METHODS = [
    ("downset_masks", "ortholattice.covers", None),
    ("hasse_edges", "ortholattice.covers", lambda e: {"ortholattice.hasse_edges": len(e)}),
    ("check_laws", "ortholattice.check_laws", None),
    ("to_json_dict", "ortholattice.render", None),
    ("to_dot", "ortholattice.render", None),
]
REQUEST = "cli.request"
# layer metric -> the span name whose self time it sums
LAYER_TIMES = {
    "trace_model.parse_s": "trace_model.parse",
    "trace_model.validate_s": "trace_model.validate",
    "causal_core.happened_before_s": "causal_core.happened_before",
    "chronology.time_points_s": "chronology.time_points",
    "ortholattice.enumerate_s": "ortholattice.enumerate",
    "ortholattice.covers_s": "ortholattice.covers",
    "ortholattice.check_laws_s": "ortholattice.check_laws",
    "ortholattice.render_s": "ortholattice.render",
    "logic_eval.parse_formula_s": "logic_eval.parse_formula",
    "logic_eval.eval_s": "logic_eval.eval",
    "logic_eval.compare_laws_s": "logic_eval.compare_laws",
    "cli.self_s": REQUEST,
    "cli.oracle_s": "cli.oracle",
}
LAYER_COUNTS = (
    "trace_model.processes",
    "trace_model.messages",
    "causal_core.happened_before_calls",
    "chronology.time_points",
    "ortholattice.closed_sets",
    "ortholattice.hasse_edges",
    "logic_eval.instantiations",
    "cli.output_bytes",
)


@dataclass
class Span:
    request: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.requests = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(self.requests, name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def request(self, call, *args):
        """Run one request under a root span; returns the call's result."""
        self.requests += 1
        index = self._open(REQUEST)
        try:
            return call(*args)
        finally:
            self._close(index)

    def _wrap(self, fn, name: str, count):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                tracer.counts.update(count(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attribute: str, value):
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self):
        """Wrap every layer function and method; ``uninstall`` undoes it."""
        modules = [m for n, m in sys.modules.items() if n.startswith("orthochron") and m]
        for module_name, attribute, span, count in FUNCTIONS:
            original = getattr(sys.modules.get(f"orthochron.{module_name}"), attribute, None)
            if original is None:
                self.missing.append(f"orthochron.{module_name}.{attribute}")
                continue
            traced = self._wrap(original, span, count)
            for module in modules:
                if module.__dict__.get(attribute) is original:
                    self._patch(module, attribute, traced)
        lattice = sys.modules["orthochron.ortholattice"].OrthoLattice
        for attribute, span, count in METHODS:
            original = lattice.__dict__.get(attribute)
            if isinstance(original, cached_property):
                traced = cached_property(self._wrap(original.func, span, count))
                traced.__set_name__(lattice, attribute)
            elif callable(original):
                traced = self._wrap(original, span, count)
            else:
                self.missing.append(f"OrthoLattice.{attribute}")
                continue
            self._patch(lattice, attribute, traced)

    def uninstall(self):
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Self seconds per layer and counts, each per traced request."""
        per_request = max(self.requests, 1)
        own = self.self_times()
        by_name: Counter = Counter()
        for s, seconds in zip(self.spans, own):
            by_name[s.name] += seconds
        metrics = {metric: by_name[name] / per_request for metric, name in LAYER_TIMES.items()}
        for name in LAYER_COUNTS:
            metrics[name] = self.counts[name] / per_request
        return metrics

    def records(self) -> dict:
        """Every span as one row; ``parent`` is a row index or None."""
        fields = ["request", "name", "start", "end", "parent"]
        return {"fields": fields, "rows": [[getattr(s, f) for f in fields] for s in self.spans]}
