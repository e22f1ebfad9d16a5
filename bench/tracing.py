"""Span recording for the traced pass, and the per-layer metrics derived
from the spans.

Spans are recorded from outside the package: around the calls the benchmark
makes into a layer, and around layer-to-layer calls reached by replacing a
public name in the calling module for the duration of the traced pass. Calls
made once per simulated slot (or once per sampled history) are folded into
one aggregate per parent, holding a call count and a total time, so memory
stays bounded however many slots run.

A span's name starts with the layer its time is charged to. Self time is a
span's duration minus the time its child spans and aggregates cover.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, public name as the calling module sees it, span name, aggregate?)
WRAPPED = (
    ("region", "solve", "lp.solve", False),
    ("region", "solve_region", "region.solve_region", False),
    ("region", "robust_witness", "region.robust_witness", False),
    ("region", "achievable_check", "region.achievable_check", True),
    ("filtering", "window_table", "filtering.window_table", False),
    ("filtering", "sample_trajectory", "channel.sample_trajectory", True),
    ("filtering", "filter_step", "filtering.filter_step", True),
    ("channel", "stationary_distribution", "channel.stationary_distribution", True),
    ("sim", "filter_step", "filtering.filter_step", True),
    ("sim", "predict_stats", "filtering.predict_stats", True),
    ("sim", "maxweight_action", "sim.maxweight_action", True),
    ("sim", "substitute_action", "sim.substitute_action", True),
)

LAYERS = ("bench", "channel", "filtering", "lp", "region", "sim")


def _describe(name, args, out) -> dict:
    """Attributes recorded on a wrapped call's span."""
    if name == "lp.solve":
        return {"vars": args[0].num_vars, "rows": len(args[0].constraints),
                "status": out.status}
    if name == "filtering.window_table":
        return {"windows": len(out)}
    return {}


class Tracer:
    """In-memory spans and aggregates of one traced pass.

    A span is a dict with id, name, op, parent, start and end (plus
    attributes); parent is the id of the enclosing span or the key of the
    enclosing aggregate. An aggregate is keyed by (parent, name) and holds
    [calls, total seconds].
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.aggs: dict = {}
        self.op = None
        self._stack = [None]

    @contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._stack[-1], **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            rec.update(_describe(name, args, out))
            return out
        return wrapper

    def _aggregated(self, name, fn):
        def wrapper(*args, **kwargs):
            key = (self._stack[-1], name)
            self._stack.append(key)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                agg = self.aggs.get(key)
                if agg is None:
                    self.aggs[key] = [1, dt]
                else:
                    agg[0] += 1
                    agg[1] += dt
        return wrapper

    @contextmanager
    def installed(self, modules: dict):
        """Replace every WRAPPED name by its recording wrapper, and put the
        originals back on exit."""
        saved = []
        try:
            for mod_name, attr, name, aggregate in WRAPPED:
                mod = modules[mod_name]
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, (self._aggregated if aggregate else self._spanned)(name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def dump(self) -> dict:
        """Spans and aggregates in a JSON-friendly form."""
        return {"spans": self.spans,
                "aggregates": [{"parent": repr(parent), "name": name, "calls": n,
                                "total_s": total}
                               for (parent, name), (n, total) in self.aggs.items()]}


def _span_of(parent):
    """Nearest enclosing span id of an aggregate's parent key."""
    while isinstance(parent, tuple):
        parent = parent[0]
    return parent


class _Index:
    """Lookups over a finished trace."""

    def __init__(self, tr: Tracer):
        self.tr = tr
        self.child = defaultdict(float)
        for s in tr.spans:
            if s["parent"] is not None:
                self.child[s["parent"]] += s["end"] - s["start"]
        for (parent, _name), (_n, total) in tr.aggs.items():
            self.child[parent] += total

    def named(self, name, under=None) -> list[dict]:
        return [s for s in self.tr.spans
                if s["name"] == name and (under is None or self.under(s["parent"], under))]

    def under(self, parent, name) -> bool:
        sid = _span_of(parent)
        while sid is not None:
            if self.tr.spans[sid]["name"] == name:
                return True
            sid = _span_of(self.tr.spans[sid]["parent"])
        return False

    def calls(self, name, under=None):
        """(calls, total seconds) over aggregates of one name."""
        n = total = 0
        for (parent, agg_name), (k, t) in self.tr.aggs.items():
            if agg_name == name and (under is None or self.under(parent, under)):
                n += k
                total += t
        return n, total

    def self_time(self, s) -> float:
        return s["end"] - s["start"] - self.child[s["id"]]

    def layer_self(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.tr.spans:
            out[s["name"].split(".")[0]] += self.self_time(s)
        for key, (_n, total) in self.tr.aggs.items():
            out[key[1].split(".")[0]] += total - self.child[key]
        return out


def _dur(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def _per_call_us(calls, total) -> float:
    return 1e6 * total / calls if calls else 0.0


def per_layer_metrics(tr: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer timings and counts of one traced round. Metrics of a layer
    the workload does not exercise come out as 0."""
    ix = _Index(tr)
    m = {}
    layer = ix.layer_self()
    for name, t in layer.items():
        m[f"{name}.self_s"] = t
    m["trace.wall_s"] = traced_wall
    m["trace.accounted_share"] = sum(layer.values()) / traced_wall
    m["trace_overhead_s"] = traced_wall - untraced_wall

    n, t = ix.calls("channel.stationary_distribution")
    m["channel.stationary_calls"] = n
    m["channel.stationary_us"] = _per_call_us(n, t)
    m["channel.sample_trajectory_us"] = _per_call_us(*ix.calls("channel.sample_trajectory"))

    tables = ix.named("filtering.window_table")
    m["filtering.window_table_s"] = _dur(tables)
    m["filtering.windows_per_s"] = (sum(s["windows"] for s in tables) / _dur(tables)
                                    if tables else 0.0)
    for name in ("filter_step", "predict_stats"):
        n, t = ix.calls(f"filtering.{name}")
        m[f"filtering.{name}_calls"] = n
        m[f"filtering.{name}_us"] = _per_call_us(n, t)

    solves = ix.named("lp.solve")
    m["lp.solve_calls"] = len(solves)
    m["lp.solve_s"] = _dur(solves)
    m["lp.robust_solve_s"] = _dur(ix.named("lp.solve", under="region.robust_witness"))
    sweep_ms = [1e3 * (s["end"] - s["start"]) for s in ix.named("lp.solve", under="region.sweep_table")]
    m["lp.solve_ms.p50"] = statistics.median(sweep_ms) if sweep_ms else 0.0
    m["lp.solve_ms.p80"] = statistics.quantiles(sweep_ms, n=5)[3] if len(sweep_ms) > 1 else 0.0
    m["lp.largest_vars"] = max((s["vars"] for s in solves), default=0)
    m["lp.largest_rows"] = max((s["rows"] for s in solves), default=0)
    m["lp.non_optimal"] = sum(s["status"] != "Optimal" for s in solves)

    points = ix.named("region.solve_region", under="region.sweep_table")
    m["region.solve_region_ms"] = 1e3 * _dur(points) / len(points) if points else 0.0
    m["region.robust_witness_s"] = _dur(ix.named("region.robust_witness"))
    derived = ix.named("region.simulation_distribution")
    tried, _t = ix.calls("region.achievable_check", under="region.simulation_distribution")
    m["region.overlap_accept_ratio"] = len(derived) / tried if tried else 0.0

    runs = ix.named("sim.simulate")
    for s in runs:
        m[f"sim.{s['scheduler']}_us_per_slot.{s['load']}"] = 1e6 * (s["end"] - s["start"]) / s["slots"]
    mw = [s for s in runs if s["scheduler"] == "maxweight"]
    mw_slots = sum(s["slots"] for s in mw)
    m["sim.maxweight_self_us_per_slot"] = (1e6 * sum(ix.self_time(s) for s in mw) / mw_slots
                                           if mw_slots else 0.0)
    m["sim.maxweight_action_us"] = _per_call_us(*ix.calls("sim.maxweight_action"))
    m["sim.substitute_action_us"] = _per_call_us(*ix.calls("sim.substitute_action"))
    decodes = ix.named("sim.decode_verify")
    decoded_tx = sum(s["tx"] for s in decodes)
    m["sim.decode_us_per_tx"] = 1e6 * _dur(decodes) / decoded_tx if decoded_tx else 0.0
    m["sim.save_trace_s"] = _dur(ix.named("sim.save_trace"))
    m["sim.load_trace_s"] = _dur(ix.named("sim.load_trace"))
    return m
