"""Spans around the calls that cross a layer boundary.

``install`` replaces each listed function of the package, wherever a
module of the package binds it, with a wrapper that records a span:
name, parent span, start, end and a small integer taken from the result.
A name the package no longer has is skipped, so its metrics drop out and
the run goes on.  Spans stay in memory and are folded into totals after
each operation; a layer's self time is its spans' time minus the time of
their child spans.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

BINS = ("AgreeSat", "AgreeUnsat", "FalseSat", "FalseUnsat", "Anomaly")

# (module, attribute, span name, value recorded from the result)
FUNCTIONS = (
    ("cnf", "parse_dimacs", "parse", None),
    ("solver", "solve", "solve", lambda r: r.ops),
    ("algorithms", "algorithm_d", "algorithm_d", lambda r: r is not None),
    ("algorithms", "algorithm_g", "algorithm_g", bool),
    ("oracle", "brute_force", "brute_force", lambda r: r.nodes),
    ("oracle", "dpll", "dpll", lambda r: r.nodes),
    ("harness", "classify", "classify", lambda r: BINS.index(r) if r in BINS else -1),
    ("harness", "minimize", "minimize", None),
)
# (module, class, method, span name, value recorded from the result)
METHODS = (
    ("engine", "EngineState", "fork", "fork", None),
    ("engine", "EngineState", "restrict_to", "restrict_to", None),
    ("engine", "EngineState", "compute_fixpoint", "fixpoint", lambda r: r is None),
)


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_value = array("q")
        self.open: list[int] = []
        self.totals = Counter()
        self.d_max_depth = 0

    def wrap(self, fn, name, value):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self.open[-1] if self.open else -1)
            self.span_value.append(-1)
            self.span_end.append(0.0)
            self.open.append(i)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[i] = clock()
                self.open.pop()
            if value is not None:
                self.span_value[i] = int(value(result))
            return result

        return traced

    def install(self, api) -> None:
        modules = [api.package] + [getattr(api, m) for m in api.MODULES]
        for module_name, attr, name, value in FUNCTIONS:
            original = getattr(getattr(api, module_name), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, name, value)
            for module in modules:
                for key, bound in list(vars(module).items()):
                    if bound is original:
                        setattr(module, key, wrapper)
        for module_name, class_name, attr, name, value in METHODS:
            cls = getattr(getattr(api, module_name), class_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is not None:
                setattr(cls, attr, self.wrap(original, name, value))

    def fold(self) -> None:
        """Add the recorded spans to the totals and drop them."""
        count = len(self.span_start)
        duration = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * count
        d_depth = [0] * count
        in_minimize = [False] * count
        t = self.totals
        last_solve = 0.0
        for i in range(count):
            name = self.names[self.span_name[i]]
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += duration[i]
                d_depth[i] = d_depth[parent]
                in_minimize[i] = in_minimize[parent]
            value = self.span_value[i]
            t[name + ".calls"] += 1
            t[name + ".s"] += duration[i]
            t[name + ".positive"] += value > 0
            t[name + ".value"] += max(value, 0)
            if name == "algorithm_d":
                d_depth[i] += 1
                self.d_max_depth = max(self.d_max_depth, d_depth[i])
            elif name == "minimize":
                in_minimize[i] = True
            elif name == "solve":
                last_solve = duration[i]
                t["minimize.solves"] += in_minimize[i]
            elif name == "classify" and value >= 0:
                t["bin." + BINS[value]] += 1
                t["bin_solve_s." + BINS[value]] += last_solve
        for i in range(count):
            name = self.names[self.span_name[i]]
            t[name + ".self_s"] += duration[i] - child[i]
        for spans in (self.span_name, self.span_parent, self.span_start, self.span_end, self.span_value):
            del spans[:]

    def metrics(self, rounds: int, tally: Counter, speed: float) -> dict:
        """Per-layer metrics per round; ratios and depths over the run.
        Times are scaled by the ``speed`` factor, as the end-to-end ones."""
        t = self.totals
        have = set(self.names)

        def per_round(x):
            if isinstance(x, int) and x % rounds == 0:
                return x // rounds
            return x / rounds

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}

        def put(name, value, unit):
            scale = {"s": speed, "1/s": 1 / speed}.get(unit, 1)
            out[name] = {"value": value * scale, "unit": unit}

        if "parse" in have:
            put("cnf.parse_s", per_round(t["parse.s"]), "s")
        if "solve" in have:
            put("solver.solve_s", per_round(t["solve.s"]), "s")
            for b in ("AgreeSat", "AgreeUnsat", "FalseUnsat"):
                put("solver.solve_s." + b, per_round(t["bin_solve_s." + b]), "s")
            put("solver.reevaluations", per_round(t["solve.value"]), "count")
            put("solver.reevaluations_per_s", ratio(t["solve.value"], t["solve.s"]), "1/s")
        if "fixpoint" in have:
            put("engine.fixpoint_calls", per_round(t["fixpoint.calls"]), "count")
            put("engine.fixpoint_self_s", per_round(t["fixpoint.self_s"]), "s")
            put("engine.fixpoint_kept_ratio", ratio(t["fixpoint.positive"], t["fixpoint.calls"]), "ratio")
        if "fork" in have:
            put("engine.forks", per_round(t["fork.calls"]), "count")
            put("engine.fork_s", per_round(t["fork.s"]), "s")
        if "restrict_to" in have:
            put("engine.restricted_views", per_round(t["restrict_to.calls"]), "count")
            put("engine.restrict_s", per_round(t["restrict_to.s"]), "s")
        if "algorithm_g" in have:
            put("algorithms.g_calls", per_round(t["algorithm_g.calls"]), "count")
            put("algorithms.g_self_s", per_round(t["algorithm_g.self_s"]), "s")
            put("algorithms.g_approved_ratio", ratio(t["algorithm_g.positive"], t["algorithm_g.calls"]), "ratio")
        if "algorithm_d" in have:
            put("algorithms.d_calls", per_round(t["algorithm_d.calls"]), "count")
            put("algorithms.d_self_s", per_round(t["algorithm_d.self_s"]), "s")
            put("algorithms.d_succeeded_ratio", ratio(t["algorithm_d.positive"], t["algorithm_d.calls"]), "ratio")
            put("algorithms.d_max_depth", self.d_max_depth, "count")
        if "brute_force" in have:
            put("oracle.brute_s", per_round(t["brute_force.s"]), "s")
            put("oracle.brute_tried", per_round(t["brute_force.value"]), "count")
        if "dpll" in have:
            put("oracle.dpll_s", per_round(t["dpll.s"]), "s")
            put("oracle.dpll_nodes", per_round(t["dpll.value"]), "count")
        if "minimize" in have:
            put("harness.minimize_solves", per_round(t["minimize.solves"]), "count")
            put("harness.minimize_kept_ratio", ratio(tally["core_clauses"], tally["record_clauses"]), "ratio")
            put("harness.core_clauses", per_round(tally["core_clauses"]), "count")
        if "classify" in have:
            for b in ("AgreeSat", "AgreeUnsat", "FalseUnsat"):
                put("harness.bin." + b, per_round(t["bin." + b]), "count")
        return out
