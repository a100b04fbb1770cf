"""In-process span tracer that wraps the library's entry points from outside.

Spans are recorded around calls into the package's modules by replacing
module attributes and engine methods with timing wrappers; nothing under
src/ is changed. Every span adds its duration and self time (duration minus
child spans) to a per-name aggregate. Coarse spans (searches, tasks,
detectors, constructions) are also kept as individual records with their
parent and the operation they belong to; the hot engine methods are only
aggregated, because a search makes millions of those calls.

Only the calling process is traced: engine and task spans inside forked
pool workers are not visible.
"""

from __future__ import annotations

import functools
import importlib
import time

_clock = time.perf_counter

# (module, attribute, span name) wrapped as plain functions. Private names
# may disappear in a refactor; a missing one is reported, never fatal.
FUNCTIONS = [
    ("splitrep.search", "longest_avoiding", "search.longest_avoiding"),
    ("splitrep.search", "frontier_lower_bound", "search.frontier_lower_bound"),
    ("splitrep.search", "verify_witness", "search.verify_witness"),
    ("splitrep.search", "certified_cap", "search.certified_cap"),
    ("splitrep.search", "_plan_tasks", "search._plan_tasks"),
    ("splitrep.search", "_run_task", "search._run_task"),
    ("splitrep.search", "_replay", "search._replay"),
    ("splitrep.search", "_dfs", "search._dfs"),
    ("splitrep.search", "_merge", "search._merge"),
    ("splitrep.detect", "find_t_overlap_factor", "detect.find_t_overlap_factor"),
    ("splitrep.detect", "find_split_t_overlap", "detect.find_split_t_overlap"),
    ("splitrep.detect", "find_reversed_split_t_overlap",
     "detect.find_reversed_split_t_overlap"),
    ("splitrep.detect", "find_disjoint_pair", "detect.find_disjoint_pair"),
    ("splitrep.counting", "s_upper_bounds", "counting.s_upper_bounds"),
    ("splitrep.counting", "c_bounds", "counting.c_bounds"),
    ("splitrep.counting", "period_census", "counting.period_census"),
    ("splitrep.counting", "theorem_sum_bound", "counting.theorem_sum_bound"),
    ("splitrep.debruijn", "debruijn_order3_special", "debruijn.debruijn_order3_special"),
    ("splitrep.debruijn", "construct_c2_lower", "debruijn.construct_c2_lower"),
    ("splitrep.debruijn", "construct_c3_lower", "debruijn.construct_c3_lower"),
    ("splitrep.words", "border_array", "words.border_array"),
    ("splitrep.knownvalues", "load_known_cells", "knownvalues.load_known_cells"),
]

# modules that import a wrapped function by name hold their own binding
ALIASES = ["splitrep.search", "splitrep.cli", "splitrep.counting", "splitrep.debruijn"]

ENGINE_CLASSES = ["DisjointFactorEngine", "SplitOverlapEngine"]
ENGINE_METHODS = ["try_push", "can_extend", "pop"]

# span names kept only as aggregates
HOT = {"engines.try_push", "engines.can_extend", "engines.pop", "search._replay"}
# span names whose arguments and results are kept for the per-layer metrics
OBSERVED = {"search._plan_tasks", "search._merge"}


class Missing:
    """A metric that could not be taken because a probed name is gone."""

    def __init__(self, reason: str):
        self.reason = reason


class Aggregate:
    __slots__ = ("calls", "total", "self_time", "true_results")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.true_results = 0


class Tracer:
    """Span stack, per-name aggregates and coarse span records."""

    def __init__(self):
        self.stack: list[list] = []      # [span id, name, start, child time]
        self.agg: dict[str, Aggregate] = {}
        self.records: list[tuple] = []   # (id, name, parent id, op, start, end)
        self.next_id = 1
        self.op = 0
        self.observed: dict[str, list] = {}   # span name -> [(args, result)]
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    def enter(self, name: str) -> None:
        self.stack.append([self.next_id, name, _clock(), 0.0])
        self.next_id += 1

    def exit(self, result=None) -> None:
        end = _clock()
        span_id, name, start, child = self.stack.pop()
        dur = end - start
        agg = self.agg.get(name)
        if agg is None:
            agg = self.agg[name] = Aggregate()
        agg.calls += 1
        agg.total += dur
        agg.self_time += dur - child
        if result is True:
            agg.true_results += 1
        if self.stack:
            self.stack[-1][3] += dur
        if name not in HOT:
            parent = self.stack[-1][0] if self.stack else 0
            self.records.append((span_id, name, parent, self.op, start, end))

    def _wrap(self, name: str, fn, observe: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.exit(result)
                if observe:
                    tracer.observed.setdefault(name, []).append((args, result))

        return wrapper

    def install(self) -> None:
        """Wrap every entry point; record names that no longer exist."""
        for modname, attr, name in FUNCTIONS:
            module = importlib.import_module(modname)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(name, original, name in OBSERVED)
            for alias in {modname, *ALIASES}:
                mod = importlib.import_module(alias)
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))
        engines = importlib.import_module("splitrep.engines")
        for cls_name in ENGINE_CLASSES:
            cls = getattr(engines, cls_name, None)
            if cls is None:
                self.missing.append(f"splitrep.engines.{cls_name}")
                continue
            for meth in ENGINE_METHODS:
                original = cls.__dict__.get(meth)
                if original is None:
                    self.missing.append(f"splitrep.engines.{cls_name}.{meth}")
                    continue
                setattr(cls, meth, self._wrap(f"engines.{meth}", original, False))
                self._undo.append((cls, meth, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def total(self, name: str) -> float:
        agg = self.agg.get(name)
        return agg.total if agg else 0.0

    def self_time(self, name: str) -> float:
        agg = self.agg.get(name)
        return agg.self_time if agg else 0.0

    def calls(self, name: str) -> int:
        agg = self.agg.get(name)
        return agg.calls if agg else 0

    def dump(self) -> dict:
        """Aggregates and coarse spans, for the result file."""
        return {
            "aggregates": {
                name: {
                    "calls": a.calls,
                    "total_s": a.total,
                    "self_s": a.self_time,
                    "true_results": a.true_results,
                }
                for name, a in sorted(self.agg.items())
            },
            "spans": [
                {"id": i, "name": n, "parent": p, "op": op, "start": s, "end": e}
                for i, n, p, op, s, e in self.records
            ],
            "missing": self.missing,
        }
