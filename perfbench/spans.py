"""Spans around the program's layer boundaries, recorded from outside.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``kalliance`` module that holds a reference to it, so calls made
through names imported with ``from .x import y`` are seen too; ``uninstall``
puts the originals back. Spans are kept in memory, turned into metrics
when the pass ends, and written out once, when the run ends. Each span has a name, start, end, parent and the
id of the benchmark operation it belongs to.

A layer's time is the sum of its spans' self time (the span's duration
minus that of its direct child spans), so layer times add up to the traced
part of the pass without double counting.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from pathlib import Path

# module -> traced public functions
TRACED = {
    "graphs": (
        "from_edge_list", "generate", "random_cubic", "random_graph", "random_tree",
        "diameter", "is_connected", "connected_components_of", "is_tree", "is_cubic",
        "is_regular", "is_triangle_free", "induced_subgraph",
    ),
    "bounds": ("evaluate_all", "lower_reports", "upper_reports", "cubic_upper_2gamma"),
    "solver": ("solve", "brute_force_oracle"),
    "alliances": (
        "certify", "is_dominating", "is_total_dominating",
        "construct_upper_witness", "cubic_augment_dominating", "shrink_to_lower_k",
    ),
    "corpus": ("run_corpus", "default_corpus_spec", "load_corpus_spec"),
    "known_values": ("run_known_value_checks",),
    "cli": ("main",),
}

# span name -> metric prefix of its layer
BUCKETS = {
    "graphs.from_edge_list": "graphs.parse",
    "graphs.generate": "graphs.generate",
    "graphs.random_cubic": "graphs.generate",
    "graphs.random_graph": "graphs.generate",
    "graphs.random_tree": "graphs.generate",
    "bounds.evaluate_all": "bounds.eval",
    "bounds.lower_reports": "bounds.eval",  # bounds.floor when called by solve
    "bounds.upper_reports": "bounds.eval",
    "bounds.cubic_upper_2gamma": "bounds.eval",
    "solver.solve": "solver.solve",
    "solver.brute_force_oracle": "solver.oracle",
    "alliances.certify": "alliances.certify",
    "alliances.is_dominating": "alliances.certify",
    "alliances.is_total_dominating": "alliances.certify",
    "alliances.construct_upper_witness": "alliances.construct",
    "alliances.cubic_augment_dominating": "alliances.construct",
    "alliances.shrink_to_lower_k": "alliances.construct",
    "corpus.run_corpus": "corpus",
    "corpus.default_corpus_spec": "corpus",
    "corpus.load_corpus_spec": "corpus",
    "known_values.run_known_value_checks": "known_values",
    "cli.main": "cli",
}
BUCKETS.update({f"graphs.{name}": "graphs.query"
                for name in TRACED["graphs"] if f"graphs.{name}" not in BUCKETS})

PARAMETERS = ("a_k", "gamma_k_a", "gamma_k_ca", "gamma", "gamma_t")

# (metric, unit, better) in the order they are reported
PER_LAYER = (
    [(f"graphs.{part}_{kind}", unit, "lower")
     for part in ("parse", "generate", "query")
     for kind, unit in (("s", "s"), ("calls", "count"))]
    + [
        ("bounds.eval_s", "s", "lower"), ("bounds.eval_calls", "count", "lower"),
        ("bounds.floor_s", "s", "lower"), ("bounds.floor_calls", "count", "lower"),
        ("bounds.nested_solve_s", "s", "lower"), ("bounds.nested_solve_calls", "count", "lower"),
        ("bounds.floor_gap", "count", "lower"), ("bounds.floor_hit_frac", "frac", "higher"),
        ("solver.solve_s", "s", "lower"), ("solver.solve_calls", "count", "lower"),
        ("solver.solve_p50_s", "s", "lower"), ("solver.solve_tail_s", "s", "lower"),
        ("solver.subsets", "count", "lower"), ("solver.prunes", "count", "lower"),
        ("solver.leaf_yield", "frac", "higher"),
    ]
    + [(f"solver.{p}.{kind}", unit, "lower")
       for p in PARAMETERS for kind, unit in (("s", "s"), ("subsets", "count"))]
    + [
        ("solver.oracle_s", "s", "lower"), ("solver.oracle_calls", "count", "lower"),
        ("solver.oracle_subsets", "count", "lower"),
        ("alliances.certify_s", "s", "lower"), ("alliances.certify_calls", "count", "lower"),
        ("alliances.construct_s", "s", "lower"), ("alliances.construct_calls", "count", "lower"),
        ("corpus.self_s", "s", "lower"), ("corpus.graphs", "count", "lower"),
        ("corpus.records", "count", "lower"), ("corpus.violations", "count", "lower"),
        ("known_values.s", "s", "lower"), ("known_values.checks", "count", "higher"),
        ("cli.self_s", "s", "lower"), ("cli.calls", "count", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}

# layers whose metric names do not follow "<layer>_s" and "<layer>_calls"
SPECIAL_KEYS = {
    "corpus": ("corpus.self_s", None),
    "known_values": ("known_values.s", None),
    "cli": ("cli.self_s", "cli.calls"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name: str, parent: int | None, op: int | None):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.info = None


def _solve_info(result) -> tuple:
    return (result.parameter, result.found, result.value,
            result.stats.subsets, result.stats.prunes)


# span name -> what to keep from its result
INFO = {
    "solver.solve": _solve_info,
    "solver.brute_force_oracle": _solve_info,
    "bounds.lower_reports": lambda reports: reports,
    "corpus.run_corpus": lambda result: (
        len({r.graph_id for r in result.records}), len(result.records),
        result.total_violations()),
    "known_values.run_known_value_checks": len,
}


class Tracer:
    """Records spans while ``op`` is set; wrappers cost one test otherwise."""

    def __init__(self, mods):
        self.mods = mods
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        info = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            span = Span(name, stack[-1] if stack else None, tracer.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(result)
            return result

        return wrapper

    def install(self):
        holders = [m for n, m in sys.modules.items() if n == "kalliance" or n.startswith("kalliance.")]
        for layer, names in TRACED.items():
            module = getattr(self.mods, layer)
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._restore.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def write_spans(path: Path, spans: list[Span]) -> None:
    """One JSON object per line; ``parent`` is the ``id`` of the parent span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for index, span in enumerate(spans):
            out.write(json.dumps({
                "id": index, "op": span.op, "name": span.name, "parent": span.parent,
                "start": span.start, "end": span.end,
            }) + "\n")


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile that has
    at least ten samples beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def layer_metrics(spans: list[Span], scales: list[float], mods) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``trace.overhead_frac`` aside).
    ``scales[op]`` turns the wall seconds of operation ``op`` into
    reference seconds; ``mods`` are the traced program's modules, whose
    ``bounds.best_lower`` gives the floor that ``solve`` starts from."""
    m = {name: 0 for name, _, _ in PER_LAYER if name != "trace.overhead_frac"}
    child_time = [0.0] * len(spans)
    floor_reports: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
            if span.name == "bounds.lower_reports" and spans[span.parent].name == "solver.solve":
                floor_reports[span.parent] = span.info

    def bucket(i: int) -> str:
        span = spans[i]
        if span.name == "bounds.lower_reports" and span.parent is not None \
                and spans[span.parent].name == "solver.solve":
            return "bounds.floor"
        return BUCKETS[span.name]

    durations = []
    found = hits = 0
    for i, span in enumerate(spans):
        own = bucket(i)
        factor = scales[span.op]
        self_s = (span.end - span.start - child_time[i]) * factor
        time_key, calls_key = SPECIAL_KEYS.get(own, (f"{own}_s", f"{own}_calls"))
        m[time_key] += self_s
        if calls_key in m and (span.parent is None or bucket(span.parent) != own):
            m[calls_key] += 1
        if span.info is None:
            continue  # no result to read: the call raised
        if own == "known_values":
            m["known_values.checks"] += span.info
        elif span.name == "corpus.run_corpus":
            graphs, records, violations = span.info
            m["corpus.graphs"] += graphs
            m["corpus.records"] += records
            m["corpus.violations"] += violations
        elif own == "solver.oracle":
            m["solver.oracle_subsets"] += span.info[3]
        if own != "solver.solve":
            continue
        parameter, ok, value, subsets, prunes = span.info
        durations.append((span.end - span.start) * factor)
        m["solver.subsets"] += subsets
        m["solver.prunes"] += prunes
        m[f"solver.{parameter}.s"] += self_s
        m[f"solver.{parameter}.subsets"] += subsets
        if span.parent is not None and spans[span.parent].name == "bounds.cubic_upper_2gamma":
            m["bounds.nested_solve_s"] += (span.end - span.start) * factor
            m["bounds.nested_solve_calls"] += 1
        if ok:
            # solve starts at this floor clamped to [1, n]; a found value is
            # at most n, and no sound floor exceeds it.
            reports = floor_reports.get(i)
            floor = None if reports is None else mods.bounds.best_lower(reports)
            start = 1 if floor is None else max(1, floor)
            found += 1
            hits += value == start
            m["bounds.floor_gap"] += value - start
    if durations:
        m["solver.solve_p50_s"] = statistics.median(durations)
        m["solver.solve_tail_s"] = tail(durations)[0]
    m["bounds.floor_hit_frac"] = hits / found if found else 0.0
    m["solver.leaf_yield"] = found / m["solver.subsets"] if m["solver.subsets"] else 0.0
    return m
