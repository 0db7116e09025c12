"""Corpus certification: solve every (graph, k, target) cell of a declared
corpus, evaluate every applicable bound, and cross-check the whole web of
identities the solver and bound catalog are supposed to satisfy.

Results are deterministic functions of the corpus spec (all randomness is
seeded), so the CSV artifact is byte-identical across runs.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass, field, replace
from itertools import combinations, count, groupby

from . import bounds as bounds_mod
from .alliances import (
    PARAM_A_K,
    PARAM_GAMMA,
    PARAM_GAMMA_K_A,
    PARAM_GAMMA_K_CA,
    PARAM_GAMMA_T,
    PARAMETERS,
    ConstructionInvariantError,
    VertexSet,
    construct_upper_witness,
    cubic_augment_dominating,
    meets,
    shrink_to_lower_k,
)
from .graphs import (
    PARAM_TYPES,
    Graph,
    connected_components_of,
    diameter,
    family_params,
    generate,
    is_connected,
    is_cubic,
    is_tree,
)
from .solver import (
    STATUS_NONE,
    ResourceLimitError,
    SearchStats,
    SolveResult,
    cells as cell_order,
    k_range,
    _solve_from,
    problem,
    requirements,
    solve,
)

FOREST_IDENTITY_SAMPLES = 1000
SHRINK_SAMPLES = 200
REUSE_SAMPLES = 1  # reused cells per graph solved afresh
STATUS_RESOURCE = "resource_error"
_SAMPLE_SEED = 94121


@dataclass(frozen=True)
class GraphSpec:
    """One corpus graph: family name plus its exact parameters."""

    family: str
    params: tuple[tuple[str, int | float], ...] = ()

    @classmethod
    def of(cls, family: str, **params) -> "GraphSpec":
        order = family_params(family, params)
        return cls(family, tuple((name, params[name]) for name in order))

    def build(self) -> Graph:
        return generate(self.family, **dict(self.params))

    def label(self) -> str:
        parts = [self.family] + [f"{name}{value}" for name, value in self.params]
        return "-".join(parts)

    def to_json_dict(self) -> dict:
        out: dict = {"family": self.family}
        out.update({name: value for name, value in self.params})
        return out

    @classmethod
    def from_json_dict(cls, data) -> "GraphSpec":
        if not isinstance(data, dict):
            raise ValueError(f"a graph entry must be a JSON object, not {data!r}")
        params = {name: value for name, value in data.items() if name != "family"}
        for name, value in params.items():
            allowed = (int, float) if PARAM_TYPES.get(name) is float else int
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValueError(f"graph parameter {name!r} has the wrong type: {value!r}")
        return cls.of(data.get("family"), **params)


@dataclass(frozen=True)
class CorpusSpec:
    """The graphs of one certification run. Every graph is certified for
    all five parameters over its whole ``k_range``."""

    graphs: tuple[GraphSpec, ...]

    def to_json_dict(self) -> dict:
        return {"graphs": [gs.to_json_dict() for gs in self.graphs]}

    @classmethod
    def from_json_dict(cls, data) -> "CorpusSpec":
        if not isinstance(data, dict):
            raise ValueError("a corpus spec must be a JSON object")
        unknown = sorted(set(data) - {"graphs"})
        if unknown:
            raise ValueError(f"unknown corpus spec keys {unknown}; a spec has only 'graphs'")
        graphs = data.get("graphs", [])
        if not isinstance(graphs, list):
            raise ValueError("'graphs' must be a JSON array")
        return cls(graphs=tuple(GraphSpec.from_json_dict(d) for d in graphs))


@dataclass
class RowEntry:
    """One (target) cell of a certification record."""

    target: str
    status: str
    value: int | None
    best_lower: int | None
    best_upper: int | None
    violations: list[str] = field(default_factory=list)
    source: str | None = None  # the relaxation cell its solve started from


@dataclass
class CertificationRecord:
    """All targets for one (graph, k) pair; k is None for the per-graph
    domination rows."""

    graph_id: str
    family: str
    n: int
    m: int
    k: int | None
    entries: list[RowEntry]


@dataclass
class CorpusResult:
    records: list[CertificationRecord]
    extra_violations: list[str]
    checks_run: dict[str, int] = field(default_factory=dict)

    def all_violations(self) -> list[str]:
        out = []
        for record in self.records:
            for entry in record.entries:
                out.extend(entry.violations)
        out.extend(self.extra_violations)
        return out

    def total_violations(self) -> int:
        return len(self.all_violations())

    def unsolved_cells(self) -> int:
        """Cells left at ``resource_error``: certified nothing."""
        return sum(
            entry.status == STATUS_RESOURCE for record in self.records for entry in record.entries
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("graph,family,n,m,k,target,status,value,best_lower,best_upper,violations\n")
        for record in self.records:
            k_text = "" if record.k is None else str(record.k)
            for entry in record.entries:
                value = "" if entry.value is None else str(entry.value)
                lower = "" if entry.best_lower is None else str(entry.best_lower)
                upper = "" if entry.best_upper is None else str(entry.best_upper)
                buf.write(
                    f"{record.graph_id},{record.family},{record.n},{record.m},"
                    f"{k_text},{entry.target},{entry.status},{value},{lower},{upper},"
                    f"{len(entry.violations)}\n"
                )
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "records": [
                {
                    "graph": r.graph_id,
                    "family": r.family,
                    "n": r.n,
                    "m": r.m,
                    "k": r.k,
                    "entries": [
                        {
                            "target": e.target,
                            "status": e.status,
                            "value": e.value,
                            "best_lower": e.best_lower,
                            "best_upper": e.best_upper,
                            "violations": e.violations,
                            "source": e.source,
                        }
                        for e in r.entries
                    ],
                }
                for r in self.records
            ],
            "extra_violations": self.extra_violations,
            "checks_run": self.checks_run,
            "total_violations": self.total_violations(),
        }


# ---------------------------------------------------------------------------
# Per-graph certification
# ---------------------------------------------------------------------------

def _min_dominating_subset(g: Graph, s: VertexSet, gamma_witness: VertexSet) -> VertexSet:
    """Smallest W inside s that dominates the whole graph (s itself does);
    the first in ``combinations`` order."""
    if len(s) == g.n:
        return gamma_witness
    pool = s.members
    full = (1 << g.n) - 1
    closed = [(1 << v) | g.adjacency[v] for v in pool]
    for size in range(1, len(pool) + 1):
        for combo in combinations(range(len(pool)), size):
            cover = 0
            for i in combo:
                cover |= closed[i]
            if cover == full:
                return VertexSet.from_vertices(g, [pool[i] for i in combo])
    raise AssertionError("a global alliance always contains a dominating subset")


@dataclass
class _GraphOutcome:
    graph: Graph
    graph_id: str
    cells: dict[tuple[str, int | None], tuple[SolveResult, str | None]]  # (result, source)
    records: list[CertificationRecord]
    extras: list[str]
    shrink_pool: list[tuple[int, VertexSet, VertexSet]]  # (k, witness, min dominating W)
    counts: dict[str, int] = field(default_factory=dict)


def _cell_name(target: str, k: int | None) -> str:
    return target if k is None else f"{target} k={k}"


def _reuse_relaxations(
    g: Graph, target: str, k: int | None, posed, relaxations: list[tuple[str, SolveResult]],
) -> tuple[SolveResult, str | None, str]:
    """Solve one cell from its relaxations ``(name, result)``: cells solved
    earlier whose feasible sets include every feasible set of this cell.
    Return the result, the name of the relaxation it reused, and how.

    A relaxation without a solution leaves none for the cell. Otherwise the
    largest relaxed value s' is a floor, and the lex-least witnesses of
    value s' are tried first (``solver._solve_from`` states why a witness
    that passes is exact).
    """
    for name, res in relaxations:
        if res.status == STATUS_NONE:
            none = SolveResult(target, k, STATUS_NONE, None, None, SearchStats(0, 0, 0.0))
            return none, name, "none"
    if not relaxations:
        return solve(g, target, k), None, "fresh"
    floor = max(res.value for _, res in relaxations)
    tops = [(name, res.witness.bits) for name, res in relaxations if res.value == floor]
    res = _solve_from(g, target, k, posed, floor, tuple(bits for _, bits in tops))
    if res.stats.subsets or res.stats.prunes:
        return res, tops[0][0], "floor"
    return res, next(name for name, bits in tops if bits == res.witness.bits), "shortcut"


def _certify_graph(gs: GraphSpec) -> _GraphOutcome:
    g = gs.build()
    gid = f"{gs.label()}-{g.content_hash()}"
    ks = k_range(g)
    order = cell_order(g)

    # Cells that pose the same problem (gamma is gamma_k_a at k = -max
    # degree, and on a cubic graph gamma_t is gamma_k_a at k = -2 and -1)
    # are solved once; a reused result is relabelled with each cell's name.
    # A new problem starts from its relaxations solved before it: the same
    # target at k - 1 (lower requirements) and the next weaker target.
    weaker = {
        PARAM_GAMMA_K_A: PARAM_A_K, PARAM_GAMMA_K_CA: PARAM_GAMMA_K_A, PARAM_GAMMA_T: PARAM_GAMMA,
    }
    solved: dict[tuple, tuple[SolveResult, str | None]] = {}
    cells: dict[tuple[str, int | None], tuple[SolveResult, str | None]] = {}
    reused: list[tuple[str, int | None]] = []
    counts = {"reuse_none": 0, "reuse_shortcut": 0, "reuse_floor": 0, "reuse_resolved": 0}
    try:
        for t, k in order:
            key = problem(g, t, k)
            hit = solved.get(key)
            if hit is None:
                relaxed = [(t, k - 1)] if k is not None and k > ks[0] else []
                if t in weaker:
                    relaxed.append((weaker[t], k))
                relaxations = [(_cell_name(u, j), cells[u, j][0]) for u, j in relaxed]
                res, source, how = _reuse_relaxations(g, t, k, key, relaxations)
                hit = solved[key] = res, source
                if how != "fresh":
                    counts[f"reuse_{how}"] += 1
                    reused.append((t, k))
            else:
                hit = replace(hit[0], parameter=t, k=k), hit[1]
            cells[t, k] = hit
    except ResourceLimitError:
        # Only a fresh ``solve`` checks the size cap, and the first cell, a_k
        # at -max degree, has no relaxation: it is always solved fresh, so an
        # oversize graph stops there, before any cell is reused.
        cells = {
            (t, k): (SolveResult(t, k, STATUS_RESOURCE, None, None, SearchStats(0, 0, 0.0)), None)
            for t, k in order
        }
    gamma = cells[PARAM_GAMMA, None][0]
    d_min = g.min_degree
    connected = is_connected(g)
    diam = diameter(g) if connected else None

    # Reuse makes the relaxation order hold by construction: a cell is never
    # below a relaxation, and none has a solution where a relaxation has
    # none. So instead of comparing cells, a seeded draw of reused cells,
    # fixed per graph, is solved afresh and must agree in full.
    rng = random.Random(f"{_SAMPLE_SEED}:{gid}")
    drawn = set(rng.sample(reused, min(REUSE_SAMPLES, len(reused))))
    counts["reuse_resolved"] = len(drawn)

    # Every cell is checked where its entry is built, in pass order, one
    # record per k and one for the domination rows (k = None).
    records: list[CertificationRecord] = []
    shrink_pool: list[tuple[int, VertexSet, VertexSet]] = []
    for k, group in groupby(order, key=lambda cell: cell[1]):
        # The parity lemma as ``bounds`` codes it: the collapsed k must pose
        # the same problem. Equal values would follow from the memo alone, so
        # no cell is read, and a fault is flagged once per k, on the first row.
        collapsed = None if k is None else bounds_mod.parity_collapse(g, k)
        parity_differs = (
            collapsed != k and collapsed in ks and requirements(g, collapsed) != requirements(g, k)
        )
        entries: list[RowEntry] = []
        for target, _ in group:
            res, source = cells[target, k]
            reports = [] if k is None else bounds_mod.evaluate_all(g, k, target, gamma.value)
            entry = RowEntry(
                target, res.status, res.value,
                bounds_mod.best_lower(reports), bounds_mod.best_upper(reports), source=source,
            )
            where = f"{gid} {target}" if k is None else f"{gid} k={k} {target}"
            flag = entry.violations.append
            demands = PARAMETERS[target].demands
            if res.found and not meets(g, res.witness.bits, k or 0, demands):
                flag(f"{where}: witness failed re-certification")
            # Every catalogue upper bound is constructive (upper_min_degree by
            # construct_upper_witness, cubic_upper_2gamma by
            # cubic_augment_dominating), so it also proves an alliance exists.
            # On a regular graph it meets lower_maxdeg at n for the top two k.
            # At k = max degree lower_maxdeg is n, and V re-certifies there
            # only on a regular graph, so those two checks decide the top k.
            for report in reports:
                if not report.applicable:
                    continue
                if report.kind == bounds_mod.KIND_LOWER and res.found and res.value < report.value:
                    flag(f"{where}: value {res.value} below {report.name}={report.value}")
                if report.kind == bounds_mod.KIND_UPPER:
                    if res.found and res.value > report.value:
                        flag(f"{where}: value {res.value} above {report.name}={report.value}")
                    elif res.status == STATUS_NONE:
                        flag(f"{where}: none exists, but {report.name}={report.value} builds one")
            if target == PARAM_GAMMA_T and res.found and connected and g.n >= 3:
                if res.value > (2 * g.n) // 3:
                    flag(f"{gid}: gamma_t {res.value} exceeds floor(2n/3) = {(2 * g.n) // 3}")
            if target == PARAM_GAMMA_K_CA and res.found and connected:
                if diam > res.value + 1:
                    flag(f"{gid} k={k}: diameter {diam} exceeds |S| + 1 = {res.value + 1}")
            if parity_differs and not entries:
                flag(f"{gid}: parity-equivalent k={k} and k={collapsed} pose different problems")
            if target == PARAM_GAMMA_K_A and res.found:
                # The shrink trade: dropping r vertices may lower the level
                # by 2r but can save at most r vertices. Below -max degree
                # the level no longer matters: every dominating set
                # qualifies, as at -max degree itself.
                if gamma.found:
                    w = _min_dominating_subset(g, res.witness, gamma.witness)
                    shrink_pool.append((k, res.witness, w))
                    for r in range(1, res.value - len(w) + 1):
                        lowered = cells[PARAM_GAMMA_K_A, max(k - 2 * r, ks[0])][0].value
                        if lowered is None or lowered + r > res.value:
                            flag(
                                f"{gid} k={k} r={r}: shrink inequality fails "
                                f"(gamma_k_a(k-2r)={lowered})"
                            )
            if (target, k) in drawn:
                fresh = solve(g, target, k)
                have = res.status, res.value, res.witness_members()
                want = fresh.status, fresh.value, fresh.witness_members()
                if have != want:
                    flag(
                        f"{gid} {_cell_name(target, k)}: reused from {source} as {have}, "
                        f"a fresh solve gives {want}"
                    )
            entries.append(entry)
        records.append(CertificationRecord(gid, gs.family, g.n, g.m, k, entries))

    # Executable constructions.
    extras: list[str] = []
    counts.update(upper_witness=0, cubic_augment=0)
    for k in ks:
        if k >= d_min:
            break
        counts["upper_witness"] += 1
        try:
            witness = construct_upper_witness(g, k)
        except ConstructionInvariantError as exc:
            extras.append(f"{gid} k={k}: upper witness construction failed: {exc}")
            continue
        expected = bounds_mod.upper_min_degree(g.n, d_min, k, g.max_degree).value
        if len(witness) != expected:
            extras.append(
                f"{gid} k={k}: upper witness has size {len(witness)}, expected {expected}"
            )
    if is_cubic(g) and gamma.found:
        # The construction itself raises past 2 * gamma.
        counts["cubic_augment"] += 1
        try:
            cubic_augment_dominating(g, gamma.witness)
        except ConstructionInvariantError as exc:
            extras.append(f"{gid}: cubic augmentation failed: {exc}")

    return _GraphOutcome(g, gid, cells, records, extras, shrink_pool, counts)


# ---------------------------------------------------------------------------
# Corpus-wide sampled checks
# ---------------------------------------------------------------------------

def _forest_identity_check(outcomes: list[_GraphOutcome], samples: int, rng) -> list[str]:
    """On trees, the induced edge count satisfies
    sum over S of inside-degrees = 2(|S| - components)."""
    trees = [o.graph for o in outcomes if is_tree(o.graph)]
    if not trees:
        return []
    problems = []
    for i in range(samples):
        g = trees[rng.randrange(len(trees))]
        mask = rng.randrange(1, 1 << g.n)
        size = mask.bit_count()
        inside_sum = sum(
            (a & mask).bit_count() for v, a in enumerate(g.adjacency) if mask >> v & 1
        )
        c = connected_components_of(g, mask)
        if inside_sum != 2 * (size - c):
            problems.append(
                f"forest identity sample {i}: sum={inside_sum}, |S|={size}, c={c}"
            )
    return problems


def _shrink_sample_check(outcomes: list[_GraphOutcome], samples: int, rng) -> list[str]:
    """Draw ``samples`` (pool entry, r) pairs. ``shrink_to_lower_k`` is pure,
    so each distinct draw is built and certified once and its verdict is
    reported for every draw of it."""
    pool = [
        (o.graph, o.graph_id, k, s, w)
        for o in outcomes
        for (k, s, w) in o.shrink_pool
    ]
    if not pool:
        return []
    verdicts: dict[tuple[int, int], str | None] = {}
    problems = []
    for i in range(samples):
        index = rng.randrange(len(pool))
        g, gid, k, s, w = pool[index]
        r = rng.randint(0, len(s) - len(w))
        key = index, r
        if key not in verdicts:
            try:
                size = len(shrink_to_lower_k(g, s, k, w, r))
            except ConstructionInvariantError as exc:
                verdicts[key] = str(exc)
            else:
                expected = len(s) - r
                verdicts[key] = None if size == expected else f"size {size}, expected {expected}"
        verdict = verdicts[key]
        if verdict is not None:
            problems.append(f"shrink sample {i} on {gid} k={k} r={r}: {verdict}")
    return problems


def run_corpus(spec: CorpusSpec) -> CorpusResult:
    """Certify every corpus row; deterministic given the spec's seeds."""
    outcomes = [_certify_graph(gs) for gs in spec.graphs]

    records: list[CertificationRecord] = []
    extras: list[str] = []
    checks: dict[str, int] = {"upper_witness": 0, "cubic_augment": 0}
    for outcome in outcomes:
        records.extend(outcome.records)
        extras.extend(outcome.extras)
        for name, count in outcome.counts.items():
            checks[name] = checks.get(name, 0) + count

    rng = random.Random(_SAMPLE_SEED)
    has_trees = any(is_tree(o.graph) for o in outcomes)
    checks["forest_identity"] = FOREST_IDENTITY_SAMPLES if has_trees else 0
    extras.extend(_forest_identity_check(outcomes, FOREST_IDENTITY_SAMPLES, rng))
    has_pool = any(o.shrink_pool for o in outcomes)
    checks["shrink_samples"] = SHRINK_SAMPLES if has_pool else 0
    extras.extend(_shrink_sample_check(outcomes, SHRINK_SAMPLES, rng))
    return CorpusResult(records, extras, checks)


# ---------------------------------------------------------------------------
# Default corpus
# ---------------------------------------------------------------------------

def _connected_spec(family: str, seed: int, **params) -> GraphSpec:
    """The first seed from ``seed`` on whose graph is connected; a seed
    ``random_cubic`` cannot draw a graph for is skipped."""
    for seed in count(seed):
        spec = GraphSpec.of(family, seed=seed, **params)
        try:
            g = spec.build()
        except ValueError:
            continue
        if is_connected(g):
            return spec


def default_corpus_spec() -> CorpusSpec:
    """Named graphs, 50 random trees (n <= 12), 30 random connected cubic
    graphs (n <= 14), and 50 random connected graphs (n <= 11)."""
    named = [GraphSpec.of("complete", n=n) for n in range(2, 9)]
    named += [
        GraphSpec.of("complete_bipartite", a=2, b=2),
        GraphSpec.of("complete_bipartite", a=2, b=3),
        GraphSpec.of("complete_bipartite", a=3, b=3),
        GraphSpec.of("star", n=5),
        GraphSpec.of("star", n=7),
        GraphSpec.of("path", n=6),
        GraphSpec.of("path", n=9),
        GraphSpec.of("cycle", n=5),
        GraphSpec.of("cycle", n=6),
        GraphSpec.of("hypercube", d=2),
        GraphSpec.of("hypercube", d=3),
        GraphSpec.of("petersen"),
    ]
    trees = [GraphSpec.of("random_tree", n=3 + i % 10, seed=i) for i in range(50)]
    cubic_sizes = (6, 8, 10, 12, 14)
    cubics = [
        _connected_spec("random_cubic", 100 * i, n=cubic_sizes[i % len(cubic_sizes)])
        for i in range(30)
    ]
    randoms = [
        _connected_spec("random_graph", 10000 + 100 * i, n=4 + i % 8, p=(0.3, 0.5)[i % 2])
        for i in range(50)
    ]
    return CorpusSpec(graphs=tuple(named + trees + cubics + randoms))


def load_corpus_spec(text: str) -> CorpusSpec:
    return CorpusSpec.from_json_dict(json.loads(text))
