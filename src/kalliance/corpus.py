"""Corpus certification: solve every (graph, k, target) cell of a declared
corpus, evaluate every applicable bound, and cross-check the whole web of
identities the solver and bound catalog are supposed to satisfy.

Results are deterministic functions of the corpus spec (all randomness is
seeded), so the CSV artifact is byte-identical across runs. The record
dataclasses define the report: the JSON record and entry keys are their
fields, in order, and the CSV writes each None as an empty cell.
"""

from __future__ import annotations

import json
import random
import time
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
    is_tree,
)
from .solver import (
    STATUS_NONE,
    ResourceLimitError,
    SearchStats,
    SolveResult,
    cells as cell_order,
    k_range,
    problem,
    requirements,
    solve,
    solve_from,
)

FOREST_IDENTITY_SAMPLES = 1000
REUSE_SAMPLES = 1  # reused cells per graph solved afresh
STATUS_RESOURCE = "resource_error"
_SAMPLE_SEED = 94121
# The counters of ``CorpusResult.checks_run``, in report order: the sets built
# on their cells, the cells reused by path, the reused cells solved afresh, and
# the corpus-wide forest-identity samples. Every spec reports each of them.
CHECKS = (
    "upper_witness", "cubic_augment", "shrink",
    "reuse_none", "reuse_shortcut", "reuse_floor", "reuse_resolved", "forest_identity",
)


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
    domination rows. The fields are the report's columns and JSON keys."""

    graph: str
    family: str
    n: int
    m: int
    k: int | None
    entries: list[RowEntry]
    graph_id = property(lambda self: self.graph)  # former name, read by perfbench/spans.py


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
        lines = ["graph,family,n,m,k,target,status,value,best_lower,best_upper,violations"]
        for r in self.records:
            for e in r.entries:
                row = (r.graph, r.family, r.n, r.m, r.k, e.target, e.status,
                       e.value, e.best_lower, e.best_upper, len(e.violations))
                lines.append(",".join(["" if v is None else str(v) for v in row]))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        """The report: each record and entry as its fields, in field order."""
        return {
            "records": [
                {**vars(r), "entries": [{**vars(e)} for e in r.entries]} for r in self.records
            ],
            "extra_violations": self.extra_violations,
            "checks_run": self.checks_run,
            "total_violations": self.total_violations(),
        }


# ---------------------------------------------------------------------------
# Per-graph certification
# ---------------------------------------------------------------------------

def _min_dominating_subset(g: Graph, s: VertexSet, gamma_witness: VertexSet) -> VertexSet:
    """Smallest W inside s that dominates the whole graph (s, a certified
    global alliance, does); the first in ``combinations`` order of s's
    members.

    A vertex that exactly one member of s dominates forces that member
    into every dominating subset of s (Ore's private neighbours); call the
    forced members F. A member whose closed neighbourhood F already covers
    is redundant beside F, so it is in no minimum W. So the scan runs over
    the combinations of the other members, each with F added, by size from
    the larger of |F| and the size of gamma's certified witness (no
    dominating set is smaller). It finds the same W as a scan over all of s:
    of two sets of one size, ``combinations`` puts A before B exactly when
    min(A Δ B) lies in A, and taking F out of both leaves A Δ B as it is.
    """
    if len(s) == g.n:
        return gamma_witness
    full = (1 << g.n) - 1
    members = s.members
    closed = [(1 << v) | g.adjacency[v] for v in members]
    once = twice = 0
    for cover in closed:
        twice |= once & cover
        once |= cover
    private = once & ~twice
    forced, covered = [], 0
    for v, cover in zip(members, closed):
        if cover & private:
            forced.append(v)
            covered |= cover
    if covered == full:
        return VertexSet.from_vertices(g, forced)
    free = [(v, cover) for v, cover in zip(members, closed) if cover & ~covered]
    for extra in range(max(len(gamma_witness) - len(forced), 1), len(free) + 1):
        for combo in combinations(free, extra):
            cover = covered
            for _, c in combo:
                cover |= c
            if cover == full:
                return VertexSet.from_vertices(g, forced + [v for v, _ in combo])
    raise AssertionError("a global alliance always contains a dominating subset")


@dataclass
class _GraphOutcome:
    graph: Graph
    cells: dict[tuple[str, int | None], tuple[SolveResult, str | None]]  # (result, source)
    records: list[CertificationRecord]
    counts: dict[str, int]  # keyed by ``CHECKS``


def _cell_name(target: str, k: int | None) -> str:
    return target if k is None else f"{target} k={k}"


def _reuse_relaxations(
    g: Graph, target: str, k: int | None, posed, relaxations: list[tuple[str, SolveResult]],
) -> tuple[SolveResult, str | None, str]:
    """Solve one cell from its relaxations ``(name, result)``: cells solved
    earlier whose feasible sets include every feasible set of this cell.
    Return the result, the name of the relaxation it reused, and how.

    A relaxation P' (``_certify_graph`` takes the same target at k - 1, a
    lower ``req`` per vertex, and the next weaker target, a demand dropped)
    admits every feasible set of the cell. So a relaxation without a
    solution leaves none for the cell, and otherwise the cell's value is at
    least the largest relaxed value s'. A lex-least witness W' of value s'
    that meets the cell's demands is then the cell's exact value and
    lex-least witness (a shortcut): every feasible set of size s' is
    P'-feasible, so none comes before W' in the lex order. Failing that,
    ``solver.solve_from`` searches from the floor s', by the engine choice
    ``solve`` makes.
    """
    for name, res in relaxations:
        if res.status == STATUS_NONE:
            none = SolveResult(target, k, STATUS_NONE, None, None, SearchStats(0, 0, 0.0))
            return none, name, "none"
    if not relaxations:
        return solve(g, target, k), None, "fresh"
    start = time.perf_counter()
    floor = max(res.value for _, res in relaxations)
    tops = [(name, res) for name, res in relaxations if res.value == floor]
    demands = PARAMETERS[target].demands
    for name, res in tops:
        if meets(g, res.witness.bits, k or 0, demands):
            stats = SearchStats(0, 0, time.perf_counter() - start)
            return replace(res, parameter=target, k=k, stats=stats), name, "shortcut"
    return solve_from(g, target, k, posed, floor, start), tops[0][0], "floor"


def _certify_graph(gs: GraphSpec) -> _GraphOutcome:
    g = gs.build()
    gid = f"{gs.label()}-{g.content_hash()}"
    ks = k_range(g)
    order = cell_order(g)

    # Cells that pose the same problem (gamma is gamma_k_a at k = -max
    # degree, and on a cubic graph gamma_t is gamma_k_a at k = -2 and -1)
    # are solved once; a copy is relabelled with each cell's name and, as it
    # ran no search, reports no work.
    # A new problem starts from its relaxations solved before it: the same
    # target at k - 1 (lower requirements) and the next weaker target.
    weaker = {
        PARAM_GAMMA_K_A: PARAM_A_K, PARAM_GAMMA_K_CA: PARAM_GAMMA_K_A, PARAM_GAMMA_T: PARAM_GAMMA,
    }
    solved: dict[tuple, tuple[SolveResult, str | None]] = {}
    cells: dict[tuple[str, int | None], tuple[SolveResult, str | None]] = {}
    reused: list[tuple[str, int | None]] = []
    counts = dict.fromkeys(CHECKS, 0)
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
                hit = replace(hit[0], parameter=t, k=k, stats=SearchStats(0, 0, 0.0)), hit[1]
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
    # Each witness is re-certified once, with ``alliances.meets`` and its
    # row's demands, which share no code with the search. A shortcut's witness
    # was accepted by the very call that chose it; sparing those 1,172 calls
    # (a few ms) would need a second path.
    certified = {
        (t, k): res.found and meets(g, res.witness.bits, k or 0, PARAMETERS[t].demands)
        for (t, k), (res, _) in cells.items()
    }
    connected = is_connected(g)
    diam = diameter(g) if connected else None

    # Reuse makes the relaxation order hold by construction: a cell is never
    # below a relaxation, and none has a solution where a relaxation has
    # none. So instead of comparing cells, a seeded draw of reused cells,
    # fixed per graph, is solved afresh and must agree in full.
    rng = random.Random(f"{_SAMPLE_SEED}:{gid}")
    drawn = set(rng.sample(reused, min(REUSE_SAMPLES, len(reused))))
    counts["reuse_resolved"] = len(drawn)

    # Every catalogue upper bound is constructive, so each applicable upper
    # report is checked by building its set: bound name -> (its checks_run
    # count, whether its input passed re-certification, its construction at
    # k). A bound missing here is a KeyError. The cubic build extends gamma's
    # witness, so, as in the shrink loop, it waits on that witness; gamma's
    # own row flags a witness that failed.
    builders = {
        "upper_min_degree": ("upper_witness", True, lambda k: construct_upper_witness(g, k)),
        "cubic_upper_2gamma": (
            "cubic_augment", certified[PARAM_GAMMA, None],
            lambda k: cubic_augment_dominating(g, gamma.witness),
        ),
    }

    # Every cell is checked where its entry is built, in pass order, one
    # record per k and one for the domination rows (k = None).
    records: list[CertificationRecord] = []
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
            if res.found and not certified[target, k]:
                flag(f"{where}: witness failed re-certification")
            # Each applicable upper bound is built (``builders``), so it also
            # proves an alliance exists. On a regular graph it meets
            # lower_maxdeg at n for the top two k. At k = max degree
            # lower_maxdeg is n, and V re-certifies there only on a regular
            # graph, so those two checks decide the top k.
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
                    check, ready, build = builders[report.name]
                    if not ready:
                        continue
                    counts[check] += 1
                    try:
                        size = len(build(k))
                    except ConstructionInvariantError as exc:
                        flag(f"{where}: {report.name} construction failed: {exc}")
                        continue
                    if size > report.value:
                        flag(f"{where}: {report.name}={report.value} construction built {size}")
            if target == PARAM_A_K and res.found:
                # A member's neighbours in S lie in its own component of
                # G[S], so each component of a defensive k-alliance is one
                # too: a minimum one is connected.
                parts = connected_components_of(g, res.witness.bits)
                if parts > 1:
                    flag(f"{where}: witness induces {parts} components; a minimum one is connected")
            if target == PARAM_GAMMA_T and res.found and connected and g.n >= 3:
                if res.value > (2 * g.n) // 3:
                    flag(f"{gid}: gamma_t {res.value} exceeds floor(2n/3) = {(2 * g.n) // 3}")
            if target == PARAM_GAMMA_K_CA and res.found and connected:
                if diam > res.value + 1:
                    flag(f"{gid} k={k}: diameter {diam} exceeds |S| + 1 = {res.value + 1}")
            if parity_differs and not entries:
                flag(f"{gid}: parity-equivalent k={k} and k={collapsed} pose different problems")
            if target == PARAM_GAMMA_K_A and certified[target, k] and certified[PARAM_GAMMA, None]:
                # The shrink trade: dropping r vertices of S outside its
                # least dominating core W lowers the level by at most 2r, so
                # gamma_k_a(k - 2r) <= |S| - r. Each r is built
                # (``shrink_to_lower_k`` re-certifies its set at k - 2r) and
                # the solved value is held to the size the trade promises.
                # r = 0 returns S itself, already certified. Below -max
                # degree the level no longer matters: every dominating set
                # qualifies, as at -max degree itself. Both witnesses must
                # have passed re-certification, as the build requires.
                s = res.witness
                w = _min_dominating_subset(g, s, gamma.witness)
                for r in range(1, len(s) - len(w) + 1):
                    at = f"{gid} k={k} r={r}"
                    counts["shrink"] += 1
                    try:
                        size = len(shrink_to_lower_k(g, s, k, w, r))
                    except ConstructionInvariantError as exc:
                        flag(f"{at}: shrink construction failed: {exc}")
                    else:
                        if size != len(s) - r:
                            flag(f"{at}: shrink construction built {size}, not {len(s) - r}")
                    lowered = cells[PARAM_GAMMA_K_A, max(k - 2 * r, ks[0])][0].value
                    if lowered is None or lowered > len(s) - r:
                        flag(f"{at}: shrink inequality fails (gamma_k_a(k-2r)={lowered})")
            if (target, k) in drawn:
                fresh = solve(g, target, k)
                if res.answer != fresh.answer:
                    flag(
                        f"{gid} {_cell_name(target, k)}: reused from {source} as {res.answer}, "
                        f"a fresh solve gives {fresh.answer}"
                    )
            entries.append(entry)
        records.append(CertificationRecord(gid, gs.family, g.n, g.m, k, entries))

    return _GraphOutcome(g, cells, records, counts)


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


def run_corpus(spec: CorpusSpec) -> CorpusResult:
    """Certify every corpus row; deterministic given the spec's seeds."""
    outcomes = [_certify_graph(gs) for gs in spec.graphs]

    records: list[CertificationRecord] = []
    checks = dict.fromkeys(CHECKS, 0)
    for outcome in outcomes:
        records.extend(outcome.records)
        for name, count in outcome.counts.items():
            checks[name] += count

    has_trees = any(is_tree(o.graph) for o in outcomes)
    checks["forest_identity"] = FOREST_IDENTITY_SAMPLES if has_trees else 0
    rng = random.Random(_SAMPLE_SEED)
    extras = _forest_identity_check(outcomes, FOREST_IDENTITY_SAMPLES, rng)
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
