"""Evaluable lower/upper bounds on alliance numbers, with applicability
tracking, plus the complete-graph closed form and the degree-parity
normalizer.

``_BOUNDS`` is the catalogue: each bound's kind, the parameter it is stated
for and its anchor. ``_report`` builds every report, relabelled ones too,
from that table, and alone clamps lower bounds: each real-valued one is
reported as a ceiling clamped to >= 1 (alliance numbers are integers and
alliances are nonempty); upper bounds are exact integer expressions. Bounds
whose hypotheses a graph does not meet are reported without a value (not
``applicable``) and with a reason, never raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .alliances import (
    PARAM_A_K,
    PARAM_GAMMA,
    PARAM_GAMMA_K_A,
    PARAM_GAMMA_K_CA,
    VertexSet,
    lookup_parameter,
    upper_witness_drops,
)
from .graphs import (
    Graph,
    connected_components_of,
    diameter,
    induced_subgraph,
    is_connected,
    is_cubic,
    is_tree,
    is_triangle_free,
)
from .solver import ResourceLimitError, solve

KIND_LOWER = "lower"
KIND_UPPER = "upper"


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: its value when applicable, or the reason it is not."""

    name: str
    anchor: str
    kind: str
    target: str
    k: int
    value: int | None
    reason: str | None = None

    @property
    def applicable(self) -> bool:
        return self.value is not None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "kind": self.kind,
            "target": self.target,
            "k": self.k,
            "value": self.value,
            "applicable": self.applicable,
            "reason": self.reason,
        }


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# The catalogue: each bound's kind, the parameter it is stated for, its anchor
# ---------------------------------------------------------------------------

_PLANAR = (KIND_LOWER, PARAM_GAMMA_K_A, "planar: |S| >= (n + 12) / (7 - k)")

_BOUNDS = {
    "lower_sqrt": (KIND_LOWER, PARAM_GAMMA_K_A, "size >= (sqrt(4n + k^2) + k) / 2"),
    "upper_min_degree": (KIND_UPPER, PARAM_GAMMA_K_A, "size <= n - floor((min_deg - k) / 2)"),
    "lower_maxdeg": (KIND_LOWER, PARAM_GAMMA_K_A, "size >= n / (floor((max_deg - k) / 2) + 1)"),
    "line_graph_lower": (
        KIND_LOWER, PARAM_GAMMA_K_A, "line-graph size >= m / (floor((d1 + d2 - 2 - k) / 2) + 1)"),
    "cubic_upper_2gamma": (
        KIND_UPPER, PARAM_GAMMA_K_A, "cubic: size at k=-1 <= 2 * domination number"),
    "planar_subgraph_lower": _PLANAR,
    "planar_graph_lower": _PLANAR,
    "faces_lower": (
        KIND_LOWER, PARAM_GAMMA_K_A,
        "planar connected <S> with f faces: |S| >= (n - 2f + 4) / (3 - k)"),
    "tree_lower": (
        KIND_LOWER, PARAM_GAMMA_K_A, "tree, <S> with c components: |S| >= (n + 2c) / (3 - k)"),
    "connected_lower_i": (
        KIND_LOWER, PARAM_GAMMA_K_CA, "size >= (sqrt(4(diam + n - 1) + (1 - k)^2) + k - 1) / 2"),
    "connected_lower_ii": (
        KIND_LOWER, PARAM_GAMMA_K_CA, "size >= (n + diam - 1) / (floor((max_deg - k) / 2) + 2)"),
    "line_graph_connected_lower_i": (
        KIND_LOWER, PARAM_GAMMA_K_CA,
        "line-graph size >= (sqrt(4(diam + m - 2) + (1 - k)^2) - (1 - k)) / 2"),
    "line_graph_connected_lower_ii": (
        KIND_LOWER, PARAM_GAMMA_K_CA, "line-graph size >= 2(m + diam - 2) / (d1 + d2 - k + 1)"),
}


def _report(
    name: str, k: int, value: int | None = None, reason: str | None = None,
    anchor: str | None = None, target: str | None = None,
) -> BoundReport:
    """The report of bound ``name`` at k: its kind, and unless given its
    anchor and target, from ``_BOUNDS``. A lower bound's value is clamped
    to >= 1; without a value the report abstains for ``reason``."""
    kind, stated, stated_anchor = _BOUNDS[name]
    if value is not None and kind == KIND_LOWER:
        value = max(1, value)
    return BoundReport(name, anchor or stated_anchor, kind, target or stated, k, value, reason)


def _ratio(
    name: str, k: int, numerator: int, denominator: int, anchor: str | None = None
) -> BoundReport:
    """The ceiling of numerator / denominator, or an abstention when the
    denominator is not positive."""
    if denominator < 1:
        return _report(name, k, reason=f"nonpositive denominator for k={k}", anchor=anchor)
    return _report(name, k, _ceil_div(numerator, denominator), anchor=anchor)


def _root(name: str, k: int, disc: int, offset: int) -> BoundReport:
    """The least integer x >= (sqrt(disc) + offset) / 2, or an abstention
    when disc is negative. The test is 2x - offset >= sqrt(disc) with both
    sides nonnegative, so floats never enter the comparison."""
    if disc < 0:
        return _report(name, k, reason=f"negative discriminant {disc} for k={k}")
    x = (math.isqrt(disc) + offset) // 2
    while 2 * x - offset < 0 or (2 * x - offset) ** 2 < disc:
        x += 1
    return _report(name, k, x)


# ---------------------------------------------------------------------------
# Individual bounds
# ---------------------------------------------------------------------------

def lower_sqrt(n: int, k: int) -> BoundReport:
    """size >= (sqrt(4n + k^2) + k) / 2 for any global defensive k-alliance."""
    return _root("lower_sqrt", k, 4 * n + k * k, k)


def upper_min_degree(n: int, d_min: int, k: int, d_max: int) -> BoundReport:
    """size <= n - floor((min_degree - k) / 2).

    ``construct_upper_witness`` builds a global alliance of that size, so
    the bound holds exactly on the construction's domain,
    ``upper_witness_drops``; where that raises, the report abstains with
    its message.
    """
    try:
        drops = upper_witness_drops(d_min, d_max, k)
    except ValueError as exc:
        return _report("upper_min_degree", k, reason=str(exc))
    return _report("upper_min_degree", k, n - drops)


def lower_maxdeg(n: int, d_max: int, k: int) -> BoundReport:
    """size >= n / (floor((max_degree - k) / 2) + 1)."""
    if k > d_max:
        return _report("lower_maxdeg", k, reason=f"k={k} exceeds maximum degree {d_max}")
    return _report("lower_maxdeg", k, _ceil_div(n, (d_max - k) // 2 + 1))


def line_graph_lower(m: int, d1: int, d2: int, k: int) -> BoundReport:
    """Bound on the line graph's global defensive k-alliance number from the
    base graph's size and two largest degrees."""
    if m < 1:
        raise ValueError("line graph bound needs m >= 1")
    if d1 + d2 - 2 - k < 0:
        return _report("line_graph_lower", k, reason=f"k={k} exceeds d1 + d2 - 2 = {d1 + d2 - 2}")
    return _report("line_graph_lower", k, _ceil_div(m, (d1 + d2 - 2 - k) // 2 + 1))


def cubic_upper_2gamma(g: Graph, gamma: int | None = None) -> BoundReport:
    """For 3-regular graphs: minimum global defensive (-1)-alliance is at
    most twice the domination number. Pass ``gamma`` when it is known;
    otherwise it is solved for, and the report abstains when that solve is
    past the size cap."""
    if not is_cubic(g):
        return _report("cubic_upper_2gamma", -1, reason="not cubic")
    if gamma is None:
        try:
            gamma = solve(g, PARAM_GAMMA).value
        except ResourceLimitError as exc:
            return _report("cubic_upper_2gamma", -1, reason=str(exc))
    return _report("cubic_upper_2gamma", -1, 2 * gamma)


def _planar_body(name: str, n: int, k: int, triangle_free: bool) -> BoundReport:
    if n <= 2 * (2 - k):
        return _report(name, k, reason=f"order {n} does not exceed 2(2 - k) = {2 * (2 - k)}")
    if triangle_free and k <= 4:
        return _ratio(name, k, n + 8, 5 - k, "planar triangle-free: |S| >= (n + 8) / (5 - k)")
    return _ratio(name, k, n + 12, 7 - k)


def planar_subgraph_lower(n: int, k: int, triangle_free_s: bool) -> BoundReport:
    """Size bound for a global defensive k-alliance inducing a planar
    subgraph (planarity is the caller's assertion); n is the whole graph's
    order."""
    return _planar_body("planar_subgraph_lower", n, k, triangle_free_s)


def planar_graph_lower(n: int, k: int, triangle_free: bool) -> BoundReport:
    """Whole-graph planar variant of the same size bound."""
    return _planar_body("planar_graph_lower", n, k, triangle_free)


def faces_lower(n: int, f: int, k: int) -> BoundReport:
    """|S| >= (n - 2f + 4) / (3 - k) when the induced subgraph is planar and
    connected with f faces."""
    return _ratio("faces_lower", k, n - 2 * f + 4, 3 - k)


def induced_face_count(g: Graph, members) -> int:
    """Face count of the induced subgraph under the caller's planarity
    assertion, derived from the edge/vertex balance of a connected planar
    graph. Raises if the induced subgraph is disconnected."""
    sub = induced_subgraph(g, members)
    if not is_connected(sub):
        raise ValueError("face count needs a connected induced subgraph")
    return sub.m - sub.n + 2


def tree_lower(n: int, c: int, k: int) -> BoundReport:
    """For trees: |S| >= (n + 2c) / (3 - k), c = components induced by S
    (c = 1 gives the plain tree bound)."""
    if c < 1:
        raise ValueError("component count must be at least 1")
    return _ratio("tree_lower", k, n + 2 * c, 3 - k)


def connected_lower_i(n: int, d: int, k: int) -> BoundReport:
    """Connected alliances: size >= (sqrt(4(diam + n - 1) + (1-k)^2) + k - 1) / 2."""
    return _root("connected_lower_i", k, 4 * (d + n - 1) + (1 - k) ** 2, k - 1)


def connected_lower_ii(n: int, d: int, d_max: int, k: int) -> BoundReport:
    """Connected alliances: size >= (n + diam - 1) / (floor((max_deg - k)/2) + 2)."""
    return _ratio("connected_lower_ii", k, n + d - 1, (d_max - k) // 2 + 2)


def line_graph_connected_lower(
    m: int, d: int, d1: int, d2: int, k: int
) -> tuple[BoundReport, BoundReport]:
    """Connected-alliance bounds for the line graph from base-graph data.
    The first abstains when its discriminant is negative, as on the line
    graph of one edge (m = 1, diameter 0) at k = 0, 1, 2."""
    if m < 1:
        raise ValueError("line graph bounds need m >= 1")
    first = _root("line_graph_connected_lower_i", k, 4 * (d + m - 2) + (1 - k) ** 2, k - 1)
    second = _ratio("line_graph_connected_lower_ii", k, 2 * (m + d - 2), d1 + d2 - k + 1)
    return first, second


def kn_closed_form(n: int, k: int) -> int:
    """Exact minimum global defensive k-alliance size of the complete graph:
    ceil((n + k + 1) / 2)."""
    if not (1 - n <= k <= n - 1):
        raise ValueError(f"k={k} outside the complete graph's range [{1 - n}, {n - 1}]")
    return (n + k + 2) // 2


def parity_collapse(g: Graph, k: int) -> int:
    """Normalize k using degree parity: with all degrees even an odd k acts
    like k+1, and with all degrees odd an even k acts like k+1."""
    parities = {d % 2 for d in g.degrees}
    if parities == {0} and k % 2 != 0:
        return k + 1
    if parities == {1} and k % 2 == 0:
        return k + 1
    return k


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _relabel(reports: list[BoundReport], target: str) -> list[BoundReport]:
    """``reports`` under ``target``: a bound on gamma_k_a holds for
    gamma_k_ca too."""
    return [
        r if r.target == target else _report(r.name, r.k, r.value, r.reason, r.anchor, target)
        for r in reports
    ]


def _check_target(target: str):
    if not lookup_parameter(target).defensive:
        raise ValueError(f"bounds are catalogued for the k parameters only, not {target!r}")


def lower_reports(g: Graph, k: int, target: str) -> list[BoundReport]:
    """The lower bounds for one target. ``lower_sqrt``, ``lower_maxdeg`` and
    the planar bound always come back, the last two marked not applicable
    where their hypotheses fail; ``tree_lower`` comes back only on a tree,
    and the two connected bounds only on a connected graph.

    Bounds stated for the global parameter also hold for its connected
    variant, so the connected target inherits them. The plain defensive
    parameter has no catalogued bounds (they all assume domination).
    """
    _check_target(target)
    if target == PARAM_A_K:
        return []
    reports = [lower_sqrt(g.n, k), lower_maxdeg(g.n, g.max_degree, k)]
    if g.asserted_planar:
        reports.append(planar_graph_lower(g.n, k, is_triangle_free(g)))
    else:
        reports.append(_report("planar_graph_lower", k, reason="graph not asserted planar"))
    if is_tree(g):
        reports.append(tree_lower(g.n, 1, k))
    if target == PARAM_GAMMA_K_CA:
        if is_connected(g):
            d = diameter(g)
            reports.append(connected_lower_i(g.n, d, k))
            reports.append(connected_lower_ii(g.n, d, g.max_degree, k))
        return _relabel(reports, PARAM_GAMMA_K_CA)
    return reports


def upper_reports(
    g: Graph, k: int, target: str, gamma: int | None = None
) -> list[BoundReport]:
    """Upper bounds for one target (only the global parameter has any);
    ``gamma``, when known, is handed to ``cubic_upper_2gamma``."""
    _check_target(target)
    if target != PARAM_GAMMA_K_A:
        return []
    reports = [upper_min_degree(g.n, g.min_degree, k, g.max_degree)]
    if k == -1 and is_cubic(g):
        reports.append(cubic_upper_2gamma(g, gamma))
    return reports


def evaluate_all(
    g: Graph, k: int, target: str, gamma: int | None = None, members: VertexSet | None = None
) -> list[BoundReport]:
    """``lower_reports`` then ``upper_reports`` for (g, k, target). Some
    bounds come back marked not applicable; others are left out when g fails
    their hypotheses (see ``lower_reports``; ``cubic_upper_2gamma`` only at
    k = -1 on a cubic graph).

    ``members``, a nonempty set S of g, appends S's own bounds after those:
    ``tree_lower`` with the components of G[S] on a tree, and on an
    asserted-planar graph ``planar_subgraph_lower`` on G[S], then
    ``faces_lower`` when G[S] is connected. They follow ``lower_reports``'
    target rule: none for ``a_k``; ``gamma_k_ca`` inherits them.
    """
    reports = lower_reports(g, k, target) + upper_reports(g, k, target, gamma)
    if members is None or target == PARAM_A_K:
        return reports
    if members.graph != g:
        raise ValueError("vertex set is tagged to a different graph")
    if not members:
        raise ValueError("alliances are nonempty")
    components = connected_components_of(g, members.bits)
    own = [tree_lower(g.n, components, k)] if is_tree(g) else []
    if g.asserted_planar:
        own.append(planar_subgraph_lower(g.n, k, is_triangle_free(induced_subgraph(g, members))))
        if components == 1:
            own.append(faces_lower(g.n, induced_face_count(g, members), k))
    return reports + _relabel(own, target)


def best_lower(reports: list[BoundReport]) -> int | None:
    values = [r.value for r in reports if r.applicable and r.kind == KIND_LOWER]
    return max(values) if values else None


def best_upper(reports: list[BoundReport]) -> int | None:
    values = [r.value for r in reports if r.applicable and r.kind == KIND_UPPER]
    return min(values) if values else None
