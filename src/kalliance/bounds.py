"""Evaluable lower/upper bounds on alliance numbers, with applicability
tracking, plus the complete-graph closed form and the degree-parity
normalizer.

Every real-valued lower bound is reported as a ceiling clamped to >= 1
(alliance numbers are integers and alliances are nonempty); upper bounds are
exact integer expressions. Bounds whose hypotheses a graph does not meet are
reported without a value (not ``applicable``) and with a reason, never raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .alliances import (
    PARAM_A_K,
    PARAM_GAMMA,
    PARAM_GAMMA_K_A,
    PARAM_GAMMA_K_CA,
    lookup_parameter,
)
from .graphs import (
    Graph,
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


def _ceil_half_sqrt_plus(disc: int, offset: int) -> int:
    """Smallest integer x with x >= (sqrt(disc) + offset) / 2, computed exactly.

    Equivalent to 2x - offset >= sqrt(disc) with both sides nonnegative, so
    floats never enter the comparison.
    """
    if disc < 0:
        raise ValueError("negative discriminant")
    x = (math.isqrt(disc) + offset) // 2
    while 2 * x - offset < 0 or (2 * x - offset) ** 2 < disc:
        x += 1
    return x


def _na(name: str, anchor: str, kind: str, target: str, k: int, reason: str) -> BoundReport:
    return BoundReport(name, anchor, kind, target, k, None, reason)


# ---------------------------------------------------------------------------
# Individual bounds
# ---------------------------------------------------------------------------

def lower_sqrt(n: int, k: int) -> BoundReport:
    """size >= (sqrt(4n + k^2) + k) / 2 for any global defensive k-alliance."""
    anchor = "size >= (sqrt(4n + k^2) + k) / 2"
    value = max(1, _ceil_half_sqrt_plus(4 * n + k * k, k))
    return BoundReport("lower_sqrt", anchor, KIND_LOWER, PARAM_GAMMA_K_A, k, value)


def upper_min_degree(n: int, d_min: int, k: int, d_max: int) -> BoundReport:
    """size <= n - floor((min_degree - k) / 2).

    Guaranteed for k <= min_degree (the whole vertex set qualifies), and only
    provable while the witness construction can remove floor((d_min - k) / 2)
    neighbors of one maximum-degree vertex; outside that range the formula
    can undershoot, so the report abstains.
    """
    anchor = "size <= n - floor((min_deg - k) / 2)"
    if k > d_min:
        return _na(
            "upper_min_degree", anchor, KIND_UPPER, PARAM_GAMMA_K_A, k,
            f"existence not established for k={k} above minimum degree {d_min}",
        )
    if (d_min - k) // 2 > d_max:
        return _na(
            "upper_min_degree", anchor, KIND_UPPER, PARAM_GAMMA_K_A, k,
            f"k={k} below the provable range: the witness construction would "
            f"remove {(d_min - k) // 2} neighbors but only {d_max} exist",
        )
    value = n - (d_min - k) // 2
    return BoundReport("upper_min_degree", anchor, KIND_UPPER, PARAM_GAMMA_K_A, k, value)


def lower_maxdeg(n: int, d_max: int, k: int) -> BoundReport:
    """size >= n / (floor((max_degree - k) / 2) + 1)."""
    anchor = "size >= n / (floor((max_deg - k) / 2) + 1)"
    if k > d_max:
        return _na(
            "lower_maxdeg", anchor, KIND_LOWER, PARAM_GAMMA_K_A, k,
            f"k={k} exceeds maximum degree {d_max}",
        )
    value = max(1, _ceil_div(n, (d_max - k) // 2 + 1))
    return BoundReport("lower_maxdeg", anchor, KIND_LOWER, PARAM_GAMMA_K_A, k, value)


def line_graph_lower(m: int, d1: int, d2: int, k: int) -> BoundReport:
    """Bound on the line graph's global defensive k-alliance number from the
    base graph's size and two largest degrees."""
    anchor = "line-graph size >= m / (floor((d1 + d2 - 2 - k) / 2) + 1)"
    if m < 1:
        raise ValueError("line graph bound needs m >= 1")
    if d1 + d2 - 2 - k < 0:
        return _na(
            "line_graph_lower", anchor, KIND_LOWER, PARAM_GAMMA_K_A, k,
            f"k={k} exceeds d1 + d2 - 2 = {d1 + d2 - 2}",
        )
    value = max(1, _ceil_div(m, (d1 + d2 - 2 - k) // 2 + 1))
    return BoundReport("line_graph_lower", anchor, KIND_LOWER, PARAM_GAMMA_K_A, k, value)


def cubic_upper_2gamma(g: Graph, gamma: int | None = None) -> BoundReport:
    """For 3-regular graphs: minimum global defensive (-1)-alliance is at
    most twice the domination number. Pass ``gamma`` when it is known;
    otherwise it is solved for, and the report abstains when that solve is
    past the size cap."""
    anchor = "cubic: size at k=-1 <= 2 * domination number"
    if not is_cubic(g):
        return _na("cubic_upper_2gamma", anchor, KIND_UPPER, PARAM_GAMMA_K_A, -1, "not cubic")
    if gamma is None:
        try:
            gamma = solve(g, PARAM_GAMMA).value
        except ResourceLimitError as exc:
            return _na("cubic_upper_2gamma", anchor, KIND_UPPER, PARAM_GAMMA_K_A, -1, str(exc))
    return BoundReport("cubic_upper_2gamma", anchor, KIND_UPPER, PARAM_GAMMA_K_A, -1, 2 * gamma)


def _planar_body(name: str, n: int, k: int, triangle_free: bool) -> BoundReport:
    if n <= 2 * (2 - k):
        return _na(
            name, "planar: |S| >= (n + 12) / (7 - k)", KIND_LOWER, PARAM_GAMMA_K_A, k,
            f"order {n} does not exceed 2(2 - k) = {2 * (2 - k)}",
        )
    if triangle_free and k <= 4:
        anchor = "planar triangle-free: |S| >= (n + 8) / (5 - k)"
        value = max(1, _ceil_div(n + 8, 5 - k))
        return BoundReport(name, anchor, KIND_LOWER, PARAM_GAMMA_K_A, k, value)
    if k <= 6:
        anchor = "planar: |S| >= (n + 12) / (7 - k)"
        value = max(1, _ceil_div(n + 12, 7 - k))
        return BoundReport(name, anchor, KIND_LOWER, PARAM_GAMMA_K_A, k, value)
    return _na(
        name, "planar: |S| >= (n + 12) / (7 - k)", KIND_LOWER, PARAM_GAMMA_K_A, k,
        f"nonpositive denominator for k={k}",
    )


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
    anchor = "planar connected <S> with f faces: |S| >= (n - 2f + 4) / (3 - k)"
    if k >= 3:
        return _na(
            "faces_lower", anchor, KIND_LOWER, PARAM_GAMMA_K_A, k,
            f"nonpositive denominator for k={k}",
        )
    value = max(1, _ceil_div(n - 2 * f + 4, 3 - k))
    return BoundReport("faces_lower", anchor, KIND_LOWER, PARAM_GAMMA_K_A, k, value)


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
    anchor = "tree, <S> with c components: |S| >= (n + 2c) / (3 - k)"
    if c < 1:
        raise ValueError("component count must be at least 1")
    if k >= 3:
        return _na(
            "tree_lower", anchor, KIND_LOWER, PARAM_GAMMA_K_A, k,
            f"nonpositive denominator for k={k}",
        )
    value = max(1, _ceil_div(n + 2 * c, 3 - k))
    return BoundReport("tree_lower", anchor, KIND_LOWER, PARAM_GAMMA_K_A, k, value)


def connected_lower_i(n: int, d: int, k: int) -> BoundReport:
    """Connected alliances: size >= (sqrt(4(diam + n - 1) + (1-k)^2) + k - 1) / 2."""
    anchor = "size >= (sqrt(4(diam + n - 1) + (1 - k)^2) + k - 1) / 2"
    disc = 4 * (d + n - 1) + (1 - k) ** 2
    value = max(1, _ceil_half_sqrt_plus(disc, k - 1))
    return BoundReport("connected_lower_i", anchor, KIND_LOWER, PARAM_GAMMA_K_CA, k, value)


def connected_lower_ii(n: int, d: int, d_max: int, k: int) -> BoundReport:
    """Connected alliances: size >= (n + diam - 1) / (floor((max_deg - k)/2) + 2)."""
    anchor = "size >= (n + diam - 1) / (floor((max_deg - k) / 2) + 2)"
    den = (d_max - k) // 2 + 2
    if den < 1:
        return _na(
            "connected_lower_ii", anchor, KIND_LOWER, PARAM_GAMMA_K_CA, k,
            f"nonpositive denominator for k={k}",
        )
    value = max(1, _ceil_div(n + d - 1, den))
    return BoundReport("connected_lower_ii", anchor, KIND_LOWER, PARAM_GAMMA_K_CA, k, value)


def line_graph_connected_lower(
    m: int, d: int, d1: int, d2: int, k: int
) -> tuple[BoundReport, BoundReport]:
    """Connected-alliance bounds for the line graph from base-graph data."""
    if m < 1:
        raise ValueError("line graph bounds need m >= 1")
    anchor_i = "line-graph size >= (sqrt(4(diam + m - 2) + (1 - k)^2) - (1 - k)) / 2"
    disc = 4 * (d + m - 2) + (1 - k) ** 2
    value_i = max(1, _ceil_half_sqrt_plus(disc, k - 1))
    first = BoundReport(
        "line_graph_connected_lower_i", anchor_i, KIND_LOWER, PARAM_GAMMA_K_CA, k, value_i
    )
    anchor_ii = "line-graph size >= 2(m + diam - 2) / (d1 + d2 - k + 1)"
    den = d1 + d2 - k + 1
    if den < 1:
        second = _na(
            "line_graph_connected_lower_ii", anchor_ii, KIND_LOWER, PARAM_GAMMA_K_CA, k,
            f"nonpositive denominator for k={k}",
        )
    else:
        value_ii = max(1, _ceil_div(2 * (m + d - 2), den))
        second = BoundReport(
            "line_graph_connected_lower_ii", anchor_ii, KIND_LOWER, PARAM_GAMMA_K_CA, k, value_ii
        )
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

def _check_target(target: str):
    if not lookup_parameter(target).takes_k:
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
    reports = [
        lower_sqrt(g.n, k),
        lower_maxdeg(g.n, g.max_degree, k),
    ]
    if g.asserted_planar:
        reports.append(planar_graph_lower(g.n, k, is_triangle_free(g)))
    else:
        reports.append(
            _na(
                "planar_graph_lower", "planar: |S| >= (n + 12) / (7 - k)",
                KIND_LOWER, PARAM_GAMMA_K_A, k, "graph not asserted planar",
            )
        )
    if is_tree(g):
        reports.append(tree_lower(g.n, 1, k))
    if target == PARAM_GAMMA_K_CA:
        if is_connected(g):
            d = diameter(g)
            reports.append(connected_lower_i(g.n, d, k))
            reports.append(connected_lower_ii(g.n, d, g.max_degree, k))
        reports = [replace(r, target=PARAM_GAMMA_K_CA) for r in reports]
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
    g: Graph, k: int, target: str, gamma: int | None = None
) -> list[BoundReport]:
    """``lower_reports`` then ``upper_reports`` for (g, k, target). Some
    bounds come back marked not applicable; others are left out when g fails
    their hypotheses (see ``lower_reports``; ``cubic_upper_2gamma`` only at
    k = -1 on a cubic graph)."""
    return lower_reports(g, k, target) + upper_reports(g, k, target, gamma)


def best_lower(reports: list[BoundReport]) -> int | None:
    values = [r.value for r in reports if r.applicable and r.kind == KIND_LOWER]
    return max(values) if values else None


def best_upper(reports: list[BoundReport]) -> int | None:
    values = [r.value for r in reports if r.applicable and r.kind == KIND_UPPER]
    return min(values) if values else None
