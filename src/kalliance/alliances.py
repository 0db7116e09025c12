"""The parameter table, alliance and domination predicates, certificates,
and the three constructive procedures that turn existence proofs into
executable code.

A set S is a defensive k-alliance when every member has at least k more
neighbors inside S than outside; "global" additionally requires S to
dominate the graph. ``meets`` is the one definition of each demand; the
predicates, ``certify``, the constructions, the oracle and the corpus's
re-certification all read it. Vertex sets are bitmasks, as in ``graphs``;
``VertexSet`` tags one with its graph. All functions here are pure over
immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .graphs import Graph, connected_components_of, is_cubic

PARAM_A_K = "a_k"
PARAM_GAMMA_K_A = "gamma_k_a"
PARAM_GAMMA_K_CA = "gamma_k_ca"
PARAM_GAMMA = "gamma"
PARAM_GAMMA_T = "gamma_t"

REQUIRE_DEFENSIVE = "defensive"
REQUIRE_GLOBAL = "global"
REQUIRE_GLOBAL_CONNECTED = "global_connected"


class Parameter(NamedTuple):
    """One minimum-cardinality parameter: what a feasible set must meet.

    ``alias`` is the command line's spelling and ``requirement`` the name
    ``certify`` checks the same demands under (None when certify has no
    such name). A parameter takes k exactly when it is defensive. (A named
    tuple costs a tenth of a frozen dataclass to define at import.)
    """

    name: str
    alias: str
    defensive: bool
    dominating: bool
    total: bool
    connected: bool
    requirement: str | None

    @property
    def takes_k(self) -> bool:
        return self.defensive

    @property
    def demands(self) -> tuple[bool, bool, bool, bool]:
        """(defensive, dominating, total, connected), for loops that unpack
        them once per call rather than read four attributes."""
        return self.defensive, self.dominating, self.total, self.connected


# The parameter table, in the order solver, corpus and CLI walk it.
PARAMETERS = {row.name: row for row in (
    #          name              alias     defens dominat total  connect requirement
    Parameter(PARAM_A_K,        "ak",     True,  False, False, False, REQUIRE_DEFENSIVE),
    Parameter(PARAM_GAMMA_K_A,  "gka",    True,  True,  False, False, REQUIRE_GLOBAL),
    Parameter(PARAM_GAMMA_K_CA, "gkca",   True,  True,  False, True,  REQUIRE_GLOBAL_CONNECTED),
    Parameter(PARAM_GAMMA,      "gamma",  False, True,  False, False, None),
    Parameter(PARAM_GAMMA_T,    "gammat", False, False, True,  False, None),
)}
_BY_REQUIREMENT = {row.requirement: row for row in PARAMETERS.values() if row.requirement}
# The single demands certify reports as verdicts; a_k and gamma each pose one.
_DEFENSIVE = PARAMETERS[PARAM_A_K].demands
_DOMINATING = PARAMETERS[PARAM_GAMMA].demands
_CONNECTED = (False, False, False, True)
# What every construction re-certifies its set as.
_GLOBAL = PARAMETERS[PARAM_GAMMA_K_A].demands


def lookup_parameter(name: str) -> Parameter:
    """The table row for a parameter name; unknown names are a ValueError."""
    row = PARAMETERS.get(name)
    if row is None:
        raise ValueError(f"unknown parameter {name!r}")
    return row


class ConstructionInvariantError(RuntimeError):
    """A constructive procedure produced a set that failed re-certification.

    The constructions are guaranteed to succeed whenever their preconditions
    hold, so this signals an implementation bug, never bad input.
    """


@dataclass(frozen=True)
class VertexSet:
    """Subset of the vertices of one specific graph: a bitmask tagged with
    that graph. Every function here refuses a set tagged to another graph."""

    graph: Graph
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.graph.n:
            raise ValueError("membership bits outside the graph's vertex range")

    @classmethod
    def from_vertices(cls, graph: Graph, members: Iterable[int]) -> "VertexSet":
        bits = 0
        for v in members:
            if not 0 <= v < graph.n:
                raise ValueError(f"vertex {v} out of range for order {graph.n}")
            bits |= 1 << v
        return cls(graph, bits)

    @classmethod
    def full(cls, graph: Graph) -> "VertexSet":
        return cls(graph, (1 << graph.n) - 1)

    @property
    def members(self) -> tuple[int, ...]:
        # From a list, as in ``solver.requirements``: a generator regrows the
        # tuple's buffer.
        return tuple([v for v in range(self.graph.n) if (self.bits >> v) & 1])

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self):
        return iter(self.members)


@dataclass(frozen=True)
class AllianceCertificate:
    """Exact per-vertex evidence for (or against) an alliance claim.

    ``margins`` maps each member v to inside(v) - outside(v) - k, so
    defensiveness is exactly "all margins nonnegative". ``dominators`` maps
    each non-member to its number of neighbors inside the set.
    """

    subject: VertexSet
    k: int
    margins: dict[int, int]
    dominators: dict[int, int]
    is_defensive: bool
    is_dominating: bool
    is_connected_induced: bool
    requirement: str
    satisfied: bool

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "set": list(self.subject.members),
            "margins": {str(v): m for v, m in sorted(self.margins.items())},
            "dominators": {str(u): c for u, c in sorted(self.dominators.items())},
            "is_defensive": self.is_defensive,
            "is_dominating": self.is_dominating,
            "is_connected_induced": self.is_connected_induced,
            "requirement": self.requirement,
            "satisfied": self.satisfied,
        }


def _member_bits(g: Graph, s: VertexSet) -> int:
    if s.graph != g:
        raise ValueError("vertex set is tagged to a different graph")
    return s.bits


def boundary_degrees(g: Graph, s: VertexSet) -> dict[int, tuple[int, int]]:
    """For every vertex v, the pair (neighbors inside S, neighbors outside S)."""
    members = _member_bits(g, s)
    out: dict[int, tuple[int, int]] = {}
    for v, a in enumerate(g.adjacency):
        inside = (a & members).bit_count()
        out[v] = (inside, g.degrees[v] - inside)
    return out


def meets(g: Graph, members: int, k: int, demands: tuple[bool, bool, bool, bool]) -> bool:
    """Whether the vertex bitmask ``members`` meets ``demands``, a row's
    ``Parameter.demands``, at level k (read only by the defensive demand).

    This is the one definition of each demand: defensive, every member has
    at least k more neighbors inside than outside; dominating, every
    non-member has a neighbor inside; total, every vertex has a neighbor
    inside; connected, the members induce one component. The search in
    ``solver`` poses the same demands its own way, and the oracle checks it
    against this.
    """
    defensive, dominating, total, connected = demands
    adj = g.adjacency
    deg = g.degrees
    reach = 0  # every neighbour of a member
    m = members
    while m:
        b = m & -m
        m ^= b
        v = b.bit_length() - 1
        if defensive:
            inside = (adj[v] & members).bit_count()
            if inside < deg[v] - inside + k:
                return False
        reach |= adj[v]
    full = (1 << g.n) - 1
    if dominating and reach | members != full:
        return False
    if total and reach != full:
        return False
    return not connected or connected_components_of(g, members) == 1


def is_defensive_k_alliance(g: Graph, s: VertexSet, k: int) -> bool:
    """Every member of s has at least k more neighbors inside than outside."""
    if len(s) == 0:
        raise ValueError("alliances are nonempty")
    return meets(g, _member_bits(g, s), k, _DEFENSIVE)


def is_dominating(g: Graph, s: VertexSet) -> bool:
    """Every vertex outside s has a neighbor in s (false for empty s)."""
    return meets(g, _member_bits(g, s), 0, _DOMINATING)


def is_total_dominating(g: Graph, s: VertexSet) -> bool:
    """Every vertex of the graph, members included, has a neighbor in s."""
    return meets(g, _member_bits(g, s), 0, PARAMETERS[PARAM_GAMMA_T].demands)


def certify(
    g: Graph, s: VertexSet, k: int, require: str = REQUIRE_DEFENSIVE
) -> AllianceCertificate:
    """Full certificate for s at level k; ``satisfied`` reflects the demands
    of the parameter whose requirement is ``require``. The verdicts come
    from ``meets``; margins and dominators are the evidence behind them."""
    row = _BY_REQUIREMENT.get(require)
    if row is None:
        raise ValueError(f"unknown requirement {require!r}")
    if len(s) == 0:
        raise ValueError("alliances are nonempty")
    degrees = boundary_degrees(g, s)
    members = s.bits
    return AllianceCertificate(
        subject=s,
        k=k,
        margins={v: degrees[v][0] - degrees[v][1] - k for v in s.members},
        dominators={u: degrees[u][0] for u in range(g.n) if not members >> u & 1},
        is_defensive=meets(g, members, k, _DEFENSIVE),
        is_dominating=meets(g, members, k, _DOMINATING),
        is_connected_induced=meets(g, members, k, _CONNECTED),
        requirement=require,
        satisfied=meets(g, members, k, row.demands),
    )


def shrink_to_lower_k(
    g: Graph, s: VertexSet, k: int, w: VertexSet, r: int
) -> VertexSet:
    """Remove r vertices of s (keeping the dominating core w) to trade level
    k for level k - 2r.

    Drops the lexicographically smallest r-subset of s minus w; the result is
    re-certified as a global defensive (k-2r)-alliance before returning.
    """
    members = _member_bits(g, s)
    core = _member_bits(g, w)
    if not meets(g, members, k, _GLOBAL):
        raise ValueError("s must be a global defensive k-alliance")
    if core & ~members:
        raise ValueError("w must be a subset of s")
    if not meets(g, core, 0, _DOMINATING):
        raise ValueError("w must be a dominating set")
    kept = members ^ core  # the removable vertices
    if not 0 <= r <= kept.bit_count():
        raise ValueError(f"r must lie in [0, {kept.bit_count()}]")
    for _ in range(r):
        kept &= kept - 1  # drops the lowest removable vertex left
    result = core | kept
    if not meets(g, result, k - 2 * r, _GLOBAL):
        raise ConstructionInvariantError(
            "shrunken set failed to certify as a global defensive "
            f"({k - 2 * r})-alliance"
        )
    return VertexSet(g, result)


def construct_upper_witness(g: Graph, k: int) -> VertexSet:
    """Global defensive k-alliance of size n - floor((min_degree - k) / 2).

    Removes that many lowest-index neighbors of the first maximum-degree
    vertex (none for k >= min_degree - 1). Its domain is where the bound
    ``upper_min_degree`` applies: k above the minimum degree, or so far
    below it that more than the maximum degree would go, is a ValueError.
    """
    d_min = g.min_degree
    d_max = g.max_degree
    if k > d_min:
        raise ValueError(f"k={k} is above the minimum degree {d_min}: no alliance is guaranteed")
    drop_count = (d_min - k) // 2
    if drop_count > d_max:
        raise ValueError(
            f"k={k} is too far below the degree range: the construction would "
            f"remove {drop_count} neighbors but only {d_max} are available"
        )
    hub = kept = g.adjacency[g.degrees.index(d_max)]
    for _ in range(drop_count):
        kept &= kept - 1  # drops the lowest neighbour left
    result = ((1 << g.n) - 1) ^ hub ^ kept
    if not meets(g, result, k, _GLOBAL):
        raise ConstructionInvariantError(
            f"witness of size {result.bit_count()} failed to certify as a global "
            f"defensive {k}-alliance"
        )
    return VertexSet(g, result)


def cubic_augment_dominating(g: Graph, s: VertexSet) -> VertexSet:
    """Extend a dominating set of a 3-regular graph into a global defensive
    (-1)-alliance of size at most 2|s|.

    Every member with no neighbor inside s adopts its lowest-index outside
    neighbor; the result is re-certified before returning.
    """
    members = _member_bits(g, s)
    if not is_cubic(g):
        raise ValueError("graph is not cubic")
    if not meets(g, members, 0, _DOMINATING):
        raise ValueError("s must be a dominating set")
    result = members
    for v in s:
        a = g.adjacency[v]
        if not a & members:
            result |= a & -a  # the lowest outside neighbour
    if result.bit_count() > 2 * members.bit_count():
        raise ConstructionInvariantError("augmented set exceeded twice the input size")
    if not meets(g, result, -1, _GLOBAL):
        raise ConstructionInvariantError(
            "augmented set failed to certify as a global defensive (-1)-alliance"
        )
    return VertexSet(g, result)
