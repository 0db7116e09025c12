"""Immutable simple-graph core: construction, generators, structural queries.

Vertices are dense integers ``0..n-1``, and a vertex set is a bitmask whose
bit v is set when v is a member. ``Graph.adjacency`` holds each vertex's
neighbours in that format, and the queries here take vertex sets in it.
Graphs never change after construction, so vertex sets, searches and bound
reports can all hold the same graph without copying it.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import itertools
import random
from typing import Iterable


class ParseError(ValueError):
    """Malformed edge-list document; the message names the offending line."""


class EdgeError(ValueError):
    """An edge ``Graph`` rejects: what is wrong with the edge at ``index`` in its input."""

    def __init__(self, index: int, problem: str):
        super().__init__(f"input edge {index}: {problem}")
        self.index, self.problem = index, problem


class Graph:
    """Simple undirected graph, immutable after construction.

    ``adjacency[v]`` is the bitmask of v's neighbours. Equality and
    hashing are structural on ``(n, edges)``; the provenance
    flag ``asserted_planar`` is set only by generators or an explicit caller
    assertion and does not affect equality. Structural properties such as
    being a tree are computed (``is_tree``), not carried as flags.
    """

    __slots__ = (
        "n",
        "edges",
        "adjacency",
        "degrees",
        "asserted_planar",
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        *,
        asserted_planar: bool = False,
    ):
        if not isinstance(n, int) or n < 1:
            raise ValueError("graph order must be a positive integer")
        canon: list[tuple[int, int]] = []
        bits = [0] * n
        for i, edge in enumerate(edges):
            u, v = edge
            if not (0 <= u < n and 0 <= v < n):
                raise EdgeError(i, f"edge {edge!r} out of range for order {n}")
            if u == v:
                raise EdgeError(i, f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if bits[u] >> v & 1:
                raise EdgeError(i, f"duplicate edge {key}")
            canon.append(key)
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        canon.sort()

        if asserted_planar and n >= 3 and len(canon) > 3 * (n - 2):
            raise ValueError(
                f"planarity assertion rejected: m={len(canon)} exceeds 3(n-2)={3 * (n - 2)}"
            )

        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "adjacency", tuple(bits))
        object.__setattr__(self, "degrees", tuple([b.bit_count() for b in bits]))
        object.__setattr__(self, "asserted_planar", bool(asserted_planar))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def max_degree(self) -> int:
        return max(self.degrees)

    @property
    def min_degree(self) -> int:
        return min(self.degrees)

    def with_asserted_planar(self) -> "Graph":
        """Copy with the planarity flag set; rejects graphs with m > 3(n-2)."""
        return Graph(self.n, self.edges, asserted_planar=True)

    def content_hash(self) -> str:
        """Order-independent identity over (n, sorted edge list)."""
        payload = f"{self.n}|" + ",".join(f"{u}-{v}" for u, v in self.edges)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------

def from_edge_list(text: str) -> Graph:
    """Parse the canonical edge-list format.

    Lines starting with ``#`` are comments. An optional first directive line
    ``n <int>`` declares the order; every other non-empty line is ``u v``.
    Without a directive the order is one past the largest vertex index.
    ``Graph`` checks the edges once all lines parse; it names a bad edge's line.
    """
    declared_n: int | None = None
    saw_content = False
    edges: list[tuple[int, int]] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if not saw_content and parts[0] == "n":
            saw_content = True
            try:
                _, order = parts  # a wrong field count is a ValueError too
                declared_n = int(order)
            except ValueError:
                raise ParseError(f"line {lineno}: malformed order directive") from None
            if declared_n < 1:
                raise ParseError(f"line {lineno}: order must be positive")
            continue
        saw_content = True
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: vertex indices must be integers") from None
        edges.append((u, v))
        linenos.append(lineno)
    if declared_n is None:
        if not edges:
            raise ParseError("document declares no vertices (no 'n' directive and no edges)")
        declared_n = max(1, *(v + 1 for e in edges for v in e))  # 1 if all negative
    try:
        return Graph(declared_n, edges)
    except EdgeError as exc:
        raise ParseError(f"line {linenos[exc.index]}: {exc.problem}") from None


def to_edge_list(g: Graph) -> str:
    """Serialize: order directive first, then edges sorted lexicographically."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

CUBIC_ATTEMPTS = 1000  # draws of three matchings before random_cubic gives up


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    edges = list(itertools.combinations(range(n), 2))
    return Graph(n, edges, asserted_planar=n <= 4)


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete bipartite graph needs both sides nonempty")
    edges = [(u, a + v) for u in range(a) for v in range(b)]
    return Graph(a + b, edges, asserted_planar=min(a, b) <= 2)


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0 joined to 1..n-1."""
    if n < 1:
        raise ValueError("star needs n >= 1")
    edges = [(0, v) for v in range(1, n)]
    return Graph(n, edges, asserted_planar=True)


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    edges = [(v, v + 1) for v in range(n - 1)]
    return Graph(n, edges, asserted_planar=True)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    edges = [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)]
    return Graph(n, edges, asserted_planar=True)


def hypercube_graph(d: int) -> Graph:
    """d-dimensional hypercube; vertex x is adjacent to x with one bit flipped."""
    if d < 0:
        raise ValueError("hypercube dimension must be nonnegative")
    n = 1 << d
    edges = [(x, x | (1 << i)) for x in range(n) for i in range(d) if not (x >> i) & 1]
    return Graph(n, edges, asserted_planar=d <= 3)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree (random code sequence, smallest-leaf decode)."""
    if n < 1:
        raise ValueError("tree needs n >= 1")
    if n == 1:
        return Graph(1, (), asserted_planar=True)
    if n == 2:
        return Graph(2, [(0, 1)], asserted_planar=True)
    rng = random.Random(seed)
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in code:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return Graph(n, edges, asserted_planar=True)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with a fixed pair ordering for reproducibility."""
    if n < 1:
        raise ValueError("random graph needs n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_cubic(n: int, seed: int) -> Graph:
    """3-regular graph as a union of three perfect matchings.

    Attempts producing a multi-edge are rejected wholesale; gives up after
    ``CUBIC_ATTEMPTS`` of them.
    """
    if n % 2 != 0 or n < 4:
        raise ValueError("cubic generation requires even n >= 4")
    rng = random.Random(seed)
    for _ in range(CUBIC_ATTEMPTS):
        edges: set[tuple[int, int]] = set()
        ok = True
        for _ in range(3):
            order = list(range(n))
            rng.shuffle(order)
            for i in range(0, n, 2):
                u, v = order[i], order[i + 1]
                key = (u, v) if u < v else (v, u)
                if key in edges:
                    ok = False
                    break
                edges.add(key)
            if not ok:
                break
        if ok:
            return Graph(n, sorted(edges))
    raise ValueError(f"could not assemble a simple cubic graph in {CUBIC_ATTEMPTS} attempts")


# Each family's builder and its parameter names, in order: the builder's keywords.
FAMILIES = {
    "complete": (complete_graph, ("n",)),
    "complete_bipartite": (complete_bipartite_graph, ("a", "b")),
    "star": (star_graph, ("n",)),
    "path": (path_graph, ("n",)),
    "cycle": (cycle_graph, ("n",)),
    "hypercube": (hypercube_graph, ("d",)),
    "petersen": (petersen_graph, ()),
    "random_tree": (random_tree, ("n", "seed")),
    "random_graph": (random_graph, ("n", "p", "seed")),
    "random_cubic": (random_cubic, ("n", "seed")),
}
# Every family parameter is an integer but the edge probability.
PARAM_TYPES = {"n": int, "a": int, "b": int, "d": int, "p": float, "seed": int}


def family_params(family, params) -> tuple[str, ...]:
    """The parameter names of ``family`` in order; raises ``ValueError`` for
    an unknown family or a missing or unexpected parameter."""
    if not isinstance(family, str) or family not in FAMILIES:
        raise ValueError(f"unknown graph family {family!r}")
    expected = FAMILIES[family][1]
    missing = [name for name in expected if name not in params]
    extra = [name for name in params if name not in expected]
    if missing or extra:
        raise ValueError(
            f"family {family!r} takes parameters {expected}; "
            f"missing {missing}, unexpected {extra}"
        )
    return expected


def generate(family: str, **params) -> Graph:
    """Build a named graph family; rejects unknown families and stray parameters."""
    family_params(family, params)
    return FAMILIES[family][0](**params)


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

def line_graph(g: Graph) -> tuple[Graph, dict[tuple[int, int], int]]:
    """Line graph plus the edge-to-vertex index map.

    Vertex i of the result is g.edges[i]; two vertices are adjacent exactly
    when the underlying edges share an endpoint.
    """
    if g.m < 1:
        raise ValueError("line graph needs at least one edge")
    index = {e: i for i, e in enumerate(g.edges)}
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for e, i in index.items():
        incident[e[0]].append(i)
        incident[e[1]].append(i)
    ledges: set[tuple[int, int]] = set()
    for lst in incident:
        for a, b in itertools.combinations(sorted(lst), 2):
            ledges.add((a, b))
    return Graph(g.m, sorted(ledges)), index


def is_connected(g: Graph) -> bool:
    return connected_components_of(g, (1 << g.n) - 1) == 1


def connected_components_of(g: Graph, mask: int) -> int:
    """Number of connected components of the subgraph induced by the vertex
    bitmask ``mask``."""
    if mask < 0 or mask >> g.n:
        raise IndexError(f"vertex bitmask {mask:#x} out of range for order {g.n}")
    adj = g.adjacency
    count = 0
    while mask:
        count += 1
        frontier = mask & -mask
        mask ^= frontier
        while frontier:
            near = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                near |= adj[b.bit_length() - 1]
            frontier = near & mask
            mask ^= frontier
    return count


@functools.lru_cache(maxsize=1)
def diameter(g: Graph) -> int:
    """Longest shortest-path distance, via one BFS per source. The last
    graph's answer is kept, since a certify pass asks once per cell of one
    graph."""
    adj = g.adjacency
    full = (1 << g.n) - 1
    best = 0
    for source in range(g.n):
        reached = frontier = 1 << source
        depth = -1  # the distance of the last nonempty frontier
        while frontier:
            depth += 1
            near = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                near |= adj[b.bit_length() - 1]
            frontier = near & ~reached
            reached |= frontier
        if reached != full:
            raise ValueError("diameter undefined for a disconnected graph")
        best = max(best, depth)
    return best


def is_triangle_free(g: Graph) -> bool:
    return all(not (g.adjacency[u] & g.adjacency[v]) for u, v in g.edges)


def is_regular(g: Graph) -> bool:
    return min(g.degrees) == max(g.degrees)


def is_cubic(g: Graph) -> bool:
    return all(d == 3 for d in g.degrees)


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1 and is_connected(g)


def induced_subgraph(g: Graph, members: Iterable[int]) -> Graph:
    """Subgraph induced by ``members``, relabeled onto 0..|members|-1 in sorted order."""
    ordered = sorted(set(members))
    if not ordered:
        raise ValueError("induced subgraph needs a nonempty vertex set")
    for v in ordered:
        if not 0 <= v < g.n:
            raise IndexError(f"vertex {v} out of range")
    relabel = {v: i for i, v in enumerate(ordered)}
    keep = set(ordered)
    edges = [
        (relabel[u], relabel[v]) for u, v in g.edges if u in keep and v in keep
    ]
    return Graph(len(ordered), edges)
