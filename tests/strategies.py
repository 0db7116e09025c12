"""Hypothesis strategies shared across the test modules."""

from hypothesis import strategies as st

from kalliance.alliances import VertexSet
from kalliance.graphs import Graph


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [pair for i, pair in enumerate(pairs) if (mask >> i) & 1]
    return Graph(n, edges)


@st.composite
def regular_graphs(draw, min_n=2, max_n=12):
    """Circulant graphs: vertex i is joined to i +- j for each drawn jump j,
    so every vertex has the same degree, at least 1."""
    n = draw(st.integers(min_n, max_n))
    jumps = draw(st.sets(st.integers(1, n // 2), min_size=1))
    edges = {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps}
    return Graph(n, sorted(edges))


@st.composite
def graphs_with_subset(draw, min_n=1, max_n=8):
    g = draw(graphs(min_n, max_n))
    bits = draw(st.integers(1, (1 << g.n) - 1))
    return g, VertexSet(g, bits)


def small_k():
    return st.integers(-5, 5)
