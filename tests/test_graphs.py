import itertools

import pytest
from hypothesis import given, strategies as st

from kalliance.graphs import (
    Graph,
    ParseError,
    complete_bipartite_graph,
    complete_graph,
    connected_components_of,
    cycle_graph,
    diameter,
    from_edge_list,
    generate,
    hypercube_graph,
    induced_subgraph,
    is_connected,
    is_cubic,
    is_regular,
    is_tree,
    is_triangle_free,
    line_graph,
    path_graph,
    petersen_graph,
    random_cubic,
    random_graph,
    random_tree,
    star_graph,
    to_edge_list,
)

from .strategies import graphs


def floyd_warshall_diameter(g):
    """Independent all-pairs shortest path for cross-checking diameter."""
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(g.n)] for i in range(g.n)]
    for u, v in g.edges:
        dist[u][v] = dist[v][u] = 1
    for w in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if dist[i][w] + dist[w][j] < dist[i][j]:
                    dist[i][j] = dist[i][w] + dist[w][j]
    best = max(max(row) for row in dist)
    assert best != inf
    return best


def isomorphic_bruteforce(a, b):
    if a.n != b.n or a.m != b.m:
        return False
    b_edges = set(b.edges)
    for perm in itertools.permutations(range(a.n)):
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in a.edges}
        if mapped == b_edges:
            return True
    return False


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_rejects_self_loop_and_duplicates():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(0)


def test_graph_is_immutable():
    g = complete_graph(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_equality_ignores_flags():
    assert path_graph(3) == Graph(3, [(0, 1), (1, 2)])
    assert hash(path_graph(3)) == hash(Graph(3, [(0, 1), (1, 2)]))


def test_planarity_assertion_rejects_dense_graph():
    with pytest.raises(ValueError):
        complete_graph(5).with_asserted_planar()
    assert complete_graph(4).asserted_planar


def test_content_hash_tracks_structure():
    assert path_graph(4).content_hash() == Graph(4, [(0, 1), (1, 2), (2, 3)]).content_hash()
    assert path_graph(4).content_hash() != cycle_graph(4).content_hash()


# ---------------------------------------------------------------------------
# Edge-list format
# ---------------------------------------------------------------------------

def test_parse_smallest_edge():
    g = from_edge_list("n 2\n0 1")
    assert (g.n, g.m) == (2, 1)


def test_parse_errors_name_lines():
    with pytest.raises(ParseError, match="line 1"):
        from_edge_list("0 0")
    with pytest.raises(ParseError, match="line 2"):
        from_edge_list("0 1\n0 1\n")
    with pytest.raises(ParseError, match="line 2"):
        from_edge_list("n 2\n0 2")
    with pytest.raises(ParseError, match="line 3"):
        from_edge_list("# comment\n0 1\nbogus line here")
    with pytest.raises(ParseError):
        from_edge_list("# only a comment\n")
    with pytest.raises(ParseError, match="line 1"):
        from_edge_list("n 0\n")


def test_parse_infers_order_without_directive():
    g = from_edge_list("# triangle\n0 1\n1 2\n0 2\n")
    assert (g.n, g.m) == (3, 3)


def test_hypercube_round_trip():
    q3 = hypercube_graph(3)
    again = from_edge_list(to_edge_list(q3))
    assert again == q3
    assert again.n == 8 and again.m == 12
    assert set(again.degrees) == {3}


def test_serialization_is_sorted_with_directive():
    text = to_edge_list(Graph(3, [(2, 1), (1, 0)]))
    assert text == "n 3\n0 1\n1 2\n"


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_complete_graph_sizes():
    g = complete_graph(5)
    assert (g.n, g.m) == (5, 10)


def test_hypercube_shape():
    q3 = hypercube_graph(3)
    assert (q3.n, q3.m) == (8, 12)
    assert is_cubic(q3)
    assert q3.asserted_planar


def test_petersen_shape():
    pet = petersen_graph()
    assert (pet.n, pet.m) == (10, 15)
    assert is_cubic(pet)
    assert diameter(pet) == 2
    assert floyd_warshall_diameter(pet) == 2


def test_cube_diameter():
    assert diameter(hypercube_graph(3)) == 3
    assert floyd_warshall_diameter(hypercube_graph(3)) == 3


def test_star_is_complete_bipartite():
    assert star_graph(5) == complete_bipartite_graph(1, 4)
    assert is_tree(star_graph(5))


def test_generate_dispatch_and_validation():
    assert generate("hypercube", d=3) == hypercube_graph(3)
    with pytest.raises(ValueError):
        generate("no_such_family")
    with pytest.raises(ValueError):
        generate("petersen", n=10)
    with pytest.raises(ValueError):
        generate("cycle", n=2)
    with pytest.raises(ValueError):
        generate("random_cubic", n=7, seed=0)


@pytest.mark.parametrize("seed", range(6))
def test_random_tree_is_tree(seed):
    for n in (1, 2, 5, 9, 12):
        t = random_tree(n, seed)
        assert t.m == n - 1
        assert is_connected(t)


@pytest.mark.parametrize("seed", range(4))
def test_random_cubic_is_cubic(seed):
    g = random_cubic(10, seed)
    assert is_cubic(g)


def test_random_generators_are_deterministic():
    assert random_graph(9, 0.4, 7) == random_graph(9, 0.4, 7)
    assert random_tree(9, 3) == random_tree(9, 3)
    assert random_cubic(8, 5) == random_cubic(8, 5)


# ---------------------------------------------------------------------------
# Line graphs
# ---------------------------------------------------------------------------

def test_line_graph_of_star_is_complete():
    lg, mapping = line_graph(star_graph(5))
    assert lg == complete_graph(4)
    assert sorted(mapping.values()) == [0, 1, 2, 3]


def test_line_graph_of_short_path():
    lg, _ = line_graph(path_graph(3))
    assert lg == complete_graph(2)


def test_line_graph_of_five_cycle_is_self():
    c5 = cycle_graph(5)
    lg, _ = line_graph(c5)
    assert isomorphic_bruteforce(lg, c5)


def test_line_graph_requires_edges():
    with pytest.raises(ValueError):
        line_graph(Graph(3))


@given(graphs(min_n=2, max_n=7))
def test_line_graph_degree_identity(g):
    if g.m < 1:
        return
    lg, mapping = line_graph(g)
    for (u, v), idx in mapping.items():
        assert lg.degrees[idx] == g.degrees[u] + g.degrees[v] - 2


@given(graphs(min_n=2, max_n=7))
def test_line_graph_diameter_drop_is_bounded(g):
    if g.m < 1 or not is_connected(g):
        return
    lg, _ = line_graph(g)
    assert diameter(lg) >= diameter(g) - 1


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

def test_component_counting():
    g = Graph(6, [(0, 1), (2, 3)])
    assert connected_components_of(g, range(6)) == 4  # two edges, two isolated vertices
    assert connected_components_of(g, [0, 1]) == 1
    assert connected_components_of(g, [0, 2]) == 2
    assert connected_components_of(g, []) == 0
    assert not is_connected(g)


def test_diameter_errors_on_disconnected():
    with pytest.raises(ValueError):
        diameter(Graph(3, [(0, 1)]))


def test_diameter_cache_answers_for_the_graph_asked():
    cube, pet = hypercube_graph(3), petersen_graph()
    assert [diameter(g) for g in (cube, cube, pet, cube)] == [3, 3, 2, 3]
    for _ in range(2):  # an error is never kept as an answer
        with pytest.raises(ValueError):
            diameter(Graph(3, [(0, 1)]))
    assert diameter(cube) == 3


def test_predicates():
    assert is_triangle_free(hypercube_graph(3))
    assert not is_triangle_free(complete_graph(3))
    assert is_regular(cycle_graph(5))
    assert not is_regular(star_graph(4))
    assert is_tree(random_tree(8, 1))
    assert not is_tree(cycle_graph(4))


def test_induced_subgraph_relabels():
    g = cycle_graph(5)
    sub = induced_subgraph(g, [1, 2, 3])
    assert sub == Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        induced_subgraph(g, [])


@given(graphs(max_n=7))
def test_induced_subgraph_of_everything_is_identity(g):
    assert induced_subgraph(g, range(g.n)) == g


@given(graphs(max_n=8))
def test_degree_sum_is_twice_edges(g):
    assert sum(g.degrees) == 2 * g.m
