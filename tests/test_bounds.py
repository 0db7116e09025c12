import hashlib
import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from kalliance import known_values
from kalliance.alliances import VertexSet, certify
from kalliance.bounds import (
    _BOUNDS,
    best_lower,
    best_upper,
    connected_lower_i,
    connected_lower_ii,
    cubic_upper_2gamma,
    evaluate_all,
    faces_lower,
    induced_face_count,
    kn_closed_form,
    line_graph_connected_lower,
    line_graph_lower,
    lower_maxdeg,
    lower_sqrt,
    parity_collapse,
    planar_graph_lower,
    planar_subgraph_lower,
    tree_lower,
    upper_min_degree,
)
from kalliance.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    petersen_graph,
    random_cubic,
    random_tree,
    star_graph,
)
from kalliance.solver import brute_force_oracle, k_range, solve

from .strategies import graphs, graphs_with_subset, small_k


def ceil_reference(numerator, denominator):
    return math.ceil(numerator / denominator)


# ---------------------------------------------------------------------------
# Individual bound values
# ---------------------------------------------------------------------------

def test_lower_sqrt_values():
    assert lower_sqrt(8, -3).value == 2
    assert lower_sqrt(8, 1).value == 4
    assert lower_sqrt(1, 0).value == 1
    assert lower_sqrt(8, -3).applicable


@given(st.integers(1, 500), st.integers(-20, 20))
def test_lower_sqrt_matches_float_ceiling(n, k):
    expected = max(1, math.ceil((math.sqrt(4 * n + k * k) + k) / 2))
    assert lower_sqrt(n, k).value == expected


def test_upper_min_degree_values():
    assert upper_min_degree(8, 3, 3, 3).value == 8
    assert upper_min_degree(8, 3, -1, 3).value == 6
    report = upper_min_degree(8, 3, 4, 3)
    assert not report.applicable and report.value is None
    # Below the provable range the formula can undershoot, so it abstains:
    # on a single vertex at k=-2 it would claim an empty alliance suffices.
    assert not upper_min_degree(1, 0, -2, 0).applicable


def test_upper_min_degree_matches_complete_closed_form():
    for n in range(2, 9):
        for k in range(1 - n, n):
            assert upper_min_degree(n, n - 1, k, n - 1).value == kn_closed_form(n, k)


def test_lower_maxdeg_petersen_attained():
    # The attained values are known_values' Petersen table (acceptance C3).
    assert not lower_maxdeg(10, 3, 4).applicable


def test_lower_maxdeg_cubic_specialization():
    # With max degree 3: k=-1 gives n/3 and k=0 gives n/2.
    for n in (6, 9, 14):
        assert lower_maxdeg(n, 3, -1).value == ceil_reference(n, 3)
        assert lower_maxdeg(n, 3, 0).value == ceil_reference(n, 2)


def test_line_graph_lower_star_values():
    # The attained values are known_values' K_4 table (acceptance C4).
    assert not line_graph_lower(4, 4, 1, 5).applicable
    with pytest.raises(ValueError):
        line_graph_lower(0, 1, 1, 0)


def test_cubic_upper_values():
    assert cubic_upper_2gamma(hypercube_graph(3)).value == 4
    assert cubic_upper_2gamma(petersen_graph()).value == 6
    assert cubic_upper_2gamma(complete_graph(4)).value == 2
    report = cubic_upper_2gamma(star_graph(5))
    assert not report.applicable and report.reason == "not cubic"
    # Past the search cap gamma is not solved for: the bound abstains.
    report = cubic_upper_2gamma(random_cubic(26, 1))
    assert not report.applicable and "exceeds the search cap" in report.reason
    assert cubic_upper_2gamma(random_cubic(26, 1), 7).value == 14


def test_planar_lower_values():
    assert planar_subgraph_lower(8, 0, True).value == 4
    assert planar_graph_lower(8, 3, True).value == 8
    assert planar_graph_lower(8, 1, True).value == 4
    # Order gate: n must exceed 2(2 - k).
    assert not planar_subgraph_lower(6, -1, False).applicable
    assert not planar_subgraph_lower(8, -3, True).applicable
    # Triangle-free variant stops at k=4; the general one carries to k=6.
    assert planar_subgraph_lower(30, 5, True).value == ceil_reference(42, 2)
    assert not planar_subgraph_lower(30, 7, False).applicable


def test_faces_lower_triangle_witness():
    k3 = complete_graph(3)
    full = VertexSet.full(k3)
    assert certify(k3, full, 2, "global").satisfied
    f = induced_face_count(k3, full.members)
    assert f == 2
    assert faces_lower(3, f, 2).value == 3
    assert not faces_lower(3, 2, 3).applicable


def test_face_count_of_tree_subset_is_one():
    t = random_tree(9, 4)
    assert induced_face_count(t, range(t.n)) == 1
    # f=1 reduces the faces bound to the plain tree bound.
    assert faces_lower(9, 1, 0).value == tree_lower(9, 1, 0).value


def test_face_count_requires_connected_subset():
    k3 = complete_graph(3)
    with pytest.raises(ValueError):
        induced_face_count(cycle_graph(6), [0, 3])
    with pytest.raises(ValueError):
        induced_face_count(k3, [])


def test_tree_lower_star_attained():
    exact = {-4: 1, -3: 2, -2: 2, 0: 3, 1: 4}
    for k, expected in exact.items():
        assert tree_lower(5, 1, k).value == expected
    assert tree_lower(10, 1, -1).value == ceil_reference(12, 4)
    assert not tree_lower(5, 1, 3).applicable
    with pytest.raises(ValueError):
        tree_lower(5, 0, 0)


def test_connected_lower_values():
    assert connected_lower_i(6, 2, -1).value == 2
    assert connected_lower_i(8, 3, 0).value == 3
    assert connected_lower_i(1, 0, 0).value == 1  # clamped to nonempty
    assert connected_lower_ii(8, 3, 3, 0).value == 4
    assert connected_lower_ii(6, 2, 3, -3).value == 2
    assert connected_lower_ii(10, 2, 3, 3).value == 6
    assert not connected_lower_ii(6, 2, 1, 6).applicable


def test_line_graph_connected_values():
    # 4-star parameters bound its line graph K_4, where the connected value
    # at k=-1 is exactly 2.
    first, second = line_graph_connected_lower(4, 2, 4, 1, -1)
    assert second.value == 2
    assert first.applicable and second.applicable and first.reason is second.reason is None
    assert solve(complete_graph(4), "gamma_k_ca", -1).value == 2
    # 2-path parameters bound its line graph K_2: the bound gives 1, the
    # exact connected value is 2 (a singleton has more outside neighbors).
    first, second = line_graph_connected_lower(2, 2, 2, 1, 0)
    assert first.value == 1
    assert solve(complete_graph(2), "gamma_k_ca", 0).value == 2
    _, second = line_graph_connected_lower(1, 1, 1, 1, 4)
    assert not second.applicable
    # One edge (m = 1) has the line graph K_1, of diameter 0: bound (i)'s
    # discriminant 4(0 + 1 - 2) + (1 - k)^2 is negative at k = 0, 1, 2, where
    # it abstains, and zero at k = -1, 3.
    for k in (0, 1, 2):
        first, _ = line_graph_connected_lower(1, 0, 1, 1, k)
        assert not first.applicable and first.reason.startswith("negative discriminant")
    assert [line_graph_connected_lower(1, 0, 1, 1, k)[0].value for k in (-1, 3)] == [1, 1]
    assert solve(complete_graph(1), "gamma_k_ca", 0).value == 1
    with pytest.raises(ValueError):
        line_graph_connected_lower(0, 1, 1, 1, 0)


def test_kn_closed_form():
    assert kn_closed_form(4, -3) == 1
    assert kn_closed_form(4, 3) == 4
    assert kn_closed_form(5, 0) == 3
    with pytest.raises(ValueError):
        kn_closed_form(4, 4)
    with pytest.raises(ValueError):
        kn_closed_form(4, -4)


def test_parity_collapse():
    assert parity_collapse(hypercube_graph(3), 0) == 1  # all degrees odd
    assert parity_collapse(cycle_graph(4), -1) == 0  # all degrees even
    assert parity_collapse(star_graph(4), -1) == -1  # mixed parity
    assert parity_collapse(hypercube_graph(3), 1) == 1


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def test_evaluate_all_cube():
    reports = evaluate_all(hypercube_graph(3), 0, "gamma_k_a")
    assert best_lower(reports) == 4
    assert best_upper(reports) == 7
    names = {r.name for r in reports}
    assert {"lower_sqrt", "lower_maxdeg", "planar_graph_lower", "upper_min_degree"} <= names


def test_evaluate_all_petersen_top():
    reports = evaluate_all(petersen_graph(), 2, "gamma_k_a")
    assert best_lower(reports) == 10
    planar = next(r for r in reports if r.name == "planar_graph_lower")
    assert not planar.applicable  # no planarity assertion on the Petersen graph


def test_evaluate_all_single_vertex():
    reports = evaluate_all(complete_graph(1), 0, "gamma_k_a")
    assert best_lower(reports) == 1
    assert best_upper(reports) == 1


def test_evaluate_all_connected_target_includes_diameter_bounds():
    reports = evaluate_all(hypercube_graph(3), 0, "gamma_k_ca")
    names = {r.name for r in reports if r.applicable}
    assert {"connected_lower_i", "connected_lower_ii"} <= names
    assert all(r.target == "gamma_k_ca" for r in reports)
    assert best_lower(reports) == 4


def test_evaluate_all_plain_defensive_target_is_empty():
    assert evaluate_all(hypercube_graph(3), 0, "a_k") == []
    with pytest.raises(ValueError):
        evaluate_all(hypercube_graph(3), 0, "gamma")


def test_evaluate_all_appends_the_set_bounds_under_the_target_rule():
    path = path_graph(9)
    apart = VertexSet.from_vertices(path, [0, 2])
    plain = evaluate_all(path, -1, "gamma_k_a")
    with_set = evaluate_all(path, -1, "gamma_k_a", members=apart)
    assert with_set[: len(plain)] == plain
    # A path is asserted planar; G[S] has two components, so no face bound.
    own = [(r.name, r.value) for r in with_set[len(plain):]]
    assert own == [("tree_lower", 4), ("planar_subgraph_lower", 3)]
    assert evaluate_all(path, -1, "a_k", members=apart) == []
    connected = evaluate_all(path, -1, "gamma_k_ca", members=apart)
    assert all(r.target == "gamma_k_ca" for r in connected)
    cube = hypercube_graph(3).with_asserted_planar()
    square = VertexSet.from_vertices(cube, [0, 1, 2, 3])
    face = [(r.name, r.value) for r in evaluate_all(cube, 0, "gamma_k_a", members=square)]
    assert face[-2:] == [("planar_subgraph_lower", 4), ("faces_lower", 3)]
    split = evaluate_all(cube, 0, "gamma_k_a", members=VertexSet.from_vertices(cube, [0, 7]))
    assert split[-1].name == "planar_subgraph_lower"
    with pytest.raises(ValueError, match="different graph"):
        evaluate_all(path, -1, "gamma_k_a", members=VertexSet.from_vertices(cycle_graph(9), [0]))
    with pytest.raises(ValueError, match="nonempty"):
        evaluate_all(path, -1, "gamma_k_a", members=VertexSet.from_vertices(path, []))


def _grid_reports():
    """Every public bound function over a fixed grid: n (or m) = 1-39,
    k = -12...12, degrees 0-6, diameters 0-6 (0-2 for the line graph),
    faces 0-5, components 1-4, triangle-free both ways. The line-graph
    bounds read d1 and d2 only through d1 + d2, so the pairs with
    d1 - d2 <= 1 stand for every sum 0-12 once. Left out:
    ``line_graph_connected_lower`` with m = 1 and diameter 0, the line graph
    of one edge, whose first bound abstains there on a negative discriminant
    (``test_line_graph_connected_values`` covers it)."""
    degrees = range(7)
    pairs = [(d1, d2) for d1 in degrees for d2 in (d1 - 1, d1) if d2 >= 0]
    for n, k in itertools.product(range(1, 40), range(-12, 13)):
        yield lower_sqrt(n, k)
        for triangle_free in (False, True):
            yield planar_subgraph_lower(n, k, triangle_free)
            yield planar_graph_lower(n, k, triangle_free)
        for f in range(6):
            yield faces_lower(n, f, k)
        for c in range(1, 5):
            yield tree_lower(n, c, k)
        for d_max in degrees:
            yield lower_maxdeg(n, d_max, k)
            for d_min in range(d_max + 1):
                yield upper_min_degree(n, d_min, k, d_max)
        for d in degrees:
            yield connected_lower_i(n, d, k)
            for d_max in degrees:
                yield connected_lower_ii(n, d, d_max, k)
        for d1, d2 in pairs:
            yield line_graph_lower(n, d1, d2, k)
            for d in range(3):
                if (n, d) != (1, 0):
                    yield from line_graph_connected_lower(n, d, d1, d2, k)
    for g in (complete_graph(4), hypercube_graph(3), petersen_graph(), star_graph(5),
              random_cubic(26, 1)):
        for gamma in (None, 3):
            yield cubic_upper_2gamma(g, gamma)


def test_standalone_bounds_are_pinned_on_a_grid():
    """Values, abstentions and their reasons, anchors, kinds and targets of
    every report on ``_grid_reports``; the digest was recorded before the
    catalogue was rebuilt on one table of bounds."""
    reports = [r.to_json_dict() for r in _grid_reports()]
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert (len(reports), digest) == (
        191435, "80e9407207bb45e2690fb3fc602050bbd80af4561c5673d44ea14a173a737e59"
    )


def test_bound_report_json_fields():
    report = lower_sqrt(8, 0)
    data = report.to_json_dict()
    assert set(data) == {"name", "anchor", "kind", "target", "k", "value", "applicable", "reason"}


# ---------------------------------------------------------------------------
# Soundness properties
# ---------------------------------------------------------------------------

def _check_brackets(g, k, target, gamma=None):
    """Asserts that each applicable report of ``evaluate_all`` brackets the
    oracle's value of ``target`` at k; returns how many were checked."""
    result = brute_force_oracle(g, target, k)
    if not result.found:
        return 0
    checked = 0
    for report in evaluate_all(g, k, target, gamma):
        if not report.applicable:
            continue
        if report.kind == "lower":
            assert report.value <= result.value, (g.edges, report)
        else:
            assert result.value <= report.value, (g.edges, report)
        checked += 1
    return checked


@settings(max_examples=30)
@given(graphs(min_n=1, max_n=6), st.integers(-3, 3))
def test_bounds_bracket_the_oracle(g, k):
    for target in ("gamma_k_a", "gamma_k_ca"):
        _check_brackets(g, k, target)


@settings(max_examples=30)
@given(graphs_with_subset(max_n=7), small_k())
def test_certified_sets_satisfy_quadratic_and_outside_cap(gs, k):
    g, s = gs
    cert = certify(g, s, k, "global")
    size = len(s)
    if cert.satisfied:
        assert size * size - k * size - g.n >= 0
    if cert.is_defensive and k <= g.max_degree:
        cap = (g.max_degree - k) // 2
        for v in s:
            assert g.degrees[v] - (g.adjacency[v] & s.bits).bit_count() <= cap


@settings(max_examples=30)
@given(graphs_with_subset(max_n=7))
def test_connected_dominating_sets_respect_diameter_chain(gs):
    g, s = gs
    from kalliance.graphs import connected_components_of, is_connected

    if not is_connected(g):
        return
    cert = certify(g, s, -g.max_degree, "global_connected")
    if cert.satisfied:
        from kalliance.graphs import diameter

        assert diameter(g) <= len(s) + 1


def test_catalogue_brackets_the_oracle_on_the_atlas():
    """Every connected graph on 1..7 vertices in the networkx atlas: each
    applicable bound of ``evaluate_all`` brackets the oracle's value of
    gamma_k_a and gamma_k_ca at every k of ``k_range`` (gamma handed to the
    bounds that take it)."""
    nx = pytest.importorskip("networkx")
    atlas = [
        Graph(h.number_of_nodes(), h.edges())
        for h in nx.graph_atlas_g()
        if 1 <= h.number_of_nodes() <= 7 and nx.is_connected(h)
    ]
    checked = 0
    for g in atlas:
        gamma = brute_force_oracle(g, "gamma").value
        for k in k_range(g):
            for target in ("gamma_k_a", "gamma_k_ca"):
                checked += _check_brackets(g, k, target, gamma)
    # Both counts are fixed, so the sample cannot shrink unnoticed.
    assert (len(atlas), checked) == (996, 53188)


def test_the_tight_families_are_named():
    """ROADMAP item 7: for each catalogue bound, the named graphs of the
    paper-suite's table, ``known_values._EXACT``, on which it is attained,
    leaving out cells whose value is 1 or n. Every table value is first
    checked against ``solve``. ``line_graph_lower`` is read on K_4 from its
    base graph, the 4-star; the other bounds come from ``evaluate_all``."""
    graphs = known_values._named_graphs()
    m, _, d1, d2 = known_values._line_graph_data(graphs["4-star"])
    tight = {name: set() for name in _BOUNDS}
    for label, table in known_values._EXACT.items():
        g = graphs[label]
        for (target, k), exact in table.items():
            assert solve(g, target, k).value == exact, (label, target, k)
            if k is None or not 1 < exact < g.n:
                continue
            reports = evaluate_all(g, k, target)
            if label == "K_4":
                reports.append(line_graph_lower(m, d1, d2, k))
            for report in reports:
                if report.value == exact:
                    tight[report.name].add(label)
    assert tight == {
        "lower_sqrt": {"cube", "K_4", "4-star", "K_3,3"},
        "upper_min_degree": {"K_4"},
        "lower_maxdeg": {"cube", "petersen", "K_4", "4-star", "K_3,3"},
        "line_graph_lower": {"K_4"},
        "cubic_upper_2gamma": {"cube", "K_4"},
        "planar_subgraph_lower": set(),
        "planar_graph_lower": {"cube", "4-star"},
        "faces_lower": set(),
        "tree_lower": {"4-star"},
        "connected_lower_i": {"cube", "K_3,3"},
        "connected_lower_ii": {"cube", "K_3,3"},
        "line_graph_connected_lower_i": set(),
        "line_graph_connected_lower_ii": set(),
    }
