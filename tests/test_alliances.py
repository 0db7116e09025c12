import pytest
from hypothesis import given, settings, strategies as st

from kalliance.alliances import (
    PARAMETERS,
    ConstructionInvariantError,
    VertexSet,
    boundary_degrees,
    certify,
    construct_upper_witness,
    cubic_augment_dominating,
    is_defensive_k_alliance,
    is_dominating,
    is_total_dominating,
    meets,
    shrink_to_lower_k,
)
from kalliance.bounds import upper_min_degree
from kalliance.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from kalliance.solver import _Search, problem

from .strategies import graphs, graphs_with_subset, small_k

Q3 = hypercube_graph(3)
# Cube labels are bit patterns: {0,1,3,2} induces a 4-cycle face.
FACE = VertexSet.from_vertices(Q3, [0, 1, 2, 3])


# ---------------------------------------------------------------------------
# VertexSet basics
# ---------------------------------------------------------------------------

def test_vertex_set_operations():
    s = VertexSet.from_vertices(Q3, [0, 3, 5])
    assert s.members == (0, 3, 5)
    assert len(s) == 3
    assert s.bits == 0b101001
    assert 3 in s and 4 not in s  # membership through iteration


def test_vertex_set_rejects_cross_graph_operations():
    t = VertexSet.from_vertices(petersen_graph(), [0])
    with pytest.raises(ValueError, match="different graph"):
        is_dominating(Q3, t)
    with pytest.raises(ValueError):
        VertexSet.from_vertices(Q3, [8])


# ---------------------------------------------------------------------------
# Boundary degrees and predicates
# ---------------------------------------------------------------------------

def test_boundary_degrees_triangle():
    k3 = complete_graph(3)
    degs = boundary_degrees(k3, VertexSet.from_vertices(k3, [0, 1]))
    assert degs[0] == (1, 1)
    assert degs[2] == (2, 0)


def test_boundary_degrees_cube_face():
    degs = boundary_degrees(Q3, FACE)
    assert all(degs[v] == (2, 1) for v in FACE)


def test_boundary_degrees_full_petersen():
    pet = petersen_graph()
    degs = boundary_degrees(pet, VertexSet.full(pet))
    assert all(degs[v] == (3, 0) for v in range(10))


def test_defensive_examples():
    assert is_defensive_k_alliance(Q3, VertexSet.from_vertices(Q3, [0, 1]), -1)
    assert is_defensive_k_alliance(Q3, FACE, 0)
    k3 = complete_graph(3)
    assert not is_defensive_k_alliance(k3, VertexSet.from_vertices(k3, [0]), 1)
    with pytest.raises(ValueError):
        is_defensive_k_alliance(Q3, VertexSet(Q3, 0), 0)


def test_domination_examples():
    assert is_dominating(Q3, VertexSet.from_vertices(Q3, [0, 7]))
    c4 = cycle_graph(4)
    assert not is_dominating(c4, VertexSet.from_vertices(c4, [0]))
    assert not is_dominating(c4, VertexSet(c4, 0))
    assert is_total_dominating(Q3, VertexSet.full(Q3))
    assert not is_total_dominating(complete_graph(1), VertexSet.full(complete_graph(1)))


def test_meets_reads_each_demand():
    p4 = path_graph(4)  # 0 - 1 - 2 - 3
    gamma, gamma_t = PARAMETERS["gamma"].demands, PARAMETERS["gamma_t"].demands
    connected = (False, False, False, True)
    # Bit v of a mask is vertex v. 1 and 2 each have one neighbour inside
    # and one outside.
    assert meets(p4, 0b0110, 0, PARAMETERS["gamma_k_ca"].demands)
    assert not meets(p4, 0b0110, 1, PARAMETERS["a_k"].demands)
    assert meets(p4, 0b1001, 0, gamma)
    assert not meets(p4, 0b0011, 0, gamma)  # 3 has no neighbour inside
    assert not meets(p4, 0b1001, 0, gamma_t)  # nor has 0
    assert meets(p4, 0b0110, 0, gamma_t)
    assert not meets(p4, 0b1001, 0, connected)


def test_certify_cube_face_is_global_connected():
    cert = certify(Q3, FACE, 0, "global_connected")
    assert cert.is_defensive and cert.is_dominating and cert.is_connected_induced
    assert cert.satisfied
    assert set(cert.margins.values()) == {1}  # (2, 1) boundary at k=0


def test_certify_whole_complete_graph():
    k5 = complete_graph(5)
    cert = certify(k5, VertexSet.full(k5), 4, "defensive")
    assert cert.satisfied
    assert set(cert.margins.values()) == {0}
    assert cert.dominators == {}


def test_certify_petersen_at_top_level():
    pet = petersen_graph()
    assert certify(pet, VertexSet.full(pet), 3, "global").satisfied


def test_certify_rejects_bad_inputs():
    with pytest.raises(ValueError):
        certify(Q3, FACE, 0, "bogus")
    with pytest.raises(ValueError):
        certify(Q3, VertexSet(Q3, 0), 0)


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------

@given(graphs_with_subset(max_n=7), small_k())
def test_both_inequality_forms_agree(gs, k):
    g, s = gs
    degs = boundary_degrees(g, s)
    for v in s:
        inside, outside = degs[v]
        assert (inside >= outside + k) == (g.degrees[v] >= 2 * outside + k)


@given(graphs_with_subset(max_n=7), small_k())
def test_defensive_is_monotone_in_k(gs, k):
    g, s = gs
    if is_defensive_k_alliance(g, s, k):
        assert is_defensive_k_alliance(g, s, k - 1)
        assert is_defensive_k_alliance(g, s, k - 3)


@given(graphs(max_n=7), small_k())
def test_whole_set_defensive_iff_k_below_min_degree(g, k):
    assert is_defensive_k_alliance(g, VertexSet.full(g), k) == (k <= g.min_degree)


@given(graphs(max_n=7))
def test_min_degree_singleton_is_defensive(g):
    v = min(u for u in range(g.n) if g.degrees[u] == g.min_degree)
    assert is_defensive_k_alliance(g, VertexSet.from_vertices(g, [v]), -g.min_degree)


@given(graphs_with_subset(max_n=7))
def test_dominating_sets_certify_at_minus_max_degree(gs):
    g, s = gs
    if is_dominating(g, s):
        assert certify(g, s, -g.max_degree, "global").satisfied


@settings(max_examples=200)
@given(graphs_with_subset(max_n=7), small_k())
def test_parameter_table_verdicts_match_the_oracle(gs, k):
    # The solver's leaf test (its prune rules with no slots left) poses each
    # row's demands its own way; ``meets``, which the oracle reads, is their
    # one definition. The certificate's per-vertex evidence, counted apart
    # from ``meets``, must agree with the verdicts it reports.
    g, s = gs
    for name, row in PARAMETERS.items():
        expected = meets(g, s.bits, k, row.demands)
        search = _Search(g, problem(g, name, k if row.defensive else None))
        cover = 0
        for v in s:
            cover |= search.serve[v]
        leaf = search._prune(s.bits, cover, s.bits.bit_length(), 0) is None
        assert leaf == expected, (name, g.edges, s.members, k)
    cert = certify(g, s, k, "global")
    assert cert.is_defensive == all(m >= 0 for m in cert.margins.values())
    assert cert.is_dominating == all(c >= 1 for c in cert.dominators.values())


@given(graphs_with_subset(max_n=7), small_k())
def test_certificate_counting_identities(gs, k):
    g, s = gs
    cert = certify(g, s, k, "global")
    degs = boundary_degrees(g, s)
    inside_sum = sum(degs[v][0] for v in s)
    outside_sum = sum(degs[v][1] for v in s)
    for v in range(g.n):
        assert degs[v][0] + degs[v][1] == g.degrees[v]
    if cert.is_dominating:
        assert g.n - len(s) <= outside_sum
    if cert.is_defensive:
        assert k * len(s) + outside_sum <= inside_sum <= len(s) * (len(s) - 1)


# ---------------------------------------------------------------------------
# Constructive procedures
# ---------------------------------------------------------------------------

def test_shrink_with_zero_removals_is_identity():
    s = VertexSet.full(Q3)
    w = VertexSet.from_vertices(Q3, [0, 7])
    assert shrink_to_lower_k(Q3, s, 3, w, 0) == s


def test_shrink_complete_graph():
    k5 = complete_graph(5)
    result = shrink_to_lower_k(k5, VertexSet.full(k5), 4, VertexSet.from_vertices(k5, [0]), 2)
    assert result.members == (0, 3, 4)
    assert certify(k5, result, 0, "global").satisfied


def test_shrink_cube():
    result = shrink_to_lower_k(Q3, VertexSet.full(Q3), 3, VertexSet.from_vertices(Q3, [0, 7]), 1)
    assert result.members == (0, 2, 3, 4, 5, 6, 7)
    assert certify(Q3, result, 1, "global").satisfied


def test_shrink_validates_preconditions():
    s = VertexSet.full(Q3)
    w = VertexSet.from_vertices(Q3, [0, 7])
    with pytest.raises(ValueError):
        shrink_to_lower_k(Q3, s, 3, w, 7)  # r > |S| - |W|
    with pytest.raises(ValueError):
        shrink_to_lower_k(Q3, s, 4, w, 1)  # V is not a 4-alliance in a cubic graph
    with pytest.raises(ValueError):
        shrink_to_lower_k(Q3, s, 3, VertexSet.from_vertices(Q3, [0]), 1)  # W not dominating


def test_construct_upper_witness_cube():
    result = construct_upper_witness(Q3, -3)
    assert result.members == (0, 3, 5, 6, 7)
    assert len(result) == 8 - (3 - (-3)) // 2
    assert certify(Q3, result, -3, "global").satisfied


def test_construct_upper_witness_trivial_and_closed_form():
    assert construct_upper_witness(Q3, 3) == VertexSet.full(Q3)
    with pytest.raises(ValueError, match="above minimum degree"):
        construct_upper_witness(Q3, 4)  # V is not a 4-alliance of a cubic graph
    k5 = complete_graph(5)
    assert len(construct_upper_witness(k5, 0)) == 3


def test_construct_upper_witness_rejects_k_far_below_range():
    k2 = complete_graph(2)
    assert len(construct_upper_witness(k2, -2)) == 1
    with pytest.raises(ValueError):
        construct_upper_witness(k2, -3)


@given(graphs())
def test_construct_upper_witness_matches_upper_min_degree(g):
    # The construction's domain is exactly where the catalogue bound applies,
    # and there it builds a certified set of the bound's size.
    for k in range(-g.max_degree - 2, g.max_degree + 3):
        report = upper_min_degree(g.n, g.min_degree, k, g.max_degree)
        if not report.applicable:
            with pytest.raises(ValueError):
                construct_upper_witness(g, k)
            continue
        witness = construct_upper_witness(g, k)
        assert len(witness) == report.value
        assert meets(g, witness.bits, k, PARAMETERS["gamma_k_a"].demands)


def test_constructions_refuse_a_set_of_another_graph():
    # Q3 with vertices 0 and 3 swapped is cubic and of the same order, so
    # each bitmask fits it, but it is another graph.
    swap = {0: 3, 3: 0}
    other = Graph(8, [(swap.get(u, u), swap.get(v, v)) for u, v in Q3.edges])
    assert other != Q3
    w, core = VertexSet.from_vertices(Q3, [0, 7]), VertexSet.from_vertices(other, [0, 7])
    calls = (
        lambda: shrink_to_lower_k(Q3, VertexSet.full(other), 3, w, 1),
        lambda: shrink_to_lower_k(Q3, VertexSet.full(Q3), 3, core, 1),
        lambda: cubic_augment_dominating(Q3, core),
    )
    for call in calls:
        with pytest.raises(ValueError, match="different graph"):
            call()


def test_cubic_augment_cube_antipodal():
    result = cubic_augment_dominating(Q3, VertexSet.from_vertices(Q3, [0, 7]))
    assert result.members == (0, 1, 3, 7)
    assert certify(Q3, result, -1, "global").satisfied


def test_cubic_augment_no_op_when_already_internal():
    s = VertexSet.from_vertices(Q3, [0, 1, 2, 3])
    assert cubic_augment_dominating(Q3, s) == s


def test_cubic_augment_petersen():
    pet = petersen_graph()
    s = VertexSet.from_vertices(pet, [0, 2, 6])
    result = cubic_augment_dominating(pet, s)
    assert len(result) <= 6
    assert certify(pet, result, -1, "global").satisfied


def test_cubic_augment_validates():
    with pytest.raises(ValueError):
        cubic_augment_dominating(path_graph(4), VertexSet.from_vertices(path_graph(4), [1, 2]))
    with pytest.raises(ValueError):
        cubic_augment_dominating(Q3, VertexSet.from_vertices(Q3, [0]))


def test_star_has_no_defensive_alliance_above_one():
    # Leaves can never be 2-satisfied, and the center alone cannot either.
    star = star_graph(5)
    for members in ([0], [0, 1], [1], [1, 2], [0, 1, 2, 3, 4]):
        assert not is_defensive_k_alliance(star, VertexSet.from_vertices(star, members), 2)
