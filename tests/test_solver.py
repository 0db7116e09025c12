import random

import pytest
from hypothesis import given, settings, strategies as st

from kalliance.alliances import (
    PARAM_A_K,
    PARAM_GAMMA,
    PARAM_GAMMA_K_A,
    PARAM_GAMMA_K_CA,
    PARAM_GAMMA_T,
    PARAMETERS,
    VertexSet,
    certify,
    is_dominating,
    is_total_dominating,
)
from kalliance.bounds import parity_collapse
from kalliance.corpus import _connected_spec
from kalliance.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    is_connected,
    path_graph,
    petersen_graph,
    random_cubic,
    random_graph,
    random_tree,
    star_graph,
)
from kalliance.solver import (
    STATUS_FOUND,
    ResourceLimitError,
    _Search,
    brute_force_oracle,
    cells,
    problem,
    solve,
)

from .engines import DP_FIRST, dp_threshold, lex_solve
from .strategies import graphs, regular_graphs

Q3 = hypercube_graph(3)
K_PARAMETERS = tuple(name for name, row in PARAMETERS.items() if row.defensive)


def outcome(result):
    return result.status, result.value, result.witness_members()


# ---------------------------------------------------------------------------
# Frozen exact values
# ---------------------------------------------------------------------------

def test_cube_witnesses_are_lex_least():
    assert solve(Q3, PARAM_A_K, -1).witness_members() == (0, 1)
    assert solve(Q3, PARAM_GAMMA).witness_members() == (0, 7)
    assert solve(Q3, PARAM_GAMMA_T).witness_members() == (0, 1, 2, 3)


def test_petersen_values():
    pet = petersen_graph()
    assert solve(pet, PARAM_GAMMA_K_A, 2).value == 10
    assert solve(pet, PARAM_GAMMA).value == 3
    assert solve(pet, PARAM_GAMMA).witness_members() == (0, 2, 6)
    assert solve(pet, PARAM_GAMMA_T).value == 4


def test_nonregular_graph_has_no_top_level_global_alliance():
    star = star_graph(5)
    result = solve(star, PARAM_GAMMA_K_A, 4)
    assert result.status == "none_exists"
    assert result.value is None and result.witness is None


def test_oracle_trivia():
    assert brute_force_oracle(complete_graph(1), PARAM_A_K, 0).value == 1
    assert brute_force_oracle(Q3, PARAM_GAMMA).value == 2
    assert brute_force_oracle(Q3, PARAM_GAMMA_T).value == 4


def test_gamma_t_none_on_isolated_vertex():
    g = Graph(3, [(0, 1)])
    assert solve(g, PARAM_GAMMA_T).status == "none_exists"
    assert brute_force_oracle(g, PARAM_GAMMA_T).status == "none_exists"


# ---------------------------------------------------------------------------
# One problem per solve
# ---------------------------------------------------------------------------

@given(graphs(min_n=1, max_n=8))
def test_gamma_is_the_global_alliance_problem_at_minus_max_degree(g):
    assert problem(g, PARAM_GAMMA_K_A, -g.max_degree) == problem(g, PARAM_GAMMA)


@given(regular_graphs())
def test_gamma_t_is_the_global_alliance_problem_just_above_minus_degree(g):
    # On a d-regular graph every member needs ceil(1/2) = ceil(2/2) = 1
    # inside neighbour at k = 1 - d and k = 2 - d.
    d = g.max_degree
    assert d >= 1 and d == g.min_degree
    for k in (1 - d, 2 - d):
        assert problem(g, PARAM_GAMMA_K_A, k) == problem(g, PARAM_GAMMA_T)


@pytest.mark.parametrize("n", (30, 45, 60))
def test_paths_and_cycles_meet_their_closed_forms(n):
    """Past the oracle's cap: gamma = ceil(n/3) and gamma_t = floor(n/2) +
    ceil(n/4) - floor(n/4) on paths and cycles; on a cycle gamma_k_a is
    gamma at k = -2, gamma_t at k = -1 and 0, and n at k = 1 and 2.
    gamma_k_ca is n - 2 on both at k = -2 (connected domination), 0
    (connected total domination) and -1, where a path's leaves need nothing
    inside and its inner vertices one."""
    gamma, gamma_t = -(-n // 3), n // 2 + -(-n // 4) - n // 4
    for g in (path_graph(n), cycle_graph(n)):
        assert solve(g, PARAM_GAMMA, max_n=64).value == gamma
        assert solve(g, PARAM_GAMMA_T, max_n=64).value == gamma_t
        for k in (-2, -1, 0):
            assert solve(g, PARAM_GAMMA_K_CA, k, max_n=64).value == n - 2, (len(g.edges), k)
    cycle = cycle_graph(n)
    expected = {-2: gamma, -1: gamma_t, 0: gamma_t, 1: n, 2: n}
    for k, value in expected.items():
        assert solve(cycle, PARAM_GAMMA_K_A, k, max_n=64).value == value, k


def test_q5_meets_its_domination_numbers():
    """Past the oracle's cap: the 5-cube, n = 32, has gamma = 7 and
    gamma_t = 8."""
    q5 = hypercube_graph(5)
    assert solve(q5, PARAM_GAMMA, max_n=32).value == 7
    assert solve(q5, PARAM_GAMMA_T, max_n=32).value == 8


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------

def test_parameter_validation():
    with pytest.raises(ValueError):
        solve(Q3, "bogus", 0)
    with pytest.raises(ValueError):
        solve(Q3, PARAM_GAMMA_K_A)  # k required
    with pytest.raises(ValueError):
        solve(Q3, PARAM_GAMMA, 0)  # k forbidden


def test_size_cap_and_overrides(monkeypatch):
    big_star = star_graph(30)
    with pytest.raises(ResourceLimitError):
        solve(big_star, PARAM_GAMMA)
    assert solve(big_star, PARAM_GAMMA, max_n=30).value == 1
    for bad in (0, -3, True, 2.5):
        with pytest.raises(ValueError, match=f"max_n must be a positive integer, not {bad!r}"):
            solve(big_star, PARAM_GAMMA, max_n=bad)
    monkeypatch.setenv("ALLIANCE_MAX_N", "31")
    assert solve(big_star, PARAM_GAMMA).value == 1
    with pytest.raises(ResourceLimitError):
        brute_force_oracle(big_star, PARAM_GAMMA)


def test_solver_matches_oracle_on_petersen():
    pet = petersen_graph()
    for target, k in ((PARAM_GAMMA_K_A, 0), (PARAM_GAMMA_K_CA, -1), (PARAM_A_K, 1)):
        reference = outcome(brute_force_oracle(pet, target, k))
        assert reference[0] == STATUS_FOUND
        assert outcome(solve(pet, target, k)) == reference
    for target in (PARAM_GAMMA, PARAM_GAMMA_T):
        assert outcome(solve(pet, target)) == outcome(brute_force_oracle(pet, target))


def test_stats_are_populated():
    # gamma_t is the lex engine's problem alone. gamma_k_a at k = 0 is one
    # the layout DP models, and Q3's order is below the DP's threshold, so
    # the lex engine answers it. With the threshold at 0 the DP answers it,
    # and the stats count no subset and no prune.
    result = solve(Q3, PARAM_GAMMA_T)
    assert result.stats.subsets > 0
    assert isinstance(result.stats.seconds, float) and result.stats.seconds > 0
    stats = result.to_json_dict()["stats"]
    assert stats["subsets"] == result.stats.subsets
    assert stats["seconds"] == result.stats.seconds
    lex = solve(Q3, PARAM_GAMMA_K_A, 0).stats
    assert (lex.subsets, lex.prunes) == (6, 16) and lex.seconds > 0
    with dp_threshold(DP_FIRST):
        dp = solve(Q3, PARAM_GAMMA_K_A, 0).stats
    assert dp.subsets == dp.prunes == 0 and dp.seconds > 0


def test_answer_leaves_out_the_search_effort():
    # The lex engine and the DP answer Q3's gamma_k_a at k = 0 alike, with
    # different stats.
    lex = solve(Q3, PARAM_GAMMA_K_A, 0)
    with dp_threshold(DP_FIRST):
        dp = solve(Q3, PARAM_GAMMA_K_A, 0)
    assert (lex.stats.subsets, lex.stats.prunes) != (dp.stats.subsets, dp.stats.prunes)
    assert lex.answer == dp.answer == outcome(lex)


def test_json_shape():
    found = solve(Q3, PARAM_GAMMA_K_A, 0).to_json_dict()
    assert set(found) == {"parameter", "k", "status", "value", "witness", "stats"}
    missing = solve(star_graph(5), PARAM_A_K, 2).to_json_dict()
    assert set(missing) == {"parameter", "k", "status", "stats"}
    plain = solve(Q3, PARAM_GAMMA).to_json_dict()
    assert "k" not in plain


def test_star_admits_both_alliances_at_the_bottom_of_the_range():
    # Their nonexistence at k = 2, 3, 4 is acceptance check C6.
    star = star_graph(5)
    assert solve(star, PARAM_A_K, -4).found
    assert solve(star, PARAM_GAMMA_K_A, -4).found


def test_cycle_top_level_global_alliance_is_the_whole_graph():
    assert solve(cycle_graph(5), PARAM_GAMMA_K_A, 2).value == 5


# ---------------------------------------------------------------------------
# Oracle equivalence and order properties
# ---------------------------------------------------------------------------

@settings(max_examples=40)
@given(graphs(min_n=1, max_n=6), st.integers(-3, 3), st.sampled_from(K_PARAMETERS))
def test_solver_matches_oracle(g, k, target):
    assert outcome(solve(g, target, k)) == outcome(brute_force_oracle(g, target, k))


@settings(max_examples=40)
@given(graphs(min_n=1, max_n=6), st.sampled_from((PARAM_GAMMA, PARAM_GAMMA_T)))
def test_solver_matches_oracle_domination(g, target):
    assert outcome(solve(g, target)) == outcome(brute_force_oracle(g, target))


@settings(max_examples=25)
@given(graphs(min_n=1, max_n=6), st.integers(-3, 2))
def test_monotonicity_ladder(g, k):
    def val(target, kk):
        r = solve(g, target, kk)
        return r.value if r.found else None

    ak, ak1 = val(PARAM_A_K, k), val(PARAM_A_K, k + 1)
    gka, gka1 = val(PARAM_GAMMA_K_A, k), val(PARAM_GAMMA_K_A, k + 1)
    gkca = val(PARAM_GAMMA_K_CA, k)
    gamma = solve(g, PARAM_GAMMA).value
    if ak1 is not None:
        assert ak is not None and ak <= ak1
    if gka1 is not None:
        assert gka is not None and gka <= gka1
    if gka is not None:
        assert gka >= gamma
        assert ak is not None and gka >= ak
    if gkca is not None and gka is not None:
        assert gkca >= gka


@settings(max_examples=25)
@given(graphs(min_n=1, max_n=6))
def test_bottom_of_range_is_domination_number(g):
    d = g.max_degree
    assert solve(g, PARAM_GAMMA_K_A, -d).value == solve(g, PARAM_GAMMA).value
    assert solve(g, PARAM_A_K, -g.min_degree).value == 1


@settings(max_examples=25)
@given(graphs(min_n=1, max_n=6), st.integers(-3, 3))
def test_parity_collapse_preserves_values(g, k):
    other = parity_collapse(g, k)
    for target in (PARAM_A_K, PARAM_GAMMA_K_A):
        a, b = solve(g, target, k), solve(g, target, other)
        assert (a.status, a.value) == (b.status, b.value)


def test_complete_graph_shrink_chain():
    for n in range(2, 7):
        g = complete_graph(n)
        for k in range(1 - n, n):
            base = solve(g, PARAM_GAMMA_K_A, k).value
            for r in range(0, (k + n - 1) // 2 + 1):
                assert solve(g, PARAM_GAMMA_K_A, k - 2 * r).value + r == base


@settings(max_examples=20)
@given(graphs(min_n=2, max_n=6), st.integers(-2, 2))
def test_found_witnesses_recertify(g, k):
    for target in K_PARAMETERS:
        result = solve(g, target, k)
        if result.found:
            assert certify(g, result.witness, k, PARAMETERS[target].requirement).satisfied
    gamma = solve(g, PARAM_GAMMA)
    assert is_dominating(g, gamma.witness)
    total = solve(g, PARAM_GAMMA_T)
    if total.found:
        assert is_total_dominating(g, total.witness)


def test_asserted_planarity_never_sets_the_search_floor():
    # m = 15 = 3(n - 2) passes the only planarity check, yet the graph is
    # not planar, and the planar bound's value of 7 is wrong for it.
    g = random_graph(7, 0.7, seed=1186).with_asserted_planar()
    expected = (STATUS_FOUND, 6, (0, 2, 3, 4, 5, 6))
    assert outcome(brute_force_oracle(g, PARAM_GAMMA_K_A, 4)) == expected
    assert outcome(solve(g, PARAM_GAMMA_K_A, 4)) == expected


def test_solver_matches_oracle_on_small_random_cubic():
    cubic = [g for g in (random_cubic(12, s) for s in range(1, 10)) if is_connected(g)][:2]
    assert len(cubic) == 2
    for g in cubic:
        for target in K_PARAMETERS:
            for k in range(-3, 2):
                expected = outcome(brute_force_oracle(g, target, k))
                assert outcome(solve(g, target, k)) == expected, (g.edges, target, k)


# ---------------------------------------------------------------------------
# Differential checks at sizes where the pruning rules fire
# ---------------------------------------------------------------------------

def _differential_graphs():
    """Seeded G(n, p) graphs, n = 7..10, sparse to dense."""
    return [
        random_graph(n, p, seed=100 * n + seed)
        for n in range(7, 11)
        for p in (0.25, 0.45, 0.65, 0.85)
        for seed in range(6)
    ]


def _cells(g):
    d = g.max_degree
    for target in PARAMETERS:
        if target in K_PARAMETERS:
            for k in range(-d - 1, d + 2):
                yield target, k
        else:
            yield target, None


@pytest.fixture(scope="module")
def oracle_cells():
    return [
        (g, target, k, brute_force_oracle(g, target, k))
        for g in _differential_graphs()
        for target, k in _cells(g)
    ]


def test_solver_matches_oracle_on_random_graphs(oracle_cells):
    for g, target, k, expected in oracle_cells:
        assert outcome(solve(g, target, k)) == outcome(expected), (g.edges, target, k)


@pytest.fixture(scope="module")
def cubic_oracle_cells():
    """Connected cubic graphs, n = 14, where deficit plus domination is
    often exactly what the added vertices can meet."""
    cubic = [g for g in (random_cubic(14, s) for s in range(1, 20)) if is_connected(g)][:3]
    assert len(cubic) == 3
    return [
        (g, target, k, brute_force_oracle(g, target, k))
        for g in cubic
        for target in (PARAM_GAMMA_K_A, PARAM_GAMMA_K_CA)
        for k in range(-4, 4)
    ]


def test_solver_matches_oracle_on_random_cubic(cubic_oracle_cells):
    for g, target, k, expected in cubic_oracle_cells:
        assert outcome(solve(g, target, k)) == outcome(expected), (g.edges, target, k)


def test_joint_counting_cuts_the_search():
    # Nodes, not seconds: the count does not depend on the machine. Deficit
    # and domination bounded apart take 13,409 nodes here. The lex engine
    # runs alone: at this order ``solve`` hands the problem to the layout DP.
    g = random_cubic(20, 1)
    stats = lex_solve(g, PARAM_GAMMA_K_A, 0).stats
    assert stats.subsets + stats.prunes <= 6700


def test_served_counting_cuts_mixed_requirements():
    # Nodes, not seconds. At k = -2 this tree's leaves need nothing inside
    # and its hubs one: a closed count over every vertex and an open one over
    # the hubs, taken apart, need 16,930 nodes here.
    g = random_tree(18, 938)
    result = solve(g, PARAM_GAMMA_K_A, -2)
    assert result.stats.subsets + result.stats.prunes <= 12000
    expected = brute_force_oracle(g, PARAM_GAMMA_K_A, -2)
    assert result.witness_members() == expected.witness_members()


def test_connected_counting_cuts_the_search():
    # Nodes, not seconds: 10,520 and 10,496. Without the charge for each
    # extra component of the chosen set, these take 14,572 and 14,472.
    g = random_cubic(20, 24)
    for k, most in ((-3, 12000), (-1, 12000)):
        stats = solve(g, PARAM_GAMMA_K_CA, k).stats
        assert stats.subsets + stats.prunes <= most, k


@pytest.fixture(scope="module")
def sparse_oracle_cells():
    """Seeded random trees plus 0-3 chords, n = 10..13: chosen prefixes
    often fall apart into several components, and degrees vary."""
    cells = []
    for n in range(10, 14):
        for chords in range(4):
            seed = 10 * n + chords
            g = random_tree(n, seed)
            if chords:
                missing = [(u, v) for u in range(n) for v in range(u + 1, n)
                           if (u, v) not in g.edges]
                g = Graph(n, g.edges + tuple(random.Random(seed).sample(missing, chords)))
            for k in range(-g.max_degree - 1, 2):
                cells.append((g, PARAM_GAMMA_K_CA, k, brute_force_oracle(g, PARAM_GAMMA_K_CA, k)))
    return cells


def test_solver_matches_oracle_on_sparse_graphs(sparse_oracle_cells):
    for g, target, k, expected in sparse_oracle_cells:
        assert outcome(solve(g, target, k)) == outcome(expected), (g.edges, target, k)


def test_connected_count_charges_each_extra_component():
    # C_8 at k = -2 asks for a connected dominating set. The prefix {0, 3}
    # has two components and leaves 5 and 6 undominated; two vertices from
    # 4..7 could dominate both, but cannot also join 0 to 3.
    g = cycle_graph(8)
    search = _Search(g, problem(g, PARAM_GAMMA_K_CA, -2))
    mask, cover = _prefix_state(search, (0, 3))
    pos, need = 4, 2
    undominated = (search.full ^ (cover | mask)).bit_count()
    assert undominated == need * (g.max_degree - 1)
    assert search._prune(mask, cover, pos, need) == "connected_count"
    assert brute_force_oracle(g, PARAM_GAMMA_K_CA, -2).value > 2 + need


def test_connected_edges_counts_a_second_neighbour_in_the_prefix():
    # gamma_c of the Petersen graph is 4 = (n - 2) / (deg - 1): 4 connected
    # cubic vertices dominate all 10 only as a tree (cycle rank 0) with no
    # outside vertex next to two members. The prefix {0, 2} with 1 decided
    # out breaks that, since 1 is next to both: 12 member degrees, less
    # 2 * 3 for the tree edges and 1 for vertex 1, leave 5 edges for the 6
    # outside vertices. The counts pass it: 3 vertices are undominated, and
    # two slots newly dominate up to 2 * 2, less 1 for joining 0 to 2.
    g = petersen_graph()
    search = _Search(g, problem(g, PARAM_GAMMA_K_CA, -3))
    mask, cover = _prefix_state(search, (0, 2))
    pos, need = 3, 2
    assert brute_force_oracle(g, PARAM_GAMMA_K_CA, -3).value == 2 + need
    assert (search.full ^ (cover | mask)).bit_count() == need * (g.max_degree - 1) - 1
    assert search._prune(mask, cover, pos, need) == "connected_edges"
    search.counts_edges = False
    assert search._prune(mask, cover, pos, need) is None


def test_connected_edges_cuts_the_search():
    # Nodes, not seconds. Without the edge count this takes 193,178 nodes.
    g = _connected_spec("random_cubic", 1, n=32).build()
    stats = solve(g, PARAM_GAMMA_K_CA, -1, max_n=g.n).stats
    assert stats.subsets + stats.prunes <= 60000


@pytest.mark.slow
def test_connected_edges_cuts_the_search_at_forty_vertices():
    # Nodes, not seconds. Without the edge count this takes 3,924,719 nodes.
    g = random_cubic(40, 2)
    stats = solve(g, PARAM_GAMMA_K_CA, -1, max_n=g.n).stats
    assert stats.subsets + stats.prunes <= 450000


@pytest.mark.parametrize("members, pos", [((0, 1), 2), ((2, 3), 4)])
def test_dominating_packing_counts_disjoint_suppliers(members, pos):
    # gamma_t on C_10, where each vertex serves two. Either prefix serves
    # four vertices, and three more serve the six left: the count passes.
    # After {0, 1}, the suppliers of 8, 7, 4 and 3 among 2..9, {7, 9},
    # {6, 8}, {3, 5} and {2, 4}, are pairwise disjoint, and the highest-first
    # packing finds them. After {2, 3} it keeps only 9, 8 and 5; the
    # fewest-suppliers-first packing keeps 9, 0, 6 and 5, whose suppliers
    # among 4..9 are {8}, {9}, {5, 7} and {4, 6}. Either way four are needed.
    g = cycle_graph(10)
    search = _Search(g, problem(g, PARAM_GAMMA_T))
    mask, cover = _prefix_state(search, members)
    need = 3
    assert (search.full ^ cover).bit_count() == need * search.serve_slots[pos]
    assert search._prune(mask, cover, pos, need) == "dominating_packing"
    search.packs = False
    assert search._prune(mask, cover, pos, need) is None
    assert brute_force_oracle(g, PARAM_GAMMA_T).value > 2 + need


@pytest.mark.parametrize("g, k, pos, need", [
    # C_8 at k = 2, where each vertex needs both neighbours. Member 0 has
    # only 1 and 7 left, so both join; 7 then has only 6 left for its one
    # missing neighbour, and 6 only 5: four forced vertices for 3 slots.
    (cycle_graph(8), 2, 1, 3),
    # The path 0-2-3-1 at k = 1, where the inner vertices need both
    # neighbours and the ends their one. With 1 decided out, member 0
    # forces 2, 2 forces 3, and 3 can no longer reach its neighbour 1.
    (Graph(4, [(0, 2), (2, 3), (3, 1)]), 1, 2, 2),
])
def test_defensive_forced_propagates_through_forced_vertices(g, k, pos, need):
    search = _Search(g, problem(g, PARAM_A_K, k))
    mask, cover = _prefix_state(search, (0,))
    assert search._prune(mask, cover, pos, need) == "defensive_forced"
    search.forces = False
    assert search._prune(mask, cover, pos, need) is None
    assert brute_force_oracle(g, PARAM_A_K, k).value > 1 + need


def test_defensive_forced_takes_a_whole_cubic_graph():
    # At k = 2 a cubic vertex needs all three neighbours, so one member of a
    # connected cubic graph forces every other vertex: n - 2 slots are too
    # few, and n - 1 pass.
    g = petersen_graph()
    search = _Search(g, problem(g, PARAM_A_K, 2))
    mask, cover = _prefix_state(search, (0,))
    assert search._prune(mask, cover, 1, g.n - 2) == "defensive_forced"
    assert search._prune(mask, cover, 1, g.n - 1) is None
    search.forces = False
    assert search._prune(mask, cover, 1, g.n - 2) is None
    assert brute_force_oracle(g, PARAM_A_K, 2).value == g.n


def test_defensive_forced_cuts_the_search():
    # Nodes, not seconds. Without the forced-neighbour rule these take
    # 18,532 and 192,864 nodes.
    g = random_cubic(28, 1)
    stats = solve(g, PARAM_A_K, 2, max_n=g.n).stats
    assert stats.subsets + stats.prunes <= 1000
    g = random_cubic(32, 1)
    stats = solve(g, PARAM_GAMMA_K_CA, 0, max_n=g.n).stats
    assert stats.subsets + stats.prunes <= 150000


def test_dominating_packing_cuts_the_search():
    # Nodes, not seconds. Without the packing rule this takes 1,214,378 nodes,
    # and with the highest-first packing alone 87,236.
    g = random_cubic(40, 2)
    stats = solve(g, PARAM_GAMMA_T, max_n=g.n).stats
    assert stats.subsets + stats.prunes <= 15000


def _prefix_state(search, members):
    mask = cover = 0
    for v in members:
        mask |= 1 << v
        cover |= search.serve[v]
    return mask, cover


@pytest.mark.parametrize("rule", _Search.RULES)
def test_prune_rule_never_cuts_the_oracle_witness(
    oracle_cells, cubic_oracle_cells, sparse_oracle_cells, rule,
):
    fired_below_optimum = 0
    for g, target, k, expected in oracle_cells + cubic_oracle_cells + sparse_oracle_cells:
        if not expected.found:
            continue
        search = _Search(g, problem(g, target, k))
        witness = expected.witness_members()
        for i in range(1, len(witness) + 1):  # i = len(witness) is the leaf test
            need = len(witness) - i
            state = _prefix_state(search, witness[:i])
            assert search._prune(*state, witness[i - 1] + 1, need) != rule, (
                g.edges, target, k, witness[:i],
            )
            # No set below the optimum is feasible, so the rule may fire on
            # the prefix with one slot fewer, from any later position; doing
            # so shows that the sample exercises it.
            for pos in range(witness[i - 1] + 1, g.n):
                if need > 1 and search._prune(*state, pos, need - 1) == rule:
                    fired_below_optimum += 1
    assert fired_below_optimum > 0


def _check_atlas(max_n, cells_of):
    """Every graph on 1..max_n vertices in the networkx atlas: asserts that
    ``solve`` equals the oracle on each of ``cells_of(g)`` and returns the
    number of graphs and of cells checked."""
    nx = pytest.importorskip("networkx")
    atlas = [
        Graph(h.number_of_nodes(), h.edges())
        for h in nx.graph_atlas_g()
        if 1 <= h.number_of_nodes() <= max_n
    ]
    checked = 0
    for g in atlas:
        for target, k in cells_of(g):
            expected = brute_force_oracle(g, target, k)
            assert outcome(solve(g, target, k)) == outcome(expected), (g.edges, target, k)
            checked += 1
    return len(atlas), checked


def test_solver_matches_oracle_on_every_small_graph():
    """Every graph on 1-6 vertices in the networkx atlas, all five parameters,
    k from one below the degree range to one above it."""
    # Both counts are fixed, so the sweep cannot shrink unnoticed.
    assert _check_atlas(6, _cells) == (208, 6476)


@pytest.mark.slow
def test_solver_matches_oracle_on_every_graph_up_to_seven_vertices():
    """Every graph on 1-7 vertices in the networkx atlas, every cell of
    ``cells(g)``."""
    assert _check_atlas(7, cells) == (1252, 38540)


def _scan_without(g, posed, switch):
    """The lex engine from size 1 with the ``_Search`` attribute ``switch``
    set False, which turns one rule off: the least hit as a bitmask, or
    None, and the nodes it took."""
    search = _Search(g, posed)
    setattr(search, switch, False)
    counters = [0, 0]
    for size in range(1, g.n + 1):
        hit = search.run(size, counters)
        if hit is not None:
            break
    return hit, sum(counters)


def _check_beyond_the_oracle(cells, switch):
    """``solve`` against the lex engine from size 1 with ``switch`` off,
    value and witness, on each ``(g, target, k)`` of ``cells``; asserts
    that the rule fired, as the same answers took fewer nodes."""
    switched = plain = 0
    for g, target, k in cells:
        result = solve(g, target, k, max_n=g.n)
        hit, nodes = _scan_without(g, problem(g, target, k), switch)
        assert outcome(result) == (STATUS_FOUND, hit.bit_count(), VertexSet(g, hit).members), (
            g.edges, target, k,
        )
        switched += result.stats.subsets + result.stats.prunes
        plain += nodes
    assert switched < plain


@pytest.mark.slow
def test_packing_keeps_every_answer_beyond_the_oracle():
    """n = 26..40, past the oracle's cap: ``solve`` against the lex engine
    from size 1 without ``dominating_packing``, value and witness, on seeded
    connected cubic graphs for gamma, gamma_t and gamma_k_a at k = -1."""
    cubic = [
        g for g in (random_cubic(26 + 2 * (seed % 8), seed) for seed in range(24))
        if is_connected(g)
    ][:16]
    assert len(cubic) == 16
    _check_beyond_the_oracle(
        [(g, target, k) for g in cubic
         for target, k in ((PARAM_GAMMA, None), (PARAM_GAMMA_T, None), (PARAM_GAMMA_K_A, -1))],
        "packs",
    )


@pytest.mark.slow
def test_edge_count_keeps_every_answer_beyond_the_oracle():
    """Past the oracle's cap: ``solve`` against the lex engine from size 1
    without ``connected_edges``, value and witness, on gamma_k_ca at the
    three lowest k of the degree range, where max req <= 1. Seeded
    connected cubic graphs with n = 24..36, and connected G(n, 0.3) with
    n = 16..20, whose degrees vary."""
    cubic = [
        g for g in (random_cubic(24 + 2 * (seed % 7), seed) for seed in range(20))
        if is_connected(g)
    ][:12]
    sparse = [
        g for g in (random_graph(16 + seed % 5, 0.3, seed) for seed in range(12))
        if is_connected(g)
    ][:4]
    assert (len(cubic), len(sparse)) == (12, 4)
    cells = []
    for g in cubic + sparse:
        low = -g.max_degree
        assert max(problem(g, PARAM_GAMMA_K_CA, low + 2)[2]) <= 1
        cells += [(g, PARAM_GAMMA_K_CA, k) for k in (low, low + 1, low + 2)]
    _check_beyond_the_oracle(cells, "counts_edges")


@pytest.mark.slow
def test_forced_neighbours_keep_every_answer_beyond_the_oracle():
    """Past the oracle's cap: ``solve`` against the lex engine from size 1
    without ``defensive_forced``, value and witness, on a_k at k = 0, 1, 2
    and gamma_k_ca at k = 0. Seeded connected cubic graphs with n = 24..36,
    where k = 2 asks for every vertex, and connected G(n, 0.2) with
    n = 22..24, whose degrees vary."""
    cubic = [
        g for g in (random_cubic(24 + 2 * (seed % 7), seed) for seed in range(20))
        if is_connected(g)
    ][:12]
    sparse = [
        g for g in (random_graph(22 + seed % 3, 0.2, seed) for seed in range(20))
        if is_connected(g)
    ][:4]
    assert (len(cubic), len(sparse)) == (12, 4)
    _check_beyond_the_oracle(
        [(g, target, k) for g in cubic + sparse
         for target, k in ((PARAM_A_K, 0), (PARAM_A_K, 1), (PARAM_A_K, 2), (PARAM_GAMMA_K_CA, 0))],
        "forces",
    )


def test_relabelling_keeps_values_beyond_the_oracle():
    """n = 24 is past the oracle's cap: compare each graph with a random
    relabelling of itself, and certify the witness mapped back."""
    cubic = [g for g in (random_cubic(24, s) for s in range(20)) if is_connected(g)][:4]
    assert len(cubic) == 4
    for i, g in enumerate(cubic):
        perm = list(range(g.n))
        random.Random(i).shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        back = {perm[v]: v for v in range(g.n)}
        for target in (PARAM_GAMMA_K_A, PARAM_GAMMA_K_CA):
            for k in (-1, 0):
                original, relabelled = solve(g, target, k), solve(h, target, k)
                assert relabelled.value == original.value, (i, target, k)
                witness = VertexSet.from_vertices(
                    g, [back[v] for v in relabelled.witness_members()]
                )
                assert len(witness) == relabelled.value
                assert certify(g, witness, k, PARAMETERS[target].requirement).satisfied


def test_fill_position_stop_skips_only_children_prune_cuts():
    """At every entered node, each child past the fill position (a sibling
    ``_extend`` never visits) must be cut by ``_prune``. Irregular seeded
    graphs, the three defensive parameters, k over the degree range."""
    checked = []

    class Probe(_Search):
        def _extend(self, mask, cover, start, stop, need, counters):
            card_stop = self.n - need + 1
            # Leaf children are each tested: the stop leaves them alone.
            assert need > 1 or stop == card_stop
            for v in range(stop, card_stop):
                child = mask | (1 << v)
                rule = self._prune(child, cover | self.serve[v], v + 1, need - 1)
                assert rule is not None, (mask, v, need)
                checked.append(rule)
            return super()._extend(mask, cover, start, stop, need, counters)

    counters = [0, 0]
    for seed in range(24):
        g = random_graph(8 + seed % 5, (0.3, 0.45, 0.6)[seed % 3], 500 + seed)
        for target in (PARAM_A_K, PARAM_GAMMA_K_A, PARAM_GAMMA_K_CA):
            for k in range(-g.max_degree, g.max_degree + 1):
                search = Probe(g, problem(g, target, k))
                for size in range(1, g.n + 1):
                    hit = search.run(size, counters)
                    if hit is not None:
                        break
                witness = None if hit is None else VertexSet(g, hit).members
                assert witness == brute_force_oracle(g, target, k).witness_members()
    # Both counters as they would be without the stop: a skipped child counts
    # as a prune, exactly as the cut it stands for. (The gamma_k_a cells with
    # max req <= 1 are cut by dominating_packing too, and the gamma_k_ca
    # ones by connected_edges; defensive_forced cuts nodes on all three.)
    assert counters == [12856, 48824]
    # The count is fixed, so the sample cannot shrink unnoticed.
    assert len(checked) == 6954
    assert "defensive_member" in checked
