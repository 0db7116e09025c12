"""The shrink check's dominating core W (``corpus._min_dominating_subset``)
against a blind scan of every subset of S, kept here as the reference."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from kalliance import corpus
from kalliance.alliances import PARAM_GAMMA, VertexSet
from kalliance.corpus import CorpusSpec, _connected_spec, run_corpus
from kalliance.graphs import Graph, path_graph, petersen_graph
from kalliance.solver import brute_force_oracle, solve

from .strategies import graphs


def blind_scan(g, s, gamma_witness):
    """The first dominating subset of s in ``combinations`` order of its
    members, by size from gamma's; V's is gamma's witness."""
    if len(s) == g.n:
        return gamma_witness
    full = (1 << g.n) - 1
    for size in range(len(gamma_witness), len(s) + 1):
        for combo in combinations(s.members, size):
            cover = 0
            for v in combo:
                cover |= (1 << v) | g.adjacency[v]
            if cover == full:
                return VertexSet.from_vertices(g, combo)
    raise AssertionError("s does not dominate")


def _dominating_superset(g, bits):
    """``bits`` plus every vertex it leaves undominated."""
    cover = 0
    for v in range(g.n):
        if bits >> v & 1:
            cover |= (1 << v) | g.adjacency[v]
    return VertexSet(g, bits | ((1 << g.n) - 1) & ~cover)


@settings(max_examples=300)
@given(graphs(min_n=1, max_n=9), st.integers(min_value=0))
def test_core_equals_the_blind_scan_on_drawn_dominating_sets(g, seed):
    s = _dominating_superset(g, seed % (1 << g.n))
    gamma = brute_force_oracle(g, PARAM_GAMMA).witness
    assert corpus._min_dominating_subset(g, s, gamma).bits == blind_scan(g, s, gamma).bits


def _recorded_calls(monkeypatch, spec):
    """Every (g, s, gamma witness) the shrink check asks W of in one run."""
    calls = []
    real = corpus._min_dominating_subset

    def recording(g, s, gamma_witness):
        calls.append((g, s, gamma_witness))
        return real(g, s, gamma_witness)

    with monkeypatch.context() as patched:
        patched.setattr(corpus, "_min_dominating_subset", recording)
        assert run_corpus(spec).total_violations() == 0
    return calls


def test_core_equals_the_blind_scan_on_every_call_of_the_default_corpus(monkeypatch):
    calls = _recorded_calls(monkeypatch, corpus.default_corpus_spec())
    assert len(calls) == 962
    for g, s, gamma in calls:
        assert corpus._min_dominating_subset(g, s, gamma).bits == blind_scan(g, s, gamma).bits


def test_core_equals_the_blind_scan_on_every_call_of_a_cubic_corpus(monkeypatch):
    spec = CorpusSpec(tuple(
        _connected_spec("random_cubic", seed, n=n) for n in (18, 20, 22) for seed in range(4)
    ))
    calls = _recorded_calls(monkeypatch, spec)
    assert sum(len(s) < g.n for g, s, _ in calls) > 50
    for g, s, gamma in calls:
        assert corpus._min_dominating_subset(g, s, gamma).bits == blind_scan(g, s, gamma).bits


def test_a_single_dominator_is_in_the_core():
    # On the path 0-1-2-3-4, S = {0, 1, 2, 3}: 3 alone dominates 4, so it is
    # forced; 0 is dominated twice (by 0 and 1), which forces neither.
    g = path_graph(5)
    s = VertexSet.from_vertices(g, [0, 1, 2, 3])
    gamma = solve(g, PARAM_GAMMA).witness
    assert gamma.members == (0, 3)
    assert corpus._min_dominating_subset(g, s, gamma).members == (0, 3)


def test_a_member_the_forced_ones_cover_is_never_scanned(monkeypatch):
    # 1 alone dominates the leaf 2, so it is forced, and its closed
    # neighbourhood {0, 1, 2, 3} holds the leaf 0's: 0 is redundant beside 1.
    g = Graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5)])
    s = VertexSet.from_vertices(g, [0, 1, 3, 4, 5])
    gamma = solve(g, PARAM_GAMMA).witness
    scanned = set()
    real = corpus.combinations

    def recording(pool, size):
        scanned.update(v for v, _ in pool)
        return real(pool, size)

    monkeypatch.setattr(corpus, "combinations", recording)
    w = corpus._min_dominating_subset(g, s, gamma)
    assert w.members == (1, 4) == blind_scan(g, s, gamma).members
    assert scanned == {3, 4, 5}


def test_core_of_the_whole_vertex_set_is_gamma_s_witness():
    g = petersen_graph()
    gamma = solve(g, PARAM_GAMMA).witness
    assert corpus._min_dominating_subset(g, VertexSet.full(g), gamma) is gamma
