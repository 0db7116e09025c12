"""The brute-force oracle answers every cell of a graph from one sweep
(``solver._oracle_sweep``). These tests compare it with the plain per-cell
enumeration it replaced, and check the one premise the sweep rests on: a set
that meets a defensive row's demands at k meets them at k - 1.
"""

import itertools

from hypothesis import given, settings

from kalliance.alliances import PARAMETERS, meets
from kalliance.graphs import random_graph, random_tree
from kalliance.solver import brute_force_oracle

from .strategies import graphs_with_subset

DEFENSIVE_ROWS = tuple(name for name, row in PARAMETERS.items() if row.defensive)


def _reference(g, parameter, k):
    """One cell alone: the first nonempty subset, in cardinality-then-lex
    order, that meets the row's demands, and how many subsets were examined."""
    singletons = [1 << v for v in range(g.n)]
    subsets = (sum(c) for size in range(1, g.n + 1) for c in itertools.combinations(singletons, size))
    for examined, mask in enumerate(subsets, start=1):
        if meets(g, mask, k or 0, PARAMETERS[parameter].demands):
            return "found", mask.bit_count(), tuple(v for v in range(g.n) if mask >> v & 1), examined
    return "none_exists", None, None, (1 << g.n) - 1


def _answer(result):
    return result.status, result.value, result.witness_members(), result.stats.subsets


def test_sweep_matches_the_per_cell_enumeration():
    """Seeded random graphs and trees with n = 1..10, every row, and k from
    one below the degree range to one above it."""
    sample = [random_graph(1 + i // 4, (0.2, 0.4, 0.6, 0.8)[i % 4], 900 + i) for i in range(40)]
    sample += [random_tree(3 + i, 950 + i) for i in range(8)]
    checked = 0
    for g in sample:
        d = g.max_degree
        for name, row in PARAMETERS.items():
            for k in range(-d - 1, d + 2) if row.defensive else (None,):
                result = brute_force_oracle(g, name, k)
                assert _answer(result) == _reference(g, name, k), (g.edges, name, k)
                assert result.stats.prunes == 0
                checked += 1
    # The count is fixed, so the sample cannot shrink unnoticed.
    assert checked == 1362


@settings(max_examples=300)
@given(graphs_with_subset(max_n=7))
def test_defensive_demands_are_monotone_in_k(gs):
    g, s = gs
    for name in DEFENSIVE_ROWS:
        demands = PARAMETERS[name].demands
        for k in range(-4, 5):
            if meets(g, s.bits, k, demands):
                assert meets(g, s.bits, k - 1, demands), (g.edges, s.bits, name, k)
