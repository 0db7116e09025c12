"""The brute-force oracle answers every cell of a graph from one sweep
(``solver._oracle_sweep``). These tests compare it with the plain per-cell
enumeration it replaced, and check the premises the sweep rests on: a set
that meets a defensive row's demands at k meets them at k - 1 and meets
a_k's at k, and a set that meets a row that dominates, or dominates totally,
meets gamma's. They also check which shared questions each subset is asked.
"""

import itertools

from hypothesis import given, settings

from kalliance import solver
from kalliance.alliances import PARAM_A_K, PARAM_GAMMA, PARAMETERS, meets
from kalliance.graphs import petersen_graph, random_cubic, random_graph, random_tree, star_graph
from kalliance.solver import brute_force_oracle, cells

from .strategies import graphs_with_subset

DEFENSIVE_ROWS = tuple(name for name, row in PARAMETERS.items() if row.defensive)
A_K = PARAMETERS[PARAM_A_K].demands
GAMMA = PARAMETERS[PARAM_GAMMA].demands


def _subsets(g):
    """The nonempty subsets of ``g`` as bitmasks, in cardinality-then-lex
    order."""
    singletons = [1 << v for v in range(g.n)]
    return (sum(c) for size in range(1, g.n + 1) for c in itertools.combinations(singletons, size))


def _reference(g, parameter, k):
    """One cell alone: the first nonempty subset, in cardinality-then-lex
    order, that meets the row's demands, and how many subsets were examined."""
    for examined, mask in enumerate(_subsets(g), start=1):
        if meets(g, mask, k or 0, PARAMETERS[parameter].demands):
            return "found", mask.bit_count(), tuple(v for v in range(g.n) if mask >> v & 1), examined
    return "none_exists", None, None, (1 << g.n) - 1


def _answer(result):
    return result.status, result.value, result.witness_members(), result.stats.subsets


def test_sweep_matches_the_per_cell_enumeration():
    """Seeded random graphs and trees with n = 1..10, cubic graphs with
    n = 8..12 (positive k defensive rows pending alongside gamma and
    gamma_t), and a star, whose k = -max_degree + 1 is not vacuous; every
    row, and k from one below the degree range to one above it."""
    sample = [random_graph(1 + i // 4, (0.2, 0.4, 0.6, 0.8)[i % 4], 900 + i) for i in range(40)]
    sample += [random_tree(3 + i, 950 + i) for i in range(8)]
    sample += [random_cubic(n, 960 + n) for n in (8, 10, 12)]
    sample.append(star_graph(7))
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
    assert checked == 1496


def test_each_subset_is_asked_the_shared_questions_first(monkeypatch):
    """Each subset's first question is a_k's demands at the lowest pending k
    of any defensive row, unless that k is at most -max_degree. A subset
    failing it is asked no defensive row, and nothing more when every row
    without k is answered; a subset failing gamma's demands is asked no row
    that dominates or dominates totally. A cell is pending at the subsets up
    to the one that answers it."""
    asked = []

    def recording(g, mask, k, demands):
        verdict = meets(g, mask, k, demands)
        asked.append((mask, k, demands, verdict))
        return verdict

    monkeypatch.setattr(solver, "meets", recording)
    shared_asked = 0
    for g in (random_cubic(10, 970), random_cubic(12, 971), petersen_graph(), star_graph(6)):
        asked.clear()
        wanted = cells(g)
        answers = solver._oracle_sweep(g, wanted)
        by_mask = {}
        for call in asked:
            by_mask.setdefault(call[0], []).append(call[1:])
        for examined, mask in enumerate(_subsets(g), start=1):
            pending = [cell for cell in wanted if answers[cell].stats.subsets >= examined]
            if not pending:
                assert mask not in by_mask
                break
            calls = by_mask[mask]
            lows = [k for name, k in pending if PARAMETERS[name].defensive]
            plain = len(lows) < len(pending)
            if lows and min(lows) > -g.max_degree:
                assert calls[0][:2] == (min(lows), A_K), (g.edges, mask)
                shared_asked += 1
                if not calls[0][2]:
                    assert plain or len(calls) == 1, (g.edges, mask)
                    assert not any(demands[0] for _, demands, _ in calls[1:]), (g.edges, mask)
            for i, (k, demands, verdict) in enumerate(calls):
                if demands == GAMMA and not verdict:
                    assert not any(d[1] or d[2] for _, d, _ in calls[i + 1:]), (g.edges, mask)
    assert shared_asked > 0


@settings(max_examples=300)
@given(graphs_with_subset(max_n=7))
def test_defensive_demands_are_monotone_in_k(gs):
    g, s = gs
    for name in DEFENSIVE_ROWS:
        demands = PARAMETERS[name].demands
        for k in range(-4, 5):
            if meets(g, s.bits, k, demands):
                assert meets(g, s.bits, k - 1, demands), (g.edges, s.bits, name, k)


@settings(max_examples=300)
@given(graphs_with_subset(max_n=7))
def test_every_row_implies_the_shared_questions_it_is_skipped_by(gs):
    """A defensive row met at k meets a_k's demands at k; a row that
    dominates, or dominates totally, meets gamma's."""
    g, s = gs
    for name, row in PARAMETERS.items():
        for k in range(-4, 5) if row.defensive else (None,):
            if not meets(g, s.bits, k or 0, row.demands):
                continue
            if row.defensive:
                assert meets(g, s.bits, k, A_K), (g.edges, s.bits, name, k)
            if row.dominating or row.total:
                assert meets(g, s.bits, 0, GAMMA), (g.edges, s.bits, name, k)
