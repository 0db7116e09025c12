"""Differential tests of the layout DP, ``solver._layout_value``, and of
the engine choice that hands problems to it, ``solver.solve_from``.

On dominating, not connected problems with some ``req[v] >= 2`` and a
graph of order ``solver._DP_MIN_N`` or more, ``solve`` returns the DP's
answer, so a wrong value, a wrong ``none_exists`` or a feasible optimum that
is not the lex-least would be a wrong answer that nothing inside ``solve``
notices. These tests compare the DP's full answer (status, size and
witness) with the two engines it shares no code with: the lex engine run
from size 1, and the brute-force oracle. They also check that the answer
does not depend on the threshold, the cap on order below which the lex
engine answers (``tests/engines.py`` sets it). The DP is always read as
``solver._layout_value`` so that the fault-injection tests can replace it.
Its vertex order, ``solver._layout``, is held to a full-scan reference
kept here: the same order and bound, or a decline where the reference's
bound passes the cap.
"""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from kalliance import solver
from kalliance.alliances import (
    PARAM_A_K,
    PARAM_GAMMA,
    PARAM_GAMMA_K_A,
    PARAM_GAMMA_K_CA,
    PARAM_GAMMA_T,
    VertexSet,
    lookup_parameter,
    meets,
)
from kalliance.cli import main
from kalliance.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    is_connected,
    petersen_graph,
    random_cubic,
    random_graph,
    random_tree,
    star_graph,
    to_edge_list,
)
from kalliance.solver import STATUS_FOUND, STATUS_NONE, brute_force_oracle, problem

from .engines import DP_FIRST, LEX_ONLY, dp_threshold, dp_witness, lex_solve, routed_solve
from .strategies import graphs


def _dp_cells(g, ks):
    """The dominating, not connected cells of ``g``: gamma, gamma_t and
    gamma_k_a at each k of ``ks``, one cell per distinct problem."""
    cells = {}
    named = [(PARAM_GAMMA, None), (PARAM_GAMMA_T, None)] + [(PARAM_GAMMA_K_A, k) for k in ks]
    for target, k in named:
        cells.setdefault(problem(g, target, k), (target, k))
    return [(target, k, posed) for posed, (target, k) in cells.items()]


def _dp_answer(g, posed):
    """The DP's ``(status, value, witness members)``; a decline reads as the
    status ``declined``, which matches no engine."""
    bits = solver._layout_value(g, posed)
    if bits is None:
        return "declined", None, None
    if not bits:
        return STATUS_NONE, None, None
    return STATUS_FOUND, bits.bit_count(), VertexSet(g, bits).members


def _answer(res):
    return res.status, res.value, res.witness_members()


def _nodes(res):
    return res.stats.subsets, res.stats.prunes


def _oracle_mismatches(g):
    """Cells where the DP's answer differs from the oracle's, k over one
    below the degree range to one above it."""
    d = g.max_degree
    found = []
    for target, k, posed in _dp_cells(g, range(-d - 1, d + 2)):
        got = _dp_answer(g, posed)
        want = _answer(brute_force_oracle(g, target, k))
        if got != want:
            found.append((target, k, got, want))
    return found


def _lex_mismatches(g, ks=range(4)):
    """Cells where the DP's answer differs from the lex engine's from size 1."""
    found = []
    for target, k, posed in _dp_cells(g, ks):
        got = _dp_answer(g, posed)
        want = _answer(lex_solve(g, target, k))
        if got != want:
            found.append((target, k, got, want))
    return found


def _connected_cubic(sizes, count):
    """The first ``count`` connected ``random_cubic(n, seed)``, n cycling
    through ``sizes`` as the seed counts up."""
    found = []
    seed = 0
    while len(found) < count:
        g = random_cubic(sizes[seed % len(sizes)], seed)
        if is_connected(g):
            found.append(g)
        seed += 1
    return found


def test_layout_value_matches_the_lex_engine_on_cubic_graphs():
    cubic = _connected_cubic((12, 14, 16, 18, 20), 100)
    for g in cubic:
        assert _lex_mismatches(g) == [], g.edges
    # k = 0, 1 and k = 2, 3 pose one problem each on a cubic graph, so each
    # graph has four: gamma, gamma_t and two of gamma_k_a.
    assert sum(len(_dp_cells(g, range(4))) for g in cubic) == 400


@settings(max_examples=60)
@given(graphs(min_n=1, max_n=8))
def test_layout_value_matches_the_oracle_on_random_graphs(g):
    assert _oracle_mismatches(g) == []


@settings(max_examples=30)
@given(st.builds(random_tree, st.integers(1, 12), st.integers(0, 10**6)))
def test_layout_value_matches_the_oracle_on_trees(g):
    assert _oracle_mismatches(g) == []


def test_layout_value_covers_the_edge_cases():
    """Seeded graphs with isolated vertices, members needing more than their
    degree, and problems with no solution, each checked against the oracle
    and counted, so the sample cannot lose a case unnoticed."""
    sample = [random_graph(n, p, seed) for seed, (n, p) in enumerate(
        (n, p) for n in range(1, 11) for p in (0.15, 0.35, 0.6)
    )] + [random_tree(n, seed) for seed, n in enumerate(range(1, 13))] + [
        star_graph(5), Graph(3, []), Graph(5, [(0, 1), (1, 2)]),
    ]
    cells = isolated = over = none = 0
    for g in sample:
        assert _oracle_mismatches(g) == [], g.edges
        d = g.max_degree
        for target, k, posed in _dp_cells(g, range(-d - 1, d + 2)):
            cells += 1
            isolated += 0 in g.degrees
            over += any(r > deg for r, deg in zip(posed[2], g.degrees))
            none += solver._layout_value(g, posed) == 0
    assert (len(sample), cells) == (45, 345)
    assert isolated > 0 and over > 0 and none > 0


def test_a_dense_graph_is_left_to_the_lex_engine():
    """The complete graph's layout cannot bound the DP's states by
    ``_LAYOUT_MAX_STATES`` from n = 11 at k = 0, so the DP declines without
    running. With the threshold at 0 the DP is asked before any lex node,
    and ``solve`` is then the lex engine from size 1, nodes included."""
    for n in (10, 11, 16):
        g = complete_graph(n)
        posed = problem(g, PARAM_GAMMA_K_A, 0)
        lex = lex_solve(g, PARAM_GAMMA_K_A, 0)
        if n == 10:
            assert _dp_answer(g, posed) == _answer(lex)
            continue
        assert solver._layout_value(g, posed) is None
        fresh = routed_solve(g, PARAM_GAMMA_K_A, 0, DP_FIRST)
        assert fresh.witness_members() == lex.witness_members()
        assert _nodes(fresh) == _nodes(lex)


def _full_scan_layout(g, req):
    """The plain form of ``solver._layout``, the reference the layout tests
    hold it to: every start runs to its end, and each step scores every
    unplaced vertex."""
    n = g.n
    adj = g.adjacency
    deg = g.degrees
    best = None
    for first in range(0, n, max(1, -(-n // solver._LAYOUT_STARTS))):
        left = list(deg)
        placed = frontier = ones = 0
        order = []
        peak = total = 0
        v = first
        while True:
            b = 1 << v
            placed |= b
            order.append(v)
            frontier |= b
            m = adj[v] | b
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if u != v:
                    left[u] -= 1
                if not left[u]:
                    frontier &= ~(1 << u)
                    ones &= ~(1 << u)
                elif left[u] == 1 and frontier >> u & 1:
                    ones |= 1 << u
            bound = 1
            m = frontier
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                p, r = deg[u] - left[u], req[u]
                bound *= 1 + (p > 0) + max(0, min(r, p) - max(0, r - left[u]) + 1)
            peak = max(peak, bound)
            total += bound
            if len(order) == n:
                break
            v = min(
                (((adj[w] & ~placed) != 0) - (adj[w] & ones).bit_count(),
                 -(adj[w] & placed).bit_count(), w)
                for w in range(n) if not placed >> w & 1
            )[2]
        if best is None or (peak, total) < best[0]:
            best = (peak, total), order
    return best[1], best[0][0]


def _layout_mismatches(g, ks):
    """The cells of ``_dp_cells`` whose layout differs from the full scan's:
    another ``(order, bound)`` where the full scan's bound is within
    ``solver._LAYOUT_MAX_STATES``, or a bound within it where the full
    scan's passes it (both must decline there)."""
    cap = solver._LAYOUT_MAX_STATES
    found = []
    for target, k, posed in _dp_cells(g, ks):
        want = _full_scan_layout(g, posed[2])
        got = solver._layout(g, posed[2])
        if (got != want) if want[1] <= cap else got[1] <= cap:
            found.append((target, k, got, want))
    return found


@st.composite
def _scattered_graphs(draw):
    """Disjoint unions of two to four drawn graphs and one to three isolated
    vertices, relabelled at random so that the components interleave."""
    parts = draw(st.lists(graphs(min_n=1, max_n=6), min_size=2, max_size=4))
    n = sum(part.n for part in parts) + draw(st.integers(1, 3))
    label = draw(st.permutations(range(n)))
    edges, base = [], 0
    for part in parts:
        edges += [tuple(sorted((label[base + u], label[base + v]))) for u, v in part.edges]
        base += part.n
    return Graph(n, edges)


@settings(max_examples=80)
@given(_scattered_graphs())
def test_the_layout_matches_the_full_scan_across_components(g):
    d = g.max_degree
    assert _layout_mismatches(g, range(-d - 1, d + 2)) == []


def test_the_layout_matches_the_full_scan_on_cubic_graphs():
    """One seeded cubic graph per even n = 20..56 (connected or not), the
    distinct problems of k = -4..4 with gamma and gamma_t."""
    for n in range(20, 58, 2):
        g = random_cubic(n, n)
        assert _layout_mismatches(g, range(-4, 5)) == [], g.edges


def test_a_dense_layout_declines_as_the_full_scan_does():
    """Where every start passes ``_LAYOUT_MAX_STATES`` the full scan's bound
    is over it, the layout's is too, and the DP declines."""
    cap = solver._LAYOUT_MAX_STATES
    for g in (complete_graph(11), complete_graph(18), random_graph(30, 0.5, 1)):
        posed = problem(g, PARAM_GAMMA_K_A, 0)
        assert _full_scan_layout(g, posed[2])[1] > cap
        assert solver._layout(g, posed[2]) == ([], cap + 1)
        assert solver._layout_value(g, posed) is None


def test_a_code_wider_than_three_bits_matches_the_lex_engine():
    """Hubs of degree 12 to 14 need codes up to ``2 + req`` of 8 or more on
    34 of these 40 problems, so each slot of the DP's state takes 4 bits or
    more. The DP accepts those layouts and gives the lex engine's answer at
    every k."""
    wide = 0
    for g in (star_graph(15), complete_bipartite_graph(2, 12), complete_bipartite_graph(3, 13)):
        ks = range(-1, g.max_degree + 2)
        assert _lex_mismatches(g, ks) == [], g.edges
        for _, _, posed in _dp_cells(g, ks):
            if (2 + max(posed[2])).bit_length() >= 4:
                assert solver._layout_value(g, posed) is not None
                wide += 1
    assert wide == 34


def test_a_declined_layout_dp_counts_in_the_seconds(monkeypatch):
    """``solve`` takes its start time once, before the engine choice, so the
    time of a DP that declines is part of the result's seconds. The
    threshold at 0 makes the DP the engine asked first."""

    def slow_decline(g, posed):
        time.sleep(0.02)
        return None

    monkeypatch.setattr(solver, "_layout_value", slow_decline)
    with dp_threshold(DP_FIRST):
        res = solver.solve(petersen_graph(), PARAM_GAMMA_K_A, 0)
    assert _answer(res) == (STATUS_FOUND, 5, (0, 1, 2, 3, 4))
    assert res.stats.subsets > 0 and res.stats.seconds >= 0.02


def test_a_dp_solve_runs_no_lex_search(monkeypatch):
    """With the threshold at 0, ``solve`` enters no lex node on a problem
    the DP models and accepts; it enters one only on a problem the DP does
    not model or declines."""

    def no_search(*args):
        raise AssertionError("a lex node was entered")

    monkeypatch.setattr(solver._Search, "_extend", no_search)
    pet = petersen_graph()
    with dp_threshold(DP_FIRST):
        dp = solver.solve(pet, PARAM_GAMMA_K_A, 0)
        assert _answer(dp) == (STATUS_FOUND, 5, (0, 1, 2, 3, 4))
        assert _nodes(dp) == (0, 0)
        assert _answer(solver.solve(star_graph(5), PARAM_GAMMA_K_A, 4)) == (STATUS_NONE, None, None)
        for g, target, k in ((pet, PARAM_GAMMA_T, None), (complete_graph(11), PARAM_GAMMA_K_A, 0)):
            with pytest.raises(AssertionError, match="lex node"):
                solver.solve(g, target, k)


def test_the_layout_dp_answers_from_its_threshold_order(monkeypatch):
    """Below ``_DP_MIN_N`` vertices the lex engine answers alone and the DP
    is never asked; from it on the DP answers before any lex node, so the
    stats count none."""
    asked = []
    real = solver._layout_value

    def recorded(g, posed):
        asked.append(g.n)
        return real(g, posed)

    monkeypatch.setattr(solver, "_layout_value", recorded)
    pet = petersen_graph()
    small = solver.solve(pet, PARAM_GAMMA_K_A, 0)
    assert asked == [] and _answer(small) == _answer(brute_force_oracle(pet, PARAM_GAMMA_K_A, 0))
    assert _nodes(small) == _nodes(lex_solve(pet, PARAM_GAMMA_K_A, 0)) and sum(_nodes(small)) > 0
    g = random_cubic(20, 1)
    assert g.n >= solver._DP_MIN_N
    lex = lex_solve(g, PARAM_GAMMA_K_A, 0)
    assert asked == []
    big = solver.solve(g, PARAM_GAMMA_K_A, 0)
    assert asked == [20]
    assert _answer(big) == _answer(lex)
    assert _nodes(big) == (0, 0) and sum(_nodes(lex)) > 0


def _threshold_mismatches(g, ks):
    """The cells of ``_dp_cells`` that the DP models where the answer with
    the threshold at 0 (the DP wherever it accepts) differs from the lex
    engine alone, or where two runs of one threshold differ in their
    stats."""
    found = []
    for target, k, posed in _dp_cells(g, ks):
        if max(posed[2], default=0) < 2:
            continue
        dp, lex = ([routed_solve(g, target, k, t) for _ in range(2)] for t in (DP_FIRST, LEX_ONLY))
        runs = dp + lex
        if len({_answer(res) for res in runs}) > 1 or any(_nodes(a) != _nodes(b) for a, b in (dp, lex)):
            found.append((target, k, [(_answer(res), _nodes(res)) for res in runs]))
    return found


@settings(max_examples=60)
@given(graphs(min_n=1, max_n=8))
def test_the_answer_does_not_depend_on_the_cap_on_random_graphs(g):
    d = g.max_degree
    assert _threshold_mismatches(g, range(-d - 1, d + 2)) == []


@settings(max_examples=30)
@given(st.builds(random_tree, st.integers(1, 12), st.integers(0, 10**6)))
def test_the_answer_does_not_depend_on_the_cap_on_trees(g):
    d = g.max_degree
    assert _threshold_mismatches(g, range(-d - 1, d + 2)) == []


def test_the_answer_does_not_depend_on_the_cap_on_cubic_graphs():
    """The default threshold, threshold 0 and no DP on 40 connected cubic
    graphs with n = 12..20. Both sides of the default threshold are reached:
    the lex engine answers the cells of the smaller graphs, and the DP those
    of the larger."""
    sides = set()
    cubic = _connected_cubic((12, 14, 16, 18, 20), 40)
    for g in cubic:
        assert _threshold_mismatches(g, range(4)) == [], g.edges
        for k in (0, 2):
            lex = lex_solve(g, PARAM_GAMMA_K_A, k)
            res = solver.solve(g, PARAM_GAMMA_K_A, k)
            assert _answer(res) == _answer(lex)
            sides.add(_nodes(res) == _nodes(lex))
    assert sides == {True, False}


def test_the_layout_dp_refuses_the_problems_it_does_not_model():
    pet = petersen_graph()
    for target in (PARAM_A_K, PARAM_GAMMA_K_CA):
        with pytest.raises(ValueError, match="dominating, not connected"):
            solver._layout_value(pet, problem(pet, target, 0))


def _oracle_check_errors(g, capsys, tmp_path):
    """What ``oracle-check`` reports on ``g``; it must find a mismatch."""
    path = tmp_path / "g.el"
    path.write_text(to_edge_list(g))
    assert main(["oracle-check", "--graph", str(path)]) == 1
    return capsys.readouterr().err


def test_a_layout_value_one_too_high_is_caught(monkeypatch, capsys, tmp_path):
    """Fault injection: a DP whose witness has one vertex too many, or that
    reports none where the full vertex set is the answer, is reported by
    both differential checks, by the threshold check and, with the
    threshold at 0 so that ``solve`` asks the DP at once, by
    ``oracle-check``."""
    real = solver._layout_value

    def one_too_high(g, posed):
        bits = real(g, posed)
        spare = bits and ((1 << g.n) - 1) & ~bits
        # The lowest vertex outside the witness joins it; with none left, none.
        return bits | (spare & -spare) if spare else 0

    monkeypatch.setattr(solver, "_layout_value", one_too_high)
    pet = petersen_graph()
    wrong = (PARAM_GAMMA_K_A, 0, (STATUS_FOUND, 6, (0, 1, 2, 3, 4, 5)), (STATUS_FOUND, 5, (0, 1, 2, 3, 4)))
    assert wrong in _oracle_mismatches(pet)
    assert wrong in _lex_mismatches(pet)
    assert [(target, k) for target, k, _ in _threshold_mismatches(pet, range(4))] == [
        (PARAM_GAMMA_K_A, 0), (PARAM_GAMMA_K_A, 2)
    ]
    with dp_threshold(DP_FIRST):
        err = _oracle_check_errors(pet, capsys, tmp_path)
    assert "mismatch: gamma_k_a k=0: solver found/6/(0, 1, 2, 3, 4, 5) vs oracle found/5/" in err
    # At k = 2, 3 the answer is all ten vertices, so one more is none.
    assert "mismatch: gamma_k_a k=3: solver none_exists/None/None vs oracle found/10/" in err
    # gamma and gamma_t pose problems with max req <= 1, which solve never
    # hands to the DP, so only gamma_k_a's cells at k >= 0 can go wrong.
    assert "mismatch: gamma " not in err and "mismatch: gamma_t " not in err


def _mirrored(real):
    """A layout DP that answers with ``real``'s lex-least optimum on the
    reversed labelling, mapped back: a feasible optimum of the right size
    that is, in general, not the lex-least."""

    def mirrored(g, posed):
        n = g.n
        dominating, connected, req = posed
        mirror = Graph(n, [(n - 1 - u, n - 1 - v) for u, v in g.edges])
        bits = real(mirror, (dominating, connected, req[::-1]))
        return bits and sum(1 << (n - 1 - v) for v in range(n) if bits >> v & 1)

    return mirrored


def test_a_witness_that_is_not_lex_least_is_caught(monkeypatch, capsys, tmp_path):
    """Fault injection: a DP that returns a feasible optimum other than the
    lex-least, its answer on the reversed labelling mapped back, is reported
    by both differential checks, by the threshold check and, with the
    threshold at 0, by ``oracle-check``."""
    monkeypatch.setattr(solver, "_layout_value", _mirrored(solver._layout_value))
    pet = petersen_graph()
    wrong = (PARAM_GAMMA_K_A, 0, (STATUS_FOUND, 5, (5, 6, 7, 8, 9)), (STATUS_FOUND, 5, (0, 1, 2, 3, 4)))
    assert wrong in _oracle_mismatches(pet)
    assert wrong in _lex_mismatches(pet)
    assert [(target, k) for target, k, _ in _threshold_mismatches(pet, range(4))] == [(PARAM_GAMMA_K_A, 0)]
    with dp_threshold(DP_FIRST):
        err = _oracle_check_errors(pet, capsys, tmp_path)
    assert "mismatch: gamma_k_a k=0: solver found/5/(5, 6, 7, 8, 9) vs oracle found/5/(0, 1, 2, 3, 4)" in err
    assert "mismatch: gamma " not in err and "mismatch: gamma_t " not in err


def test_a_lex_half_one_too_high_is_caught(monkeypatch, capsys, tmp_path):
    """Fault injection in the engine choice's lex half: on the problems the
    DP models, the lex engine's witness gains the lowest vertex outside it.
    The DP's differential against the lex engine, the threshold check and
    ``oracle-check`` at the default threshold, where the lex engine answers
    the Petersen graph's cells alone, each report it. The DP itself still
    meets the oracle, and gamma and gamma_t, whose problems the DP does not
    model, stay right."""
    real = solver._Search.run

    def one_too_high(self, size, counters):
        bits = real(self, size, counters)
        if not (self.needs_dom and not self.needs_conn and max(self.req) >= 2):
            return bits
        spare = bits and ((1 << self.n) - 1) & ~bits
        return bits | (spare & -spare) if spare else bits

    monkeypatch.setattr(solver._Search, "run", one_too_high)
    pet = petersen_graph()
    wrong = (PARAM_GAMMA_K_A, 0, (STATUS_FOUND, 5, (0, 1, 2, 3, 4)), (STATUS_FOUND, 6, (0, 1, 2, 3, 4, 5)))
    assert _oracle_mismatches(pet) == []
    assert wrong in _lex_mismatches(pet)
    assert [(target, k) for target, k, _ in _threshold_mismatches(pet, range(4))] == [(PARAM_GAMMA_K_A, 0)]
    err = _oracle_check_errors(pet, capsys, tmp_path)
    assert "mismatch: gamma_k_a k=0: solver found/6/(0, 1, 2, 3, 4, 5) vs oracle found/5/" in err
    assert "mismatch: gamma " not in err and "mismatch: gamma_t " not in err


def _relabelling_mismatches(g, seeds):
    """``gamma_k_a`` at k = 0 on g and on g under each vertex permutation
    drawn from ``seeds``, solved with ``max_n=64``. A permutation keeps the
    value and maps a feasible set to a feasible set, so each permuted solve
    whose value differs from g's, or whose witness's preimage fails the
    demands, is listed as ``(seed, value, preimage meets)``. Each layout must
    accept first: on a decline ``solve`` would fall to a lex scan from size 1
    that does not end at these orders."""
    demands = lookup_parameter(PARAM_GAMMA_K_A).demands

    def accepted_solve(h):
        _, bound = solver._layout(h, problem(h, PARAM_GAMMA_K_A, 0)[2])
        assert bound <= solver._LAYOUT_MAX_STATES, f"the layout declines: {h.edges}"
        return solver.solve(h, PARAM_GAMMA_K_A, 0, max_n=64)

    want = accepted_solve(g).value
    found = []
    for seed in seeds:
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        res = accepted_solve(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
        preimage = sum(1 << v for v in range(g.n) if res.witness.bits >> perm[v] & 1)
        ok = meets(g, preimage, 0, demands)
        if res.value != want or not ok:
            found.append((seed, res.value, ok))
    return found


def test_a_value_one_too_high_on_a_relabelled_graph_is_caught(monkeypatch):
    """Fault injection: a DP whose witness has one vertex too many on every
    graph but the unpermuted one is reported on each permutation. A fault
    that every labelling shares keeps the value invariant, so only the
    preimage check can see it, when the extra vertex breaks the demands;
    the differential checks above are the ones for that."""
    g = random_cubic(20, 1)
    real = solver._layout_value

    def one_too_high(h, posed):
        bits = real(h, posed)
        if h == g:
            return bits
        spare = ((1 << h.n) - 1) & ~bits
        return bits | (spare & -spare)

    assert _relabelling_mismatches(g, range(3)) == []
    monkeypatch.setattr(solver, "_layout_value", one_too_high)
    want = solver.solve(g, PARAM_GAMMA_K_A, 0).value
    assert [seed for seed, value, _ in _relabelling_mismatches(g, range(3)) if value == want + 1] == [
        0, 1, 2
    ]


@pytest.mark.slow
def test_a_relabelled_graph_keeps_its_value_beyond_the_oracle():
    """n = 40..56, where only the DP reaches: ``gamma_k_a`` at k = 0 keeps
    its value under three seeded vertex permutations of each of six
    ``random_cubic`` graphs, and each permuted witness maps back to a
    feasible set."""
    for n, seed in ((40, 1), (40, 2), (44, 1), (48, 1), (52, 1), (56, 1)):
        g = random_cubic(n, seed)
        assert _relabelling_mismatches(g, range(3)) == [], (n, seed)


@pytest.mark.slow
def test_layout_value_matches_the_lex_engine_beyond_the_oracle():
    """n = 24..40, past the oracle's cap: the DP's answer, witness included,
    against the lex engine from size 1 on 20 seeded connected cubic graphs,
    k = 0..3 with gamma and gamma_t."""
    for g in _connected_cubic(tuple(range(24, 42, 2)), 20):
        assert _lex_mismatches(g) == [], g.edges


@pytest.mark.slow
def test_the_answer_does_not_depend_on_the_cap_beyond_the_oracle():
    """n = 24..32: with the threshold at 0 and with no DP, each cell the DP
    models gets the same answer, and each side repeats its stats, on 10
    seeded connected cubic graphs, k = 0..3."""
    for g in _connected_cubic(tuple(range(24, 34, 2)), 10):
        assert _threshold_mismatches(g, range(4)) == [], g.edges


_LOW_DEMAND_CELLS = ((PARAM_GAMMA, None), (PARAM_GAMMA_T, None), (PARAM_GAMMA_K_A, -1))


def _second_engine_mismatches(g):
    """gamma, gamma_t and ``gamma_k_a`` at k = -1 on g where the layout DP's
    witness differs from ``solve``'s, as ``(target, k, DP's, solve's)``
    members. These problems have max req <= 1, which the engine choice
    never hands to the DP, so ``solve`` answers them with the lex engine
    and its packing rule, which share no code with the DP (ROADMAP item 21)."""
    found = []
    for target, k in _LOW_DEMAND_CELLS:
        got = dp_witness(g, target, k)
        want = solver.solve(g, target, k, max_n=64).witness.bits
        if got != want:
            found.append((target, k, VertexSet(g, got).members, VertexSet(g, want).members))
    return found


def test_a_low_demand_witness_that_is_not_lex_least_is_caught(monkeypatch):
    """Fault injection: a DP that returns a feasible optimum of the right
    size that is not the lex-least is reported on each of gamma, gamma_t and
    ``gamma_k_a`` at k = -1, while ``solve`` keeps its answers."""
    g = random_cubic(16, 0)
    assert _second_engine_mismatches(g) == []
    monkeypatch.setattr(solver, "_layout_value", _mirrored(solver._layout_value))
    found = _second_engine_mismatches(g)
    assert [(target, k) for target, k, _, _ in found] == list(_LOW_DEMAND_CELLS)
    for target, k, got, want in found:
        demands = lookup_parameter(target).demands
        assert len(got) == len(want) and meets(g, VertexSet.from_vertices(g, got).bits, k, demands)


@pytest.mark.slow
def test_the_layout_dp_is_a_second_engine_past_the_oracle():
    """n = 24..50, past the oracle's cap: the layout DP gives gamma, gamma_t
    and ``gamma_k_a`` at k = -1 the same lex-least witness as ``solve`` on
    12 connected ``random_cubic`` graphs."""
    for n, seed in ((24, 1), (24, 2), (28, 1), (28, 2), (32, 1), (32, 2),
                    (36, 1), (40, 1), (40, 2), (44, 1), (48, 2), (50, 3)):
        g = random_cubic(n, seed)
        assert is_connected(g), (n, seed)
        assert _second_engine_mismatches(g) == [], (n, seed)
