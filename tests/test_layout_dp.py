"""Differential tests of the layout DP, ``solver._layout_value``.

``solve`` returns the DP's answer on dominating, not connected problems
with some ``req[v] >= 2`` and runs no lex search there, so a wrong value, a
wrong ``none_exists`` or a feasible optimum that is not the lex-least would
be a wrong answer that nothing inside ``solve`` notices. These tests compare
the DP's full answer (status, size and witness) with the two engines it
shares no code with: the lex engine run from size 1, and the brute-force
oracle. The DP is always read as ``solver._layout_value`` so that the
fault-injection tests can replace it.
"""

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
)
from kalliance.cli import main
from kalliance.graphs import (
    Graph,
    complete_graph,
    is_connected,
    petersen_graph,
    random_cubic,
    random_graph,
    random_tree,
    star_graph,
    to_edge_list,
)
from kalliance.solver import STATUS_FOUND, STATUS_NONE, _solve_from, brute_force_oracle, problem

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
        want = _answer(_solve_from(g, target, k, posed, 1))
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
    running, and ``solve`` is the lex engine from size 1."""
    for n in (10, 11, 16):
        g = complete_graph(n)
        posed = problem(g, PARAM_GAMMA_K_A, 0)
        lex = _solve_from(g, PARAM_GAMMA_K_A, 0, posed, 1)
        if n == 10:
            assert _dp_answer(g, posed) == _answer(lex)
            continue
        assert solver._layout_value(g, posed) is None
        fresh = solver.solve(g, PARAM_GAMMA_K_A, 0)
        assert fresh.witness_members() == lex.witness_members()
        assert (fresh.stats.subsets, fresh.stats.prunes) == (lex.stats.subsets, lex.stats.prunes)


def test_a_dp_solve_runs_no_lex_search(monkeypatch):
    """On the DP's path ``solve`` runs one engine: it builds a ``_Search``
    only on a problem the DP does not model or declines."""

    def no_search(*args):
        raise AssertionError("a lex search was built")

    monkeypatch.setattr(solver, "_Search", no_search)
    pet = petersen_graph()
    assert _answer(solver.solve(pet, PARAM_GAMMA_K_A, 0)) == (STATUS_FOUND, 5, (0, 1, 2, 3, 4))
    assert _answer(solver.solve(star_graph(5), PARAM_GAMMA_K_A, 4)) == (STATUS_NONE, None, None)
    for g, target, k in ((pet, PARAM_GAMMA_T, None), (complete_graph(11), PARAM_GAMMA_K_A, 0)):
        with pytest.raises(AssertionError, match="lex search"):
            solver.solve(g, target, k)


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
    both differential checks and by ``oracle-check``."""
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
    err = _oracle_check_errors(pet, capsys, tmp_path)
    assert "mismatch: gamma_k_a k=0: solver found/6/(0, 1, 2, 3, 4, 5) vs oracle found/5/" in err
    # At k = 2, 3 the answer is all ten vertices, so one more is none.
    assert "mismatch: gamma_k_a k=3: solver none_exists/None/None vs oracle found/10/" in err
    # gamma and gamma_t pose problems with max req <= 1, which solve never
    # hands to the DP, so only gamma_k_a's cells at k >= 0 can go wrong.
    assert "mismatch: gamma " not in err and "mismatch: gamma_t " not in err


def test_a_witness_that_is_not_lex_least_is_caught(monkeypatch, capsys, tmp_path):
    """Fault injection: a DP that returns a feasible optimum other than the
    lex-least, its answer on the reversed labelling mapped back, is reported
    by both differential checks and by ``oracle-check``."""
    real = solver._layout_value

    def mirrored(g, posed):
        n = g.n
        dominating, connected, req = posed
        mirror = Graph(n, [(n - 1 - u, n - 1 - v) for u, v in g.edges])
        bits = real(mirror, (dominating, connected, req[::-1]))
        return bits and sum(1 << (n - 1 - v) for v in range(n) if bits >> v & 1)

    monkeypatch.setattr(solver, "_layout_value", mirrored)
    pet = petersen_graph()
    wrong = (PARAM_GAMMA_K_A, 0, (STATUS_FOUND, 5, (5, 6, 7, 8, 9)), (STATUS_FOUND, 5, (0, 1, 2, 3, 4)))
    assert wrong in _oracle_mismatches(pet)
    assert wrong in _lex_mismatches(pet)
    err = _oracle_check_errors(pet, capsys, tmp_path)
    assert "mismatch: gamma_k_a k=0: solver found/5/(5, 6, 7, 8, 9) vs oracle found/5/(0, 1, 2, 3, 4)" in err
    assert "mismatch: gamma " not in err and "mismatch: gamma_t " not in err


@pytest.mark.slow
def test_layout_value_matches_the_lex_engine_beyond_the_oracle():
    """n = 24..40, past the oracle's cap: the DP's answer, witness included,
    against the lex engine from size 1 on 20 seeded connected cubic graphs,
    k = 0..3 with gamma and gamma_t."""
    for g in _connected_cubic(tuple(range(24, 42, 2)), 20):
        assert _lex_mismatches(g) == [], g.edges
