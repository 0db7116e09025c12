import hashlib
import io
import itertools
import json
from dataclasses import dataclass, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kalliance import bounds, corpus, solver
from kalliance.alliances import (
    PARAM_A_K,
    PARAM_GAMMA,
    PARAM_GAMMA_K_A,
    PARAM_GAMMA_K_CA,
    PARAM_GAMMA_T,
    PARAMETERS,
    ConstructionInvariantError,
    VertexSet,
    meets,
)
from kalliance.cli import main
from kalliance.corpus import (
    CorpusSpec,
    GraphSpec,
    _certify_graph,
    default_corpus_spec,
    load_corpus_spec,
    run_corpus,
)
from kalliance.graphs import (
    Graph,
    complete_graph,
    from_edge_list,
    generate,
    random_cubic,
    to_edge_list,
)
from kalliance.solver import k_range, solve

from .engines import lex_solve
from .strategies import graphs


def benchmark_refs() -> dict:
    """The benchmark's recorded outputs, read only."""
    return json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "refs.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL_SPEC = CorpusSpec(
    graphs=(
        GraphSpec.of("complete", n=4),
        GraphSpec.of("hypercube", d=2),
        GraphSpec.of("star", n=5),
        GraphSpec.of("random_tree", n=7, seed=1),
        GraphSpec.of("random_cubic", n=6, seed=0),
    ),
)


# ---------------------------------------------------------------------------
# CLI subcommands
# ---------------------------------------------------------------------------

def test_gen_writes_edge_list(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gen", "--family", "hypercube", "--d", "3")
    assert code == 0
    assert from_edge_list(out) == generate("hypercube", d=3)

    target = tmp_path / "q3.el"
    code, _, _ = run_cli(capsys, "gen", "--family", "hypercube", "--d", "3", "-o", str(target))
    assert code == 0
    assert from_edge_list(target.read_text()) == generate("hypercube", d=3)


def test_gen_bad_params_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "gen", "--family", "random_cubic", "--n", "7")
    assert code == 2
    assert "error" in err


def test_solve_round_trip(capsys, tmp_path):
    g = generate("petersen")
    path = tmp_path / "pet.el"
    path.write_text(to_edge_list(g))
    code, out, _ = run_cli(capsys, "solve", "--graph", str(path), "--target", "gka", "--k", "1")
    assert code == 0
    payload = json.loads(out)
    direct = solve(g, "gamma_k_a", 1)
    assert payload["status"] == "found"
    assert payload["value"] == direct.value
    assert tuple(payload["witness"]) == direct.witness_members()
    assert set(payload["stats"]) == {"subsets", "prunes", "seconds"}
    assert isinstance(payload["stats"]["seconds"], float)


def test_solve_reads_stdin(capsys, monkeypatch):
    text = to_edge_list(generate("hypercube", d=3))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run_cli(capsys, "solve", "--graph", "-", "--target", "gka", "--k", "0")
    assert code == 0
    assert json.loads(out)["value"] == 4


def test_solve_nonexistence_status(capsys, tmp_path):
    path = tmp_path / "star.el"
    path.write_text(to_edge_list(generate("star", n=5)))
    code, out, _ = run_cli(capsys, "solve", "--graph", str(path), "--target", "gka", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "none_exists"
    assert "value" not in payload and "witness" not in payload


def test_solve_k_validation(capsys, tmp_path):
    path = tmp_path / "g.el"
    path.write_text("n 2\n0 1\n")
    assert run_cli(capsys, "solve", "--graph", str(path), "--target", "gka")[0] == 2
    assert run_cli(capsys, "solve", "--graph", str(path), "--target", "gamma", "--k", "0")[0] == 2


def test_solve_names_a_bad_size_cap_in_the_environment(capsys, tmp_path, monkeypatch):
    # A cap that is not a positive integer is refused, by name and value,
    # rather than read as an int() error or as a cap that refuses every graph.
    path = tmp_path / "g.el"
    path.write_text("n 2\n0 1\n")
    for bad in ("abc", "-3", "0", ""):
        monkeypatch.setenv("ALLIANCE_MAX_N", bad)
        code, out, err = run_cli(capsys, "solve", "--graph", str(path), "--target", "gamma")
        assert (code, out) == (2, "")
        assert err == f"error: ALLIANCE_MAX_N must be a positive integer, not {bad!r}\n"
    monkeypatch.setenv("ALLIANCE_MAX_N", "2")
    assert run_cli(capsys, "solve", "--graph", str(path), "--target", "gamma")[0] == 0


def test_solve_warns_on_out_of_range_k(capsys, tmp_path):
    path = tmp_path / "g.el"
    path.write_text("n 2\n0 1\n")
    code, _, err = run_cli(capsys, "solve", "--graph", str(path), "--target", "gka", "--k", "9")
    assert code == 0
    assert "warning" in err


def test_missing_file_is_exit_3(capsys):
    assert run_cli(capsys, "solve", "--graph", "/nonexistent.el", "--target", "gamma")[0] == 3


def test_parse_error_is_exit_3(capsys, tmp_path):
    path = tmp_path / "bad.el"
    path.write_text("0 0\n")
    assert run_cli(capsys, "solve", "--graph", str(path), "--target", "gamma")[0] == 3


def test_unknown_subcommand_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bounds_array_output(capsys, tmp_path):
    path = tmp_path / "q3.el"
    path.write_text(to_edge_list(generate("hypercube", d=3)))
    code, out, _ = run_cli(
        capsys, "bounds", "--graph", str(path), "--k", "0", "--target", "gka",
        "--assume-planar",
    )
    assert code == 0
    reports = json.loads(out)
    assert isinstance(reports, list)
    by_name = {r["name"]: r for r in reports}
    assert by_name["lower_maxdeg"]["value"] == 4
    assert by_name["planar_graph_lower"]["value"] == 4
    assert all(
        set(r) == {"name", "anchor", "kind", "target", "k", "value", "applicable", "reason"}
        for r in reports
    )


def test_bounds_with_set_certifies_and_adds_face_bound(capsys, tmp_path):
    path = tmp_path / "k3.el"
    path.write_text(to_edge_list(generate("complete", n=3)))
    code, out, _ = run_cli(
        capsys, "bounds", "--graph", str(path), "--k", "2", "--target", "gka",
        "--assume-planar", "--set", "0,1,2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["satisfied"] is True
    assert payload["components"] == 1
    by_name = {r["name"]: r for r in payload["reports"]}
    assert by_name["faces_lower"]["value"] == 3


def test_bounds_set_reports_follow_the_catalogue_target_rule(capsys, tmp_path):
    # a_k = 1 on the path at k = -1, so no size bound may reach it; the
    # connected target carries its own label on every report. The gka output,
    # set bounds included, is pinned whole.
    path = tmp_path / "path9.el"
    path.write_text(to_edge_list(generate("path", n=9)))

    def query(target):
        code, out, _ = run_cli(
            capsys, "bounds", "--graph", str(path), "--k", "-1", "--target", target, "--set", "0"
        )
        assert code == 0
        return out

    assert json.loads(query("ak"))["reports"] == []
    connected = json.loads(query("gkca"))["reports"]
    assert "tree_lower" in {r["name"] for r in connected}
    assert all(r["target"] == PARAM_GAMMA_K_CA for r in connected)
    digest = hashlib.sha256(query("gka").encode()).hexdigest()
    assert digest == "8a06261e8402efe42cdba149f88a406b0c937756ebf5e4dd420329a94278e022"
    # An empty set is refused by name, not by the tree bound's component count.
    code, _, err = run_cli(
        capsys, "bounds", "--graph", str(path), "--k", "-1", "--target", "gka", "--set", ""
    )
    assert code == 2
    assert "alliances are nonempty" in err


def test_bounds_without_k_target_is_usage_error(capsys, tmp_path):
    path = tmp_path / "path9.el"
    path.write_text(to_edge_list(generate("path", n=9)))
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--graph", str(path), "--k", "0", "--target", "gamma"])
    assert exc.value.code == 2
    assert "invalid choice: 'gamma'" in capsys.readouterr().err


def test_bounds_json_on_the_named_corpus_graphs_is_pinned(capsys, tmp_path):
    # Every query without --set, over each named graph of the default corpus,
    # its whole k range and the three k targets, concatenated in that order.
    digest = hashlib.sha256()
    queries = 0
    for spec in default_corpus_spec().graphs:
        if spec.family.startswith("random"):
            continue
        g = spec.build()
        path = tmp_path / f"{spec.label()}.el"
        path.write_text(to_edge_list(g))
        for k in k_range(g):
            for target in ("ak", "gka", "gkca"):
                code, out, _ = run_cli(
                    capsys, "bounds", "--graph", str(path), "--k", str(k), "--target", target
                )
                assert code == 0
                digest.update(out.encode())
                queries += 1
    assert queries == 429
    assert digest.hexdigest() == "3b4a344254655c2626c16c3e8f5216acce33c5ab7094b18e80bf4e1587b42d9b"


def test_bounds_cli_marks_the_cubic_bound_na_past_the_search_cap(capsys, tmp_path):
    # gamma of an n = 26 graph is past the search cap, so the 2 * gamma bound
    # abstains instead of failing the whole command.
    path = tmp_path / "cubic26.el"
    path.write_text(to_edge_list(random_cubic(26, 1)))
    code, out, _ = run_cli(capsys, "bounds", "--graph", str(path), "--k", "-1", "--target", "gka")
    assert code == 0
    by_name = {r["name"]: r for r in json.loads(out)}
    cubic = by_name["cubic_upper_2gamma"]
    assert not cubic["applicable"] and cubic["value"] is None
    assert "exceeds the search cap" in cubic["reason"]
    assert by_name["lower_maxdeg"]["value"] == 9


def test_oracle_check_exits_clean(capsys, tmp_path):
    path = tmp_path / "pet.el"
    path.write_text(to_edge_list(generate("petersen")))
    code, _, err = run_cli(capsys, "oracle-check", "--graph", str(path))
    assert code == 0
    assert "0 mismatches over k in [-3, 3]" in err


def test_paper_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "paper-suite")
    assert code == 0
    assert "FAIL" not in out
    checks = benchmark_refs()["small-verify"]["paper_suite_checks"]
    assert out.splitlines()[-1] == f"{checks}/{checks} checks passed"
    # Every check's name, order and detail: a renamed, reordered or dropped
    # check changes the digest.
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "4394bd1f5a2fe270fa4f3fd8d3153e96580d2d6bce3252c478288e7069914811"


# ---------------------------------------------------------------------------
# Corpus machinery
# ---------------------------------------------------------------------------

def test_small_corpus_has_no_violations():
    result = run_corpus(SMALL_SPEC)
    assert result.total_violations() == 0
    assert result.checks_run["upper_witness"] > 0
    assert result.checks_run["cubic_augment"] == 2  # K_4 and the random cubic graph
    assert result.checks_run["forest_identity"] == 1000
    assert result.checks_run["shrink"] == 43  # each r of each found gamma_k_a cell


@dataclass(frozen=True)
class DrawnGraphSpec(GraphSpec):
    """A corpus entry for a graph that was drawn, not generated by family."""

    graph: Graph | None = None

    def build(self) -> Graph:
        return self.graph


K_TARGETS = tuple(name for name, row in PARAMETERS.items() if row.defensive)


def _cells(outcome) -> dict:
    """Every cell of a certified graph: (target, k) -> (result, source), with
    each source checked against the one its record carries."""
    sources = {(e.target, r.k): e.source for r in outcome.records for e in r.entries}
    assert sources == {key: source for key, (_, source) in outcome.cells.items()}
    return outcome.cells


def _answer(res):
    return res.status, res.value, res.witness_members()


def _nodes(res):
    return res.stats.subsets, res.stats.prunes


def _lex(g, target, k):
    """The lex engine alone from size 1, as ``solve`` runs it with no node
    cap."""
    return lex_solve(g, target, k)


def _assert_cells_match_fresh_solves(g):
    """Every cell, memo hit or reused along the relaxation order, equals a
    fresh solve in (status, value, lex-least witness). A cell solved fresh
    also repeats its counters. No cell does more work than the lex engine
    alone from size 1 (``_lex``): a floor search runs the same sizes from
    the floor up, and the engine choice counts the lex nodes it spent
    before the layout DP answered, a prefix of that same search."""
    outcome = _certify_graph(DrawnGraphSpec("drawn", graph=g))
    cells = _cells(outcome)
    assert len(cells) == len(k_range(g)) * len(K_TARGETS) + 2
    for (target, k), (got, source) in cells.items():
        fresh = solve(g, target, k)
        assert (got.parameter, got.k) == (target, k)
        assert _answer(got) == _answer(fresh), (target, k, source)
        if source is None:
            assert _nodes(got) == _nodes(fresh), (target, k)
        lex = _lex(g, target, k)
        assert all(a <= b for a, b in zip(_nodes(got), _nodes(lex))), (target, k, source)


@settings(max_examples=25)
@given(graphs(min_n=1, max_n=7))
@example(random_cubic(10, 1))
@example(random_cubic(10, 2))
@example(complete_graph(4))
def test_memoised_corpus_cells_match_fresh_solves(g):
    _assert_cells_match_fresh_solves(g)


@settings(max_examples=25)
@given(st.sampled_from((10, 12, 14, 16)), st.integers(0, 10_000))
def test_reused_cells_match_fresh_solves_on_cubic_graphs(n, seed):
    _assert_cells_match_fresh_solves(random_cubic(n, seed))


def test_shortcut_cell_reports_no_work():
    g = generate("petersen")
    got, source = _cells(_certify_graph(GraphSpec.of("petersen")))[PARAM_GAMMA_K_A, 0]
    # A shortcut runs no engine; the lex engine alone does work here.
    lex = _lex(g, PARAM_GAMMA_K_A, 0)
    # The lex-least plain 0-alliance of size 5 dominates, so it is the answer.
    assert source == "a_k k=0"
    assert _nodes(got) == (0, 0) and sum(_nodes(lex)) > 0
    assert _answer(got) == _answer(lex) == ("found", 5, (0, 1, 2, 3, 4))


def test_cell_stats_sum_to_the_searches_the_pass_ran(monkeypatch):
    runs = []
    real_reuse = corpus._reuse_relaxations

    def recording_reuse(g, target, k, posed, relaxations):
        res, source, how = real_reuse(g, target, k, posed, relaxations)
        runs.append((how, _nodes(res)))
        return res, source, how

    monkeypatch.setattr(corpus, "_reuse_relaxations", recording_reuse)
    outcome = _certify_graph(GraphSpec.of("petersen"))
    # Each distinct problem is solved once: one fresh solve and six floor
    # searches run an engine. A cell that copies another's problem ran no
    # search, so it adds nothing to the sum.
    searched = [nodes for how, nodes in runs if how in ("fresh", "floor")]
    assert [how for how, _ in runs].count("fresh") == 1 and len(searched) == 7
    summed = [sum(col) for col in zip(*(_nodes(res) for res, _ in outcome.cells.values()))]
    assert summed == [sum(col) for col in zip(*searched)]
    assert sum(summed) > 0


def test_floor_search_skips_the_sizes_below_its_relaxation():
    g = generate("petersen")
    got, source = _cells(_certify_graph(GraphSpec.of("petersen")))[PARAM_GAMMA_K_A, -2]
    fresh = solve(g, PARAM_GAMMA_K_A, -2)
    # gamma = 3 is the floor; the witness of size 3 fails, so sizes 3 and 4 run.
    assert source == "gamma_k_a k=-3"
    assert _answer(got) == _answer(fresh)
    assert 0 < sum(_nodes(got)) < sum(_nodes(fresh))


def test_none_propagates_from_a_relaxation():
    g = generate("path", n=6)
    cells = _cells(_certify_graph(GraphSpec.of("path", n=6)))
    # No plain 2-alliance exists on a path, so no global or connected one does.
    assert cells[PARAM_A_K, 2][0].status == "none_exists"
    for target, source in ((PARAM_GAMMA_K_A, "a_k k=2"), (PARAM_GAMMA_K_CA, "gamma_k_a k=2")):
        got, got_source = cells[target, 2]
        fresh = solve(g, target, 2)
        # The lex engine from size 1 refutes every size; the none cell
        # reads its verdict off the relaxation without a node.
        lex = _lex(g, target, 2)
        assert got_source == source
        assert _answer(got) == _answer(fresh) == _answer(lex) == ("none_exists", None, None)
        assert _nodes(got) == (0, 0) and sum(_nodes(lex)) > 0


def test_corpus_solves_each_distinct_problem_once(monkeypatch):
    solves, reuses, searches = [], [], []
    real_solve, real_reuse, real_from = solver.solve, corpus._reuse_relaxations, corpus.solve_from

    def counting_solve(g, parameter, k=None, **kwargs):
        solves.append((parameter, k))
        return real_solve(g, parameter, k, **kwargs)

    def counting_reuse(g, target, k, posed, relaxations):
        before = len(searches)
        res, source, how = real_reuse(g, target, k, posed, relaxations)
        reuses.append((how, target, k, res.value, len(searches) - before))
        return res, source, how

    def counting_from(g, parameter, k, posed, floor, start):
        searches.append((parameter, k, floor))
        return real_from(g, parameter, k, posed, floor, start)

    monkeypatch.setattr(solver, "solve", counting_solve)
    monkeypatch.setattr(corpus, "solve", counting_solve)
    monkeypatch.setattr(bounds, "solve", counting_solve)
    monkeypatch.setattr(corpus, "_reuse_relaxations", counting_reuse)
    monkeypatch.setattr(corpus, "solve_from", counting_from)
    spec = CorpusSpec(graphs=(GraphSpec.of("petersen"),))
    result = run_corpus(spec)
    assert result.total_violations() == 0
    # On a cubic graph k = -3..3 clip to four requirement vectors, one per
    # pair (-2, -1), (0, 1), (2, 3) and k = -3, so there are 12 problems.
    # gamma is gamma_k_a's problem at k = -3 and gamma_t its problem at
    # k = -2, so neither is solved again, and the 2 * gamma bound reuses
    # gamma. Only a_k at k = -3 has no relaxation and is solved fresh; every
    # other problem starts from one. The second solve is the sampled
    # re-solve of a reused cell.
    assert solves == [(PARAM_A_K, -3), (PARAM_GAMMA_K_A, -3)]
    # A floor search runs ``solve_from`` from the floor; a shortcut cell is
    # answered by a relaxation's witness and runs none.
    assert searches == [
        (PARAM_GAMMA_K_A, -3, 1),
        (PARAM_GAMMA_K_CA, -3, 3),
        (PARAM_A_K, -2, 1),
        (PARAM_GAMMA_K_A, -2, 3),
        (PARAM_A_K, 0, 2),
        (PARAM_A_K, 2, 5),
    ]
    # (how, target, k, value, floor searches run)
    assert reuses == [
        ("fresh", PARAM_A_K, -3, 1, 0),
        ("floor", PARAM_GAMMA_K_A, -3, 3, 1),
        ("floor", PARAM_GAMMA_K_CA, -3, 4, 1),
        ("floor", PARAM_A_K, -2, 2, 1),
        ("floor", PARAM_GAMMA_K_A, -2, 4, 1),
        ("shortcut", PARAM_GAMMA_K_CA, -2, 4, 0),
        ("floor", PARAM_A_K, 0, 5, 1),
        ("shortcut", PARAM_GAMMA_K_A, 0, 5, 0),
        ("shortcut", PARAM_GAMMA_K_CA, 0, 5, 0),
        ("floor", PARAM_A_K, 2, 10, 1),
        ("shortcut", PARAM_GAMMA_K_A, 2, 10, 0),
        ("shortcut", PARAM_GAMMA_K_CA, 2, 10, 0),
    ]
    assert len(reuses) == 4 * len(K_TARGETS)
    reuse = {name: count for name, count in result.checks_run.items() if name.startswith("reuse_")}
    assert reuse == {"reuse_none": 0, "reuse_shortcut": 5, "reuse_floor": 6, "reuse_resolved": 1}


def test_a_wrong_reuse_is_caught_by_the_fresh_re_solve(monkeypatch):
    real_from = corpus.solve_from

    def one_too_many(g, parameter, k, posed, floor, start):
        res = real_from(g, parameter, k, posed, floor, start)
        return replace(res, value=res.value + 1) if res.found else res

    monkeypatch.setattr(corpus, "solve_from", one_too_many)
    result = run_corpus(CorpusSpec(graphs=(GraphSpec.of("petersen"),)))
    caught = [v for v in result.all_violations() if "a fresh solve gives" in v]
    # One reused cell per graph is solved afresh: gamma_k_a at k = -3.
    assert result.checks_run["reuse_resolved"] == 1
    assert len(caught) == 1 and "gamma_k_a k=-3: reused from a_k k=-3" in caught[0]


def test_certify_json_names_each_reused_cell(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"graphs": [{"family": "petersen"}]}))
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    code, _, err = run_cli(
        capsys, "certify", "--corpus", str(spec_path), "-o", str(csv_path), "--json", str(json_path)
    )
    assert code == 0
    assert err == "certified 1 graphs, 8 records, 0 violations, 0 unsolved cells\n"
    assert "source" not in csv_path.read_text().splitlines()[0]
    report = json.loads(json_path.read_text())
    sources = {
        (e["target"], r["k"]): e["source"] for r in report["records"] for e in r["entries"]
    }
    assert sources[PARAM_A_K, -3] is None
    assert sources[PARAM_GAMMA_K_A, 0] == "a_k k=0"
    assert sources[PARAM_GAMMA_K_A, -2] == sources[PARAM_GAMMA_K_A, -1] == "gamma_k_a k=-3"
    # gamma_t poses gamma_k_a's problem at k = -2 and carries its source.
    assert sources[PARAM_GAMMA_T, None] == "gamma_k_a k=-3"
    assert sum(source is None for source in sources.values()) == 1
    checks = report["checks_run"]
    assert (checks["reuse_shortcut"], checks["reuse_floor"], checks["reuse_none"]) == (5, 6, 0)


def _petersen_cells_and_violations():
    outcome = _certify_graph(GraphSpec.of("petersen"))
    cells = {key: _answer(res) for key, (res, _) in outcome.cells.items()}
    violations = [v for r in outcome.records for e in r.entries for v in e.violations]
    return cells, violations


def test_wrong_lower_bound_is_reported_and_never_changes_a_value(monkeypatch):
    cells, violations = _petersen_cells_and_violations()
    assert cells and not violations
    real = bounds.lower_maxdeg

    def one_too_high(n, d_max, k):
        report = real(n, d_max, k)
        return replace(report, value=report.value + 1) if report.applicable else report

    monkeypatch.setattr(bounds, "lower_maxdeg", one_too_high)
    wrong_cells, wrong_violations = _petersen_cells_and_violations()
    assert wrong_cells == cells
    # The Petersen graph's gamma_k_a attains lower_maxdeg at every k, so the
    # raised bound is reported there; no other check may fire.
    assert wrong_violations
    assert all("below lower_maxdeg" in v for v in wrong_violations), wrong_violations


def _petersen_violations_with_a_wrong_value(monkeypatch, target, k, value):
    """Certify the Petersen graph with the problem that ``target`` poses at
    ``k`` solved to ``value``; its witness is left as solved."""
    posed = solver.problem(generate("petersen"), target, k)
    real_reuse = corpus._reuse_relaxations

    def wrong(g, parameter, k, key, relaxations):
        res, source, how = real_reuse(g, parameter, k, key, relaxations)
        return (replace(res, value=value) if key == posed else res), source, how

    monkeypatch.setattr(corpus, "_reuse_relaxations", wrong)
    return _petersen_cells_and_violations()[1]


def test_cubic_upper_2gamma_catches_a_value_above_twice_gamma(monkeypatch):
    gamma = solve(generate("petersen"), PARAM_GAMMA).value
    violations = _petersen_violations_with_a_wrong_value(
        monkeypatch, PARAM_GAMMA_K_A, -1, 2 * gamma + 1
    )
    assert any(
        f"k=-1 gamma_k_a: value {2 * gamma + 1} above cubic_upper_2gamma={2 * gamma}" in v
        for v in violations
    ), violations


def test_lower_sqrt_catches_a_value_below_the_size_bound(monkeypatch):
    bound = bounds.lower_sqrt(10, 0).value
    violations = _petersen_violations_with_a_wrong_value(monkeypatch, PARAM_GAMMA_K_A, 0, bound - 1)
    assert any(
        f"k=0 gamma_k_a: value {bound - 1} below lower_sqrt={bound}" in v for v in violations
    ), violations


def test_a_none_cell_under_a_catalogue_upper_bound_is_reported(monkeypatch):
    posed = solver.problem(generate("petersen"), PARAM_GAMMA_K_A, 0)
    real_reuse = corpus._reuse_relaxations

    def none_found(g, parameter, k, key, relaxations):
        res, source, how = real_reuse(g, parameter, k, key, relaxations)
        if key != posed:
            return res, source, how
        # As a search that refuted every size would report it.
        refuted = solver.SearchStats(1, 0, 0.0)
        none = replace(res, status="none_exists", value=None, witness=None, stats=refuted)
        return none, source, how

    monkeypatch.setattr(corpus, "_reuse_relaxations", none_found)
    records = _certify_graph(GraphSpec.of("petersen")).records
    entry = next(e for r in records if r.k == 0 for e in r.entries if e.target == PARAM_GAMMA_K_A)
    # upper_min_degree applies at k = 0 <= min degree, and construct_upper_witness
    # builds an alliance of that size, so none_exists contradicts it.
    assert entry.status == "none_exists"
    assert any("upper_min_degree" in v for v in entry.violations), entry.violations


def test_an_upper_witness_failing_at_the_minimum_degree_is_flagged(monkeypatch):
    real = corpus.construct_upper_witness

    def fails_at_min_degree(g, k):
        if k == g.min_degree:
            raise ConstructionInvariantError("injected at k = min degree")
        return real(g, k)

    monkeypatch.setattr(corpus, "construct_upper_witness", fails_at_min_degree)
    spec = CorpusSpec(graphs=(GraphSpec.of("petersen"), GraphSpec.of("star", n=5)))
    violations = run_corpus(spec).all_violations()
    # upper_min_degree applies up to k = min degree, and the corpus builds it
    # on each cell where it applies: k = 3 on the Petersen graph, 1 on the star.
    assert len(violations) == 2, violations
    petersen, star = violations
    assert petersen.startswith("petersen-") and " k=3 gamma_k_a: upper_min_degree" in petersen
    assert star.startswith("star-n5-") and " k=1 gamma_k_a: upper_min_degree" in star
    assert all("construction failed: injected" in v for v in violations)


def test_an_upper_bound_without_a_construction_fails_loudly(monkeypatch):
    real = bounds.upper_reports

    def with_an_unbuilt_bound(g, k, target, gamma=None):
        reports = real(g, k, target, gamma)
        unbuilt = bounds.BoundReport("unbuilt", "size <= n", bounds.KIND_UPPER, target, k, g.n)
        return reports + [unbuilt] if reports else reports

    monkeypatch.setattr(bounds, "upper_reports", with_an_unbuilt_bound)
    with pytest.raises(KeyError, match="unbuilt"):
        _certify_graph(GraphSpec.of("petersen"))


def test_a_domination_row_witness_is_re_certified(monkeypatch):
    real_from = corpus.solve_from

    def center_only(g, parameter, k, key, floor, start):
        res = real_from(g, parameter, k, key, floor, start)
        if parameter != PARAM_GAMMA_T:
            return res
        return replace(res, witness=VertexSet.from_vertices(g, [0]))

    monkeypatch.setattr(corpus, "solve_from", center_only)
    records = _certify_graph(GraphSpec.of("star", n=5)).records
    # On a star gamma_t poses no k cell's problem, so it is solved once, from
    # gamma; the center alone dominates but has no neighbour inside.
    entry = next(e for r in records if r.k is None for e in r.entries if e.target == PARAM_GAMMA_T)
    assert entry.status == "found"
    assert any("witness failed re-certification" in v for v in entry.violations), entry.violations


def test_a_nonregular_graph_top_witness_fails_re_certification(monkeypatch):
    real_reuse = corpus._reuse_relaxations

    def whole_set(g, target, k, posed, relaxations):
        if (target, k) != (PARAM_GAMMA_K_A, 4):
            return real_reuse(g, target, k, posed, relaxations)
        found = solver.SolveResult(
            target, k, "found", g.n, VertexSet.full(g), solver.SearchStats(0, 0, 0.0)
        )
        return found, None, "fresh"

    # The none of a_k at k = 4 would decide this cell, so it is forced here,
    # not in ``solve_from``.
    monkeypatch.setattr(corpus, "_reuse_relaxations", whole_set)
    records = _certify_graph(GraphSpec.of("star", n=5)).records
    entry = next(e for r in records if r.k == 4 for e in r.entries if e.target == PARAM_GAMMA_K_A)
    # V meets lower_maxdeg = n at k = max degree, but a leaf's margin is 1 - 0 - 4.
    assert (entry.status, entry.value) == ("found", 5)
    assert any("witness failed re-certification" in v for v in entry.violations), entry.violations
    assert not any("lower_maxdeg" in v for v in entry.violations), entry.violations


def test_parity_check_flags_a_collapse_to_another_problem(monkeypatch):
    monkeypatch.setattr(bounds, "parity_collapse", lambda g, k: k + 1)
    spec = CorpusSpec(graphs=(GraphSpec.of("path", n=6), GraphSpec.of("petersen")))
    flagged = [v for v in run_corpus(spec).all_violations() if "parity-equivalent" in v]
    # k = -2..1 on the path and k = -3, -1, 1 on the Petersen graph collapse
    # onto a k in range with another requirement vector: one flag per k.
    assert len(flagged) == 7


def test_corpus_csv_is_deterministic():
    first = run_corpus(SMALL_SPEC).to_csv()
    second = run_corpus(SMALL_SPEC).to_csv()
    assert first == second
    header = first.splitlines()[0]
    assert header == "graph,family,n,m,k,target,status,value,best_lower,best_upper,violations"


def test_default_corpus_csv_matches_the_benchmark_reference(default_corpus):
    _, result = default_corpus
    digest = hashlib.sha256(result.to_csv().encode()).hexdigest()
    assert digest == benchmark_refs()["small-verify"]["default_csv_sha256"]


def test_default_corpus_json_report_is_pinned(default_corpus):
    # The text ``certify --json`` writes: sources, checks_run and violations.
    _, result = default_corpus
    text = json.dumps(result.to_json_dict(), indent=2) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "1757c0ac46f165de579682ce960ba27e42bd90c16d0bdc1bb315275cc030cf41"


@pytest.mark.slow
def test_certify_past_the_size_cap_at_the_frontier(monkeypatch):
    # Connected cubic graphs with n = 36 and 40 and a tree with n = 40, past
    # the default cap. The CSV's digest was recorded while W was still found
    # by scanning every subset of S (about 35 s then, most of it in W).
    monkeypatch.setenv("ALLIANCE_MAX_N", "64")
    spec = CorpusSpec(graphs=(
        corpus._connected_spec("random_cubic", 1, n=36),
        corpus._connected_spec("random_cubic", 2, n=36),
        corpus._connected_spec("random_cubic", 1, n=40),
        GraphSpec.of("random_tree", n=40, seed=1),
    ))
    result = run_corpus(spec)
    assert result.total_violations() == 0 and result.unsolved_cells() == 0
    digest = hashlib.sha256(result.to_csv().encode()).hexdigest()
    assert digest == "1a347b1c6a071b4f6a3e41fa48dfdcb34477b77e449a8cb85c4396ae534e2ffa"


def test_corpus_spec_json_round_trip():
    text = json.dumps(SMALL_SPEC.to_json_dict())
    again = load_corpus_spec(text)
    assert again == SMALL_SPEC


def test_empty_corpus_spec():
    result = run_corpus(CorpusSpec(graphs=()))
    assert result.records == []
    assert result.total_violations() == 0
    assert result.to_csv().count("\n") == 1  # header only


def test_every_spec_reports_the_same_counters():
    petersen = run_corpus(CorpusSpec(graphs=(GraphSpec.of("petersen"),))).checks_run
    empty = run_corpus(CorpusSpec(graphs=())).checks_run
    assert list(petersen) == list(empty) == list(corpus.CHECKS)
    assert set(empty.values()) == {0}


def test_oversize_corpus_graph_is_recorded_not_fatal(monkeypatch):
    searches = []
    monkeypatch.setattr(corpus, "solve_from", lambda *args: searches.append(args))
    spec = CorpusSpec(graphs=(GraphSpec.of("complete", n=30),))
    result = run_corpus(spec)
    assert result.total_violations() == 0
    statuses = {e.status for r in result.records for e in r.entries}
    assert statuses == {"resource_error"}
    # The first cell's fresh solve meets the cap, so no cell is reused.
    assert searches == []
    reuse = {name: count for name, count in result.checks_run.items() if name.startswith("reuse_")}
    assert reuse == {"reuse_none": 0, "reuse_shortcut": 0, "reuse_floor": 0, "reuse_resolved": 0}


def test_oversize_cubic_graph_keeps_its_bounds_at_k_minus_1():
    result = run_corpus(CorpusSpec(graphs=(GraphSpec.of("random_cubic", n=26, seed=1),)))
    rows = result.to_csv().splitlines()
    # The 2 * gamma bound abstains, so k = -1 keeps the other bounds, as k = -2 does.
    assert sum(row.endswith(",-2,gamma_k_a,resource_error,,9,24,0") for row in rows) == 1
    assert sum(row.endswith(",-1,gamma_k_a,resource_error,,9,24,0") for row in rows) == 1


def test_certify_cli_exits_1_when_cells_are_unsolved(capsys, tmp_path):
    # K_30 is past the search cap: every cell is a resource_error, so the
    # run certified nothing and must not report success.
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"graphs": [{"family": "complete", "n": 30}]}))
    code, out, err = run_cli(capsys, "certify", "--corpus", str(spec_path))
    assert code == 1
    assert "0 violations, 179 unsolved cells" in err
    assert out.count(",resource_error,") == 179


def _petersen_shrink_builds():
    """Every shrink the Petersen graph's gamma_k_a cells admit, as (k, r):
    r runs from 1 to |S| - |W|, with S the cell's witness and |W| the least
    size of a dominating subset of S, found here by brute force."""
    g = generate("petersen")
    dominating = PARAMETERS[PARAM_GAMMA].demands
    builds = []
    for k in k_range(g):
        members = solve(g, PARAM_GAMMA_K_A, k).witness_members()
        core = next(
            size for size in range(1, len(members) + 1)
            for combo in itertools.combinations(members, size)
            if meets(g, sum(1 << v for v in combo), 0, dominating)
        )
        builds += [(k, r) for r in range(1, len(members) - core + 1)]
    return builds


def _petersen_with_a_shrink(monkeypatch, shrink):
    """Run the Petersen graph with ``shrink(real, g, s, k, w, r)`` standing in
    for ``shrink_to_lower_k``; return the result and its gamma_k_a entries
    by k."""
    real = corpus.shrink_to_lower_k
    monkeypatch.setattr(
        corpus, "shrink_to_lower_k", lambda g, s, k, w, r: shrink(real, g, s, k, w, r)
    )
    result = run_corpus(CorpusSpec(graphs=(GraphSpec.of("petersen"),)))
    entries = {
        r.k: e for r in result.records for e in r.entries if e.target == PARAM_GAMMA_K_A
    }
    return result, entries


def test_shrink_builds_each_r_of_each_cell_once(monkeypatch):
    calls = []

    def recording(real, g, s, k, w, r):
        calls.append((k, r))
        return real(g, s, k, w, r)

    result, _ = _petersen_with_a_shrink(monkeypatch, recording)
    # k = -2, -1 drop one of 4 to the core of 3; k = 2, 3 drop 7 of V.
    assert calls == _petersen_shrink_builds() and len(calls) == 16
    assert result.checks_run["shrink"] == len(calls)
    assert result.total_violations() == 0


def test_a_failing_shrink_build_is_flagged_on_its_cell(monkeypatch):
    def fails_at_k2_r3(real, g, s, k, w, r):
        if (k, r) == (2, 3):
            raise ConstructionInvariantError("forced failure")
        return real(g, s, k, w, r)

    result, entries = _petersen_with_a_shrink(monkeypatch, fails_at_k2_r3)
    gid = result.records[0].graph
    assert entries[2].violations == [f"{gid} k=2 r=3: shrink construction failed: forced failure"]
    assert result.total_violations() == 1


def test_a_shrink_build_of_the_wrong_size_is_flagged_on_its_cell(monkeypatch):
    def unshrunk_at_k_minus_1(real, g, s, k, w, r):
        built = real(g, s, k, w, r)
        return s if k == -1 else built

    result, entries = _petersen_with_a_shrink(monkeypatch, unshrunk_at_k_minus_1)
    gid = result.records[0].graph
    assert entries[-1].violations == [f"{gid} k=-1 r=1: shrink construction built 4, not 3"]
    assert result.total_violations() == 1


def test_a_value_too_high_at_k_minus_2r_trips_the_shrink_inequality(monkeypatch):
    # gamma_k_a(-3) = 3 is tight for the largest r of each shrinking cell:
    # |S| - r = 3 at r = 1 for the 4-vertex witnesses at k = -2, -1 and at
    # r = 7 for V at k = 2, 3, and k - 2r is clipped at -max degree = -3.
    violations = _petersen_violations_with_a_wrong_value(monkeypatch, PARAM_GAMMA_K_A, -3, 4)
    shrink = [v.split(" ", 1)[1] for v in violations if "shrink" in v]
    assert shrink == [
        f"k={k} r={r}: shrink inequality fails (gamma_k_a(k-2r)=4)"
        for k, r in ((-2, 1), (-1, 1), (2, 7), (3, 7))
    ], violations


@pytest.mark.parametrize(
    "family, params, k, members",
    [
        ("petersen", {}, 0, [1]),  # does not dominate
        ("star", {"n": 5}, 4, range(5)),  # dominates, but a leaf's margin is 1 - 0 - 4
        ("path", {"n": 6}, -2, [0]),  # gamma's problem: gamma's witness, W for S = V at k = 1
        # gamma's problem on a cubic graph: the witness cubic_upper_2gamma extends at k = -1
        ("petersen", {}, -3, [0]),
    ],
)
def test_a_witness_failing_re_certification_is_reported_not_raised(
    monkeypatch, family, params, k, members
):
    real_reuse = corpus._reuse_relaxations

    def injected(g, target, cell_k, posed, relaxations):
        if (target, cell_k) != (PARAM_GAMMA_K_A, k):
            return real_reuse(g, target, cell_k, posed, relaxations)
        witness = VertexSet.from_vertices(g, list(members))
        found = solver.SolveResult(
            target, k, "found", len(witness), witness, solver.SearchStats(0, 0, 0.0)
        )
        return found, None, "fresh"

    # A found cell is shrunk only once its witness, and gamma's, re-certify.
    monkeypatch.setattr(corpus, "_reuse_relaxations", injected)
    result = run_corpus(CorpusSpec(graphs=(GraphSpec.of(family, **params),)))
    entry = next(
        e for r in result.records if r.k == k for e in r.entries if e.target == PARAM_GAMMA_K_A
    )
    assert (entry.status, entry.value) == ("found", len(members))
    assert any("witness failed re-certification" in v for v in entry.violations)
    assert not any("shrink" in v for v in result.all_violations()), result.all_violations()


def test_a_disconnected_a_k_witness_is_flagged_on_its_cell(monkeypatch):
    # {0, 5} on the path 0-...-5 is a defensive (-1)-alliance (each leaf has
    # one neighbour, outside), but each leaf alone is a smaller one.
    real_reuse = corpus._reuse_relaxations

    def injected(g, target, k, posed, relaxations):
        if (target, k) != (PARAM_A_K, -1):
            return real_reuse(g, target, k, posed, relaxations)
        witness = VertexSet.from_vertices(g, [0, 5])
        found = solver.SolveResult(target, k, "found", 2, witness, solver.SearchStats(0, 0, 0.0))
        return found, None, "fresh"

    monkeypatch.setattr(corpus, "_reuse_relaxations", injected)
    result = run_corpus(CorpusSpec(graphs=(GraphSpec.of("path", n=6),)))
    gid = result.records[0].graph
    assert result.all_violations() == [
        f"{gid} k=-1 a_k: witness induces 2 components; a minimum one is connected"
    ]


def test_certify_cli_small_spec(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SMALL_SPEC.to_json_dict()))
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    code, _, err = run_cli(
        capsys, "certify", "--corpus", str(spec_path),
        "-o", str(csv_path), "--json", str(json_path),
    )
    assert code == 0
    assert "0 violations" in err
    assert csv_path.read_text().startswith("graph,family,n,m,k,target,")
    report = json.loads(json_path.read_text())
    assert report["total_violations"] == 0


def test_certify_cli_default_corpus(capsys, tmp_path):
    csv_path = tmp_path / "default.csv"
    code, _, err = run_cli(capsys, "certify", "--corpus", "default", "-o", str(csv_path))
    assert code == 0
    assert "0 violations" in err
    assert csv_path.read_text().count("\n") > 1000


@pytest.mark.parametrize(
    "spec",
    [
        {"graphs": [{"family": "random_cubic", "n": 8}]},
        {"graphs": [{"n": 5}]},
        [{"family": "cycle", "n": 5}],
        {"graphs": [{"family": "cycle", "n": 5, "seed": 9}]},
        {"graphs": [{"family": "cycle", "n": "5"}]},
        {"graphs": [{"family": "petersen"}], "targets": ["gka"]},
    ],
    ids=[
        "missing-param", "missing-family", "not-an-object", "stray-param", "wrong-type",
        "unknown-key",
    ],
)
def test_malformed_corpus_spec_is_usage_error(capsys, monkeypatch, spec):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    code, out, err = run_cli(capsys, "certify", "--corpus", "-")
    assert code == 2
    assert "error:" in err
    assert out == ""


@pytest.mark.parametrize(
    "content, argv, code",
    [
        (b"\xff\xfe0 1\n", ("solve", "--target", "gamma", "--graph"), 3),
        (b"\xff\xfe{}", ("certify", "--corpus"), 3),
        (b'{"graphs": [', ("certify", "--corpus"), 2),
    ],
    ids=["graph-not-utf8", "spec-not-utf8", "spec-not-json"],
)
def test_an_undecodable_file_is_a_file_error(capsys, tmp_path, content, argv, code):
    # A file that is not UTF-8 is a file error (exit 3); a UTF-8 spec that
    # is not JSON stays a usage error (exit 2).
    path = tmp_path / "input"
    path.write_bytes(content)
    got, out, err = run_cli(capsys, *argv, str(path))
    assert (got, out) == (code, "")
    assert err.startswith("error:")


def test_certify_cli_empty_spec_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"graphs": []})))
    code, out, err = run_cli(capsys, "certify", "--corpus", "-")
    assert code == 0
    assert out.count("\n") == 1


def test_default_spec_composition():
    spec = default_corpus_spec()
    families = [gs.family for gs in spec.graphs]
    assert families.count("random_tree") == 50
    assert families.count("random_cubic") == 30
    assert families.count("random_graph") == 50
    assert "petersen" in families and "hypercube" in families
    for gs in spec.graphs:
        params = dict(gs.params)
        if gs.family == "random_tree":
            assert params["n"] <= 12
        elif gs.family == "random_cubic":
            assert params["n"] <= 14
        elif gs.family == "random_graph":
            assert params["n"] <= 11


def test_gen_solve_pipeline_matches_library(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "complete", "--n", "6")
    assert code == 0
    g = from_edge_list(out)
    assert solve(g, "gamma_k_a", 1).value == solve(generate("complete", n=6), "gamma_k_a", 1).value
