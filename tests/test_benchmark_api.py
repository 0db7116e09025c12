"""The program API the benchmark harness in ``perfbench/`` calls, checked
here because the default test run does not run the harness."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from kalliance import solver
from kalliance.corpus import CorpusSpec, GraphSpec, run_corpus
from kalliance.graphs import petersen_graph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def traced_names() -> dict[str, tuple[str, ...]]:
    """``spans.TRACED``, read from the source without running it."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TRACED table")


def test_every_traced_name_is_a_callable_of_its_module():
    traced = traced_names()
    assert traced
    for module, names in traced.items():
        mod = importlib.import_module(f"kalliance.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"kalliance.{module}.{name}"


def test_solve_takes_the_size_cap_the_workloads_pass():
    # perfbench/workloads.py calls solve(g, target, k, max_n=g.n).
    inspect.signature(solver.solve).bind(object(), "gamma_k_a", 0, max_n=26)


def test_the_fields_the_harness_keeps_exist_on_real_results():
    # ``spans.INFO`` names, per traced call, what the harness keeps of its
    # result: a SolveResult's parameter, found, value and stats, and a
    # CorpusResult's records by graph_id. Each keeper runs here on a real
    # result, so that renaming or deleting one of those fields fails here
    # before it breaks a benchmark run.
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    g = petersen_graph()
    for name, call in (("solver.solve", solver.solve), ("solver.brute_force_oracle", solver.brute_force_oracle)):
        res = call(g, "gamma_k_a", 0)
        kept = spans.INFO[name](res)
        assert kept == ("gamma_k_a", True, 5, res.stats.subsets, res.stats.prunes)
        assert all(type(x) is int for x in kept[2:]), name
    result = run_corpus(CorpusSpec(graphs=(GraphSpec.of("complete", n=4), GraphSpec.of("star", n=5))))
    assert spans.INFO["corpus.run_corpus"](result) == (2, len(result.records), 0)
