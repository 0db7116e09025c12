"""The program API the benchmark harness in ``perfbench/`` calls, checked
here because the default test run does not run the harness."""

import ast
import importlib
import inspect
from pathlib import Path

from kalliance import solver

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
