"""Checks on the benchmark itself. Run from the repository root with

    python3 perfbench/selftest.py

(or ``python3 -m pytest perfbench/selftest.py``). Two traced passes over the
same seed, each in a fresh import of the program, must give identical
counts (``solver.subsets``, ``solver.prunes``, ``bounds.floor_gap``, every
``*_calls``, ...) and identical output hashes, and another seed must draw
other inputs. The passes of the two heavy workloads keep only a few of their
operations, so the whole check takes well under a minute.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from run import run_pass  # noqa: E402
from spans import PER_LAYER, Tracer, layer_metrics  # noqa: E402

# workload -> the operations its short pass keeps
SHORT_PASS = {
    "cubic-certify": lambda ops: ops[:1] + ops[-1:],  # one n = 20 and the n = 22 graph
    "solve-deep": lambda ops: ops[::wl.SOLVE_DEEP_COUNT],  # one call per target
    "small-verify": lambda ops: ops,
}
COUNTS = [name for name, unit, _ in PER_LAYER if unit == "count"]


def _traced_pass(workload: str, seed: int):
    workdir = Path(tempfile.mkdtemp(dir=Path(__file__).resolve().parent))
    try:
        mods = wl.import_program()
        ops = wl.OPS_FOR[workload](seed, mods, workdir, wl.load_refs())
        inputs = [op.name for op in ops] + sorted(
            wl.sha256(path.read_bytes()) for path in workdir.iterdir())
        tracer = Tracer(mods)
        tracer.install()
        try:
            result = run_pass(SHORT_PASS[workload](ops), tracer)
        finally:
            tracer.uninstall()
        return inputs, result, layer_metrics(tracer.take(), result.scales, mods)
    finally:
        shutil.rmtree(workdir)


def test_same_seed_gives_same_counts_and_outputs():
    for workload in wl.WORKLOADS:
        inputs_a, pass_a, layers_a = _traced_pass(workload, 7)
        inputs_b, pass_b, layers_b = _traced_pass(workload, 7)
        assert not pass_a.failures, (workload, pass_a.failures)
        assert inputs_a == inputs_b, workload
        assert pass_a.digests == pass_b.digests, workload
        assert {n: layers_a[n] for n in COUNTS} == {n: layers_b[n] for n in COUNTS}, workload
        assert layers_a["solver.solve_calls"] > 0, workload
        assert layers_a["cli.calls"] + layers_a["graphs.parse_calls"] > 0, workload


def test_other_seed_draws_other_graphs():
    for workload in wl.WORKLOADS:
        inputs_a, _, _ = _traced_pass(workload, 7)
        inputs_b, _, _ = _traced_pass(workload, 8)
        assert inputs_a != inputs_b, workload


def test_small_verify_spans_reach_every_layer():
    _, result, layers = _traced_pass("small-verify", 7)
    assert not result.failures, result.failures
    assert layers["corpus.graphs"] == 149
    assert layers["corpus.records"] == 1350
    assert layers["known_values.checks"] == 102
    for name in ("bounds.eval_calls", "bounds.floor_calls", "bounds.nested_solve_calls",
                 "solver.oracle_calls", "alliances.certify_calls",
                 "alliances.construct_calls", "graphs.query_calls", "graphs.generate_calls"):
        assert layers[name] > 0, name


def test_uninstall_restores_the_program():
    mods = wl.import_program()
    before = {name: dict(vars(getattr(mods, name))) for name in wl.LAYERS}
    tracer = Tracer(mods)
    tracer.install()
    assert mods.cli.solve is not before["cli"]["solve"]
    assert mods.cli.solve.__wrapped__ is before["cli"]["solve"]
    tracer.uninstall()
    after = {name: dict(vars(getattr(mods, name))) for name in wl.LAYERS}
    assert before == after


if __name__ == "__main__":
    for test in (test_same_seed_gives_same_counts_and_outputs,
                 test_other_seed_draws_other_graphs,
                 test_small_verify_spans_reach_every_layer,
                 test_uninstall_restores_the_program):
        test()
        print(f"ok {test.__name__}")
