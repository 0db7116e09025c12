"""Record the reference outputs the benchmark checks against.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record_refs.py

It rewrites ``perfbench/refs.json`` with:

* ``cubic-certify``: per order, the first pool of ``random_cubic`` seeds
  whose graph is connected, each with the sha256 of the CSV that
  ``certify`` writes for a corpus of that one graph and the search nodes
  (subsets plus prunes) of its solves;
* ``solve-deep``: for each pool graph (keyed by the sha256 of its edge-list
  text), the value and lex-least witness of every target; and
  ``solve-deep-by-effort``, per target, the pool indices sorted by the
  search nodes (subsets plus prunes) that target's solve takes;
* ``small-verify``: the sha256 of the default-corpus CSV and the number of
  ``paper-suite`` checks.

This takes several minutes: every pool graph is solved once.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads as wl
from meta import git_commit


def _connected_program_seeds(mods, n: int, count: int) -> list[int]:
    seeds = []
    seed = 0
    while len(seeds) < count:
        seed += 1
        try:
            g = mods.graphs.random_cubic(n, seed)
        except ValueError:
            continue
        if mods.graphs.is_connected(g):
            seeds.append(seed)
    return seeds


def _certify_effort(mods, n: int, seed: int) -> int:
    """Search nodes (subsets plus prunes) of the solves that certifying the
    one graph runs, over the full degree range of k."""
    g = mods.graphs.random_cubic(n, seed)
    cells = [(target, k) for k in range(-g.max_degree, g.max_degree + 1)
             for target in ("a_k", "gamma_k_a", "gamma_k_ca")]
    cells += [("gamma", None), ("gamma_t", None)]
    total = 0
    for target, k in cells:
        stats = mods.solver.solve(g, target, k).stats
        total += stats.subsets + stats.prunes
    return total


def _csv_sha(mods, workdir: Path, corpus: str) -> str:
    csv_path = workdir / "ref.csv"
    code, _, err = wl.run_cli(mods.cli, ["certify", "--corpus", corpus, "-o", str(csv_path)])
    if code != 0 or " 0 violations" not in err:
        raise SystemExit(f"certify --corpus {corpus} failed: {err.strip()}")
    return wl.sha256(csv_path.read_bytes())


def main() -> int:
    mods = wl.import_program()
    refs: dict = {"commit": git_commit(), "cubic-certify": {}, "solve-deep": {}}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        workdir = Path(tmp)
        for n, count in wl.CUBIC_CERTIFY_POOLS.items():
            pool = []
            for seed in _connected_program_seeds(mods, n, count):
                spec = workdir / "spec.json"
                spec.write_text(wl.cubic_certify_spec(n, seed), encoding="utf-8")
                pool.append([seed, _csv_sha(mods, workdir, str(spec)),
                             _certify_effort(mods, n, seed)])
            refs["cubic-certify"][str(n)] = pool
            print(f"cubic-certify n={n}: {len(pool)} graphs", file=sys.stderr)

        effort = {wl.solve_key(target, k): {} for target, k in wl.SOLVE_DEEP_TARGETS}
        for index in range(wl.SOLVE_DEEP_POOL):
            text = wl.solve_deep_text(index)
            cells = {}
            for target, k in wl.SOLVE_DEEP_TARGETS:
                _, result = wl.run_solve(mods, text, target, k)
                if not result.found:
                    raise SystemExit(f"solve-deep pool {index}: {target} k={k} not found")
                key = wl.solve_key(target, k)
                cells[key] = [result.value, list(result.witness_members())]
                effort[key][index] = result.stats.subsets + result.stats.prunes
            refs["solve-deep"][wl.sha256(text)] = cells
        refs["solve-deep-by-effort"] = {
            key: sorted(nodes, key=lambda i: (nodes[i], i)) for key, nodes in effort.items()}
        print(f"solve-deep: {wl.SOLVE_DEEP_POOL} graphs", file=sys.stderr)

        _, out, _ = wl.run_cli(mods.cli, ["paper-suite"])
        passed, total = out.strip().splitlines()[-1].split()[0].split("/")
        if passed != total:
            raise SystemExit(f"paper-suite failed: {out.strip().splitlines()[-1]}")
        refs["small-verify"] = {
            "default_csv_sha256": _csv_sha(mods, workdir, "default"),
            "paper_suite_checks": int(total),
        }
    wl.REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
