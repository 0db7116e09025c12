"""The benchmark's three workloads: inputs drawn from the seed, the timed
operations, and the untimed checks on each operation's output.

The program only ever sees generated inputs: corpus spec JSON for
``certify`` and edge-list text for ``solve`` and ``oracle-check``. Every
operation is called through a module attribute at call time, so the tracer
in ``spans.py`` sees the calls once it has wrapped them.

The sizes below were chosen so that one pass of ``cubic-certify`` or
``solve-deep`` fits in one run, and so that the sum over a pass varies
little between seeds (see README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFS_PATH = Path(__file__).resolve().parent / "refs.json"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("graphs", "alliances", "bounds", "solver", "corpus", "known_values", "cli")

WORKLOADS = ("cubic-certify", "solve-deep", "small-verify")

# cubic-certify: graphs per order, drawn from the recorded pools.
CUBIC_CERTIFY_COUNTS = {20: 22, 22: 1}
CUBIC_CERTIFY_POOLS = {20: 160, 22: 40}

# solve-deep: for each target, SOLVE_DEEP_COUNT graphs drawn from a pool of
# SOLVE_DEEP_POOL connected cubic graphs on SOLVE_DEEP_N vertices.
SOLVE_DEEP_N = 26
SOLVE_DEEP_COUNT = 16
SOLVE_DEEP_POOL = 160
SOLVE_DEEP_TARGETS = (("gamma", None), ("gamma_t", None), ("gamma_k_a", 0), ("gamma_k_a", -1))

# small-verify: seed-drawn graphs given to oracle-check besides Petersen.
# Two, not one, so that the median of the pass's five calls falls inside
# one kind of call instead of between a 10 ms and a 0.6 s one.
ORACLE_N = 16
ORACLE_GRAPHS = 2


@dataclass(frozen=True)
class Outcome:
    """Verdict on one operation's output; ``digest`` identifies the output."""

    ok: bool
    digest: str
    detail: str = ""


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text(encoding="utf-8"))


def import_program() -> types.SimpleNamespace:
    """Import ``kalliance`` afresh from the checkout's ``src`` and return its
    layer modules by name.

    Any earlier import is dropped first, so repeated calls each pay the full
    import; only the source tree next to this benchmark is accepted.
    """
    if not (SRC / "kalliance" / "__init__.py").is_file():
        raise FileNotFoundError(f"no kalliance sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "kalliance" or m.startswith("kalliance.")]:
        del sys.modules[name]
    package = importlib.import_module("kalliance")
    if Path(package.__file__).resolve().parent != SRC / "kalliance":
        raise ImportError(f"kalliance was imported from {package.__file__}, not {SRC}")
    mods = {layer: importlib.import_module(f"kalliance.{layer}") for layer in LAYERS}
    return types.SimpleNamespace(package=package, **mods)


# ---------------------------------------------------------------------------
# Input generation (benchmark code only; no program code runs here)
# ---------------------------------------------------------------------------

def _is_connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def cubic_edge_list(n: int, rng: random.Random) -> str:
    """Edge-list text of a connected simple 3-regular graph on n vertices:
    a union of three random perfect matchings, redrawn until it is simple
    and connected."""
    while True:
        edges = set()
        for _ in range(3):
            order = list(range(n))
            rng.shuffle(order)
            for i in range(0, n, 2):
                u, v = sorted(order[i:i + 2])
                edges.add((u, v))
        if len(edges) == 3 * n // 2 and _is_connected(n, edges):
            return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))


def petersen_edge_list() -> str:
    edges = []
    for i in range(5):
        edges.append(tuple(sorted((i, (i + 1) % 5))))
        edges.append((i, i + 5))
        edges.append(tuple(sorted((5 + i, 5 + (i + 2) % 5))))
    return "n 10\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))


def solve_deep_text(index: int) -> str:
    """Member ``index`` of the solve-deep pool."""
    return cubic_edge_list(SOLVE_DEEP_N, random.Random(index))


def cubic_certify_spec(n: int, program_seed: int) -> str:
    return json.dumps({"graphs": [{"family": "random_cubic", "n": n, "seed": program_seed}]})


# ---------------------------------------------------------------------------
# Operations shared with record_refs.py
# ---------------------------------------------------------------------------

def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """``kalliance.cli.main`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_solve(mods, text: str, target: str, k: int | None):
    g = mods.graphs.from_edge_list(text)
    return g, mods.solver.solve(g, target, k, max_n=g.n)


def solve_key(target: str, k: int | None) -> str:
    return f"{target}:{k}"


def _witness_certifies(mods, g, result, target: str, k: int | None) -> bool:
    witness = result.witness
    if target == "gamma":
        return mods.alliances.is_dominating(g, witness)
    if target == "gamma_t":
        return mods.alliances.is_total_dominating(g, witness)
    return mods.alliances.certify(g, witness, k, "global").satisfied


# ---------------------------------------------------------------------------
# Operations per workload
# ---------------------------------------------------------------------------

def _certify_op(mods, name: str, spec_path: str | Path, csv_path: Path, want_sha: str) -> Op:
    argv = ["certify", "--corpus", str(spec_path), "-o", str(csv_path)]

    def check(output) -> Outcome:
        code, _, err = output
        csv = csv_path.read_bytes()
        csv_path.unlink()  # so a later run that writes nothing cannot pass on this file
        digest = sha256(csv)
        if code != 0:
            return Outcome(False, digest, f"exit code {code}: {err.strip()[-200:]}")
        if b"resource_error" in csv:
            return Outcome(False, digest, "resource_error cell in the CSV")
        if " 0 violations" not in err:
            return Outcome(False, digest, f"violations reported: {err.strip()[-200:]}")
        if digest != want_sha:
            return Outcome(False, digest, "CSV differs from the recorded reference")
        return Outcome(True, digest)

    return Op(name, lambda: run_cli(mods.cli, argv), check)


def stratified_draw(rng: random.Random, ordered: list, count: int) -> list:
    """One item from each of ``count`` equal slices of ``ordered``.

    Pools are ordered by recorded search effort, and one graph's search can
    take ten times as long as another's. A plain sample of a few graphs
    would make the pass time depend mostly on the seed; this way every seed
    gets the same mix of easy and hard graphs.
    """
    size = len(ordered)
    return [rng.choice(ordered[i * size // count:(i + 1) * size // count]) for i in range(count)]


def build_cubic_certify(seed: int, mods, workdir: Path, refs: dict) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n, count in CUBIC_CERTIFY_COUNTS.items():
        pool = sorted(refs["cubic-certify"][str(n)], key=lambda entry: (entry[2], entry[0]))
        for program_seed, want_sha, _ in stratified_draw(rng, pool, count):
            stem = workdir / f"cubic{n}-{program_seed}"
            spec_path = stem.with_suffix(".json")
            spec_path.write_text(cubic_certify_spec(n, program_seed), encoding="utf-8")
            ops.append(_certify_op(
                mods, f"certify random_cubic n={n} seed={program_seed}",
                spec_path, stem.with_suffix(".csv"), want_sha,
            ))
    return ops


def _solve_op(mods, name: str, text: str, target: str, k: int | None, want) -> Op:
    def check(output) -> Outcome:
        g, result = output
        got = [result.status, result.value, list(result.witness_members() or ())]
        digest = sha256(json.dumps(got))
        if want is None:
            return Outcome(False, digest, "no recorded reference for this graph")
        if got != ["found"] + list(want):
            return Outcome(False, digest, f"got {got}, reference {want}")
        if not _witness_certifies(mods, g, result, target, k):
            return Outcome(False, digest, "witness failed re-certification")
        return Outcome(True, digest)

    return Op(name, lambda: run_solve(mods, text, target, k), check)


def build_solve_deep(seed: int, mods, workdir: Path, refs: dict) -> list[Op]:
    """Each target gets its own graphs, drawn by that target's search
    effort, so that the slowest calls are the same mix for every seed."""
    rng = random.Random(seed)
    ops = []
    for target, k in SOLVE_DEEP_TARGETS:
        key = solve_key(target, k)
        for index in stratified_draw(rng, refs["solve-deep-by-effort"][key], SOLVE_DEEP_COUNT):
            text = solve_deep_text(index)
            ops.append(_solve_op(
                mods, f"solve pool={index} {target} k={k}", text, target, k,
                refs["solve-deep"].get(sha256(text), {}).get(key),
            ))
    return ops


def _cli_op(mods, name: str, argv: list[str], verdict: Callable[[int, str, str], str | None]) -> Op:
    def check(output) -> Outcome:
        code, out, err = output
        problem = verdict(code, out, err)
        return Outcome(problem is None, sha256(out + err), problem or "")

    return Op(name, lambda: run_cli(mods.cli, argv), check)


def _oracle_verdict(code: int, _out: str, err: str) -> str | None:
    if code != 0 or "oracle-check: 0 mismatches" not in err:
        return f"exit code {code}: {err.strip()[-200:]}"
    return None


def build_small_verify(seed: int, mods, workdir: Path, refs: dict) -> list[Op]:
    ref = refs["small-verify"]
    petersen = workdir / "petersen.el"
    petersen.write_text(petersen_edge_list(), encoding="utf-8")
    rng = random.Random(seed)
    drawn = []
    for i in range(ORACLE_GRAPHS):
        path = workdir / f"cubic{ORACLE_N}-{i}.el"
        path.write_text(cubic_edge_list(ORACLE_N, rng), encoding="utf-8")
        drawn.append(path)
    checks = ref["paper_suite_checks"]

    def paper_verdict(code: int, out: str, _err: str) -> str | None:
        last = out.strip().splitlines()[-1] if out.strip() else ""
        if code != 0 or last != f"{checks}/{checks} checks passed":
            return f"exit code {code}: {last!r}"
        return None

    return [
        _certify_op(mods, "certify --corpus default", "default",
                    workdir / "default.csv", ref["default_csv_sha256"]),
        _cli_op(mods, "paper-suite", ["paper-suite"], paper_verdict),
        _cli_op(mods, "oracle-check petersen", ["oracle-check", "--graph", str(petersen)],
                _oracle_verdict),
    ] + [
        _cli_op(mods, f"oracle-check {path.name}", ["oracle-check", "--graph", str(path)],
                _oracle_verdict)
        for path in drawn
    ]


OPS_FOR = {
    "cubic-certify": build_cubic_certify,
    "solve-deep": build_solve_deep,
    "small-verify": build_small_verify,
}
