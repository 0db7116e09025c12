"""Benchmark for kalliance: one workload per run, or all of them.

    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --workload cubic-certify --seed 1 --seconds 30 --trace 0

One process, one client, one operation at a time (a closed loop, no
threads). A run sets up several times and keeps the median set-up time,
then repeats the workload's fixed pass of operations while a whole pass
still fits in ``--seconds`` (always at least one pass). Each operation's
output is checked outside the timed region; a failed check, an exception or
a ``resource_error`` cell counts as a failed operation and the run goes on.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
traced passes, which alternate with untraced ones so that the tracing
overhead can be reported. ``--workload all`` runs every workload in a fresh
process and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import meta
import speed
import workloads as wl
from spans import UNITS, Tracer, layer_metrics, tail, write_spans

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 15
RUN_TIMEOUT_S = 175

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("call_p50_s", "s"),
    ("call_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Pass:
    """One pass over the operations. ``seconds`` and ``latencies`` are in
    reference seconds (see speed.py), ``raw_*`` in wall seconds; ``wall``
    also includes the untimed checks and the kernel runs."""

    seconds: float = 0.0
    raw_seconds: float = 0.0
    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)


def run_pass(ops: list[wl.Op], tracer: Tracer | None = None) -> Pass:
    result = Pass()
    begin = time.perf_counter()
    before = speed.kernel_seconds()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            output = op.run()
        except (Exception, SystemExit) as exc:  # a failed operation, not a failed run
            latency = time.perf_counter() - start
            outcome = wl.Outcome(False, "", f"raised {exc!r}")
        else:
            latency = time.perf_counter() - start
            if tracer is not None:
                tracer.op = None
            try:
                outcome = op.check(output)
            except Exception as exc:
                outcome = wl.Outcome(False, "", f"check raised {exc!r}")
        if tracer is not None:
            tracer.op = None
        after = speed.kernel_seconds()
        factor = speed.scale(before, after)
        before = after
        result.raw_seconds += latency
        result.raw_latencies.append(latency)
        result.seconds += latency * factor
        result.latencies.append(latency * factor)
        result.scales.append(factor)
        result.digests.append(outcome.digest)
        if not outcome.ok:
            result.failures.append(f"{op.name}: {outcome.detail}")
    result.wall = time.perf_counter() - begin
    return result


def setup(workload: str, seed: int, workdir: Path, refs: dict):
    """Import the program and generate the inputs, SETUP_REPEATS times;
    returns the last program, its operations, and every set-up time in
    reference and in wall seconds."""
    scaled, raw = [], []
    before = speed.kernel_seconds()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        mods = wl.import_program()
        ops = wl.OPS_FOR[workload](seed, mods, workdir, refs)
        raw.append(time.perf_counter() - start)
        after = speed.kernel_seconds()
        scaled.append(raw[-1] * speed.scale(before, after))
        before = after
    return mods, ops, scaled, raw


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    refs = wl.load_refs()
    workdir = HERE / f"_work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        mods, ops, setup_times, setup_raw = setup(workload, seed, workdir, refs)
        plain: list[Pass] = []
        with_trace: list[Pass] = []
        layers: list[dict] = []
        first_spans = []
        tracer = Tracer(mods)
        start = time.perf_counter()
        while True:
            plain.append(run_pass(ops))
            last = plain[-1].wall
            if traced:
                tracer.install()
                try:
                    with_trace.append(run_pass(ops, tracer))
                finally:
                    tracer.uninstall()
                spans = tracer.take()
                layers.append(layer_metrics(spans, with_trace[-1].scales, mods))
                if len(layers) == 1:
                    first_spans = spans
                last += with_trace[-1].wall
            if time.perf_counter() - start + last > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"ops": ops, "setup": setup_times, "setup_raw": setup_raw, "plain": plain,
            "traced": with_trace, "layers": layers, "spans": first_spans}


def op_latencies(passes: list[Pass], raw: bool = False) -> list[float]:
    """Each operation's median latency over the passes: one sample per
    operation of the workload, however many passes fitted in the run."""
    columns = zip(*(p.raw_latencies if raw else p.latencies for p in passes))
    return [statistics.median(column) for column in columns]


def end_to_end(run: dict, raw: bool = False) -> dict[str, float]:
    """End-to-end metrics in reference seconds, or in wall seconds. The
    call percentiles are taken over the operations' median latencies, so
    their sample set is fixed by the workload and not by the program's
    speed."""
    latencies = op_latencies(run["plain"], raw)
    return {
        "setup_s": statistics.median(run["setup_raw" if raw else "setup"]),
        "pass_s": statistics.median(p.raw_seconds if raw else p.seconds for p in run["plain"]),
        "call_p50_s": statistics.median(latencies),
        "call_tail_s": tail(latencies)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run: dict) -> tuple[dict[str, float], list[str]]:
    """Medians of the traced passes' times; counts from the first traced
    pass, which every later traced pass must repeat exactly."""
    layers = run["layers"]
    problems = []
    out = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if UNITS[name] == "count":
            out[name] = values[0]
            if any(v != values[0] for v in values):
                problems.append(f"count {name} differs between traced passes: {values}")
        else:
            out[name] = statistics.median(values)
    traced = statistics.median(p.seconds for p in run["traced"])
    untraced = statistics.median(p.seconds for p in run["plain"])
    out["trace.overhead_frac"] = traced / untraced - 1
    return out, problems


def output_digest(run: dict) -> str:
    return wl.sha256("\n".join(run["plain"][0].digests))


def run_one(args) -> int:
    load_start = meta.load_average()
    try:
        run = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    passes = run["plain"] + run["traced"]
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)

    if args.trace:
        metrics, problems = per_layer(run)
        units = UNITS
    else:
        metrics, problems = end_to_end(run), []
        units = dict(END_TO_END)
    if len({tuple(p.digests) for p in passes}) != 1:
        problems.append("outputs differ between passes")
    for line in problems:
        print(f"error: {line}", file=sys.stderr)

    _, percentile, samples = tail(op_latencies(run["plain"]))
    print(f"workload {args.workload} seed {args.seed}: {len(run['plain'])} untraced and "
          f"{len(run['traced'])} traced passes of {len(run['ops'])} operations")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    print(f"  {'failed_frac':28s} {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    print(f"  call_tail_s is p{percentile:.1f} of {samples} operations' median latencies")
    factors = [f for p in run["plain"] for f in p.scales]
    print(f"  machine speed: median {statistics.median(factors):.4g} of reference "
          f"(range {min(factors):.3g} to {max(factors):.3g})")
    print("  wall seconds " + json.dumps(end_to_end(run, raw=True)))
    print(f"  outputs sha256 {output_digest(run)}")
    if args.trace:
        path = HERE / "_spans" / f"{args.workload}-seed{args.seed}.jsonl"
        write_spans(path, run["spans"])
        print(f"  spans of the first traced pass: {path.relative_to(HERE.parent)}")
    info = meta.run_metadata(args.seed)
    info["load_average"] = {"start": load_start, "end": meta.load_average()}
    print("meta " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, then one table."""
    status = 0
    rows = []
    for workload in wl.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{workload}: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
            status = 1
            continue
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        status |= not result["correct"]
        rows.append((workload, result))
    print()
    print(f"{'workload':15s} {'metric':28s} {'value':>14s} unit")
    for workload, result in rows:
        for name, metric in result["metrics"].items():
            print(f"{workload:15s} {name:28s} {metric['value']:14.6g} {metric['unit']}")
        frac = result["failed"] / result["attempted"]
        print(f"{workload:15s} {'failed_frac':28s} {frac:14.6g} ratio "
              f"({result['failed']}/{result['attempted']}, correct={result['correct']})")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
