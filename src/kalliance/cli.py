"""Command-line front end: graph generation, solving, bound evaluation,
corpus certification, solver-vs-oracle comparison, and the known-values
suite.

Exit codes: 0 success, 1 violations or mismatches found or corpus cells
left unsolved, 2 usage error, 3 file or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds as bounds_mod
from .alliances import PARAMETERS, VertexSet, certify
from .corpus import default_corpus_spec, load_corpus_spec, run_corpus
from .graphs import (
    FAMILIES,
    PARAM_TYPES,
    Graph,
    ParseError,
    connected_components_of,
    from_edge_list,
    generate,
    induced_subgraph,
    is_tree,
    is_triangle_free,
    to_edge_list,
)
from .known_values import run_known_value_checks
from .solver import ResourceLimitError, brute_force_oracle, cells, k_range, solve

_BY_ALIAS = {row.alias: row for row in PARAMETERS.values()}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_graph(path: str) -> Graph:
    return from_edge_list(_read_text(path))


def _emit_json(obj):
    sys.stdout.write(json.dumps(obj) + "\n")


def _warn_k_range(g: Graph, k: int):
    ks = k_range(g)
    if k not in ks:
        print(
            f"warning: k={k} is outside the degree range [{ks[0]}, {ks[-1]}]",
            file=sys.stderr,
        )


def _cmd_gen(args) -> int:
    params = {name: getattr(args, name) for name in PARAM_TYPES if getattr(args, name) is not None}
    if "seed" in FAMILIES[args.family][1]:
        params.setdefault("seed", 0)
    g = generate(args.family, **params)
    _write_text(args.output, to_edge_list(g))
    return 0


def _cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    row = _BY_ALIAS[args.target]
    if row.takes_k and args.k is not None:
        _warn_k_range(g, args.k)
    result = solve(g, row.name, args.k)
    _emit_json(result.to_json_dict())
    return 0


def _cmd_bounds(args) -> int:
    g = _load_graph(args.graph)
    if args.assume_planar:
        g = g.with_asserted_planar()
    row = _BY_ALIAS[args.target]
    if not row.takes_k:
        aliases = ", ".join(a for a, r in sorted(_BY_ALIAS.items()) if r.takes_k)
        print(f"error: bounds are catalogued for {aliases} only", file=sys.stderr)
        return 2
    _warn_k_range(g, args.k)
    reports = bounds_mod.evaluate_all(g, args.k, row.name)
    if args.set is None:
        _emit_json([r.to_json_dict() for r in reports])
        return 0

    members = [int(tok) for tok in args.set.split(",") if tok.strip() != ""]
    subject = VertexSet.from_vertices(g, members)
    cert = certify(g, subject, args.k, row.requirement)
    components = connected_components_of(g, subject.bits)
    if is_tree(g):
        reports.append(bounds_mod.tree_lower(g.n, components, args.k))
    if g.asserted_planar:
        induced = induced_subgraph(g, members)
        reports.append(
            bounds_mod.planar_subgraph_lower(g.n, args.k, is_triangle_free(induced))
        )
        if components == 1:
            f = bounds_mod.induced_face_count(g, members)
            reports.append(bounds_mod.faces_lower(g.n, f, args.k))
    _emit_json(
        {
            "certificate": cert.to_json_dict(),
            "components": components,
            "reports": [r.to_json_dict() for r in reports],
        }
    )
    return 0


def _cmd_certify(args) -> int:
    if args.corpus == "default":
        spec = default_corpus_spec()
    else:
        spec = load_corpus_spec(_read_text(args.corpus))
    result = run_corpus(spec)
    _write_text(args.output, result.to_csv())
    if args.json is not None:
        _write_text(args.json, json.dumps(result.to_json_dict(), indent=2) + "\n")
    total = result.total_violations()
    unsolved = result.unsolved_cells()
    print(
        f"certified {len(spec.graphs)} graphs, {len(result.records)} records, "
        f"{total} violations, {unsolved} unsolved cells",
        file=sys.stderr,
    )
    if total:
        for message in result.all_violations()[:20]:
            print(f"violation: {message}", file=sys.stderr)
    return 1 if total or unsolved else 0


def _cmd_oracle_check(args) -> int:
    g = _load_graph(args.graph)
    ks = k_range(g)
    mismatches = []

    def compare(target, k):
        fast = solve(g, target, k)
        slow = brute_force_oracle(g, target, k)
        if (fast.status, fast.value, fast.witness_members()) != (
            slow.status,
            slow.value,
            slow.witness_members(),
        ):
            mismatches.append(
                f"{target} k={k}: solver {fast.status}/{fast.value}/"
                f"{fast.witness_members()} vs oracle {slow.status}/{slow.value}/"
                f"{slow.witness_members()}"
            )

    for target, k in cells(g):
        compare(target, k)
    for line in mismatches:
        print(f"mismatch: {line}", file=sys.stderr)
    print(
        f"oracle-check: {len(mismatches)} mismatches over k in [{ks[0]}, {ks[-1]}]",
        file=sys.stderr,
    )
    return 1 if mismatches else 0


def _cmd_paper_suite(_args) -> int:
    checks = run_known_value_checks()
    failures = 0
    for check in checks:
        mark = "ok" if check.ok else "FAIL"
        print(f"{mark:4s} {check.name}: {check.detail}")
        if not check.ok:
            failures += 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kalliance",
        description="Exact defensive k-alliance computation and certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit an edge list for a named graph family")
    gen.add_argument("--family", required=True, choices=sorted(FAMILIES))
    for name, kind in PARAM_TYPES.items():
        gen.add_argument(f"--{name}", type=kind)
    gen.add_argument("-o", "--output")
    gen.set_defaults(func=_cmd_gen)

    slv = sub.add_parser("solve", help="exact optimum for one parameter")
    slv.add_argument("--graph", required=True, help="edge-list file, or - for stdin")
    slv.add_argument("--target", required=True, choices=sorted(_BY_ALIAS))
    slv.add_argument("--k", type=int)
    slv.set_defaults(func=_cmd_solve)

    bnd = sub.add_parser("bounds", help="evaluate the bound catalog")
    bnd.add_argument("--graph", required=True)
    bnd.add_argument("--k", type=int, required=True)
    bnd.add_argument("--target", required=True, choices=sorted(_BY_ALIAS))
    bnd.add_argument("--assume-planar", action="store_true")
    bnd.add_argument("--set", help="comma-separated vertices to certify")
    bnd.set_defaults(func=_cmd_bounds)

    cert = sub.add_parser("certify", help="run corpus certification")
    cert.add_argument("--corpus", required=True, help="spec JSON file, - for stdin, or 'default'")
    cert.add_argument("-o", "--output", help="CSV destination (default stdout)")
    cert.add_argument("--json", help="also write the full JSON report here")
    cert.set_defaults(func=_cmd_certify)

    orc = sub.add_parser("oracle-check", help="compare the solver against the brute-force oracle")
    orc.add_argument("--graph", required=True)
    orc.set_defaults(func=_cmd_oracle_check)

    paper = sub.add_parser("paper-suite", help="run the curated known-value checks")
    paper.set_defaults(func=_cmd_paper_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # ParseError and JSONDecodeError are both ValueErrors: a ParseError exits
    # 3, so its clause comes first, and a JSONDecodeError exits 2.
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ResourceLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
