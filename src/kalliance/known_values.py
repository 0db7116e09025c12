"""Curated exact values and tight-bound attainments for the named graph
families, runnable as one self-checking suite (the CLI's ``paper-suite``
subcommand).

Every check compares a computed quantity against a published exact value for
that family, so a failure means the solver, a bound, or a construction is
wrong. Each named graph's exact values are stated once, in ``_EXACT``; every
catalogue bound is read from ``bounds.evaluate_all`` on the graph itself.
"""

from __future__ import annotations

from typing import NamedTuple

from . import bounds as bounds_mod
from .alliances import (
    PARAM_A_K,
    PARAM_GAMMA,
    PARAM_GAMMA_K_A,
    PARAM_GAMMA_K_CA,
    PARAM_GAMMA_T,
    REQUIRE_GLOBAL,
    VertexSet,
    boundary_degrees,
    certify,
    construct_upper_witness,
    cubic_augment_dominating,
    is_defensive_k_alliance,
)
from .graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    diameter,
    hypercube_graph,
    line_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from .solver import solve


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _by_k(parameter: str, values: dict[int, int]) -> dict[tuple[str, int], int]:
    return {(parameter, k): value for k, value in values.items()}


# The published exact values of each named graph, keyed by (parameter, k);
# k is None for gamma and gamma_t.
_EXACT = {
    "cube": {
        **_by_k(PARAM_A_K, {-1: 2, 0: 4}),
        **_by_k(PARAM_GAMMA_K_A, {-3: 2, -1: 4, 0: 4, 1: 4, 2: 8, 3: 8}),
        (PARAM_GAMMA, None): 2,
        (PARAM_GAMMA_T, None): 4,
        **_by_k(PARAM_GAMMA_K_CA, {0: 4, 1: 4}),
    },
    "petersen": {
        **_by_k(PARAM_GAMMA_K_A, {-3: 3, -2: 4, -1: 4, 0: 5, 1: 5, 2: 10, 3: 10}),
        (PARAM_GAMMA_T, None): 4,
    },
    "K_4": _by_k(PARAM_GAMMA_K_A, {-3: 1, -2: 2, -1: 2, 2: 4, 3: 4}),
    "4-star": _by_k(PARAM_GAMMA_K_A, {-4: 1, -3: 2, -2: 2, 0: 3, 1: 4}),
    "K_3,3": _by_k(PARAM_GAMMA_K_CA, {-3: 2, -2: 2, -1: 2}),
}


def _named_graphs() -> dict[str, Graph]:
    """The graphs ``_EXACT`` names, in its order."""
    return {
        "cube": hypercube_graph(3),
        "petersen": petersen_graph(),
        "K_4": complete_graph(4),
        "4-star": star_graph(5),  # one center, four leaves
        "K_3,3": complete_bipartite_graph(3, 3),
    }


def _check(name: str, got, expected) -> CheckResult:
    ok = got == expected
    detail = f"got {got!r}" if ok else f"got {got!r}, expected {expected!r}"
    return CheckResult(name, ok, detail)


def _solved(label: str, g: Graph, parameter: str, k: int | None = None) -> CheckResult:
    """The solver's value of (parameter, k) on the named graph ``label``
    against its table."""
    name = f"{label} {parameter}" if k is None else f"{label} {parameter} at k={k}"
    return _check(name, solve(g, parameter, k).value, _EXACT[label][parameter, k])


def _bound(
    g: Graph, name: str, k: int, target: str = PARAM_GAMMA_K_A, members: VertexSet | None = None
):
    """The report of catalogue bound ``name`` on g at k for ``target``."""
    reports = bounds_mod.evaluate_all(g, k, target, members=members)
    return next(report for report in reports if report.name == name)


def _line_graph_data(base: Graph) -> tuple[int, int, int, int]:
    """The base graph's size, diameter and two largest degrees, from which
    the line-graph bounds are stated."""
    d1, d2 = sorted(base.degrees, reverse=True)[:2]
    return base.m, diameter(base), d1, d2


def run_known_value_checks() -> list[CheckResult]:
    results: list[CheckResult] = []
    q3, pet, k4, star5, k33 = _named_graphs().values()
    cube = _EXACT["cube"]

    # --- cube: minimum alliances and their global variants -----------------
    for parameter, k in ((PARAM_A_K, -1), (PARAM_A_K, 0), (PARAM_GAMMA_K_A, -1),
                         (PARAM_GAMMA_K_A, 0), (PARAM_GAMMA_K_A, 2), (PARAM_GAMMA_K_A, 3),
                         (PARAM_GAMMA, None), (PARAM_GAMMA_T, None),
                         (PARAM_GAMMA_K_CA, 0), (PARAM_GAMMA_K_CA, 1)):
        results.append(_solved("cube", q3, parameter, k))

    # Two adjacent cube vertices form a minimum (-1)-alliance; a 4-cycle face
    # is a minimum strong (k=0) alliance and is globally dominating.
    pair = VertexSet.from_vertices(q3, [0, 1])
    results.append(_check("cube adjacent pair is (-1)-defensive",
                          is_defensive_k_alliance(q3, pair, -1), True))
    face = VertexSet.from_vertices(q3, [0, 1, 2, 3])
    results.append(_check("cube face is 0-defensive",
                          is_defensive_k_alliance(q3, face, 0), True))
    degrees = boundary_degrees(q3, face)
    results.append(_check("cube face boundary degrees",
                          {degrees[v] for v in face}, {(2, 1)}))
    cert = certify(q3, face, 0, "global_connected")
    results.append(_check("cube face certifies global+connected", cert.satisfied, True))

    # --- complete graphs: closed form and the shrink chain -----------------
    for n in range(2, 9):
        ok = all(
            solve(complete_graph(n), PARAM_GAMMA_K_A, k).value
            == bounds_mod.kn_closed_form(n, k)
            for k in range(1 - n, n)
        )
        results.append(_check(f"complete graph n={n} matches closed form", ok, True))
    results.append(_check("complete graph K_7 at k=2",
                          solve(complete_graph(7), PARAM_GAMMA_K_A, 2).value, 5))
    for n in (4, 6):
        g = complete_graph(n)
        values = {k: solve(g, PARAM_GAMMA_K_A, k).value for k in range(1 - n, n)}
        chain_ok = all(
            values[k - 2 * r] + r == values[k]
            for k in range(1 - n, n)
            for r in range(0, (k + n - 1) // 2 + 1)
        )
        results.append(_check(f"complete graph n={n} shrink equality chain", chain_ok, True))

    # --- Petersen graph: the degree-based lower bound is attained ----------
    for (parameter, k), expected in _EXACT["petersen"].items():
        if parameter == PARAM_GAMMA_K_A:
            results.append(_solved("petersen", pet, parameter, k))
            results.append(_check(f"petersen lower_maxdeg attained at k={k}",
                                  _bound(pet, "lower_maxdeg", k).value, expected))
    results.append(_check("petersen whole set certifies at k=3",
                          certify(pet, VertexSet.full(pet), 3, REQUIRE_GLOBAL).satisfied, True))

    # --- line graph of the 4-star is K_4 ------------------------------------
    lg, _ = line_graph(star5)
    results.append(_check("line graph of the 4-star", lg, k4))
    m, _, d1, d2 = _line_graph_data(star5)
    for (parameter, k), expected in _EXACT["K_4"].items():
        results.append(_solved("K_4", k4, parameter, k))
        results.append(_check(f"line-graph lower bound attained at k={k}",
                              bounds_mod.line_graph_lower(m, d1, d2, k).value, expected))

    # --- star: nonexistence -------------------------------------------------
    for k in (2, 3, 4):
        results.append(_check(f"4-star has no defensive {k}-alliance",
                              solve(star5, PARAM_A_K, k).found, False))
    results.append(_check("nonregular graph has no global max-degree alliance",
                          solve(star5, PARAM_GAMMA_K_A, 4).found, False))

    # --- square-root and planar lower bounds on the cube --------------------
    for k in (-3, 1):
        results.append(_check(f"sqrt lower bound at (n={q3.n}, k={k})",
                              _bound(q3, "lower_sqrt", k).value, cube[PARAM_GAMMA_K_A, k]))
    for k in (0, 1, 3):
        results.append(_check(f"planar lower bound on cube at k={k}",
                              _bound(q3, "planar_graph_lower", k).value,
                              cube[PARAM_GAMMA_K_A, k]))
    # At k=-3 the order gate n > 2(2 - k) fails for the cube, so the planar
    # bound abstains; the value 2 is still certified by the sqrt bound above.
    results.append(_check("planar bound abstains on cube at k=-3",
                          _bound(q3, "planar_graph_lower", -3).applicable, False))
    for k in (-3, 0, 1, 2, 3):
        results.append(_check(f"degree lower bound on cube at k={k}",
                              _bound(q3, "lower_maxdeg", k).value, cube[PARAM_GAMMA_K_A, k]))

    # --- cubic results -------------------------------------------------------
    results.append(_check("cubic upper bound on cube",
                          _bound(q3, "cubic_upper_2gamma", -1).value, cube[PARAM_GAMMA_K_A, -1]))
    augmented = cubic_augment_dominating(q3, solve(q3, PARAM_GAMMA).witness)
    results.append(_check("cube dominating-set augmentation size", len(augmented),
                          cube[PARAM_GAMMA_K_A, -1]))
    # On a cubic graph gamma_k_a at k=-1 poses gamma_t's problem, so it is
    # compared with the published gamma_t of both graphs.
    for label, g in (("cube", q3), ("petersen", pet)):
        results.append(_check(f"cubic identity on {label}: k=-1 value equals gamma_t",
                              solve(g, PARAM_GAMMA_K_A, -1).value,
                              _EXACT[label][PARAM_GAMMA_T, None]))

    # --- construction matching the complete-graph closed form ---------------
    witness = construct_upper_witness(complete_graph(5), 0)
    results.append(_check("upper witness on K_5 at k=0", len(witness),
                          bounds_mod.kn_closed_form(5, 0)))

    # --- trees ---------------------------------------------------------------
    for (parameter, k), expected in _EXACT["4-star"].items():
        results.append(_solved("4-star", star5, parameter, k))
        results.append(_check(f"tree lower bound attained on 4-star at k={k}",
                              _bound(star5, "tree_lower", k).value, expected))

    # --- connected alliances -------------------------------------------------
    for (parameter, k), expected in _EXACT["K_3,3"].items():
        results.append(_solved("K_3,3", k33, parameter, k))
        for bound, label in (("connected_lower_i", "(i)"), ("connected_lower_ii", "(ii)")):
            results.append(_check(f"connected bound {label} attained on K_3,3 at k={k}",
                                  _bound(k33, bound, k, parameter).value, expected))
    for k in (0, 1):
        results.append(_check(f"connected bound (ii) attained on cube at k={k}",
                              _bound(q3, "connected_lower_ii", k, PARAM_GAMMA_K_CA).value,
                              cube[PARAM_GAMMA_K_CA, k]))
    results.append(_check("connected bound (i) on cube at k=0 gives only 3",
                          _bound(q3, "connected_lower_i", 0, PARAM_GAMMA_K_CA).value, 3))

    # --- degree-parity collapse on the cube ----------------------------------
    for low, high in ((-2, -1), (0, 1), (2, 3)):
        results.append(_check(f"parity collapse on cube between k={low} and k={high}",
                              solve(q3, PARAM_GAMMA_K_A, low).value,
                              solve(q3, PARAM_GAMMA_K_A, high).value))
    results.append(_check("parity normalization on cube", bounds_mod.parity_collapse(q3, 0), 1))

    # --- faces bound witness (triangle, whole set, k=2) ----------------------
    k3 = complete_graph(3)
    full = VertexSet.full(k3)
    results.append(_check("triangle certifies globally at k=2",
                          certify(k3, full, 2, REQUIRE_GLOBAL).satisfied, True))
    results.append(_check("faces bound on triangle at k=2",
                          _bound(k3, "faces_lower", 2, members=full).value,
                          bounds_mod.kn_closed_form(k3.n, 2)))

    # --- total domination bound on small cubic graphs ------------------------
    for name, g in (("cube", q3), ("petersen", pet)):
        gt = solve(g, PARAM_GAMMA_T).value
        results.append(_check(f"gamma_t of {name} within two thirds of order",
                              gt <= (2 * g.n) // 3, True))

    # --- line graph of the 2-path is a single edge ---------------------------
    p3 = path_graph(3)
    lp3, _ = line_graph(p3)
    results.append(_check("line graph of the 2-path", lp3, complete_graph(2)))
    results.append(_check("line-graph connected bound (i) on the 2-path at k=0",
                          bounds_mod.line_graph_connected_lower(*_line_graph_data(p3), 0)[0].value,
                          1))

    return results
