"""Curated exact values and tight-bound attainments for the named graph
families, runnable as one self-checking suite (the CLI's ``paper-suite``
subcommand).

Every check compares a computed quantity against a published exact value for
that family, so a failure means the solver, a bound, or a construction is
wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    complete_bipartite_graph,
    complete_graph,
    hypercube_graph,
    line_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from .solver import solve


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check(name: str, got, expected) -> CheckResult:
    ok = got == expected
    detail = f"got {got!r}" if ok else f"got {got!r}, expected {expected!r}"
    return CheckResult(name, ok, detail)


def run_known_value_checks() -> list[CheckResult]:
    results: list[CheckResult] = []
    q3 = hypercube_graph(3)
    pet = petersen_graph()
    k4 = complete_graph(4)
    star5 = star_graph(5)  # one center, four leaves
    k33 = complete_bipartite_graph(3, 3)

    # --- cube: minimum alliances and their global variants -----------------
    results.append(_check("cube a_k at k=-1", solve(q3, PARAM_A_K, -1).value, 2))
    results.append(_check("cube a_k at k=0", solve(q3, PARAM_A_K, 0).value, 4))
    for k in (-1, 0):
        results.append(
            _check(f"cube gamma_k_a at k={k}", solve(q3, PARAM_GAMMA_K_A, k).value, 4)
        )
    for k in (2, 3):
        results.append(
            _check(f"cube gamma_k_a at k={k}", solve(q3, PARAM_GAMMA_K_A, k).value, 8)
        )
    results.append(_check("cube gamma", solve(q3, PARAM_GAMMA).value, 2))
    results.append(_check("cube gamma_t", solve(q3, PARAM_GAMMA_T).value, 4))
    for k in (0, 1):
        results.append(
            _check(f"cube gamma_k_ca at k={k}", solve(q3, PARAM_GAMMA_K_CA, k).value, 4)
        )

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
    results.append(
        _check("complete graph K_7 at k=2", solve(complete_graph(7), PARAM_GAMMA_K_A, 2).value, 5)
    )
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
    petersen_exact = {-3: 3, -2: 4, -1: 4, 0: 5, 1: 5, 2: 10, 3: 10}
    for k, expected in petersen_exact.items():
        results.append(
            _check(f"petersen gamma_k_a at k={k}", solve(pet, PARAM_GAMMA_K_A, k).value, expected)
        )
        results.append(
            _check(
                f"petersen lower_maxdeg attained at k={k}",
                bounds_mod.lower_maxdeg(10, 3, k).value,
                expected,
            )
        )
    results.append(_check("petersen whole set certifies at k=3",
                          certify(pet, VertexSet.full(pet), 3, REQUIRE_GLOBAL).satisfied, True))

    # --- line graph of the 4-star is K_4 ------------------------------------
    lg, _ = line_graph(star_graph(5))
    results.append(_check("line graph of the 4-star", lg, k4))
    k4_exact = {-3: 1, -2: 2, -1: 2, 2: 4, 3: 4}
    for k, expected in k4_exact.items():
        results.append(
            _check(f"K_4 gamma_k_a at k={k}", solve(k4, PARAM_GAMMA_K_A, k).value, expected)
        )
        results.append(
            _check(
                f"line-graph lower bound attained at k={k}",
                bounds_mod.line_graph_lower(4, 4, 1, k).value,
                expected,
            )
        )

    # --- star: nonexistence -------------------------------------------------
    for k in (2, 3, 4):
        results.append(
            _check(f"4-star has no defensive {k}-alliance",
                   solve(star5, PARAM_A_K, k).found, False)
        )
    results.append(
        _check("nonregular graph has no global max-degree alliance",
               solve(star5, PARAM_GAMMA_K_A, 4).found, False)
    )

    # --- square-root and planar lower bounds on the cube --------------------
    results.append(_check("sqrt lower bound at (n=8, k=-3)",
                          bounds_mod.lower_sqrt(8, -3).value, 2))
    results.append(_check("sqrt lower bound at (n=8, k=1)",
                          bounds_mod.lower_sqrt(8, 1).value, 4))
    cube_planar = {0: 4, 1: 4, 3: 8}
    for k, expected in cube_planar.items():
        results.append(
            _check(
                f"planar lower bound on cube at k={k}",
                bounds_mod.planar_graph_lower(8, k, True).value,
                expected,
            )
        )
    # At k=-3 the order gate n > 2(2 - k) fails for the cube, so the planar
    # bound abstains; the value 2 is still certified by the sqrt bound above.
    results.append(
        _check(
            "planar bound abstains on cube at k=-3",
            bounds_mod.planar_graph_lower(8, -3, True).applicable,
            False,
        )
    )
    cube_maxdeg = {-3: 2, 0: 4, 1: 4, 2: 8, 3: 8}
    for k, expected in cube_maxdeg.items():
        results.append(
            _check(
                f"degree lower bound on cube at k={k}",
                bounds_mod.lower_maxdeg(8, 3, k).value,
                expected,
            )
        )

    # --- cubic results -------------------------------------------------------
    results.append(_check("cubic upper bound on cube",
                          bounds_mod.cubic_upper_2gamma(q3).value, 4))
    gamma_witness = solve(q3, PARAM_GAMMA).witness
    augmented = cubic_augment_dominating(q3, gamma_witness)
    results.append(_check("cube dominating-set augmentation size", len(augmented), 4))
    # On a cubic graph gamma_k_a at k=-1 poses gamma_t's problem, so it is
    # compared with the published gamma_t, 4 for both graphs.
    results.append(
        _check("cubic identity on cube: k=-1 value equals gamma_t",
               solve(q3, PARAM_GAMMA_K_A, -1).value, 4)
    )
    results.append(
        _check("cubic identity on petersen: k=-1 value equals gamma_t",
               solve(pet, PARAM_GAMMA_K_A, -1).value, 4)
    )

    # --- construction matching the complete-graph closed form ---------------
    witness = construct_upper_witness(complete_graph(5), 0)
    results.append(_check("upper witness on K_5 at k=0", len(witness),
                          bounds_mod.kn_closed_form(5, 0)))

    # --- trees ---------------------------------------------------------------
    star_exact = {-4: 1, -3: 2, -2: 2, 0: 3, 1: 4}
    for k, expected in star_exact.items():
        results.append(
            _check(f"4-star gamma_k_a at k={k}", solve(star5, PARAM_GAMMA_K_A, k).value, expected)
        )
        results.append(
            _check(f"tree lower bound attained on 4-star at k={k}",
                   bounds_mod.tree_lower(5, 1, k).value, expected)
        )

    # --- connected alliances -------------------------------------------------
    for k in (-3, -2, -1):
        exact = solve(k33, PARAM_GAMMA_K_CA, k).value
        results.append(_check(f"K_3,3 gamma_k_ca at k={k}", exact, 2))
        results.append(_check(f"connected bound (i) attained on K_3,3 at k={k}",
                              bounds_mod.connected_lower_i(6, 2, k).value, 2))
        results.append(_check(f"connected bound (ii) attained on K_3,3 at k={k}",
                              bounds_mod.connected_lower_ii(6, 2, 3, k).value, 2))
    for k in (0, 1):
        results.append(_check(f"connected bound (ii) attained on cube at k={k}",
                              bounds_mod.connected_lower_ii(8, 3, 3, k).value, 4))
    results.append(_check("connected bound (i) on cube at k=0 gives only 3",
                          bounds_mod.connected_lower_i(8, 3, 0).value, 3))

    # --- degree-parity collapse on the cube ----------------------------------
    for low, high in ((-2, -1), (0, 1), (2, 3)):
        results.append(
            _check(
                f"parity collapse on cube between k={low} and k={high}",
                solve(q3, PARAM_GAMMA_K_A, low).value,
                solve(q3, PARAM_GAMMA_K_A, high).value,
            )
        )
    results.append(_check("parity normalization on cube", bounds_mod.parity_collapse(q3, 0), 1))

    # --- faces bound witness (triangle, whole set, k=2) ----------------------
    k3 = complete_graph(3)
    full = VertexSet.full(k3)
    results.append(_check("triangle certifies globally at k=2",
                          certify(k3, full, 2, REQUIRE_GLOBAL).satisfied, True))
    results.append(_check("faces bound on triangle at k=2",
                          bounds_mod.faces_lower(3, bounds_mod.induced_face_count(k3, full.members), 2).value, 3))

    # --- total domination bound on small cubic graphs ------------------------
    for name, g in (("cube", q3), ("petersen", pet)):
        gt = solve(g, PARAM_GAMMA_T).value
        results.append(
            _check(f"gamma_t of {name} within two thirds of order", gt <= (2 * g.n) // 3, True)
        )

    # --- line graph of the 2-path is a single edge ---------------------------
    lp3, _ = line_graph(path_graph(3))
    results.append(_check("line graph of the 2-path", lp3, complete_graph(2)))
    results.append(_check("line-graph connected bound (i) on the 2-path at k=0",
                          bounds_mod.line_graph_connected_lower(2, 2, 2, 1, 0)[0].value, 1))

    return results
