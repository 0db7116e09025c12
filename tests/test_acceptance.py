"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete. All equalities are exact integer comparisons.
"""

import pytest

from kalliance.alliances import (
    PARAM_A_K,
    PARAM_GAMMA,
    PARAM_GAMMA_K_A,
    VertexSet,
    certify,
    construct_upper_witness,
    cubic_augment_dominating,
)
from kalliance.bounds import faces_lower, induced_face_count, kn_closed_form
from kalliance.graphs import (
    complete_graph,
    is_cubic,
    is_regular,
    random_graph,
    star_graph,
)
from kalliance.known_values import run_known_value_checks
from kalliance.solver import brute_force_oracle, cells, solve


def _report(criterion, description, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"ACCEPTANCE {criterion} {status}: {description}")
    assert not problems, f"{criterion}: {problems[:5]}"


def _expect(problems, label, got, expected):
    if got != expected:
        problems.append(f"{label}: got {got!r}, expected {expected!r}")


@pytest.fixture(scope="module")
def known_checks():
    """The known values are kept once, in ``known_values``; the criteria
    below select their checks by name."""
    return run_known_value_checks()


def _known(checks, prefixes, count):
    picked = [c for c in checks if c.name.startswith(prefixes)]
    problems = [f"{c.name}: {c.detail}" for c in picked if not c.ok]
    if len(picked) != count:
        problems.append(f"{len(picked)} known-value checks match {prefixes}, expected {count}")
    return problems


def test_c01_cube_exact_values(known_checks):
    problems = _known(known_checks, ("cube a_k at k=", "cube gamma"), 10)
    _report("C1", "3-cube exact alliance, domination, and connected values", problems)


def test_c02_complete_graph_closed_form():
    problems = []
    for n in range(2, 9):
        g = complete_graph(n)
        values = {k: solve(g, PARAM_GAMMA_K_A, k).value for k in range(1 - n, n)}
        for k, value in values.items():
            _expect(problems, f"K_{n} k={k}", value, kn_closed_form(n, k))
            for r in range(0, (k + n - 1) // 2 + 1):
                _expect(
                    problems,
                    f"K_{n} chain k={k} r={r}",
                    values[k - 2 * r] + r,
                    value,
                )
    _report("C2", "complete graphs match the closed form and the shrink chain", problems)


def test_c03_petersen_attains_degree_bound(known_checks):
    prefixes = ("petersen gamma_k_a at k=", "petersen lower_maxdeg attained at k=")
    problems = _known(known_checks, prefixes, 14)
    _report("C3", "Petersen values equal the degree-based lower bound", problems)


def test_c04_line_graph_of_star_is_k4(known_checks):
    prefixes = (
        "line graph of the 4-star", "K_4 gamma_k_a at k=", "line-graph lower bound attained at k=",
    )
    problems = _known(known_checks, prefixes, 11)
    _report("C4", "K_4 values equal the line-graph bound from the 4-star", problems)


def test_c05_k33_connected_values(known_checks):
    prefixes = (
        "K_3,3 gamma_k_ca at k=",
        "connected bound (i) attained on K_3,3",
        "connected bound (ii) attained on K_3,3",
    )
    problems = _known(known_checks, prefixes, 9)
    _report("C5", "K_3,3 connected values match both diameter bounds", problems)


def test_c06_nonexistence(default_corpus):
    problems = []
    star = star_graph(5)
    for k in (2, 3, 4):
        if solve(star, PARAM_A_K, k).found:
            problems.append(f"4-star admits a defensive {k}-alliance")
        if solve(star, PARAM_GAMMA_K_A, k).found:
            problems.append(f"4-star admits a global defensive {k}-alliance")
    spec, _ = default_corpus
    for gs in spec.graphs:
        g = gs.build()
        if is_regular(g):
            continue
        if solve(g, PARAM_GAMMA_K_A, g.max_degree).found:
            problems.append(f"{gs.label()} admits a global max-degree alliance")
    _report("C6", "star and nonregular nonexistence cases", problems)


def test_c07_oracle_equivalence():
    problems = []
    graph_count = 0
    for i in range(108):
        n = 3 + i % 9
        p = (0.3, 0.5, 0.7)[i % 3]
        g = random_graph(n, p, 5000 + i)
        graph_count += 1
        for target, k in cells(g):
            fast = solve(g, target, k)
            slow = brute_force_oracle(g, target, k)
            if (fast.status, fast.value, fast.witness_members()) != (
                slow.status,
                slow.value,
                slow.witness_members(),
            ):
                problems.append(f"graph {i} ({target}, k={k}) disagrees")
    assert graph_count >= 100
    _report("C7", f"solver equals oracle on {graph_count} random graphs", problems)


def test_c08_corpus_soundness(default_corpus):
    spec, result = default_corpus
    problems = list(result.all_violations())
    families = [gs.family for gs in spec.graphs]
    if families.count("random_tree") != 50:
        problems.append("corpus must carry 50 random trees")
    if families.count("random_cubic") != 30:
        problems.append("corpus must carry 30 random cubic graphs")
    if families.count("random_graph") != 50:
        problems.append("corpus must carry 50 random graphs")
    if result.checks_run.get("forest_identity") != 1000:
        problems.append("forest identity must be sampled 1000 times")
    _report("C8", "zero violations across the default corpus sweep", problems)


def test_c09_constructions_executable(default_corpus):
    spec, result = default_corpus
    problems = [v for v in result.extra_violations]
    if result.checks_run.get("shrink_samples") != 200:
        problems.append("shrink construction must be sampled 200 times")
    if result.checks_run.get("upper_witness", 0) <= 0:
        problems.append("upper witness construction never ran")
    if result.checks_run.get("cubic_augment", 0) < 30:
        problems.append("cubic augmentation must cover the cubic corpus")
    # Re-run the witness construction directly on every corpus graph; the
    # constructions re-certify internally and raise on any failure.
    for gs in spec.graphs:
        g = gs.build()
        d_min, d_max = g.min_degree, g.max_degree
        for k in range(-d_max, d_min):
            witness = construct_upper_witness(g, k)
            if len(witness) != g.n - (d_min - k) // 2:
                problems.append(f"{gs.label()} k={k}: wrong witness size")
        if is_cubic(g):
            gamma = solve(g, PARAM_GAMMA)
            augmented = cubic_augment_dominating(g, gamma.witness)
            if len(augmented) > 2 * gamma.value:
                problems.append(f"{gs.label()}: augmentation too large")
    _report("C9", "constructive procedures certify across the corpus", problems)


def test_c10_faces_witness_replacement():
    problems = []
    k3 = complete_graph(3)
    full = VertexSet.full(k3)
    cert = certify(k3, full, 2, "global")
    if not cert.satisfied:
        problems.append("triangle does not certify at k=2")
    f = induced_face_count(k3, full.members)
    _expect(problems, "face count", f, 2)
    _expect(problems, "faces bound", faces_lower(3, f, 2).value, 3)
    _expect(problems, "bound met with equality", faces_lower(3, f, 2).value, len(full))
    _report("C10", "derived triangle witness replaces the figure-based examples", problems)
