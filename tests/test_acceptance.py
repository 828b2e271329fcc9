"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria execute. The corpus run (random matrices cross-checked against
the brute-force oracle) is shared by the criteria that consume it.
"""

import random
import time
from itertools import combinations

import pytest

from cosr import (
    Graph,
    augment,
    convex_bipartite_deletion,
    cop_order,
    cos_r,
    delete_rows,
    derived_graph,
    find_helly_violation,
    half_adjacency,
    interval_assignment,
    interval_deletion,
    interval_intersection_size,
    is_chordal,
    is_icpia,
    is_interval,
    parse_matrix,
    pair_subgraph,
    set_system,
    verify_cop,
    vert,
)
from cosr.cli import run as cli_run
from cosr.graphs import find_c4
from cosr.oracle import (
    brute_cop,
    brute_cosr,
    brute_interval_deletion,
    brute_maximal_cliques,
    random_instance,
)

M1 = parse_matrix("3 8\n1 1 1 1 1 0 0 0\n0 1 0 0 1 1 1 0\n1 0 1 1 0 1 0 1\n")
M2 = parse_matrix("3 8\n1 0 1 0 1 1 0 0\n0 1 0 1 0 1 1 0\n1 0 0 0 0 1 0 1\n")
COMPLEMENT_IDENT3 = parse_matrix("3 3\n011\n101\n110\n")

DENSITIES = (0.3, 0.5, 0.7)


def corpus_matrices():
    out = []
    for i in range(168):
        m = 3 + i % 6
        n = 3 + (i // 6) % 6
        for k, density in enumerate(DENSITIES):
            out.append(random_instance(100_000 + 3 * i + k, m, n, density))
    return out


@pytest.fixture(scope="module")
def corpus_run():
    matrices = corpus_matrices()
    verdict_mismatches = []
    bad_solutions = []
    bound_breaches = []
    leaves = {}
    started = time.monotonic()
    for idx, M in enumerate(matrices):
        best = brute_cosr(M, 3)
        for d in range(4):
            grabbed = []
            report = cos_r(M, d, on_leaf=lambda mat, b: grabbed.append((mat, b)))
            for mat, b in grabbed:
                leaves.setdefault((mat.rows, mat.n, b), mat)
            expected = best is not None and len(best) <= d
            if report.feasible != expected:
                verdict_mismatches.append((idx, d))
            if report.feasible:
                survivor = delete_rows(M, report.solution)
                if (
                    len(report.solution) > d
                    or not verify_cop(survivor, report.certificate)
                    or report.certificate != cop_order(survivor)
                ):
                    bad_solutions.append((idx, d))
            if report.stats.internal_nodes > (4 ** (d + 1) - 1) // 3:
                bound_breaches.append((idx, d, report.stats.internal_nodes))
    elapsed = time.monotonic() - started
    return {
        "count": len(matrices),
        "verdict_mismatches": verdict_mismatches,
        "bad_solutions": bad_solutions,
        "bound_breaches": bound_breaches,
        "leaves": leaves,
        "elapsed": elapsed,
    }


def test_criterion_1_solver_matches_oracle(corpus_run):
    data = corpus_run
    ok = not data["verdict_mismatches"] and not data["bad_solutions"] and data["elapsed"] < 300
    print(
        f"ACCEPTANCE 1 solver-vs-oracle: {'PASS' if ok else 'FAIL'} "
        f"({data['count']} matrices x 4 budgets, "
        f"{len(data['verdict_mismatches'])} verdict mismatches, "
        f"{len(data['bad_solutions'])} bad solutions, {data['elapsed']:.1f}s)"
    )
    assert not data["verdict_mismatches"]
    assert not data["bad_solutions"]
    assert data["elapsed"] < 300


@pytest.fixture(scope="module")
def recognizer_run():
    matrices = []
    for i in range(168):
        m = 3 + i % 6
        n = 2 + (i // 6) % 6
        for k, density in enumerate(DENSITIES):
            matrices.append(random_instance(200_000 + 3 * i + k, m, n, density))
    disagreements = []
    bad_certificates = []
    accepted = []
    for idx, M in enumerate(matrices):
        mine = cop_order(M)
        brute = brute_cop(M)
        if (mine is None) != (brute is None):
            disagreements.append(idx)
            continue
        if mine is not None:
            if not verify_cop(M, mine):
                bad_certificates.append(idx)
            accepted.append(M)
    return {
        "count": len(matrices),
        "disagreements": disagreements,
        "bad_certificates": bad_certificates,
        "accepted": accepted,
    }


def test_criterion_2_cop_recognizer_exact(recognizer_run):
    data = recognizer_run
    anchors_ok = (
        cop_order(M1) is None
        and cop_order(M2) is None
        and cop_order(COMPLEMENT_IDENT3) is None
        and find_helly_violation(M1).kind == "H1"
        and find_helly_violation(M2).kind == "H2"
    )
    ok = not data["disagreements"] and not data["bad_certificates"] and anchors_ok
    print(
        f"ACCEPTANCE 2 cop-recognizer: {'PASS' if ok else 'FAIL'} "
        f"({data['count']} matrices, {len(data['disagreements'])} disagreements, "
        f"{len(data['bad_certificates'])} bad certificates, anchors {'ok' if anchors_ok else 'BAD'})"
    )
    assert not data["disagreements"]
    assert not data["bad_certificates"]
    assert anchors_ok


def test_criterion_3_intersection_preserving_assignments(recognizer_run):
    violations = 0
    triples = 0
    for M in recognizer_run["accepted"]:
        order = cop_order(M)
        S = set_system(M)
        iv = interval_assignment(M, order)
        if not is_icpia(S, iv):
            violations += 1
            continue
        for a, b, c in combinations(M.row_ids, 3):
            triples += 1
            want = len(S.sets[a] & S.sets[b] & S.sets[c])
            got = interval_intersection_size(iv.get(a), iv.get(b), iv.get(c))
            if want != got:
                violations += 1
    ok = violations == 0
    print(
        f"ACCEPTANCE 3 intersection-preservation: {'PASS' if ok else 'FAIL'} "
        f"({len(recognizer_run['accepted'])} accepted matrices, {triples} triples, {violations} violations)"
    )
    assert ok


def _leaf_check(rows, n, budget, matrix):
    """Returns the list of violated leaf conditions for one leaf."""
    failures = []
    if find_helly_violation(matrix) is not None:
        failures.append("a")
    c4_free = True
    chordal = True
    for i in range(matrix.n):
        for j in range(i + 1, matrix.n):
            sub = pair_subgraph(matrix, matrix.col_ids[i], matrix.col_ids[j])
            if find_c4(sub) is not None:
                c4_free = False
            if is_chordal(sub) is None:
                chordal = False
    if not c4_free:
        failures.append("b")
    if not chordal:
        failures.append("c")
    zero = {r for r, mask in zip(matrix.row_ids, matrix.rows) if mask == 0}
    live = delete_rows(matrix, zero)
    live_verts = {vert(live, c) for c in live.col_ids}
    if not set(brute_maximal_cliques(derived_graph(live))) <= live_verts:
        failures.append("d")
    else:
        aug_live = augment(live)
        aug_cliques = set(brute_maximal_cliques(derived_graph(aug_live)))
        if aug_cliques != {vert(aug_live, c) for c in aug_live.col_ids}:
            failures.append("d")
    aug = augment(matrix)
    row_side = brute_cosr(aug, budget) is not None
    graph_side = brute_interval_deletion(derived_graph(aug), budget) is not None
    if row_side != graph_side:
        failures.append("e")
    return failures


def test_criterion_4_leaf_invariants(corpus_run):
    leaves = corpus_run["leaves"]
    per_condition = {key: 0 for key in "abcde"}
    for (rows, n, budget), matrix in sorted(leaves.items()):
        for cond in _leaf_check(rows, n, budget, matrix):
            per_condition[cond] += 1
    total = sum(per_condition.values())
    ok = total == 0
    print(
        f"ACCEPTANCE 4 leaf-invariants: {'PASS' if ok else 'FAIL'} "
        f"({len(leaves)} distinct leaves, violations per condition: {per_condition})"
    )
    # Condition (e) equates unrestricted vertex deletion on the augmented
    # derived graph with unrestricted row deletion on the augmented
    # matrix. That equivalence is false: deleting an identity vertex can
    # make the graph interval while no equally small row deletion yields
    # the consecutive ones property (see
    # test_leaf_reduction_restricted_to_original_rows for the repaired
    # form, which holds and which the solver relies on).
    assert ok, (
        f"leaf invariant violations: {per_condition}; condition (e) as stated "
        "is refutable, the restricted variant is the sound one"
    )


def test_leaf_reduction_restricted_to_original_rows(corpus_run):
    # Sound form of the leaf reduction: row-deletion feasibility equals
    # interval-deletion feasibility when deletion may not touch the
    # identity block. This is what the solver executes at every leaf.
    mismatches = 0
    for (rows, n, budget), matrix in sorted(corpus_run["leaves"].items()):
        aug = augment(matrix)
        row_side = brute_cosr(aug, budget) is not None
        graph_side = (
            interval_deletion(derived_graph(aug), budget, forbidden=aug.identity_rows)
            is not None
        )
        if row_side != graph_side:
            mismatches += 1
    print(
        f"ACCEPTANCE 4' restricted-leaf-reduction: {'PASS' if mismatches == 0 else 'FAIL'} "
        f"({len(corpus_run['leaves'])} distinct leaves, {mismatches} mismatches)"
    )
    assert mismatches == 0


def _interval_graph(rng, n):
    spans = []
    for _ in range(n):
        a = rng.randint(1, 90)
        spans.append((a, a + rng.randint(0, 30)))
    edges = [
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]
    ]
    return Graph(range(1, n + 1), edges)


def _random_graph(rng, n, p):
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p]
    return Graph(range(1, n + 1), edges)


def test_criterion_5_interval_recognition_and_deletion():
    rng = random.Random(31337)
    false_rejections = sum(
        0 if is_interval(_interval_graph(rng, rng.randint(1, 50))) else 1 for _ in range(200)
    )

    def cycle(n, base=0):
        return [(base + i, base + i + 1) for i in range(1, n)] + [(base + 1, base + n)]

    rejected = {
        "C4": not is_interval(Graph(range(1, 5), cycle(4))),
        "C5": not is_interval(Graph(range(1, 6), cycle(5))),
        "C6": not is_interval(Graph(range(1, 7), cycle(6))),
        "S222": not is_interval(
            Graph(range(1, 8), [(1, 2), (2, 5), (1, 3), (3, 6), (1, 4), (4, 7)])
        ),
        "2xC4": not is_interval(Graph(range(1, 9), cycle(4) + cycle(4, base=4))),
    }

    deletion_mismatches = 0
    for _ in range(200):
        g = _random_graph(rng, rng.randint(1, 9), rng.choice((0.3, 0.5, 0.7)))
        brute = brute_interval_deletion(g, 3)
        mine = next((d for d in range(4) if interval_deletion(g, d) is not None), None)
        if brute is None:
            if mine is not None:
                deletion_mismatches += 1
        elif mine != len(brute):
            deletion_mismatches += 1

    ok = false_rejections == 0 and all(rejected.values()) and deletion_mismatches == 0
    print(
        f"ACCEPTANCE 5 interval-recognition: {'PASS' if ok else 'FAIL'} "
        f"(200 interval graphs, {false_rejections} false rejections; rejections {rejected}; "
        f"200 deletion instances, {deletion_mismatches} mismatches)"
    )
    assert ok


def test_criterion_6_branch_node_bound(corpus_run):
    breaches = corpus_run["bound_breaches"]
    ok = not breaches
    print(
        f"ACCEPTANCE 6 branch-bound: {'PASS' if ok else 'FAIL'} "
        f"({corpus_run['count'] * 4} runs, {len(breaches)} bound breaches)"
    )
    assert ok


def test_criterion_7_convex_bipartite():
    rng = random.Random(777)
    mismatches = 0
    bad_mappings = 0
    for _ in range(100):
        n1 = rng.randint(1, 7)
        n2 = rng.randint(1, 7)
        edges = [
            (i, n1 + j)
            for i in range(1, n1 + 1)
            for j in range(1, n2 + 1)
            if rng.random() < 0.45
        ]
        g = Graph(range(1, n1 + n2 + 1), edges)
        side = frozenset(range(1, n1 + 1))
        M = half_adjacency(g, side)
        best = brute_cosr(M, 2)
        for d in range(3):
            report = convex_bipartite_deletion(g, side, d)
            expected = best is not None and len(best) <= d
            if report.feasible != expected:
                mismatches += 1
            if report.feasible:
                if not report.solution <= side:
                    bad_mappings += 1
                elif brute_cop(delete_rows(M, report.solution)) is None:
                    bad_mappings += 1
    ok = mismatches == 0 and bad_mappings == 0
    print(
        f"ACCEPTANCE 7 convex-bipartite: {'PASS' if ok else 'FAIL'} "
        f"(100 bipartite graphs x 3 budgets, {mismatches} mismatches, {bad_mappings} bad mappings)"
    )
    assert ok


def test_criterion_8_cli_determinism(tmp_path, capsys):
    import os
    import subprocess
    import sys

    m1 = tmp_path / "m1.txt"
    m1.write_text("3 8\n1 1 1 1 1 0 0 0\n0 1 0 0 1 1 1 0\n1 0 1 1 0 1 0 1\n")
    c4 = tmp_path / "c4.txt"
    c4.write_text("4 4\n1 2\n2 3\n3 4\n1 4\n")
    bip = tmp_path / "bip.txt"
    bip.write_text("4 3\nsides 2\n1 3\n1 4\n2 3\n")
    invocations = [
        ["check-cop", str(m1)],
        ["solve", "--d", "2", "--stats", str(m1)],
        ["oracle", "solve", "--d", "2", str(m1)],
        ["interval-deletion", "--d", "1", str(c4)],
        ["oracle", "interval-deletion", "--d", "1", str(c4)],
        ["convex-bipartite", "--d", "1", str(bip)],
        ["gen", "--rows", "6", "--cols", "7", "--density", "0.5", "--seed", "3"],
    ]
    differing = 0
    for argv in invocations:
        # in-process reruns plus fresh interpreters under different hash
        # seeds; outputs must be byte-identical everywhere
        outputs = []
        for _ in range(2):
            code = cli_run(argv)
            outputs.append((code, capsys.readouterr().out.encode()))
        for hash_seed in ("0", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-m", "cosr.cli", *argv],
                capture_output=True,
                env=env,
            )
            outputs.append((proc.returncode, proc.stdout))
        if any(o != outputs[0] for o in outputs[1:]):
            differing += 1
    ok = differing == 0
    print(
        f"ACCEPTANCE 8 cli-determinism: {'PASS' if ok else 'FAIL'} "
        f"({len(invocations)} invocations x 4 runs incl. fresh interpreters, {differing} differing)"
    )
    assert ok
