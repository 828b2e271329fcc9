import hashlib
import random
import re
from itertools import combinations

import pytest

from cosr import (
    BinaryMatrix,
    Graph,
    augment,
    convex_bipartite_deletion,
    cop_order,
    cos_r,
    delete_rows,
    derived_graph,
    find_helly_violation,
    find_uncovered_clique,
    half_adjacency,
    interval_deletion,
    parse_matrix,
    support,
    verify_cop,
)
from cosr.cop import _cop_positions
from cosr.graphs import _incidence, _scan_column_pairs
from cosr.interval import _chordal_interval, _interval_deletion
from cosr.matrix import _bits
from cosr.solver import SolveStats, _find_rule2_cycle, _leaf_graph
from cosr.oracle import brute_cop, brute_cosr, brute_maximal_cliques, random_instance

M1 = parse_matrix("3 8\n1 1 1 1 1 0 0 0\n0 1 0 0 1 1 1 0\n1 0 1 1 0 1 0 1\n")
M2 = parse_matrix("3 8\n1 0 1 0 1 1 0 0\n0 1 0 1 0 1 1 0\n1 0 0 0 0 1 0 1\n")
COMPLEMENT_IDENT4 = parse_matrix("4 4\n0111\n1011\n1101\n1110\n")


def feasible_sets(M, d):
    out = []
    for k in range(d + 1):
        for combo in combinations(sorted(M.row_ids), k):
            if brute_cop(delete_rows(M, combo)) is not None:
                out.append(frozenset(combo))
    return out


def test_examples_m1():
    assert not cos_r(M1, 0).feasible
    rep = cos_r(M1, 1)
    assert rep.feasible and len(rep.solution) == 1
    assert verify_cop(delete_rows(M1, rep.solution), rep.certificate)


def test_examples_complement_ident4():
    assert not cos_r(COMPLEMENT_IDENT4, 1).feasible
    rep = cos_r(COMPLEMENT_IDENT4, 2)
    assert rep.feasible and len(rep.solution) == 2


def test_cop_matrix_needs_nothing():
    M = parse_matrix("2 3\n110\n011\n")
    rep = cos_r(M, 0)
    assert rep.feasible and rep.solution == frozenset()
    assert rep.stats.internal_nodes == 0


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        cos_r(M1, -1)


def test_budgets_are_integers():
    # A float budget is refused before it meets a bound: ``interval_deletion``
    # read 0.5 as enough for one deletion, and ``cos_r`` answered it through
    # step 0's bound. ``True`` still counts as 1.
    cycle = Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4)])
    graph, side = bipartite_from_matrix(M1)
    for solve in (lambda d: cos_r(M1, d), lambda d: interval_deletion(cycle, d),
                  lambda d: convex_bipartite_deletion(graph, side, d)):
        for d in (0.5, 1.0):
            with pytest.raises(TypeError):
                solve(d)
        assert solve(True) == solve(1)


def test_verdicts_match_oracle():
    for seed in range(120):
        m = 3 + seed % 6
        n = 3 + (seed // 6) % 6
        M = random_instance(seed + 7000, m, n, (0.3, 0.5, 0.7)[seed % 3])
        best = brute_cosr(M, 3)
        for d in range(4):
            rep = cos_r(M, d)
            assert rep.feasible == (best is not None and len(best) <= d)
            if rep.feasible:
                assert len(rep.solution) <= d
                assert verify_cop(delete_rows(M, rep.solution), rep.certificate)


def test_branch_candidates_hit_every_feasible_solution():
    # whichever rule fires first, every deletion set that works within
    # the budget must contain at least one branched row
    for seed in range(160):
        M = random_instance(seed + 11000, 4 + seed % 5, 4 + seed % 5, 0.45)
        viol = find_helly_violation(M)
        if viol is not None:
            branch = set(viol.rows)
        else:
            cycle = _find_rule2_cycle(M)
            if cycle is not None:
                branch = set(cycle)
            else:
                uncovered = find_uncovered_clique(M)
                if uncovered is None:
                    continue
                branch = set(sorted(uncovered[1])[:3])
        for sol in feasible_sets(M, 3):
            assert sol & branch, (M.rows, sorted(branch), sorted(sol))


def test_rule3_branch_hits_solutions_on_uncovered_family():
    M = COMPLEMENT_IDENT4
    assert find_helly_violation(M) is None
    assert _find_rule2_cycle(M) is None
    _, core = find_uncovered_clique(M)
    branch = set(sorted(core)[:3])
    for sol in feasible_sets(M, 3):
        assert sol & branch


def test_leaf_state_is_rule_clean_and_clique_matrix():
    leaves = []

    def grab(matrix, budget):
        leaves.append((matrix, budget))

    for seed in range(40):
        M = random_instance(seed + 13000, 4 + seed % 5, 4 + seed % 4, 0.4)
        cos_r(M, 2, on_leaf=grab)
    assert leaves
    for matrix, budget in leaves:
        assert find_helly_violation(matrix) is None
        assert _find_rule2_cycle(matrix) is None
        assert find_uncovered_clique(matrix) is None
        zero = {r for r, mask in zip(matrix.row_ids, matrix.rows) if mask == 0}
        live = delete_rows(matrix, zero)
        verts = {support(live, c) for c in live.col_ids}
        assert set(brute_maximal_cliques(derived_graph(live))) <= verts
        aug = augment(live)
        assert set(brute_maximal_cliques(derived_graph(aug))) == {
            support(aug, c) for c in aug.col_ids
        }


def test_leaf_where_identity_deletion_would_cheat():
    # three-rule-clean matrix on which unrestricted interval deletion of
    # the augmented derived graph finds a single-vertex fix through the
    # identity block, even though no single row deletion reaches COP; the
    # solver must say NO at budget 1 and recover at budget 2
    M = parse_matrix(
        "6 8\n"
        "1 0 0 0 1 0 1 0\n"
        "0 1 0 1 1 1 1 1\n"
        "1 1 1 1 0 1 1 1\n"
        "0 1 0 0 1 1 1 1\n"
        "1 0 1 0 0 0 1 1\n"
        "1 1 0 1 1 1 1 1\n"
    )
    assert find_helly_violation(M) is None
    assert _find_rule2_cycle(M) is None
    assert find_uncovered_clique(M) is None
    from cosr import interval_deletion

    aug = augment(M)
    graph = derived_graph(aug)
    unrestricted = interval_deletion(graph, 1)
    assert unrestricted is not None and unrestricted <= aug.identity_rows
    assert interval_deletion(graph, 1, forbidden=aug.identity_rows) is None

    assert brute_cosr(M, 1) is None
    assert not cos_r(M, 1).feasible
    rep = cos_r(M, 2)
    assert rep.feasible and len(rep.solution) == 2


def test_solver_handles_all_zero_rows():
    M = parse_matrix("4 8\n1 1 1 1 1 0 0 0\n0 1 0 0 1 1 1 0\n1 0 1 1 0 1 0 1\n0 0 0 0 0 0 0 0\n")
    assert not cos_r(M, 0).feasible
    rep = cos_r(M, 1)
    assert rep.feasible and len(rep.solution) == 1 and 4 not in rep.solution
    assert brute_cosr(M, 1) is not None


def test_solution_never_contains_identity_labels():
    for seed in range(60):
        M = random_instance(seed + 17000, 5, 5, 0.4)
        rep = cos_r(M, 3)
        if rep.feasible:
            assert all(r > 0 for r in rep.solution)
            assert rep.solution <= set(M.row_ids)


def test_row_labels_in_the_identity_range():
    # augment labels its identity rows -1..-n unless an original label lies
    # there; a first row labelled -1 once collided with them at the leaves
    leaves = 0
    for seed in range(300):
        R = random_instance(5000 + seed, 6, 5, 0.5)
        M = BinaryMatrix((-1,) + R.row_ids[1:], R.col_ids, R.rows)
        best = brute_cosr(M, 3)
        for d in range(4):
            rep = cos_r(M, d)
            leaves += rep.stats.leaves
            assert rep.feasible == (best is not None and len(best) <= d), (seed, d)
            if rep.feasible:
                assert rep.solution <= set(M.row_ids)
                assert verify_cop(delete_rows(M, rep.solution), rep.certificate)
    assert leaves > 100


def test_augmentation_preserves_cop_under_deletion():
    rng = random.Random(5)
    for seed in range(80):
        M = random_instance(seed + 19000, 5, 5, 0.5)
        aug = augment(M)
        drop = frozenset(rng.sample(sorted(M.row_ids), rng.randint(0, 3)))
        lhs = cop_order(delete_rows(M, drop)) is not None
        rhs = cop_order(delete_rows(aug, drop)) is not None
        assert lhs == rhs


def test_exhaustive_all_3x3_matrices():
    for bits in range(1 << 9):
        rows = tuple((bits >> (3 * i)) & 7 for i in range(3))
        M = parse_matrix(
            "3 3\n" + "\n".join("".join(str(r >> j & 1) for j in range(3)) for r in rows)
        )
        best = brute_cosr(M, 3)
        for d in range(3):
            rep = cos_r(M, d)
            assert rep.feasible == (best is not None and len(best) <= d)
            if rep.feasible:
                assert verify_cop(delete_rows(M, rep.solution), rep.certificate)


def test_degenerate_inputs_have_cop():
    empty = parse_matrix("0 3\n")
    rep = cos_r(empty, 0)
    assert rep.feasible and rep.solution == frozenset() and rep.certificate == (1, 2, 3)
    one_col = parse_matrix("2 1\n1\n1\n")
    assert cos_r(one_col, 0).feasible


def test_branch_node_bound():
    for seed in range(80):
        M = random_instance(seed + 23000, 5 + seed % 4, 5 + seed % 4, 0.5)
        for d in range(4):
            rep = cos_r(M, d)
            assert rep.stats.internal_nodes <= (4 ** (d + 1) - 1) // 3


def test_report_text_format():
    rep = cos_r(M1, 1)
    lines = rep.to_text().splitlines()
    assert lines[0] == "YES"
    assert lines[1] == " ".join(str(r) for r in sorted(rep.solution))
    assert lines[2] == " ".join(str(c) for c in rep.certificate)
    assert cos_r(M1, 0).to_text() == "NO\n"


def bipartite_from_matrix(M):
    n1, n2 = M.m, M.n
    edges = []
    for i, label in enumerate(M.row_ids):
        for col in sorted(M.row_set(label)):
            edges.append((i + 1, n1 + col))
    return Graph(range(1, n1 + n2 + 1), edges), frozenset(range(1, n1 + 1))


def test_half_adjacency_examples():
    single, side = Graph([1, 2], [(1, 2)]), {1}
    M = half_adjacency(single, side)
    assert (M.m, M.n) == (1, 1) and M.rows == (1,)

    k22 = Graph(range(1, 5), [(1, 3), (1, 4), (2, 3), (2, 4)])
    M = half_adjacency(k22, {1, 2})
    assert M.rows == (3, 3)

    edgeless = Graph(range(1, 5))
    assert half_adjacency(edgeless, {1, 2}).rows == (0, 0)

    with pytest.raises(ValueError):
        half_adjacency(Graph([1, 2, 3], [(1, 2)]), {1, 2})
    with pytest.raises(ValueError):
        half_adjacency(Graph([1, 2, 3], [(2, 3)]), {1})


def test_convex_bipartite_examples():
    g, side = bipartite_from_matrix(parse_matrix("2 3\n110\n011\n"))
    rep = convex_bipartite_deletion(g, side, 0)
    assert rep.feasible and rep.solution == frozenset()

    g1, side1 = bipartite_from_matrix(M1)
    assert not convex_bipartite_deletion(g1, side1, 0).feasible
    rep = convex_bipartite_deletion(g1, side1, 1)
    assert rep.feasible and len(rep.solution) == 1 and rep.solution <= side1


def test_convex_bipartite_matches_matrix_setting():
    for seed in range(40):
        M = random_instance(seed + 29000, 4 + seed % 4, 4 + seed % 4, 0.4)
        g, side = bipartite_from_matrix(M)
        best = brute_cosr(M, 2)
        for d in range(3):
            rep = convex_bipartite_deletion(g, side, d)
            assert rep.feasible == (best is not None and len(best) <= d)
            if rep.feasible:
                assert rep.solution <= side


def complement_of_identity(k):
    """Rows U minus {i}: a COP column order keeps at most two of them."""
    rows = "".join("".join("0" if j == i else "1" for j in range(k)) + "\n" for i in range(k))
    return parse_matrix(f"{k} {k}\n{rows}")


@pytest.mark.parametrize("k", [5, 6, 7])
def test_complement_of_identity_cores_solved_at_the_leaf(k):
    M = complement_of_identity(k)
    no = cos_r(M, k - 3)
    assert not no.feasible
    rep = cos_r(M, k - 2)
    assert rep.feasible and len(rep.solution) == k - 2
    assert verify_cop(delete_rows(M, rep.solution), rep.certificate)
    assert rep.stats.leaves > 0 and rep.stats.leaf_nodes > 0
    assert rep.stats.leaf_fallbacks == 0
    assert brute_cosr(M, k - 3) is None
    assert len(brute_cosr(M, k - 2)) == k - 2


def test_stats_keys_keep_their_order():
    keys = list(cos_r(COMPLEMENT_IDENT4, 2).stats.as_dict())
    assert keys == ["internal_nodes", "leaves", "rule1", "rule2", "rule3", "leaf_nodes", "leaf_fallbacks"]


def _planted(seed, n, k, extra):
    """k gapped noise rows among links repeated k + 1 times and short runs."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)

    def on(positions):
        return sum(1 << order[p] for p in positions)

    rows = [on((p, p + 1)) for p in range(n - 1) for _ in range(k + 1)]
    for _ in range(extra):
        lo = rng.randrange(n - 1)
        rows.append(on(range(lo, rng.randrange(lo + 1, min(n, lo + 4)) + 1)))
    for _ in range(k):
        first = rng.randrange(n - 2)
        last = min(n - 1, first + rng.randrange(2, max(3, n // 3)))
        gap = rng.randrange(first + 1, last)
        rows.append(on(p for p in range(first, last + 1) if p != gap))
    rng.shuffle(rows)
    row_ids = tuple(3 * r - 10 for r in range(len(rows)))
    return BinaryMatrix(row_ids, tuple(range(1, n + 1)), tuple(rows))


# (seed, n, k, extra), d, report text, stats.as_dict() values. Only rule 1
# fires on these, so a rule-1 scan that resumed too late would change the
# rule1 counts or the answers.
PINNED_PLANTED = [
    ((1, 8, 1, 4), 1, "YES\n20\n3 5 1 8 6 2 7 4\n", (3, 0, 3, 0, 0, 0, 0)),
    ((1, 8, 1, 4), 0, "NO\n", (1, 0, 1, 0, 0, 0, 0)),
    ((2, 10, 2, 5), 2, "YES\n-1 14\n1 2 9 3 8 7 5 4 10 6\n", (6, 0, 6, 0, 0, 0, 0)),
    ((2, 10, 2, 5), 1, "NO\n", (4, 0, 4, 0, 0, 0, 0)),
    ((3, 9, 2, 3), 2, "YES\n14 47\n2 6 7 1 9 5 8 3 4\n", (12, 0, 12, 0, 0, 0, 0)),
    ((3, 9, 2, 3), 1, "NO\n", (4, 0, 4, 0, 0, 0, 0)),
    ((4, 12, 3, 6), 3, "YES\n56 101 104\n12 3 9 11 6 1 10 8 7 2 5 4\n", (39, 0, 39, 0, 0, 0, 0)),
    ((4, 12, 3, 6), 2, "NO\n", (13, 0, 13, 0, 0, 0, 0)),
    ((5, 7, 3, 2), 3, "YES\n5 14 62\n7 4 2 1 6 3 5\n", (39, 0, 39, 0, 0, 0, 0)),
    ((5, 7, 3, 2), 2, "NO\n", (13, 0, 13, 0, 0, 0, 0)),
    ((6, 11, 1, 8), 1, "YES\n35\n10 2 8 5 1 7 11 4 3 9 6\n", (3, 0, 3, 0, 0, 0, 0)),
    ((6, 11, 1, 8), 0, "NO\n", (1, 0, 1, 0, 0, 0, 0)),
]

# random_instance arguments, report text at d = 2, stats.as_dict() values:
# rule 1 fires above rule 2 or rule 3 nodes, whose children skip the scan.
PINNED_MIXED = [
    ((21019, 9, 6, 0.55), "NO\n", (12, 1, 10, 0, 2, 1, 0)),
    ((21040, 6, 6, 0.4), "YES\n1 2\n5 3 2 1 4 6\n", (2, 0, 1, 1, 0, 0, 0)),
    ((21049, 7, 6, 0.45), "YES\n3 5\n4 3 1 5 2 6\n", (7, 0, 6, 1, 0, 0, 0)),
]


# SHA-256 over each answer's ``to_text()``, counters left out, of the
# PINNED_PLANTED solves and then the PINNED_MIXED ones.
PINNED_ANSWERS = "f6d5eecc196c44ce"


def test_pinned_answers_and_counters():
    keys = tuple(SolveStats().as_dict())
    answers = hashlib.sha256()
    for args, d, text, stats in PINNED_PLANTED:
        report = cos_r(_planted(*args), d)
        answers.update(report.to_text().encode())
        assert (report.to_text(), report.stats.as_dict()) == (text, dict(zip(keys, stats))), (args, d)
    for args, text, stats in PINNED_MIXED:
        report = cos_r(random_instance(*args), 2)
        answers.update(report.to_text().encode())
        assert (report.to_text(), report.stats.as_dict()) == (text, dict(zip(keys, stats))), args
    assert answers.hexdigest()[:16] == PINNED_ANSWERS


def _recording(events, name, inner):
    def wrapper(*args):
        result = inner(*args)
        events.append((name, args, result))
        return result

    return wrapper


def test_step_zero_follows_a_clean_helly_scan_below_the_root(monkeypatch):
    # Below the root, rule 1's scan runs first and step 0's COP test only
    # when the scan is clean: an H1 or H2 triple already proves there is no
    # COP order. Besides its pins, it observes the search: it expects more
    # than 100 Helly hits.
    import cosr.solver

    events = []
    monkeypatch.setattr(cosr.solver, "_kept", _recording(events, "k", cosr.solver._kept))
    monkeypatch.setattr(cosr.solver, "_helly_scan", _recording(events, "h", cosr.solver._helly_scan))
    keys = tuple(SolveStats().as_dict())
    cases = [(_planted(*args), d, text, stats) for args, d, text, stats in PINNED_PLANTED]
    cases += [(random_instance(*args), 2, text, stats) for args, text, stats in PINNED_MIXED]
    hits, answers = 0, hashlib.sha256()
    for M, d, text, stats in cases:
        events.clear()
        report = cos_r(M, d)
        answers.update(report.to_text().encode())
        assert (report.to_text(), report.stats.as_dict()) == (text, dict(zip(keys, stats)))
        # H a scan that hits, h a clean one, k the kept rows that step 0
        # tests for COP. The root runs step 0 first, on M's own rows; below
        # it, one step 0 follows each clean scan, and a leaf that answers
        # YES tests its survivor's kept rows last, with no scan before.
        steps = "".join(name.upper() if name == "h" and hit else name for name, _, hit in events)
        assert re.fullmatch(r"k[hH](H|hk)*k?", steps), steps
        assert events[0][2] is M.rows
        for (name, args, hit), (_, then, _) in zip(events[2:], events[3:]):
            if name == "h" and not hit:  # step 0 on this node's rows, which hold the scanned ones
                assert not then[1] & args[-1]
        hits += steps.count("H")
    assert hits > 100 and answers.hexdigest()[:16] == PINNED_ANSWERS


def test_search_deeper_than_the_recursion_limit():
    # k disjoint H1 triangles, each needing one deletion: the search goes k
    # nodes deep, so it must not spend a Python frame per node.
    import inspect
    import sys

    depth = len(inspect.stack(0))
    k = 200
    rows = tuple(3 << 3 * t + s if s < 2 else 5 << 3 * t for t in range(k) for s in range(3))
    M = BinaryMatrix(tuple(range(1, 3 * k + 1)), tuple(range(1, 3 * k + 1)), rows)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        rep = cos_r(M, k)
    finally:
        sys.setrecursionlimit(limit)
    assert rep.feasible and len(rep.solution) == k
    assert {(r - 1) // 3 for r in rep.solution} == set(range(k))
    assert rep.stats.rule1 == k
    assert verify_cop(delete_rows(M, rep.solution), rep.certificate)


def test_one_derived_graph_per_node(monkeypatch):
    # A solve builds one incidence, once the root's step 0 fails. Rules 1-3
    # and step 0 read it and M's rows through the node's live mask, so a
    # derived graph is built only once per solve for its leaves: with
    # positive labels every leaf that searches shares one augmentation of
    # M. No leaf builds a matrix. Observes the search, not the answers: it
    # expects ``_incidence`` at every root that fails step 0 and is not
    # refuted there by more overlap components without the property than
    # d, and a derived graph in every solve with a leaf that has budget to
    # search.
    import cosr.graphs
    import cosr.solver

    events = []
    for module, name in [(cosr.solver, "_incidence"), (cosr.solver, "_cop_positions"), (cosr.solver, "delete_rows"),
                         (cosr.solver, "augment"), (cosr.solver, "derived_graph"), (cosr.graphs, "derived_graph"),
                         (cosr.solver, "_interval_deletion")]:
        monkeypatch.setattr(module, name, _recording(events, name, getattr(module, name)))
    hits = {"rule1": 0, "rule2": 0, "rule3": 0, "leaves": 0}
    for i in range(168):
        for k, density in enumerate((0.3, 0.5, 0.7)):
            M = random_instance(100_000 + 3 * i + k, 3 + i % 6, 3 + (i // 6) % 6, density)
            for d in range(4):
                events.clear()
                stats = cos_r(M, d).stats
                names = [name for name, _, _ in events]
                assert names[0] == "_cop_positions"
                found = events[0][2]
                searched = not isinstance(found, list) and not 0 < d < found
                assert names.count("_incidence") == searched == (stats.internal_nodes + stats.leaves > 0), (i, k, d)
                assert names.count("augment") == ("_interval_deletion" in names), (i, k, d)
                assert names.count("derived_graph") == ("_interval_deletion" in names), (i, k, d)
                assert "delete_rows" not in names, (i, k, d)
                for name, then in zip(names, names[1:] + [None]):
                    if name == "augment":  # the augmentation goes straight to its derived graph
                        assert then == "derived_graph", (i, k, d)
                for key in hits:
                    hits[key] += getattr(stats, key)
    assert min(hits.values()) > 0, hits


def _graph_of(monkeypatch):
    """Record the graphs the solver derives; the function returned finds the
    one whose adjacency masks a leaf searches."""
    import cosr.solver

    build, graphs = cosr.solver.derived_graph, []

    def building(aug):
        graphs.append(build(aug))
        return graphs[-1]

    monkeypatch.setattr(cosr.solver, "derived_graph", building)
    return lambda adj: next(g for g in reversed(graphs) if g._adj is adj)


def _recording_leaf(monkeypatch, check):
    """Make the solver's leaf hand its graph, budget, forbidden rows (as
    labels), interval test and live mask to ``check`` before each search."""
    import cosr.solver

    inner, graph_of = cosr.solver._interval_deletion, _graph_of(monkeypatch)

    def recording(adj, start, budget, forbidden, interval, failed, chordal):
        graph = graph_of(adj)
        check(graph, budget, graph.labels(forbidden), interval, start)
        return inner(adj, start, budget, forbidden, interval, failed, chordal)

    monkeypatch.setattr(cosr.solver, "_interval_deletion", recording)


def _check_leaf_test(graph, forbidden, interval, most, everything):
    """The leaf's matrix test against the graph test on every set S of at
    most ``most`` original rows live in ``everything``; returns the verdicts
    seen."""
    original = [p for p in _bits(everything) if graph.vertices[p] not in forbidden]
    verdicts = set()
    for k in range(min(most, len(original)) + 1):
        for S in combinations(original, k):
            live = everything & ~sum(1 << p for p in S)
            want = bool(_chordal_interval(graph._adj, live))  # None marks a hole
            assert interval(live) == want, (graph, S)
            verdicts.add(want)
    return verdicts


def test_leaf_matrix_test_matches_graph_test_on_corpus_leaves(monkeypatch):
    # Lemma at the solver's step 5: at a leaf M with G the derived graph of
    # augment(M), G - S is interval iff delete_rows(M, S) has COP, for every
    # set S of original rows. Checked on each leaf the corpus solves reach,
    # for every S within the leaf's budget. Observes the search, not the
    # answers: it expects more than 200 distinct corpus leaves with budget
    # left, as a leaf with none does not search (its S is empty, and
    # ``test_every_leaf_starts_from_rows_without_the_property`` covers it).
    leaves, checked, verdicts = [], set(), set()

    def check(graph, budget, forbidden, interval, live):
        mat, b = leaves[-1]  # on_leaf runs just before the search
        assert b == budget and forbidden == augment(mat).identity_rows
        assert graph.subgraph(graph.labels(live)) == derived_graph(augment(mat))
        key = (mat.row_ids, mat.rows, mat.n, b)
        if key not in checked:
            checked.add(key)
            verdicts.update(_check_leaf_test(graph, forbidden, interval, b, live))

    _recording_leaf(monkeypatch, check)
    for i in range(168):
        for k, density in enumerate((0.3, 0.5, 0.7)):
            M = random_instance(100_000 + 3 * i + k, 3 + i % 6, 3 + (i // 6) % 6, density)
            for d in range(4):
                cos_r(M, d, on_leaf=lambda mat, b: leaves.append((mat, b)))
    assert len(checked) > 200 and verdicts == {True, False}


def test_leaf_matrix_test_matches_graph_test_on_relabelled_leaves(monkeypatch):
    # The same lemma on leaf matrices given an all-zero row, a duplicate row,
    # shuffled row order and gapped, negative labels (some in the identity
    # range -1..-n), for every S of at most three original rows. Observes the
    # search, not the answers: it expects each d = 1 solve to reach one leaf
    # search (at d = 0 a leaf does not search).
    rng = random.Random(31)
    leaves = {}
    for seed in range(400):
        M = random_instance(seed + 37000, 4 + seed % 5, 3 + seed % 6, (0.4, 0.5, 0.6)[seed % 3])
        cos_r(M, 2, on_leaf=lambda mat, b: leaves.setdefault((mat.rows, mat.n), mat))
    searches, verdicts = [], set()

    def check(graph, budget, forbidden, interval, live):
        searches.append(graph)
        verdicts.update(_check_leaf_test(graph, forbidden, interval, 3, live))

    _recording_leaf(monkeypatch, check)
    for L in leaves.values():
        rows = list(L.rows) + [0, rng.choice(L.rows)]
        rng.shuffle(rows)
        labels = rng.sample(range(-30, 30), len(rows))
        searches.clear()
        cos_r(BinaryMatrix(tuple(labels), L.col_ids, tuple(rows)), 1)
        assert len(searches) == 1  # a zero row and a twin keep the leaf rule-clean
    assert len(leaves) > 100 and verdicts == {True, False}


def _core_solves():
    """Complement-of-identity cores k = 5..9, two fixed row shuffles each,
    at d = k - 3 (NO) and d = k - 2 (YES): rule 3 fires, then the leaves."""
    rng = random.Random(41)
    for k in range(5, 10):
        for _ in range(2):
            missing = list(range(k))
            rng.shuffle(missing)
            rows = tuple(((1 << k) - 1) ^ 1 << j for j in missing)
            M = BinaryMatrix(tuple(range(1, k + 1)), tuple(range(1, k + 1)), rows)
            yield M, k - 3
            yield M, k - 2


def test_core_answers_are_byte_identical():
    # SHA-256 over each solve's to_text() then repr(stats.as_dict()), so the
    # leaf's branch nodes (leaf_nodes) are pinned with the answers; ``texts``
    # hashes the answers alone.
    answers, texts = hashlib.sha256(), hashlib.sha256()
    for M, d in _core_solves():
        report = cos_r(M, d)
        answers.update(report.to_text().encode())
        texts.update(report.to_text().encode())
        answers.update(repr(report.stats.as_dict()).encode())
    assert texts.hexdigest()[:16] == "666f38958ded5f5d"
    assert answers.hexdigest()[:16] == "4eeaa0ac10577e09"


def _core_leaves(search):
    """The leaf searches of each ``_core_solves`` solve as the solver runs
    them when rule 3 may branch at any budget, with ``search`` in place of
    ``_interval_deletion``: rule 3 fires at the root on the whole core and
    branches on labels 1, 2 and 3, and each child is a leaf with budget
    d - 1 that searches the solve's one leaf graph from its live mask, with
    one memo per solve, until one succeeds. At d = k - 3 the solver itself
    ends at rule 3's bound, so only this reaches those leaves. Returns, per
    solve, the matrix, d, the number of leaves, the sum of their nodes and
    whether one succeeded."""
    out = []
    for M, d in _core_solves():
        adj, identity, place, _, rows, failed = _leaf_graph(M, False)
        leaves = nodes = 0
        for p in sorted(range(M.m), key=M.row_ids.__getitem__)[:3]:
            start = identity | sum(place[q] for q in range(M.m) if q != p)
            removed, count = search(
                adj, start, d - 1, identity,
                lambda live: live != start and _cop_positions([rows[v] for v in _bits(live)], M.n) is not None,
                failed, False)
            leaves, nodes = leaves + 1, nodes + count
            if removed is not None:
                break
        out.append((M, d, leaves, nodes, removed is not None))
    return out


def test_core_leaves_run_mcs_once(monkeypatch):
    # Each core leaf's derived graph is chordal at the branch root, and the
    # children of a chordal node are chordal, so below the root the branch
    # goes straight to the asteroidal witness.
    import cosr.interval

    events = []
    monkeypatch.setattr(cosr.interval, "_mcs_order", _recording(events, "m", cosr.interval._mcs_order))
    solves = _core_leaves(_interval_deletion)
    leaves, nodes = (sum(solve[i] for solve in solves) for i in (2, 3))
    assert len(events) == leaves == 40 and nodes > 3000
    # The solver runs the same leaf on a YES side. On a NO side it ends at
    # rule 3's bound: a core of k rows needs k - 2 deletions.
    for M, d, _, count, found in solves:
        stats = cos_r(M, d).stats
        assert (stats.rule3, stats.leaves, stats.leaf_nodes) == ((1, 1, count) if found else (1, 0, 0)), (M, d)


def test_core_no_roots_list_the_cliques_of_one_column_pair(monkeypatch):
    # Observes the search: at d = k - 3 a core's first column pair already
    # lists the whole k-row clique, which no column holds and which is its
    # own core, so rule 3's bound refutes the root at first sight, after one
    # maximum-cardinality search instead of one per pair, k(k - 1) / 2. The
    # root still counts one rule-3 hit and no leaf.
    import cosr.graphs

    events = []
    monkeypatch.setattr(cosr.graphs, "_mcs_order", _recording(events, "m", cosr.graphs._mcs_order))
    for M, d in _core_solves():
        if d == M.m - 3:
            events.clear()
            stats = cos_r(M, d).stats
            assert len(events) == 1 and (stats.internal_nodes, stats.rule3, stats.leaves) == (1, 1, 0), (M, d)


# A 5-row core on columns 0..4, then four rows crossing as an induced C4
# over columns 5 and 6: the scan lists the core's clique at the first pair,
# and finds the cycle at pair (5, 6).
CORE_THEN_C4 = BinaryMatrix(
    tuple(range(1, 10)), tuple(range(1, 10)),
    tuple(31 ^ 1 << j for j in range(5)) + (1 << 5 | 1 << 7, 1 << 5 | 1 << 8, 1 << 6 | 1 << 7, 1 << 6 | 1 << 8))


def test_the_pair_scan_stops_at_a_core_only_with_budget_below_its_need():
    # The core needs 3 deletions. At budgets 1 and 2 the scan stops at it and
    # returns it alone; at budget 3 it scans on, and at budget 0 it keeps
    # the whole scan, which decides the node's counter: rule 2, not rule 3.
    cols, meets, *_ = _incidence(CORE_THEN_C4.rows, CORE_THEN_C4.n)
    live = (1 << CORE_THEN_C4.m) - 1
    assert [_scan_column_pairs(cols, meets, live, b) for b in range(4)] == [
        ((5, 6), None), (None, {31}), (None, {31}), ((5, 6), None)]
    stats = cos_r(CORE_THEN_C4, 0).stats
    assert (stats.rule2, stats.rule3) == (1, 0)


def test_core_leaves_test_each_deletion_set_once():
    # The leaf search reaches one deletion set by many orders, and the
    # leaves of one solve share one memo of the nodes whose subtree failed.
    # Below a node that branched on an asteroidal triple, a node with budget
    # left is decided by the resumed scan, not by the interval test. So they
    # ask 219 interval tests, where a test per live mask the solve reaches
    # asked 520, one memo per leaf 800 and the search without the memo one
    # per node, 3,302. _minimalize asks 50 more, 40 of them on masks the
    # search never tested. leaf_nodes still counts the memo-free search's
    # nodes.
    inner = _interval_deletion
    tests, masks = [0], [0]

    def counting(adj, start, budget, forbidden, interval, failed, chordal):
        seen = set()

        def test(live):
            tests[0] += 1
            seen.add(live)
            return interval(live)

        result = inner(adj, start, budget, forbidden, test, failed, chordal)
        masks[0] += len(seen)
        return result

    nodes = sum(nodes for _, _, _, nodes, _ in _core_leaves(counting))
    assert (tests[0], masks[0], nodes) == (269, 259, 3302)


def test_every_leaf_starts_from_rows_without_the_property(monkeypatch):
    # Lemma at the solver's stand-in: a leaf's live rows have just failed
    # step 0, at the root or after a clean Helly scan, so the stand-in
    # answers False at ``start`` without a test. Checked on every leaf of the
    # corpus and the cores: its rows fail ``_cop_positions``, and the graph
    # test finds its graph at ``start`` not interval. A leaf with no budget
    # left skips the search on the same lemma, so every leaf's rows are
    # checked, and only the leaves with budget search. Observes the search,
    # not the answers: it expects more than 400 leaves.
    leaves, verdicts = [], []

    def check(graph, budget, forbidden, interval, start):
        verdicts.append(_chordal_interval(graph._adj, start))

    _recording_leaf(monkeypatch, check)
    cases = list(_core_solves())
    for i in range(168):
        for k, density in enumerate((0.3, 0.5, 0.7)):
            M = random_instance(100_000 + 3 * i + k, 3 + i % 6, 3 + (i // 6) % 6, density)
            cases += [(M, d) for d in range(4)]
    for M, d in cases:
        cos_r(M, d, on_leaf=lambda mat, b: leaves.append((mat, b)))
    assert len(leaves) > 400 and len(verdicts) == sum(b > 0 for _, b in leaves) and not any(verdicts)
    assert all(_cop_positions(list(mat.rows), mat.n) is None for mat, _ in leaves)


def _relabelled_solves(shifted=False):
    """Random matrices and complement-of-identity cores with extra rows, rows
    shuffled, labels gapped, negative and out of storage order (some below
    -n, none in -n..-1; when ``shifted``, at least one in -n..-1 and one
    below -n, so ``augment`` shifts its identity labels), each at d = 0..3."""
    rng = random.Random(53)
    for seed in range(300):
        n = 4 + seed % 5
        if seed % 3 == 0:
            rows = list(random_instance(seed + 52000, 3 + seed % 7, n, 0.5).rows)
        elif seed % 3 == 1:  # a 4-cycle of rows over two column pairs, and sparse noise
            rows = [1 << i | 1 << (i + 1) % 4 for i in range(4)]
            rows += random_instance(seed + 52000, seed % 4, n, 0.3).rows
        else:  # complement-of-identity cores, a second on other columns for even seeds
            k = 4 + seed % 2
            rows = [((1 << k) - 1) & ~(1 << i) for i in range(k)]
            rows += [r << k for r in rows] if seed % 2 == 0 else []
            n = max(n, k * (2 - seed % 2))
            rows += [rng.getrandbits(n) for _ in range(seed % 4)]
        perm = rng.sample(range(n), n)
        rows = [sum(1 << perm[j] for j in range(n) if r >> j & 1) for r in rows]
        rng.shuffle(rows)
        labels = rng.sample([v for v in range(-40, 40) if not -n <= v < 0], len(rows))
        if shifted:
            labels[:2] = rng.randrange(-n, 0), rng.randrange(-40, -n)
            labels[2:] = rng.sample([v for v in range(-40, 40) if v not in labels[:2]], len(rows) - 2)
            rng.shuffle(labels)
        M = BinaryMatrix(tuple(labels), tuple(range(1, n + 1)), tuple(rows))
        for d in range(4):
            yield M, d


def test_relabelled_answers_are_byte_identical():
    # Labels out of storage order pin every tie-break that must follow
    # labels, not positions: branching order, rule 3's candidate order and
    # greedy shrink, and the leaf's choices. ``texts`` hashes the answers
    # alone, ``answers`` the answers and counters. Besides its pins, it
    # observes the search: it expects more than 200 hits of each rule.
    answers, texts = hashlib.sha256(), hashlib.sha256()
    rules = [0, 0, 0]
    for M, d in _relabelled_solves():
        report = cos_r(M, d)
        answers.update(report.to_text().encode())
        texts.update(report.to_text().encode())
        answers.update(repr(report.stats.as_dict()).encode())
        rules = [a + b for a, b in zip(rules, (report.stats.rule1, report.stats.rule2, report.stats.rule3))]
    assert min(rules) > 200, rules
    assert texts.hexdigest()[:16] == "72aa399a80bb9960"
    assert answers.hexdigest()[:16] == "aac3be35be931524"


def test_shifted_identity_labels_answers_are_byte_identical():
    # Labels in -n..-1 move augment's identity labels below every original
    # label, which changes the leaf's label order: pin those leaves too.
    # Besides its pins, it observes the search: it expects more than 200
    # leaves.
    answers, texts = hashlib.sha256(), hashlib.sha256()
    leaves = 0
    for M, d in _relabelled_solves(shifted=True):
        assert any(-M.n <= r < 0 for r in M.row_ids) and min(M.row_ids) < -M.n
        report = cos_r(M, d)
        answers.update(report.to_text().encode())
        texts.update(report.to_text().encode())
        answers.update(repr(report.stats.as_dict()).encode())
        leaves += report.stats.leaves
    assert leaves > 200, leaves
    assert texts.hexdigest()[:16] == "67edf120df8c4d5e"
    assert answers.hexdigest()[:16] == "37ab81af18e5d762"


def test_the_search_converts_no_labels(monkeypatch):
    # Every layer below cos_r takes and returns positions, so the leaf never
    # turns labels into a mask or a mask into labels. The answers stay those
    # that the three hash tests pin. The cores reach 10 leaves, one per YES
    # side, as their NO sides end at rule 3's bound; ``_core_leaves`` replays
    # the 40 leaf searches of both sides.
    import cosr.graphs
    import cosr.interval

    def refuse(*args):
        raise AssertionError("label conversion inside the search")

    monkeypatch.setattr(cosr.interval, "_mask", refuse)
    monkeypatch.setattr(cosr.graphs.Graph, "labels", refuse)
    for solves, pinned_texts, pinned, more_than in (
            (_core_solves(), "666f38958ded5f5d", "4eeaa0ac10577e09", 9),
            (_relabelled_solves(), "72aa399a80bb9960", "aac3be35be931524", 30),
            (_relabelled_solves(shifted=True), "67edf120df8c4d5e", "37ab81af18e5d762", 30)):
        answers, texts, leaves = hashlib.sha256(), hashlib.sha256(), 0
        for M, d in solves:
            report = cos_r(M, d)
            answers.update(report.to_text().encode())
            texts.update(report.to_text().encode())
            answers.update(repr(report.stats.as_dict()).encode())
            leaves += report.stats.leaves
        assert leaves > more_than and texts.hexdigest()[:16] == pinned_texts, leaves
        assert answers.hexdigest()[:16] == pinned
    assert sum(leaves for _, _, leaves, _, _ in _core_leaves(_interval_deletion)) == 40


def _per_leaf_search(mat, budget):
    """The leaf search as one leaf alone runs it: the derived graph of its
    own augmentation, the consecutive-ones test of its rows, a fresh memo;
    the deletion set as labels."""
    aug = augment(mat)
    graph = derived_graph(aug)
    rows = [0 if v in aug.identity_rows else aug.row_mask(v) for v in graph.vertices]
    identity = sum(1 << p for p, v in enumerate(graph.vertices) if v in aug.identity_rows)
    removed, nodes = _interval_deletion(
        graph._adj, (1 << graph.n) - 1, budget, identity,
        lambda live: _cop_positions([rows[p] for p in _bits(live)], mat.n) is not None, {}, False)
    return None if removed is None else graph.labels(removed), nodes


def test_leaves_share_a_graph_per_identity_shift(monkeypatch):
    # ``augment`` shifts a leaf's identity labels below its rows iff the leaf
    # keeps a row labelled -n..-1, so a solve searches one graph per flag.
    # Rule 3 on the 5-row core below branches on its lowest labels -12, -2
    # and 1: the first leaf keeps -2 but not -12, so its identity labels sit
    # above the solve's; the second has deleted -2, so its flag is clear;
    # the third keeps both. A 5-hole on five more columns (n = 10) makes
    # each leaf fail: it needs 2 + 1 deletions and has 2, which neither the
    # core's bound nor the two failing components see. Every leaf, of this
    # matrix, of one on which the two graphs share live masks, and of the
    # shifted-label solves at d + 2, must search as it does alone. Observes
    # the search, not the answers: it expects more than 300 leaf searches.
    import cosr.solver

    inner, graph_of = cosr.solver._interval_deletion, _graph_of(monkeypatch)
    leaves, flags, moved, searched = [], set(), [0], [0]

    def compare(adj, start, budget, forbidden, interval, failed, chordal):
        got = inner(adj, start, budget, forbidden, interval, failed, chordal)
        graph, (removed, nodes) = graph_of(adj), got
        mat, b = leaves[-1]  # on_leaf runs just before the search
        labels = None if removed is None else graph.labels(removed)
        assert (labels, nodes) == _per_leaf_search(mat, b), mat
        flags.add(any(-mat.n <= r < 0 for r in mat.row_ids))
        moved[0] += graph.labels(forbidden) != augment(mat).identity_rows
        searched[0] += 1
        return got

    def on_leaf(mat, b):
        leaves.append((mat, b))

    monkeypatch.setattr(cosr.solver, "_interval_deletion", compare)
    hole = tuple(3 << i for i in range(4)) + (17,)
    core = BinaryMatrix((-12, -2, 1, 2, 3, 4, 5, 6, 7, 8), tuple(range(1, 11)),
                        tuple(31 ^ 1 << j for j in range(5)) + tuple(r << 5 for r in hole))
    report = cos_r(core, 3, on_leaf)
    assert not report.feasible and report.stats.rule3 == 1 and searched[0] == len(leaves) == 3
    assert [sorted(mat.row_ids)[:2] for mat, _ in leaves] == [[-2, 1], [-12, 1], [-12, -2]]
    assert flags == {True, False} and moved[0] == 1
    # One memo for both flags' graphs would hand one of these leaves a node
    # that failed on the other graph under the same mask.
    cos_r(BinaryMatrix((-10, -3, -7, 2, -4, 11), tuple(range(1, 6)), (7, 14, 7, 11, 14, 13)), 2, on_leaf)
    for M, d in _relabelled_solves(shifted=True):
        cos_r(M, d + 2, on_leaf)
    assert searched[0] > 300 and moved[0] > 100, (searched, moved)


def test_a_wrong_block_order_fails_the_one_certificate_check(monkeypatch):
    # cos_r checks a YES certificate once, where _cop_positions ends. A
    # component block builder that swaps two blocks must trip that check,
    # both at the root's step 0 and on the kept rows of a deeper node.
    import cosr.cop

    path = parse_matrix("3 4\n1100\n0110\n0011\n")
    cycle = parse_matrix("4 4\n1100\n0110\n0011\n1001\n")
    assert cos_r(path, 0).feasible and cos_r(cycle, 1).feasible
    build = cosr.cop._component_blocks

    def swapped(*args):
        blocks = build(*args)
        return None if blocks is None else blocks[1:2] + blocks[:1] + blocks[2:]

    monkeypatch.setattr(cosr.cop, "_component_blocks", swapped)
    for M, d in ((path, 0), (cycle, 1)):
        with pytest.raises(AssertionError, match="invalid certificate"):
            cos_r(M, d)
