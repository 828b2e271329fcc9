import random

import pytest

from cosr import (
    ContractError,
    Graph,
    interval_deletion,
    is_interval,
    minimalize_solution,
)
from cosr.oracle import brute_interval_deletion


def path(n):
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def cycle(n):
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)] + [(1, n)])


def spider222(center=1):
    # claw with every edge subdivided once; chordal but not interval
    return Graph(range(1, 8), [(center, 2), (2, 5), (center, 3), (3, 6), (center, 4), (4, 7)])


def two_disjoint_c4():
    return Graph(
        range(1, 9),
        [(1, 2), (2, 3), (3, 4), (1, 4), (5, 6), (6, 7), (7, 8), (5, 8)],
    )


def interval_graph_from_intervals(spans):
    n = len(spans)
    edges = [
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]
    ]
    return Graph(range(1, n + 1), edges)


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p]
    return Graph(range(1, n + 1), edges)


def test_is_interval_examples():
    assert is_interval(path(4))
    assert not is_interval(cycle(4))
    assert not is_interval(spider222())
    assert not is_interval(cycle(5))
    assert not is_interval(two_disjoint_c4())


def test_spider_clique_matrix_rejected_by_exhaustive_search():
    # the subdivided claw is chordal; its rejection hinges on the clique
    # matrix, so cross-check that verdict by exhaustive permutation search
    from cosr import is_chordal
    from cosr.interval import clique_matrix
    from cosr.oracle import brute_cop, brute_maximal_cliques

    g = spider222()
    assert is_chordal(g) is not None
    cm = clique_matrix(g, brute_maximal_cliques(g))
    assert brute_cop(cm) is None


def test_random_interval_graphs_accepted():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(1, 50)
        spans = []
        for _ in range(n):
            a = rng.randint(1, 90)
            spans.append((a, a + rng.randint(0, 25)))
        assert is_interval(interval_graph_from_intervals(spans))


def test_interval_deletion_examples():
    assert interval_deletion(path(5), 0) == frozenset()
    assert interval_deletion(cycle(4), 1) == {1}
    assert interval_deletion(two_disjoint_c4(), 1) is None
    assert interval_deletion(spider222(), 1) == {1}
    assert interval_deletion(cycle(4), -1) is None


def test_interval_deletion_monotone_in_budget():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 8), 0.5)
        prev = None
        for d in range(4):
            got = interval_deletion(g, d)
            if prev is not None:
                assert got is not None
            prev = got


def test_interval_deletion_matches_brute_force():
    rng = random.Random(23)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 9), rng.choice((0.3, 0.5, 0.7)))
        brute = brute_interval_deletion(g, 3)
        for d in range(4):
            got = interval_deletion(g, d)
            want = brute is not None and len(brute) <= d
            assert (got is not None) == want
            if got is not None:
                assert len(got) <= d
                assert is_interval(g.without(got))


def test_interval_deletion_minimum_sizes_agree():
    rng = random.Random(31)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 8), 0.6)
        brute = brute_interval_deletion(g, 3)
        mine = next((d for d in range(4) if interval_deletion(g, d) is not None), None)
        if brute is None:
            assert mine is None
        else:
            assert mine == len(brute)


def test_interval_deletion_results_are_inclusion_minimal():
    rng = random.Random(47)
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 8), 0.55)
        got = interval_deletion(g, 3)
        if not got:
            continue
        for v in got:
            assert not is_interval(g.without(got - {v}))


def test_interval_deletion_forbidden_vertices():
    g = cycle(4)
    got = interval_deletion(g, 2, forbidden=frozenset({1, 2}))
    assert got is not None and got <= {3, 4} and len(got) == 1
    assert interval_deletion(g, 4, forbidden=frozenset({1, 2, 3, 4})) is None


def test_subset_fallback_matches_branching():
    rng = random.Random(53)
    for _ in range(25):
        g = random_graph(rng, rng.randint(3, 7), 0.5)
        for d in range(3):
            a = interval_deletion(g, d)
            b = interval_deletion(g, d, node_limit=0)
            assert (a is None) == (b is None)
            if a is not None:
                assert is_interval(g.without(b)) and len(b) <= d


def test_minimalize_solution_examples():
    g = interval_graph_from_intervals([(1, 2), (2, 3), (3, 4)])
    assert minimalize_solution(g, frozenset({1, 3})) == frozenset()

    c4 = cycle(4)
    assert minimalize_solution(c4, frozenset({1, 2})) == {1}

    c4x = Graph(range(1, 6), [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert minimalize_solution(c4x, frozenset({1, 5})) == {1}

    with pytest.raises(ContractError):
        minimalize_solution(c4, frozenset({}))


def test_node_budget_fallback_is_reported():
    from cosr.interval import _graph_test, _interval_deletion

    def run(G, d, limit):
        return _interval_deletion(G, d, limit, frozenset(), _graph_test(G))

    assert run(cycle(4), 1, 200_000) == ({1}, 2, False)
    assert run(cycle(4), 1, 0) == ({1}, 1, True)
    assert run(two_disjoint_c4(), 1, 0) == (None, 1, True)
    assert run(cycle(4), -1, 0) == (None, 0, False)
