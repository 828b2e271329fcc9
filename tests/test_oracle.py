import pytest

from cosr import Graph, GuardError, parse_matrix, verify_cop
from cosr.oracle import (
    brute_cop,
    brute_cosr,
    brute_interval_deletion,
    brute_maximal_cliques,
    random_instance,
)

M1 = parse_matrix("3 8\n1 1 1 1 1 0 0 0\n0 1 0 0 1 1 1 0\n1 0 1 1 0 1 0 1\n")
M2 = parse_matrix("3 8\n1 0 1 0 1 1 0 0\n0 1 0 1 0 1 1 0\n1 0 0 0 0 1 0 1\n")


def test_brute_cop_examples():
    ident = parse_matrix("3 3\n100\n010\n001\n")
    order = brute_cop(ident)
    assert order is not None and verify_cop(ident, order)
    assert brute_cop(parse_matrix("3 3\n011\n101\n110\n")) is None
    assert brute_cop(M2) is None


def test_brute_cop_returns_lexicographically_first_order():
    M = parse_matrix("2 3\n1 0 1\n0 1 1\n")
    assert brute_cop(M) == (1, 3, 2)


def test_brute_cop_guard():
    with pytest.raises(GuardError):
        brute_cop(random_instance(1, 2, 10, 0.5))


def test_brute_cosr_examples():
    cop = parse_matrix("2 3\n110\n011\n")
    assert brute_cosr(cop, 0) == frozenset()
    single = brute_cosr(M1, 1)
    assert single is not None and len(single) == 1
    assert brute_cop(parse_matrix("3 8\n" + "\n".join(
        " ".join(str(M1.entry(r, c)) for c in M1.col_ids) for r in M1.row_ids
    ))) is None
    mh4 = parse_matrix("4 4\n0111\n1011\n1101\n1110\n")
    assert brute_cosr(mh4, 1) is None


def test_brute_cosr_prefers_smallest_then_lexicographic():
    # two distinct single-row fixes: the lexicographically first wins
    M = parse_matrix("3 3\n011\n101\n110\n")
    assert brute_cosr(M, 2) == frozenset({1})


def test_brute_cosr_lexicographic_among_minimum_solutions():
    from itertools import combinations

    from cosr import delete_rows

    for seed in range(40):
        M = random_instance(seed + 40_000, 5, 5, 0.55)
        got = brute_cosr(M, 2)
        if got is None:
            continue
        k = len(got)
        minima = [
            combo
            for combo in combinations(sorted(M.row_ids), k)
            if brute_cop(delete_rows(M, combo)) is not None
        ]
        assert tuple(sorted(got)) == minima[0]
        if k > 0:
            smaller_feasible = any(
                brute_cop(delete_rows(M, combo)) is not None
                for combo in combinations(sorted(M.row_ids), k - 1)
            )
            assert not smaller_feasible


def test_brute_interval_deletion_examples():
    p4 = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4)])
    assert brute_interval_deletion(p4, 0) == frozenset()
    c4 = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert brute_interval_deletion(c4, 1) == frozenset({1})
    two = Graph(range(1, 9), [(1, 2), (2, 3), (3, 4), (1, 4), (5, 6), (6, 7), (7, 8), (5, 8)])
    assert brute_interval_deletion(two, 1) is None
    with pytest.raises(GuardError):
        brute_interval_deletion(Graph(range(1, 14)), 4)


def test_brute_maximal_cliques_examples():
    k3 = Graph(range(1, 4), [(1, 2), (1, 3), (2, 3)])
    assert brute_maximal_cliques(k3) == [frozenset({1, 2, 3})]
    p3 = Graph(range(1, 4), [(1, 2), (2, 3)])
    assert brute_maximal_cliques(p3) == [frozenset({1, 2}), frozenset({2, 3})]
    c4 = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert brute_maximal_cliques(c4) == [
        frozenset({1, 2}),
        frozenset({1, 4}),
        frozenset({2, 3}),
        frozenset({3, 4}),
    ]
    with pytest.raises(GuardError):
        brute_maximal_cliques(Graph(range(17)))


def test_random_instance_extremes_and_determinism():
    assert random_instance(1, 3, 3, 0.0).rows == (0, 0, 0)
    assert random_instance(1, 3, 3, 1.0).rows == (7, 7, 7)
    assert random_instance(7, 5, 5, 0.5) == random_instance(7, 5, 5, 0.5)
    with pytest.raises(ValueError):
        random_instance(1, 2, 2, 1.5)


def test_random_instance_golden_matrix():
    # pinned on first generation; guards against PRNG drift
    assert random_instance(7, 5, 5, 0.5).rows == (11, 27, 23, 17, 26)


def test_brute_cosr_keeps_no_state_between_calls():
    import cosr.oracle as oracle

    def sizes():
        return {k: len(v) for k, v in vars(oracle).items() if isinstance(v, (dict, list, set))}

    before = sizes()
    for seed in range(40):
        brute_cosr(random_instance(seed, 8, 7, 0.5), 3)
    assert sizes() == before
