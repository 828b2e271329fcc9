import random

import pytest

from cosr import Graph, GuardError, parse_matrix, verify_cop
from cosr.oracle import (
    _has_cop,
    _merge_twins,
    _order_search,
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
    # Each prefix set of columns is decided once, so 14 columns stay within
    # reach on a NO instance whose other columns are all free.
    triangle = parse_matrix("3 14\n" + "\n".join(row + "0" * 11 for row in ("110", "011", "101")))
    assert brute_cop(triangle) is None
    with pytest.raises(GuardError):
        brute_cop(random_instance(1, 2, 15, 0.5))


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


def test_brute_interval_deletion_refuses_many_subsets():
    # The guard counts deletion subsets at any d: 200 vertices at d = 3 make
    # 1,333,501, and a NO graph would try them all. This graph is edgeless,
    # so a call that passed the guard would answer at once, not hang.
    with pytest.raises(GuardError, match="1333501 deletion subsets"):
        brute_interval_deletion(Graph(range(1, 201)), 3)
    assert brute_interval_deletion(Graph(range(1, 201)), 1) == frozenset()


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


def test_merging_twin_columns_keeps_the_verdict():
    # ``brute_cosr`` decides each subset on the merged columns; the column
    # order search on the columns as given must agree.
    rng = random.Random(71)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        m, k = rng.randint(3, 7), rng.randint(3, 6)
        base = [rng.getrandbits(m) for _ in range(k)]  # a column is the rows holding it
        columns = base + [rng.choice(base) for _ in range(rng.randint(0, 4))] + [0] * rng.randint(0, 3)
        rng.shuffle(columns)
        rows = tuple(sum(1 << c for c, held in enumerate(columns) if held >> i & 1) for i in range(m))
        masks = sorted({mask for mask in rows if mask.bit_count() >= 2})
        n, merged = _merge_twins(masks)
        holders = {sum((mask >> c & 1) << i for i, mask in enumerate(masks)) for c in range(len(columns))}
        assert n == len(holders - {0})  # one column per twin class, none unheld
        want = _order_search(len(columns), masks) is not None
        assert (_order_search(n, merged) is not None) == want, rows
        assert _has_cop(rows, {}) == want, rows
        verdicts[want] += 1
    assert min(verdicts.values()) > 100, verdicts
