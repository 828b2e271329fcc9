from itertools import combinations

import pytest

from cosr import (
    ContractError,
    cop_order,
    interval_assignment,
    interval_intersection_size,
    is_icpia,
    parse_matrix,
    set_system,
    verify_cop,
)
from cosr.graphs import find_helly_violation
from cosr.oracle import brute_cop, random_instance

M1 = parse_matrix("3 8\n1 1 1 1 1 0 0 0\n0 1 0 0 1 1 1 0\n1 0 1 1 0 1 0 1\n")
M2 = parse_matrix("3 8\n1 0 1 0 1 1 0 0\n0 1 0 1 0 1 1 0\n1 0 0 0 0 1 0 1\n")
IDENT3 = parse_matrix("3 3\n100\n010\n001\n")
COMPLEMENT_IDENT3 = parse_matrix("3 3\n011\n101\n110\n")
TWO_ROWS = parse_matrix("2 3\n1 0 1\n0 1 1\n")


def test_cop_order_identity():
    order = cop_order(IDENT3)
    assert order is not None
    assert verify_cop(IDENT3, order)


def test_cop_order_rejects_known_noncop():
    assert cop_order(M1) is None
    assert cop_order(M2) is None
    assert cop_order(COMPLEMENT_IDENT3) is None


def test_cop_order_small_derived_example():
    assert cop_order(TWO_ROWS) == (1, 3, 2)


def test_verify_cop_examples():
    assert verify_cop(IDENT3, (1, 2, 3))
    assert verify_cop(TWO_ROWS, (1, 3, 2))
    assert not verify_cop(TWO_ROWS, (1, 2, 3))
    with pytest.raises(ValueError):
        verify_cop(IDENT3, (1, 2))
    with pytest.raises(ValueError):
        verify_cop(IDENT3, (1, 2, 2))


def test_interval_assignment_examples():
    M = parse_matrix("2 3\n110\n011\n")
    assert interval_assignment(M, (1, 2, 3)) == {1: (1, 2), 2: (2, 3)}
    ones = parse_matrix("1 4\n1111\n")
    assert interval_assignment(ones, (3, 1, 4, 2)) == {1: (1, 4)}
    assert interval_assignment(IDENT3, (1, 2, 3)) == {1: (1, 1), 2: (2, 2), 3: (3, 3)}
    with pytest.raises(ContractError):
        interval_assignment(TWO_ROWS, (1, 2, 3))


def test_interval_assignment_skips_zero_rows():
    M = parse_matrix("2 3\n000\n111\n")
    assert interval_assignment(M, (1, 2, 3)) == {2: (1, 3)}


def test_is_icpia_examples():
    M = parse_matrix("2 3\n110\n011\n")
    S = set_system(M)
    assert is_icpia(S, {1: (1, 2), 2: (2, 3)})
    assert not is_icpia(S, {1: (1, 2), 2: (1, 2)})
    with pytest.raises(ValueError):
        is_icpia(S, {1: (1, 2)})
    with pytest.raises(ValueError):
        is_icpia(S, {1: (0, 2), 2: (2, 3)})


def test_icpia_holds_for_any_cop_matrix():
    for seed in range(60):
        M = random_instance(seed, 5, 6, 0.4)
        order = cop_order(M)
        if order is None:
            continue
        assert is_icpia(set_system(M), interval_assignment(M, order))


def test_triple_intersections_match_for_cop_matrices():
    checked = 0
    for seed in range(80):
        M = random_instance(seed, 5, 5, 0.5)
        order = cop_order(M)
        if order is None:
            continue
        S = set_system(M)
        iv = interval_assignment(M, order)
        for a, b, c in combinations(M.row_ids, 3):
            want = len(S.sets[a] & S.sets[b] & S.sets[c])
            got = interval_intersection_size(iv.get(a), iv.get(b), iv.get(c))
            assert want == got
            checked += 1
    assert checked > 100


def test_cop_order_matches_exhaustive_search_small():
    for seed in range(250):
        m = 1 + seed % 7
        n = 1 + (seed // 7) % 7
        M = random_instance(seed, m, n, (0.3, 0.5, 0.7)[seed % 3])
        order = cop_order(M)
        brute = brute_cop(M)
        assert (order is None) == (brute is None)
        if order is not None:
            assert verify_cop(M, order)


def test_cop_implies_no_helly_violation():
    for seed in range(120):
        M = random_instance(seed, 6, 6, 0.5)
        if cop_order(M) is not None:
            assert find_helly_violation(M) is None


def test_cop_order_deterministic():
    for seed in range(25):
        M = random_instance(seed, 5, 6, 0.5)
        assert cop_order(M) == cop_order(M)


def test_cop_order_strips_trivial_rows():
    M = parse_matrix("3 4\n0000\n0100\n1001\n")
    order = cop_order(M)
    assert order is not None and verify_cop(M, order)


def test_exhaustive_all_matrices_3x4():
    # every 0/1 matrix with 3 rows over 4 columns, against the oracle
    for bits in range(1 << 12):
        rows = tuple((bits >> (4 * i)) & 15 for i in range(3))
        M = parse_matrix(
            "3 4\n" + "\n".join("".join(str(r >> j & 1) for j in range(4)) for r in rows)
        )
        order = cop_order(M)
        assert (order is None) == (brute_cop(M) is None)
        if order is not None:
            assert verify_cop(M, order)
