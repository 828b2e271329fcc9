"""Tucker's minimal non-COP matrices, and instances planted from them whose
optimum is known at any size.

A family is a pair (n, rows): row sets over columns 0..n-1. Each matrix
lacks the consecutive ones property (Tucker 1972), and deleting any one of
its rows gives it. So r copies on disjoint column blocks need exactly r
row deletions, one in each copy, and any one row per copy is enough:
blocks with the property, side by side on disjoint columns, keep it.
"""

from __future__ import annotations

import random

from cosr import BinaryMatrix, cos_r, delete_rows, verify_cop


def m_i(k: int) -> tuple[int, list[set[int]]]:
    """M_I(k), k >= 3: the cycle {i, i+1} for i < k - 1, and {k - 1, 0}."""
    return k, [{i, i + 1} for i in range(k - 1)] + [{k - 1, 0}]


def m_ii(k: int) -> tuple[int, list[set[int]]]:
    """M_II(k), k >= 4: {i, i+1} for i < k - 2, {0..k-3, k-1} and {1..k-1}."""
    return k, [{i, i + 1} for i in range(k - 2)] + [set(range(k - 2)) | {k - 1}, set(range(1, k))]


def m_iii(k: int) -> tuple[int, list[set[int]]]:
    """M_III(k), k >= 3, over k + 1 columns: {i, i+1} for i < k - 1, and
    {1..k-2, k}."""
    return k + 1, [{i, i + 1} for i in range(k - 1)] + [set(range(1, k - 1)) | {k}]


def m_iv() -> tuple[int, list[set[int]]]:
    return 6, [{0, 1}, {2, 3}, {4, 5}, {0, 2, 4}]


def m_v() -> tuple[int, list[set[int]]]:
    return 5, [{0, 1}, {2, 3}, {0, 1, 2, 3}, {0, 3, 4}]


def families(most: int) -> dict[str, tuple[int, list[set[int]]]]:
    """Every family up to k = ``most``, by name."""
    out = {f"M_I({k})": m_i(k) for k in range(3, most + 1)}
    out.update({f"M_II({k})": m_ii(k) for k in range(4, most + 1)})
    out.update({f"M_III({k})": m_iii(k) for k in range(3, most + 1)})
    return {**out, "M_IV": m_iv(), "M_V": m_v()}


def matrix(family: tuple[int, list[set[int]]]) -> BinaryMatrix:
    """One copy as it stands, rows and columns labelled from 1."""
    n, rows = family
    return BinaryMatrix(tuple(range(1, len(rows) + 1)), tuple(range(1, n + 1)),
                        tuple(sum(1 << j for j in row) for row in rows))


def planted(copies, rng: random.Random, background: int = 0) -> tuple[BinaryMatrix, list[frozenset[int]]]:
    """The copies on disjoint column blocks, plus ``background`` interval
    rows on up to four further columns, with rows and columns shuffled and
    distinct gapped labels, some negative (some in -n..-1, which shifts the
    identity labels of the solver's leaves); and each copy's row labels."""
    sets, owner, n = [], [], 0
    for c, (width, rows) in enumerate(copies):
        sets += [{n + j for j in row} for row in rows]
        owner += [c] * len(rows)
        n += width
    if background:
        extra = rng.randint(1, 4)
        for _ in range(background):
            a = rng.randrange(extra)
            sets.append(set(range(n + a, n + rng.randrange(a, extra) + 1)))
            owner.append(None)
        n += extra
    place = rng.sample(range(n), n)
    order = rng.sample(range(len(sets)), len(sets))
    m = len(sets)
    row_ids = rng.sample(range(-2 * m - n, 3 * m + n), m)
    col_ids = rng.sample(range(-2 * n, 3 * n), n)
    M = BinaryMatrix(tuple(row_ids), tuple(col_ids), tuple(sum(1 << place[j] for j in sets[i]) for i in order))
    groups = [frozenset(r for r, i in zip(row_ids, order) if owner[i] == c) for c in range(len(copies))]
    return M, groups


def check_one_deletion_per_copy(M: BinaryMatrix, groups: list[frozenset[int]]) -> None:
    """With r copies, ``cos_r(M, r - 1)`` is NO, and ``cos_r(M, r)`` is YES
    with a verified certificate that deletes one row of each copy."""
    r = len(groups)
    assert not cos_r(M, r - 1).feasible, M
    report = cos_r(M, r)
    assert report.feasible and verify_cop(delete_rows(M, report.solution), report.certificate), M
    assert [len(report.solution & rows) for rows in groups] == [1] * r, M
