"""Brute-force reference implementations.

These are correctness anchors, deliberately independent of the
production algorithms: consecutive-ones feasibility is decided over the
prefix sets of column orders, deletion problems by enumerating candidate
deletion sets, clique enumeration by growing vertex subsets.
Every entry point guards its input size and refuses rather than run
forever.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

from .errors import GuardError
from .graphs import Graph
from .interval import is_interval
from .matrix import BinaryMatrix, _bits, delete_rows

_MAX_BRUTE_COLS = 14
_MAX_COSR_SUBSETS = 500_000
_MAX_INTERVAL_SUBSETS = 50_000
_MAX_CLIQUE_VERTICES = 16


def _order_search(n: int, masks: list[int]) -> tuple[int, ...] | None:
    """The lexicographically smallest column order (0-based positions)
    giving every row consecutive 1s, or None.

    The set P of columns placed first extends by column c iff every row
    open at P (meeting P but not inside it) holds c; otherwise that row's
    1s split. So whether P can be completed depends on P alone, and the
    recursion remembers each P that cannot. Columns are tried ascending, so
    the first completion found is the lexicographically smallest.
    """
    full = (1 << n) - 1
    dead: set[int] = set()

    def complete(prefix: int) -> tuple[int, ...] | None:
        if prefix == full:
            return ()
        if prefix not in dead:
            need = full & ~prefix
            for mask in masks:
                if mask & prefix and mask & ~prefix:
                    need &= mask
            for c in _bits(need):
                rest = complete(prefix | 1 << c)
                if rest is not None:
                    return (c,) + rest
            dead.add(prefix)
        return None

    return complete(0)


def _merge_twins(masks: list[int]) -> tuple[int, list[int]]:
    """The column count and the rows of ``masks`` once each class of twin
    columns (held by the same rows) is one column and the columns no row
    holds are gone. Twins can always sit side by side and an unheld column
    anywhere, so consecutive-ones feasibility does not change."""
    holders: dict[int, int] = {}  # column -> the rows holding it
    for i, mask in enumerate(masks):
        for c in _bits(mask):
            holders[c] = holders.get(c, 0) | 1 << i
    classes = dict.fromkeys(holders.values())  # one new column per twin class
    merged = [0] * len(masks)
    for j, rows in enumerate(classes):
        for i in _bits(rows):
            merged[i] |= 1 << j
    return len(classes), merged


def _has_cop(rows: tuple[int, ...], verdicts: dict[frozenset[int], bool]) -> bool:
    # Consecutive-ones feasibility depends only on the distinct row
    # patterns with at least two 1s, so one call's deletion subsets share
    # their verdicts through ``verdicts``. The verdict alone is needed, so
    # twin columns are merged first.
    key = frozenset(mask for mask in rows if mask.bit_count() >= 2)
    if key not in verdicts:
        verdicts[key] = _order_search(*_merge_twins(sorted(key))) is not None
    return verdicts[key]


def brute_cop(M: BinaryMatrix) -> tuple[int, ...] | None:
    """The lexicographically first column order (by position) giving every
    row consecutive 1s, or None."""
    if M.n > _MAX_BRUTE_COLS:
        raise GuardError(f"brute_cop refuses n={M.n} > {_MAX_BRUTE_COLS} columns")
    masks = sorted({mask for mask in M.rows if mask.bit_count() >= 2})
    positions = _order_search(M.n, masks)
    if positions is None:
        return None
    return tuple(M.col_ids[p] for p in positions)


def brute_cosr(M: BinaryMatrix, d: int) -> frozenset[int] | None:
    """Smallest row deletion set (size <= d) reaching the consecutive
    ones property; lexicographically first among equals; None if none."""
    if M.n > _MAX_BRUTE_COLS:
        raise GuardError(f"brute_cosr refuses n={M.n} > {_MAX_BRUTE_COLS} columns")
    total = sum(comb(M.m, k) for k in range(min(d, M.m) + 1))
    if total > _MAX_COSR_SUBSETS:
        raise GuardError(f"brute_cosr refuses {total} deletion subsets")
    labels = sorted(M.row_ids)
    verdicts: dict[frozenset[int], bool] = {}
    for k in range(min(d, M.m) + 1):
        for combo in combinations(labels, k):
            remainder = delete_rows(M, combo)
            if _has_cop(remainder.rows, verdicts):
                return frozenset(combo)
    return None


def brute_interval_deletion(G: Graph, d: int) -> frozenset[int] | None:
    """Smallest vertex deletion set (size <= d) leaving an interval
    graph; lexicographically first among equals; None if none."""
    if G.n > 12 and d > 3:
        raise GuardError(f"brute_interval_deletion refuses n={G.n} with d={d}")
    total = sum(comb(G.n, k) for k in range(min(d, G.n) + 1))
    if total > _MAX_INTERVAL_SUBSETS:
        raise GuardError(f"brute_interval_deletion refuses {total} deletion subsets")
    for k in range(min(d, G.n) + 1):
        for combo in combinations(G.vertices, k):
            if is_interval(G.without(combo)):
                return frozenset(combo)
    return None


def brute_maximal_cliques(G: Graph) -> list[frozenset[int]]:
    """All maximal cliques, by exhaustively growing vertex subsets."""
    if G.n > _MAX_CLIQUE_VERTICES:
        raise GuardError(f"brute_maximal_cliques refuses n={G.n} > {_MAX_CLIQUE_VERTICES}")
    found: list[frozenset[int]] = []

    def grow(clique: set[int], candidates: list[int], banned: list[int]) -> None:
        if not candidates and not banned:
            if clique:
                found.append(frozenset(clique))
            return
        while candidates:
            v = candidates.pop(0)
            nbrs = G.neighbors(v)
            grow(
                clique | {v},
                [u for u in candidates if u in nbrs],
                [u for u in banned if u in nbrs],
            )
            banned.append(v)

    grow(set(), list(G.vertices), [])
    return sorted(found, key=sorted)


def random_instance(seed: int, m: int, n: int, density: float) -> BinaryMatrix:
    """Deterministic pseudorandom matrix.

    Entries are drawn row-major with a Mersenne Twister seeded once
    (``random.Random(seed)``), an entry being 1 when the draw falls
    below ``density``; identical arguments reproduce the identical
    matrix on every platform.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = random.Random(seed)
    rows = []
    for _ in range(m):
        mask = 0
        for j in range(n):
            if rng.random() < density:
                mask |= 1 << j
        rows.append(mask)
    return BinaryMatrix(
        row_ids=tuple(range(1, m + 1)),
        col_ids=tuple(range(1, n + 1)),
        rows=tuple(rows),
    )
