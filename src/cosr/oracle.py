"""Brute-force reference implementations.

These are correctness anchors, deliberately independent of the
production algorithms: consecutive-ones feasibility is decided by
searching column orders directly, deletion problems by enumerating
candidate deletion sets, clique enumeration by growing vertex subsets.
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
from .matrix import BinaryMatrix, delete_rows

_MAX_BRUTE_COLS = 9
_MAX_COSR_SUBSETS = 500_000
_MAX_CLIQUE_VERTICES = 16


def _order_search(n: int, masks: list[int], want_order: bool) -> tuple[int, ...] | None:
    """Depth-first search over all column orders, in lexicographic order.

    A prefix that splits some row's 1s can never be completed (appending
    columns only extends the order), so such prefixes are pruned; the
    first completed order is therefore the lexicographically smallest
    valid one. Returns column positions (0-based) or None.
    """
    if not masks:
        return tuple(range(n)) if want_order else ()
    chosen: list[int] = []
    used = 0
    # per row: 0 untouched, 1 inside its run, 2 run finished
    state = [0] * len(masks)

    def extend() -> tuple[int, ...] | None:
        nonlocal used
        if len(chosen) == n:
            return tuple(chosen)
        for col in range(n):
            bit = 1 << col
            if used & bit:
                continue
            touched: list[tuple[int, int]] = []
            ok = True
            for r, mask in enumerate(masks):
                if mask & bit:
                    if state[r] == 2:
                        ok = False
                        break
                    if state[r] == 0:
                        touched.append((r, 0))
                        state[r] = 1
                elif state[r] == 1:
                    touched.append((r, 1))
                    state[r] = 2
            if ok:
                used |= bit
                chosen.append(col)
                result = extend()
                if result is not None:
                    return result
                chosen.pop()
                used &= ~bit
            for r, old in reversed(touched):
                state[r] = old
        return None

    return extend()


def _has_cop(n: int, rows: tuple[int, ...], verdicts: dict[frozenset[int], bool]) -> bool:
    # Consecutive-ones feasibility depends only on the distinct row
    # patterns with at least two 1s, so one call's deletion subsets share
    # their verdicts through ``verdicts``.
    key = frozenset(mask for mask in rows if mask.bit_count() >= 2)
    if key not in verdicts:
        verdicts[key] = _order_search(n, sorted(key), want_order=False) is not None
    return verdicts[key]


def brute_cop(M: BinaryMatrix) -> tuple[int, ...] | None:
    """Search all column permutations; first valid order or None."""
    if M.n > _MAX_BRUTE_COLS:
        raise GuardError(f"brute_cop refuses n={M.n} > {_MAX_BRUTE_COLS} columns")
    masks = sorted({mask for mask in M.rows if mask.bit_count() >= 2})
    positions = _order_search(M.n, masks, want_order=True)
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
            if _has_cop(remainder.n, remainder.rows, verdicts):
                return frozenset(combo)
    return None


def brute_interval_deletion(G: Graph, d: int) -> frozenset[int] | None:
    """Smallest vertex deletion set (size <= d) leaving an interval
    graph; lexicographically first among equals; None if none."""
    if G.n > 12 and d > 3:
        raise GuardError(f"brute_interval_deletion refuses n={G.n} with d={d}")
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
