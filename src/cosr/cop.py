"""Consecutive-ones recognition with certificates.

``cop_order`` decides in polynomial time whether some column permutation
makes every row's 1s contiguous, and returns such a permutation when one
exists. The algorithm works on the row sets: rows connected by strict
overlap (intersecting, neither containing the other) force each other's
columns into a rigid sequence of blocks, unique up to reversal; the
block sequences of different overlap components nest laminarly and are
assembled recursively. Every certificate is re-checked with
``verify_cop`` before being returned.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ContractError
from .matrix import BinaryMatrix, SetSystem, _bits


def verify_cop(M: BinaryMatrix, order: Sequence[int]) -> bool:
    """True iff under ``order`` every row's 1-entries sit consecutively."""
    order = tuple(order)
    if sorted(order) != sorted(M.col_ids):
        raise ValueError("order is not a permutation of the matrix columns")
    pos = {label: i for i, label in enumerate(order)}
    for mask in M.rows:
        positions = [pos[M.col_ids[j]] for j in _bits(mask)]
        if positions and max(positions) - min(positions) + 1 != len(positions):
            return False
    return True


def _insert_set(blocks: list[int], s: int) -> list[int] | None:
    """Refine a block sequence so that ``s`` also occupies a contiguous run.

    ``blocks`` holds pairwise-disjoint column masks whose order is forced
    (up to reversal) by the sets placed so far; ``s`` strictly overlaps at
    least one of them. Returns the refined sequence, or None when no
    arrangement keeps every placed set and ``s`` contiguous.
    """
    hit = [i for i, b in enumerate(blocks) if b & s]
    assert hit, "inserted set must intersect the placed region"
    lo, hi = hit[0], hit[-1]
    if hit != list(range(lo, hi + 1)):
        return None
    placed = 0
    for b in blocks:
        placed |= b
    new = s & ~placed
    for i in range(lo + 1, hi):
        if blocks[i] & ~s:
            return None
    if lo == hi:
        inside = blocks[lo] & s
        outside = blocks[lo] & ~s
        # s cannot sit wholly inside one block: it would be nested in or
        # disjoint from every placed set, contradicting strict overlap.
        assert new, "set confined to a single block cannot strictly overlap"
        tail = [outside] if outside else []
        if len(blocks) == 1:
            return tail + [inside, new]
        if lo == 0:
            return [new, inside] + tail + blocks[1:]
        if lo == len(blocks) - 1:
            return blocks[:lo] + tail + [inside, new]
        return None
    left_in, left_out = blocks[lo] & s, blocks[lo] & ~s
    right_in, right_out = blocks[hi] & s, blocks[hi] & ~s
    core = [left_in] + blocks[lo + 1 : hi] + [right_in]
    prefix = blocks[:lo] + ([left_out] if left_out else [])
    suffix = ([right_out] if right_out else []) + blocks[hi + 1 :]
    if not new:
        return prefix + core + suffix
    attach_left = lo == 0 and not left_out
    attach_right = hi == len(blocks) - 1 and not right_out
    assert not (attach_left and attach_right), "set would contain the placed region"
    if attach_left:
        return [new] + core + suffix
    if attach_right:
        return prefix + core + [new]
    return None


def cop_order(M: BinaryMatrix) -> tuple[int, ...] | None:
    """A column permutation witnessing COP, or None if there is none.

    Deterministic: equal inputs yield the identical certificate. Rows
    with fewer than two 1s never constrain the order and are ignored.
    """
    sets: list[int] = []
    seen: set[int] = set()
    for mask in M.rows:
        if mask.bit_count() >= 2 and mask not in seen:
            seen.add(mask)
            sets.append(mask)
    if not sets:
        return tuple(M.col_ids)

    k = len(sets)
    adj: list[list[int]] = [[] for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            a, b = sets[i], sets[j]
            if a & b and a & ~b and b & ~a:
                adj[i].append(j)
                adj[j].append(i)

    comp_members: list[list[int]] = []
    comp_of = [-1] * k
    for start in range(k):
        if comp_of[start] >= 0:
            continue
        order = [start]
        comp_of[start] = len(comp_members)
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for v in adj[u]:
                if comp_of[v] < 0:
                    comp_of[v] = len(comp_members)
                    order.append(v)
        comp_members.append(order)

    comp_blocks: list[list[int]] = []
    comp_union: list[int] = []
    for members in comp_members:
        blocks: list[int] | None = [sets[members[0]]]
        for idx in members[1:]:
            blocks = _insert_set(blocks, sets[idx])
            if blocks is None:
                return None
        union = 0
        for b in blocks:
            union |= b
        comp_blocks.append(blocks)
        comp_union.append(union)

    # Component unions form a laminar family; nest each one inside the
    # unique block of its tightest container. Equal unions are possible
    # (a one-set component shadowing another component's span), in which
    # case the single-block component is made the ancestor.
    insertion = sorted(
        range(len(comp_members)),
        key=lambda c: (-comp_union[c].bit_count(), len(comp_blocks[c]), comp_members[c][0]),
    )
    children: dict[int, list[list[int]]] = {c: [[] for _ in comp_blocks[c]] for c in insertion}
    roots: list[int] = []
    placed_comps: list[int] = []
    for c in insertion:
        u = comp_union[c]
        best = None
        for p in placed_comps:
            if u & ~comp_union[p]:
                continue
            if best is None or comp_union[p].bit_count() <= comp_union[best].bit_count():
                best = p
        if best is None:
            roots.append(c)
        else:
            slot = None
            for bi, block in enumerate(comp_blocks[best]):
                if u & ~block == 0:
                    slot = bi
                    break
            assert slot is not None, "nested component must fit inside one block"
            children[best][slot].append(c)
        placed_comps.append(c)

    def entries(blocks: list[int], kids: list[list[int]]) -> list[int]:
        """Child components (as ``c``) and uncovered positions (as ``~p``)
        of each block in turn, ordered within a block by lowest position."""
        out: list[int] = []
        for block, chs in zip(blocks, kids):
            covered = 0
            items: list[tuple[int, int]] = []
            for ch in chs:
                covered |= comp_union[ch]
                items.append(((comp_union[ch] & -comp_union[ch]).bit_length() - 1, ch))
            if not items:  # already in position order
                out.extend([~p for p in _bits(block)])
                continue
            items.extend((p, ~p) for p in _bits(block & ~covered))
            items.sort()
            out.extend([item for _, item in items])
        return out

    # Expand components depth-first with an explicit stack: nesting can be
    # as deep as the number of rows (a staircase of nested prefixes).
    positions: list[int] = []
    stack = entries([(1 << M.n) - 1], [roots])[::-1]
    while stack:
        item = stack.pop()
        if item < 0:
            positions.append(~item)
        else:
            stack.extend(reversed(entries(comp_blocks[item], children[item])))

    order = tuple(M.col_ids[p] for p in positions)
    assert verify_cop(M, order), "recognizer produced an invalid certificate"
    return order


def interval_assignment(M: BinaryMatrix, order: Sequence[int]) -> dict[int, tuple[int, int]]:
    """Per row, the 1-based [first, last] positions of its 1s under ``order``.

    Rows without 1s get no interval. Requires that ``order`` passes
    ``verify_cop``.
    """
    if not verify_cop(M, order):
        raise ContractError("order does not arrange the rows consecutively")
    pos = {label: i + 1 for i, label in enumerate(order)}
    intervals: dict[int, tuple[int, int]] = {}
    for label, mask in zip(M.row_ids, M.rows):
        positions = [pos[M.col_ids[j]] for j in _bits(mask)]
        if positions:
            intervals[label] = (min(positions), max(positions))
    return intervals


def interval_intersection_size(*intervals: tuple[int, int] | None) -> int:
    """Number of integers common to all given intervals (None means empty)."""
    lo, hi = None, None
    for iv in intervals:
        if iv is None:
            return 0
        lo = iv[0] if lo is None else max(lo, iv[0])
        hi = iv[1] if hi is None else min(hi, iv[1])
    if lo is None:
        return 0
    return max(0, hi - lo + 1)


def is_icpia(S: SetSystem, intervals: dict[int, tuple[int, int]]) -> bool:
    """True iff the assignment preserves every pairwise intersection size."""
    n = len(S.universe)
    for label, (lo, hi) in intervals.items():
        if not (1 <= lo <= hi <= n):
            raise ValueError(f"interval for row {label} out of range")
    labels = list(S.sets)
    for label in labels:
        if S.sets[label] and label not in intervals:
            raise ValueError(f"missing interval for nonempty row {label}")
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            want = len(S.sets[a] & S.sets[b])
            got = interval_intersection_size(intervals.get(a), intervals.get(b))
            if want != got:
                return False
    return True
