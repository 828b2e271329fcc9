"""Consecutive-ones recognition with certificates.

``cop_order`` decides in polynomial time whether some column permutation
makes every row's 1s contiguous, and returns such a permutation when one
exists. The algorithm works on the row sets: rows connected by strict
overlap (intersecting, neither containing the other) force each other's
columns into a rigid sequence of blocks, unique up to reversal; the
block sequences of different overlap components nest laminarly and are
assembled recursively. Every certificate is re-checked, by the
prefix-mask test behind ``verify_cop``, before being returned.

Overlaps among k distinct rows come from refining column classes by
rows of decreasing size, keeping a spanning forest of the overlap graph,
which gives the same components and the same certificate: a row costs
the classes it touches and one edge per component it joins, and a column
O(log n) relabels in all, where the pair test costs k(k-1)/2 tests.
Below ``_PAIR_TEST_BELOW`` rows the pair test is cheaper and is kept.

A component's blocks form a linked list, with a map from each placed
column to its block. A set meets exactly the blocks holding its placed
columns, so inserting it takes time in proportion to the set, plus
O(log n) relabels per column in all: a split relabels its smaller side.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from .errors import ContractError
from .matrix import BinaryMatrix, SetSystem, _bits


def verify_cop(M: BinaryMatrix, order: Sequence[int]) -> bool:
    """True iff under ``order`` every row's 1-entries sit consecutively."""
    # An unknown label maps past the last column, which ``_consecutive`` rejects.
    return _consecutive(set(M.rows), [M.col_index.get(label, M.n) for label in order], M.n)


def _consecutive(rows: Iterable[int], positions: Sequence[int], n: int) -> bool:
    """True iff every row mask is consecutive when the columns are laid out
    in ``positions``, which must list 0..n-1 once each."""
    # prefix[t] masks the first t columns of ``positions``; a row with p ones
    # is consecutive iff the p columns from its first one on are the row.
    prefix = [0]
    for p in positions:
        prefix.append(prefix[-1] | 1 << p)
    if len(positions) != n or prefix[-1] != (1 << n) - 1:
        raise ValueError("order is not a permutation of the matrix columns")
    for mask in rows:
        ones = mask.bit_count()
        if ones > 1:
            lo = bisect_left(prefix, 1, key=mask.__and__) - 1
            if prefix[lo + ones] & ~prefix[lo] != mask:
                return False
    return True


def _component_blocks(sets: list[int], members: Sequence[int], blk: list[int]) -> list[int] | None:
    """The block sequence of one overlap component, or None if it has none.

    Each of the ``members`` (indices into ``sets``) after the first strictly
    overlaps an earlier one. The blocks are disjoint column masks in the
    order, unique up to reversal, that the sets placed so far force; each
    set refines them until it covers a run of blocks.
    """
    # A circular doubly linked list by block id, closed by the empty block
    # 0. ``blk``, scratch with an entry per column, maps placed ones to blocks.
    placed = sets[members[0]]
    mask, prv, nxt = [0, placed], [1, 0], [1, 0]
    first = placed
    while first:
        low = first & -first
        blk[low.bit_length() - 1] = 1
        first ^= low
    for i in members[1:]:
        s = sets[i]
        # Lemma: the blocks partition the placed columns, so s meets exactly
        # the blocks holding a column of s & placed. They form a run iff the
        # run of blocks meeting s around one of them covers s & placed.
        common = s & placed
        assert common, "inserted set must intersect the placed region"
        lo = hi = blk[(common & -common).bit_length() - 1]
        span = mask[lo]
        while mask[prv[lo]] & s:
            lo = prv[lo]
            span |= mask[lo]
        while mask[nxt[hi]] & s:
            hi = nxt[hi]
            span |= mask[hi]
        if common & ~span:
            return None
        new = s ^ common
        out = span & ~s
        if lo != hi:
            left_out, right_out = mask[lo] & out, mask[hi] & out
        else:
            # s cannot sit wholly inside one block: it would be nested in or
            # disjoint from every placed set, contradicting strict overlap.
            # Its new columns take an end; the block's others go inwards.
            assert new, "set confined to a single block cannot strictly overlap"
            left_out, right_out = (out, 0) if nxt[hi] == 0 else (0, out)
        at_head = prv[lo] == 0 and not left_out
        at_tail = nxt[hi] == 0 and not right_out
        # An inner block that leaves s, or new columns with no free end.
        if out != left_out | right_out or new and not (at_head or at_tail):
            return None
        assert not (new and at_head and at_tail), "set would contain the placed region"
        placed |= new
        # Split the outer parts off the end blocks, then put the new columns
        # next to block 0: on its left, past the last block, if at_tail.
        for b, part, left in (lo, left_out, True), (hi, right_out, False), (0, new, at_tail):
            if not part:
                continue
            if b:  # a split: the smaller side moves, so a column moves O(log n) times
                rest = mask[b] ^ part
                if part.bit_count() > rest.bit_count():
                    part, rest, left = rest, part, not left
                mask[b] = rest
            x = len(mask)
            p, q = (prv[b], b) if left else (b, nxt[b])
            mask.append(part)
            prv.append(p)
            nxt.append(q)
            nxt[p] = prv[q] = x
            while part:
                low = part & -part
                blk[low.bit_length() - 1] = x
                part ^= low
    blocks, b = [], nxt[0]
    while b:
        blocks.append(mask[b])
        b = nxt[b]
    return blocks


def cop_order(M: BinaryMatrix) -> tuple[int, ...] | None:
    """A column permutation witnessing COP, or None if there is none.

    Deterministic: equal inputs yield the identical certificate. Rows
    with fewer than two 1s never constrain the order and are ignored.
    """
    positions = _cop_positions(M.rows, M.n)
    return None if positions is None else tuple(map(M.col_ids.__getitem__, positions))


# Below this many distinct sets the pair test is cheaper on some families:
# refinement costs 2-11 us more per call on the 3-5-set families the
# solver sends, and its fixed work per set outweighs the pairs it saves
# on short runs up to k = 32. Per _cop_positions call, pairs vs
# refinement, best of 15, mean over 5 families of each kind (2 vCPU Xeon,
# CPython 3.11.7): staircases 74 vs 76 us at k = 16 and 195 vs 166 us at
# k = 32; runs of length 2-11 over 40 columns 205 vs 212 us at k = 32,
# 313 vs 295 us at k = 48 and 452 vs 390 us at k = 64; random sets over
# 12 columns 34 vs 33 us at k = 16, 119 vs 76 us at k = 32 and 477 vs
# 157 us at k = 64. Only the runs' crossover has moved (from about 64 to
# 48) since these were first timed, so the cut-off stays.
_PAIR_TEST_BELOW = 64


def _overlaps_by_pairs(sets: list[int]) -> list[int]:
    """Strict-overlap adjacency of distinct ``sets``, as masks over their
    indices, by testing every pair."""
    k = len(sets)
    adj = [0] * k
    for i in range(k):
        a = sets[i]
        for j in range(i + 1, k):
            b = sets[j]
            if a & b and a & ~b and b & ~a:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _overlaps_by_refinement(sets: list[int], n: int) -> list[int]:
    """A spanning forest of the strict-overlap graph of ``sets`` over n
    columns, as masks over their indices, that joins each component's
    lowest set to the lowest set it overlaps."""
    # Visit the sets by non-increasing size, keeping the columns in classes
    # of equal membership among the sets visited so far; ``mem`` masks the
    # visited sets that hold a class.
    # Lemma: let T be a visited set and S the next one, so |T| >= |S| and
    # T != S. Then T strictly overlaps S iff T holds some class that S
    # touches but not all of them. (T is a union of classes, so it meets S
    # iff it holds a class S touches; T cannot lie inside S without
    # equalling it, so T overlaps S iff also S is not inside T, that is iff
    # T misses a class S touches.) So S's overlaps among the visited sets
    # are OR(mem) & ~AND(mem) over the classes S touches.
    # Visiting S splits each class it touches; the smaller side takes the
    # new id (Hopcroft), so a column is relabelled O(log n) times.
    # S is still alone in its component when visited, so one edge to each
    # component its overlaps meet keeps a forest with the graph's
    # components. Each edge goes to S's lowest overlap in that component,
    # whose root then hangs under S in a union-find with path halving;
    # ``span`` masks a root's component.
    k = len(sets)
    adj = [0] * k
    up = [0] * k  # union-find parent, set on a visit
    span = [0] * k  # root -> the sets of its component
    cls_of = [0] * n  # column -> class id
    cols = [(1 << n) - 1]  # class id -> its column mask
    mem = [0]  # class id -> mask of visited sets holding it
    size = [s.bit_count() for s in sets]
    for i in sorted(range(k), key=size.__getitem__, reverse=True):  # stable: ties by index
        s, bit = sets[i], 1 << i
        up[i], span[i] = i, bit
        # One walk over the classes S touches reads their ``mem`` and splits
        # them. A class's columns in S leave ``rest`` before it splits, so
        # neither side holds a column of ``rest``: the walk meets no new
        # class and reads each ``mem`` before a split changes it.
        held, common = 0, -1
        rest = s
        while rest:
            c = cls_of[(rest & -rest).bit_length() - 1]
            inside = cols[c] & s
            rest ^= inside
            held |= mem[c]
            common &= mem[c]
            outside = cols[c] ^ inside
            if not outside:
                mem[c] |= bit
                continue
            if inside.bit_count() <= outside.bit_count():
                moved, cols[c] = inside, outside
                mem.append(mem[c] | bit)
            else:
                moved, cols[c] = outside, inside
                mem.append(mem[c])
                mem[c] |= bit
            x = len(cols)
            cols.append(moved)
            while moved:
                low = moved & -moved
                cls_of[low.bit_length() - 1] = x
                moved ^= low
        over = held & ~common  # 0 when S touches one class
        while over:
            low = over & -over
            j = low.bit_length() - 1
            adj[i] |= low
            adj[j] |= bit
            while up[j] != j:
                up[j] = j = up[up[j]]
            over &= ~span[j]
            up[j] = i
            span[i] |= span[j]
    # Lemma: let s0 be a component's lowest set and s1 the lowest set s0
    # overlaps. The later visited of the two joins the other's component by
    # its lowest overlap there, the other one; so s0-s1 is an edge, and s0's
    # other neighbours have higher indices. So the breadth-first pass in
    # ``_cop_positions`` starts at s0, takes s1 second and reaches each set
    # through an earlier overlap, and ``_component_blocks`` first makes
    # [s0 - s1, s0 & s1, s1 - s0] and never reverses the list. A component
    # with COP has one block sequence up to reversal, and whether it has it
    # does not depend on the insertion order. So the certificate, or None,
    # is the one the whole overlap graph gives.
    return adj


def _cop_positions(rows: Iterable[int], n: int, budget: int | None = None) -> list[int] | int | None:
    """``cop_order`` on row masks over n columns: column positions, or None.

    Given a ``budget``, a family without the property returns, in place of
    None, how many of its overlap components lack it, counted up to
    budget + 1. Lemma: that many rows must go. The components hold
    disjoint sets, COP is hereditary, and a component keeps all its sets
    until every row of one of them is deleted.
    """
    sets = [mask for mask in dict.fromkeys(rows) if mask.bit_count() >= 2]
    k = len(sets)
    adj = _overlaps_by_pairs(sets) if k < _PAIR_TEST_BELOW else _overlaps_by_refinement(sets, n)

    # Components in breadth-first order from their lowest set, neighbours
    # in ascending index.
    comp_members: list[list[int]] = []
    unseen = (1 << k) - 1
    while unseen:
        start = (unseen & -unseen).bit_length() - 1
        unseen ^= 1 << start
        order = [start]
        for i in order:  # the loop reaches what it appends
            fresh = adj[i] & unseen
            if fresh:
                unseen ^= fresh
                order.extend(_bits(fresh))
        comp_members.append(order)

    comp_blocks: list[list[int]] = []
    comp_union: list[int] = []
    blk = [0] * n
    failing = 0
    for members in comp_members:
        if len(members) == 1:  # one set inserts nothing
            blocks = [sets[members[0]]]
        else:
            blocks = _component_blocks(sets, members, blk)
            if blocks is None:
                failing += 1
                if budget is None or failing > budget:
                    break
                continue
        comp_blocks.append(blocks)
        comp_union.append(sum(blocks))  # disjoint masks: the sum is the union
    if failing:
        return None if budget is None else failing

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
        # Unions are placed in non-increasing size, so the last placed
        # container is the tightest one, and of equal ones the latest.
        for best in reversed(placed_comps):
            if not u & ~comp_union[best]:
                slot = None
                for bi, block in enumerate(comp_blocks[best]):
                    if u & ~block == 0:
                        slot = bi
                        break
                assert slot is not None, "nested component must fit inside one block"
                children[best][slot].append(c)
                break
        else:
            roots.append(c)
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
    stack = entries([(1 << n) - 1], [roots])[::-1]
    while stack:
        item = stack.pop()
        if item < 0:
            positions.append(~item)
        else:
            stack.extend(reversed(entries(comp_blocks[item], children[item])))

    assert _consecutive(sets, positions, n), "recognizer produced an invalid certificate"
    return positions


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
