import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest

from cosr import (
    BinaryMatrix,
    ContractError,
    cop_order,
    interval_assignment,
    interval_intersection_size,
    is_icpia,
    parse_matrix,
    set_system,
    verify_cop,
)
from cosr.cop import (
    _PAIR_TEST_BELOW,
    _consecutive,
    _cop_positions,
    _overlaps_by_pairs,
    _overlaps_by_refinement,
)
from cosr.graphs import _helly_scan, _incidence
from cosr.matrix import _bits
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


def test_cop_order_pinned_certificates():
    # six nested prefixes of the order 4 7 1 6 2 5 3, rows shuffled
    stair = parse_matrix("6 7\n1001011\n0001001\n1111111\n1001001\n1101111\n1101011\n")
    assert cop_order(stair) == (1, 4, 7, 6, 2, 5, 3)
    # row {2,3,4,5} alone spans the same columns as the overlap component
    # {3,5}, {2,4,5}; row {2,4} nests in that component's block {2,4}
    tie = parse_matrix("4 5\n01111\n00101\n01011\n01010\n")
    assert cop_order(tie) == (1, 3, 5, 2, 4)


def test_verify_cop_examples():
    assert verify_cop(IDENT3, (1, 2, 3))
    assert verify_cop(TWO_ROWS, (1, 3, 2))
    assert not verify_cop(TWO_ROWS, (1, 2, 3))
    with pytest.raises(ValueError):
        verify_cop(IDENT3, (1, 2))
    with pytest.raises(ValueError):
        verify_cop(IDENT3, (1, 2, 2))


def _verify_by_positions(M, order):
    """The per-row position-list check that the prefix-mask check replaced."""
    pos = {label: i for i, label in enumerate(order)}
    for mask in M.rows:
        positions = [pos[M.col_ids[j]] for j in range(M.n) if mask >> j & 1]
        if positions and max(positions) - min(positions) + 1 != len(positions):
            return False
    return True


def test_verify_cop_matches_position_lists():
    rng = random.Random(17)
    cases = [(BinaryMatrix((), (), ()), ()), (BinaryMatrix((1, 2), (), (0, 0)), ())]
    for _ in range(600):
        m, n = rng.randint(0, 7), rng.randint(1, 7)
        col_ids = tuple(rng.sample(range(-5, 20), n))
        order = list(col_ids)
        rng.shuffle(order)
        # runs of a hidden order, so some permutations verify
        rows = []
        for _ in range(m):
            kind = rng.randrange(4)
            if kind == 0:
                rows.append(rng.getrandbits(n))
            elif kind == 1:
                rows.append(rng.choice([0, 1 << rng.randrange(n)]))
            else:
                lo = rng.randrange(n)
                hi = rng.randrange(lo, n)
                rows.append(sum(1 << col_ids.index(c) for c in order[lo : hi + 1]))
        rows += rng.sample(rows, min(len(rows), 2))  # duplicate rows
        M = BinaryMatrix(tuple(range(1, len(rows) + 1)), col_ids, tuple(rows))
        cases.append((M, tuple(order)))
        for _ in range(3):
            cases.append((M, tuple(rng.sample(col_ids, n))))
    verdicts = set()
    for M, order in cases:
        want = _verify_by_positions(M, order)
        assert verify_cop(M, order) == want, (M, order)
        assert verify_cop(M, list(order)) == want
        verdicts.add(want)
    assert verdicts == {True, False}


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


def _gapped_runs(seed, n):
    """Consecutive runs in a hidden column order, plus two rows with a gap."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    rows = []
    for _ in range(n):
        lo = rng.randrange(n - 1)
        rows.append(sum(1 << order[p] for p in range(lo, rng.randrange(lo + 1, n) + 1)))
    for _ in range(2):
        first = rng.randrange(n - 2)
        gap = rng.randrange(first + 1, n - 1)
        last = rng.randrange(gap + 1, n)
        rows.append(sum(1 << order[p] for p in range(first, last + 1) if p != gap))
    rng.shuffle(rows)
    return BinaryMatrix(tuple(range(1, len(rows) + 1)), tuple(range(1, n + 1)), tuple(rows))


def test_cop_implies_no_helly_violation():
    # The solver skips step 0 below the root when rule 1 hits, on this
    # lemma: rows with the property are intervals of one column order;
    # pairwise-meeting intervals share a point (no H1), and one of any
    # three lies in the union of the other two (no H2).
    cases = [
        random_instance(1000 * m + 10 * n + k, m, n, density)
        for m in range(3, 10)
        for n in range(3, 10)
        for k, density in enumerate((0.3, 0.5, 0.7))
    ]
    cases += [_gapped_runs(seed, 4 + seed % 6) for seed in range(60)]
    kinds = set()
    for M in cases:
        cand = _incidence(M.rows, M.n)[2]
        scans = (_helly_scan(M.rows, cand, ((1 << M.m) - 1) >> s << s) for s in range(M.m))
        hits = [hit for hit in scans if hit is not None]
        kinds.update(kind for _, kind in hits)
        if hits:
            assert cop_order(M) is None and brute_cop(M) is None
    assert kinds == {"H1", "H2"}


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


def test_cop_positions_match_cop_order_and_brute_force():
    # _cop_positions is cop_order on bare row masks: the same verdict as the
    # oracle, and the same certificate once positions are mapped to labels.
    rng = random.Random(23)
    verdicts = set()
    for _ in range(400):
        m, n = rng.randint(0, 8), rng.randint(0, 7)
        col_ids = tuple(rng.sample(range(-9, 30), n))
        rows = tuple(rng.getrandbits(n) & rng.getrandbits(n) | rng.getrandbits(n) for _ in range(m))
        M = BinaryMatrix(tuple(range(1, m + 1)), col_ids, rows)
        positions = _cop_positions(M.rows, M.n)
        order = cop_order(M)
        assert (positions is None) == (order is None) == (brute_cop(M) is None), M
        if positions is not None:
            assert sorted(positions) == list(range(n))
            assert order == tuple(col_ids[p] for p in positions)
        verdicts.add(positions is not None)
    assert verdicts == {True, False}


def test_cop_positions_on_a_staircase_deeper_than_the_recursion_limit():
    import sys

    depth = 1200
    assert depth > sys.getrecursionlimit()
    hidden = list(range(depth + 1))
    random.Random(5).shuffle(hidden)
    rows = [sum(1 << hidden[p] for p in range(r + 1)) for r in range(1, depth + 1)]
    random.Random(6).shuffle(rows)
    M = BinaryMatrix(tuple(range(1, depth + 1)), tuple(range(1, depth + 2)), tuple(rows))
    positions = _cop_positions(M.rows, M.n)
    assert positions is not None and sorted(positions) == list(range(depth + 1))
    assert cop_order(M) == tuple(M.col_ids[p] for p in positions)
    assert verify_cop(M, cop_order(M))
    # pairs closing a triangle on the first three hidden columns spoil it
    triangle = [1 << hidden[0] | 1 << hidden[2], 1 << hidden[1] | 1 << hidden[2]]
    assert _cop_positions(rows + triangle, M.n) is None


def _matrix(rows, n, col_ids=None):
    return BinaryMatrix(
        tuple(range(1, len(rows) + 1)), col_ids or tuple(range(1, n + 1)), tuple(rows)
    )


def _planted_runs(rng, n, extra):
    """Links (p, p+1) and ``extra`` random runs of a hidden column order,
    rows shuffled, and the same with one gapped row added."""
    order = list(range(n))
    rng.shuffle(order)
    runs = [(p, p + 1) for p in range(n - 1)]
    for _ in range(extra):
        first = rng.randrange(n - 1)
        runs.append((first, min(n - 1, first + rng.randrange(1, max(2, n // 4)))))
    rows = [sum(1 << order[p] for p in range(a, b + 1)) for a, b in runs]
    rng.shuffle(rows)
    first = rng.randrange(n - 2)
    last = min(n - 1, first + rng.randrange(2, max(3, n // 3)))
    gap = rng.randrange(first + 1, last)
    spoiled = rows + [sum(1 << order[p] for p in range(first, last + 1) if p != gap)]
    rng.shuffle(spoiled)
    return _matrix(rows, n), _matrix(spoiled, n)


def _staircase(rng, depth):
    """Nested prefixes of a hidden order over depth + 1 columns, rows shuffled."""
    order = list(range(depth + 1))
    rng.shuffle(order)
    rows = [sum(1 << order[p] for p in range(r + 1)) for r in range(1, depth + 1)]
    rng.shuffle(rows)
    return _matrix(rows, depth + 1)


def test_cop_order_certificates_are_byte_identical():
    # Certificates (column orders, or None) pinned by hash on families on
    # both sides of 64 distinct rows, so a change to how overlaps are found
    # or sets are inserted cannot silently change a tie-break.
    rng = random.Random(41)
    cases = []
    for n, extra in [(40, 30), (60, 10), (65, 0), (80, 80), (120, 40), (200, 200), (300, 150)]:
        cases += _planted_runs(rng, n, extra)
    cases += [_staircase(rng, depth) for depth in (2, 63, 64, 65, 200, 1200)]
    for _ in range(500):
        m, n = rng.randint(0, 9), rng.randint(1, 8)
        density = rng.choice((0.3, 0.5, 0.7))
        col_ids = tuple(rng.sample(range(-9, 30), n))
        rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(m)]
        cases.append(_matrix(rows, n, col_ids))
    digest = hashlib.sha256()
    verdicts = [0, 0]
    for M in cases:
        order = cop_order(M)
        verdicts[order is None] += 1
        digest.update(f"{order}\n".encode())
    assert min(verdicts) > 50
    assert digest.hexdigest()[:16] == "3798ff0ee59d0bf9"


def test_cop_order_certificates_at_recognize_sizes_are_byte_identical():
    # The sizes of the recognize benchmark: planted runs at n = 400 with
    # 400-1,600 extra runs and their spoiled copies, and deep staircases.
    # Pinned by hash, so faster block insertion cannot move a tie-break.
    rng = random.Random(43)
    cases = []
    for extra in (400, 800, 1200, 1600):
        cases += _planted_runs(rng, 400, extra)
    cases += [_staircase(rng, depth) for depth in (400, 800)]
    digest = hashlib.sha256()
    verdicts = []
    for M in cases:
        order = cop_order(M)
        verdicts.append(order is not None)
        digest.update(f"{order}\n".encode())
    assert verdicts == [True, False] * 4 + [True, True]
    assert digest.hexdigest()[:16] == "3518eab3509d7654"


def _overlap_masks_by_definition(sets):
    return [
        sum(1 << j for j, b in enumerate(sets) if a & b and a & ~b and b & ~a) for a in sets
    ]


def _components(adj):
    """The connected components of an adjacency given as masks, each as a mask."""
    comps, unseen = [], (1 << len(adj)) - 1
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            fresh = adj[low.bit_length() - 1] & ~comp
            comp |= fresh
            frontier |= fresh
        unseen &= ~comp
        comps.append(comp)
    return comps


def test_overlap_builders_agree():
    # The pair test gives the whole overlap graph. Refinement gives a
    # spanning forest of it: every edge it returns is an overlap, it has
    # the graph's components and one edge fewer than sets in each, and each
    # component's lowest set is joined to the lowest set it overlaps. Rows
    # may repeat, hold at most one 1, or tie in size; k spans both sides of
    # the pair-test cut-off, and 3-5-row families reach both builders.
    rng = random.Random(29)
    families = []
    for _ in range(300):
        n = rng.randint(1, 12)
        k = rng.choice((rng.randint(0, 5), rng.randint(0, 120)))
        kind = rng.randrange(4)
        if kind == 0:  # equal sizes
            size = rng.randint(1, n)
            sets = [sum(1 << j for j in rng.sample(range(n), size)) for _ in range(k)]
        elif kind == 1:  # at most one 1, among others
            sets = [rng.choice((0, 1 << rng.randrange(n), rng.getrandbits(n))) for _ in range(k)]
        else:
            sets = [rng.getrandbits(n) & rng.getrandbits(n) | rng.getrandbits(n) for _ in range(k)]
        families.append((sets + rng.sample(sets, min(k, 3)), n))  # duplicate rows
    families += [(list(dict.fromkeys(s)), n) for s, n in families]
    sizes = set()
    sparser = 0
    for sets, n in families:
        want = _overlap_masks_by_definition(sets)
        assert _overlaps_by_pairs(sets) == want, (sets, n)
        got = _overlaps_by_refinement(sets, n)
        assert all(a & ~b == 0 for a, b in zip(got, want)), (sets, n)
        assert all(got[j] >> i & 1 for i, a in enumerate(got) for j in _bits(a)), (sets, n)
        comps = _components(want)
        assert _components(got) == comps, (sets, n)
        assert sum(a.bit_count() for a in got) == 2 * (len(sets) - len(comps)), (sets, n)
        for comp in comps:
            if comp & comp - 1:
                s0 = (comp & -comp).bit_length() - 1
                s1 = want[s0] & -want[s0]
                assert got[s0] & s1, (sets, n, s0)
        sparser += got != want
        sizes.add(len(sets) < _PAIR_TEST_BELOW)
    assert sizes == {True, False}
    assert sparser > 100


def test_both_overlap_builders_give_the_same_certificates(monkeypatch):
    # The forest lemma at _overlaps_by_refinement: whichever builder runs,
    # _cop_positions returns the same positions, or None from both, and the
    # positions make every row consecutive. Random runs, then side-by-side,
    # nested and equal-union components.
    import cosr.cop

    rng = random.Random(53)
    verdicts = Counter()
    families = [_component_family(rng, rng.randint(2, 120)) for _ in range(600)]
    families += [_laminar_family(rng, kind) for kind in _LAMINAR_KINDS for _ in range(100)]
    for rows, n in families:
        answers = []
        for cut in (10**9, 0):
            monkeypatch.setattr(cosr.cop, "_PAIR_TEST_BELOW", cut)
            answers.append(_cop_positions(rows, n))
        assert answers[0] == answers[1], (rows, n)
        assert answers[0] is None or _consecutive(rows, answers[0], n)
        verdicts[answers[0] is None] += 1
    assert min(verdicts.values()) > 100, verdicts


def _insert_set_reference(blocks, s, placed, seen):
    """The list-based insertion that the linked block sequence replaced: it
    rebuilds the block list per set. ``seen`` counts the cases it meets."""
    hit = [i for i, block in enumerate(blocks) if block & s]
    assert hit, "inserted set must intersect the placed region"
    lo, hi = hit[0], hit[-1]
    if hi - lo + 1 != len(hit):
        seen["not a run"] += 1
        return None
    new = s & ~placed
    for i in range(lo + 1, hi):
        if blocks[i] & ~s:
            seen["inner block leaves s"] += 1
            return None
    if lo == hi:
        inside = blocks[lo] & s
        outside = blocks[lo] & ~s
        assert new, "set confined to a single block cannot strictly overlap"
        tail = [outside] if outside else []
        if len(blocks) == 1:
            seen["split only block"] += 1
            return tail + [inside, new]
        if lo == 0:
            seen["split head block" if outside else "join at head"] += 1
            return [new, inside] + tail + blocks[1:]
        if lo == len(blocks) - 1:
            seen["split tail block" if outside else "join at tail"] += 1
            return blocks[:lo] + tail + [inside, new]
        seen["no free end"] += 1
        return None
    left_in, left_out = blocks[lo] & s, blocks[lo] & ~s
    right_in, right_out = blocks[hi] & s, blocks[hi] & ~s
    core = [left_in] + blocks[lo + 1 : hi] + [right_in]
    prefix = blocks[:lo] + ([left_out] if left_out else [])
    suffix = ([right_out] if right_out else []) + blocks[hi + 1 :]
    if not new:
        seen["refine"] += 1
        return prefix + core + suffix
    attach_left = lo == 0 and not left_out
    attach_right = hi == len(blocks) - 1 and not right_out
    assert not (attach_left and attach_right), "set would contain the placed region"
    if attach_left:
        seen["attach at head"] += 1
        return [new] + core + suffix
    if attach_right:
        seen["attach at tail"] += 1
        return prefix + core + [new]
    seen["no free end"] += 1
    return None


def _component_family(rng, k=None):
    """Runs of a hidden column order, some spoiled, or random sets; k sets,
    by default on both sides of the pair-test cut-off."""
    n = rng.randint(3, 40)
    if k is None:
        k = rng.choice((rng.randint(2, 12), rng.randint(2, 12), rng.randint(_PAIR_TEST_BELOW, 90)))
    if rng.random() < 0.2:
        return [rng.getrandbits(n) for _ in range(k)], n
    order = list(range(n))
    rng.shuffle(order)
    rows = []
    for _ in range(k):
        first = rng.randrange(n - 1)
        last = min(n - 1, first + rng.randint(1, max(1, n // rng.choice((2, 4)))))
        rows.append(sum(1 << order[p] for p in range(first, last + 1)))
    for _ in range(rng.choice((0, 0, 1, 2))):  # a gap or a stray column
        rows[rng.randrange(k)] ^= 1 << order[rng.randrange(n)]
    return rows, n


_LAMINAR_KINDS = ("block-diagonal", "nested", "equal-union")


def _laminar_family(rng, kind):
    """Components of runs of a hidden column order, some spoiled by one
    flipped cell: side by side on disjoint columns ("block-diagonal"),
    placed inside earlier components' unions ("nested"), or nested with a
    set equal to each two-set component's union ("equal-union")."""
    n = rng.randint(3, 60) if kind != "block-diagonal" else rng.randint(6, 240)
    order = list(range(n))
    rng.shuffle(order)
    if kind == "block-diagonal":  # one component per piece of a partition
        cuts = sorted(rng.sample(range(3, n - 2), rng.randint(0, (n - 6) // 3)))
        cuts = [c for i, c in enumerate(cuts) if i == 0 or c - cuts[i - 1] >= 3]
        segments = list(zip([0] + cuts, [c - 1 for c in cuts] + [n - 1]))
    else:
        segments = [(0, n - 1)]
    runs = []
    for t in range(len(segments) if kind == "block-diagonal" else rng.randint(1, 30)):
        lo, hi = segments[t] if kind == "block-diagonal" else rng.choice(segments)
        if hi - lo < 2:
            continue
        a = rng.randint(lo, hi - 2)
        e = rng.randint(a + 2, hi)
        if rng.random() < 0.25:  # a one-set component
            runs.append((a, e))
        else:  # [a, x] and [b, e] overlap strictly
            b = rng.randint(a + 1, e - 1)
            x = rng.randint(b, e - 1)
            runs += [(a, x), (b, e)] + [(a, e)] * (kind == "equal-union")
        if kind != "block-diagonal":
            segments.append((a, e))
    rows = [sum(1 << order[p] for p in range(a, e + 1)) for a, e in runs]
    if rows and rng.random() < 0.3:
        rows[rng.randrange(len(rows))] ^= 1 << order[rng.randrange(n)]
    rng.shuffle(rows)
    return rows, n


def test_linked_block_sequence_matches_the_list_insertion(monkeypatch):
    # Each component that _cop_positions builds, in its breadth-first member
    # order, gets the list-based insertion's block list, or None from both.
    import cosr.cop

    build = cosr.cop._component_blocks
    seen = Counter()
    sides = set()
    components = 0

    def checked(sets, members, blk):
        nonlocal components
        components += 1
        sides.add(len(sets) < _PAIR_TEST_BELOW)
        blocks = build(sets, members, blk)
        placed, want = sets[members[0]], [sets[members[0]]]
        for i in members[1:]:
            want = _insert_set_reference(want, sets[i], placed, seen)
            if want is None:
                break
            placed |= sets[i]
        assert blocks == want, (sets, members)
        return blocks

    monkeypatch.setattr(cosr.cop, "_component_blocks", checked)
    rng = random.Random(37)
    while components < 3000:
        _cop_positions(*_component_family(rng))
    assert sides == {True, False}
    assert set(seen) == {
        "not a run", "inner block leaves s", "no free end", "split only block", "split head block",
        "split tail block", "join at head", "join at tail", "refine", "attach at head", "attach at tail",
    }, seen


def test_cop_positions_counts_failing_components_up_to_budget_plus_one():
    # Three triangles {0,1}, {1,2}, {0,2} on disjoint columns, and a path:
    # with a budget, the failing overlap components are counted, up to
    # budget + 1; without one, the first failure gives None.
    triangles = [mask << 3 * t for t in range(3) for mask in (3, 6, 5)]
    path = [3 << 9, 6 << 9]
    assert _cop_positions(triangles + path, 12) is None
    assert [_cop_positions(triangles + path, 12, b) for b in range(5)] == [1, 2, 3, 3, 3]
    assert isinstance(_cop_positions(path, 12, 2), list)
