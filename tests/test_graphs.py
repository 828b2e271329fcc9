import random
from itertools import combinations, permutations

import pytest

from cosr import (
    BinaryMatrix,
    ContractError,
    Graph,
    ParseError,
    augment,
    delete_rows,
    derived_graph,
    find_c4,
    find_helly_violation,
    find_uncovered_clique,
    is_chordal,
    is_simplicial,
    maximal_cliques_chordal,
    pair_subgraph,
    parse_graph,
    serialize_graph,
    parse_matrix,
    support,
)
from cosr.graphs import _helly_candidates, _helly_scan, _incidence, _scan_column_pairs, _uncovered_core
from cosr.matrix import _bits
from cosr.oracle import brute_maximal_cliques, random_instance
from cosr.solver import _find_rule2_cycle, _rule2_c4

M1 = parse_matrix("3 8\n1 1 1 1 1 0 0 0\n0 1 0 0 1 1 1 0\n1 0 1 1 0 1 0 1\n")
M2 = parse_matrix("3 8\n1 0 1 0 1 1 0 0\n0 1 0 1 0 1 1 0\n1 0 0 0 0 1 0 1\n")
IDENT3 = parse_matrix("3 3\n100\n010\n001\n")
# columns are the four 3-subsets of the rows (complement of the identity)
COMPLEMENT_IDENT4 = parse_matrix("4 4\n0111\n1011\n1101\n1110\n")


def path(n):
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def cycle(n):
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete(n):
    return Graph(range(1, n + 1), [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p]
    return Graph(range(1, n + 1), edges)


def test_vert_examples():
    # vert was an alias of support; its examples stay, on support
    assert support(IDENT3, 1) == {1}
    assert support(M1, 6) == {2, 3}
    assert support(parse_matrix("2 2\n10\n10\n"), 2) == frozenset()
    with pytest.raises(ValueError):
        support(IDENT3, 5)


def test_derived_graph_examples():
    assert derived_graph(IDENT3).edge_count() == 0
    g1 = derived_graph(M1)
    assert sorted(g1.edges()) == [(1, 2), (1, 3), (2, 3)]
    chain = parse_matrix("3 2\n10\n11\n01\n")
    assert sorted(derived_graph(chain).edges()) == [(1, 2), (2, 3)]


def _derived_graph_by_edges(M):
    """The edge-list build that the incidence masks replaced."""
    edges = []
    for j in range(M.n):
        members = [label for label, mask in zip(M.row_ids, M.rows) if mask >> j & 1]
        edges += combinations(members, 2)
    return Graph(M.row_ids, edges)


def test_derived_graph_matches_edge_list_build():
    # unsorted, gapped and negative labels, all-zero rows, and the
    # augmented matrices the leaf builds
    rng = random.Random(99)
    shapes = {"unsorted": 0, "negative": 0, "zero row": 0}
    for _ in range(300):
        m, n = rng.randint(0, 9), rng.randint(0, 7)
        rows = tuple(rng.getrandbits(n) if rng.random() < 0.8 else 0 for _ in range(m))
        labels = tuple(rng.sample(range(-15, 30), m))
        shapes["unsorted"] += list(labels) != sorted(labels)
        shapes["negative"] += any(label < 0 for label in labels)
        shapes["zero row"] += 0 in rows
        cols = tuple(range(1, n + 1))
        M = BinaryMatrix(labels, cols, rows)
        aug = augment(BinaryMatrix(tuple(label + 16 for label in labels), cols, rows))
        for matrix in (M, aug):
            assert derived_graph(matrix) == _derived_graph_by_edges(matrix), matrix
    assert min(shapes.values()) > 100, shapes


def test_helly_violation_kinds():
    v1 = find_helly_violation(M1)
    assert v1 is not None and v1.rows == (1, 2, 3) and v1.kind == "H1"
    v2 = find_helly_violation(M2)
    assert v2 is not None and v2.rows == (1, 2, 3) and v2.kind == "H2"
    assert find_helly_violation(IDENT3) is None
    # no start position: a negative one once scanned a suffix of the rows
    with pytest.raises(TypeError):
        find_helly_violation(M1, -2)


def _helly_by_sets(M, start=0):
    """The frozenset scan over row sets that the mask scan replaced."""
    labels = list(M.row_ids)
    sets = {r: M.row_set(r) for r in labels}
    for i, j, k in combinations(range(start, len(labels)), 3):
        triple = (labels[i], labels[j], labels[k])
        a, b, c = (sets[r] for r in triple)
        if not (a & b and a & c and b & c):
            continue
        if not a & b & c:
            return triple, "H1"
        if not (a <= b | c or b <= a | c or c <= a | b):
            return triple, "H2"
    return None


def _as_pair(violation):
    return None if violation is None else (violation.rows, violation.kind)


def _live(M, drop=()):
    """The positions of M's rows outside ``drop``."""
    return sum(1 << p for p, label in enumerate(M.row_ids) if label not in drop)


def _helly_at(M, live):
    """``_helly_scan`` on the ``live`` rows of M, as labels and kind."""
    hit = _helly_scan(M.rows, _helly_candidates(*_incidence(M.rows, M.n)), live)
    return None if hit is None else (tuple(M.row_ids[p] for p in hit[0]), hit[1])


def _gapped_random_matrices(rng, count):
    """Random matrices with unsorted, gapped and negative row labels."""
    out = []
    for seed in range(count):
        m, n = 3 + seed % 7, 2 + seed % 6
        row_ids = tuple(rng.sample(range(-20, 40), m))
        rows = tuple(rng.getrandbits(n) for _ in range(m))
        out.append(BinaryMatrix(row_ids, tuple(range(1, n + 1)), rows))
    return out


def test_helly_mask_scan_matches_set_scan():
    rng = random.Random(6)
    matrices = []
    for seed in range(150):
        M = random_instance(seed + 3000, 3 + seed % 8, 2 + seed % 7, 0.3 + 0.1 * (seed % 5))
        matrices.append(M)
        drop = rng.sample(M.row_ids, rng.randint(1, M.m - 1))
        matrices.append(delete_rows(M, drop))
    matrices += _gapped_random_matrices(rng, 150)
    kinds = set()
    for M in matrices:
        for start in range(M.m + 2):
            got = _helly_at(M, _live(M) >> start << start)
            assert got == _helly_by_sets(M, start), (M, start)
            kinds.add(None if got is None else got[1])
        assert _as_pair(find_helly_violation(M)) == _helly_by_sets(M)
    assert kinds == {None, "H1", "H2"}


def test_helly_resume_at_parent_triple_matches_full_scan():
    # a child of a rule-1 node may start its scan at the position of the
    # parent's first triple row; follow the branch tree two levels down,
    # on live masks as the solver does
    rng = random.Random(61)
    children = 0
    for M in _gapped_random_matrices(rng, 300):
        frontier = [(frozenset(), 0)]
        for _ in range(2):
            deeper = []
            for drop, start in frontier:
                live = _live(M, drop)
                violation = _helly_at(M, live >> start << start)
                assert violation == _helly_by_sets(delete_rows(M, drop))
                if violation is None:
                    continue
                resume = M.row_index[violation[0][0]]
                for row in violation[0]:
                    child = drop | {row}
                    got = _helly_at(M, _live(M, child) >> resume << resume)
                    assert got == _helly_by_sets(delete_rows(M, child)), (M, child)
                    deeper.append((child, resume))
                    children += 1
            frontier = deeper
    assert children > 500


def test_helly_clean_matrices_have_clean_children():
    # a child of a rule-2 or rule-3 node starts past its last row
    rng = random.Random(62)
    clean = 0
    for M in _gapped_random_matrices(rng, 400):
        if _helly_by_sets(M) is not None:
            continue
        clean += 1
        assert find_helly_violation(M) is None
        for row in M.row_ids:
            assert _helly_by_sets(delete_rows(M, {row})) is None
            assert _helly_at(M, _live(M, {row}) >> M.m << M.m) is None
    assert clean > 50


def _violates(a, b, c):
    """True iff pairwise-meeting rows a, b, c form an H1 or H2 triple."""
    return not a & b & c or bool(a & ~(b | c) and b & ~(a | c) and c & ~(a | b))


def _helly_scan_by_triples(rows, meets, live):
    """The scan over every meeting pair's third rows that the nested-pair
    skips replaced."""
    for i in _bits(live):
        a = rows[i]
        later = meets[i] & live & ~((2 << i) - 1)
        for j in _bits(later):
            b = rows[j]
            for k in _bits(later & meets[j] & ~((2 << j) - 1)):
                c = rows[k]
                if _violates(a, b, c):
                    return (i, j, k), "H2" if a & b & c else "H1"
    return None


def _planted_family(rng, n, copies, extra, noise):
    """Rows of a planted-style family in shuffled row order: every link of a
    hidden column order ``copies`` times, ``extra`` short runs, which nest
    in one another and hold links, and ``noise`` rows that skip one or two
    interior positions of a run."""
    order = rng.sample(range(n), n)

    def on(positions):
        return sum(1 << order[p] for p in positions)

    rows = [on((p, p + 1)) for p in range(n - 1) for _ in range(copies)]
    for _ in range(extra):
        first = rng.randrange(n - 1)
        rows.append(on(range(first, min(n, first + rng.randint(1, 6)))))
    for _ in range(noise):
        first = rng.randrange(n - 4)
        last = min(n - 1, first + rng.randint(3, 12))
        gaps = set(rng.sample(range(first + 1, last), rng.randint(1, min(2, last - first - 1))))
        rows.append(on(p for p in range(first, last + 1) if p not in gaps))
    rng.shuffle(rows)
    return BinaryMatrix(tuple(range(1, len(rows) + 1)), tuple(range(1, n + 1)), tuple(rows))


def test_nested_pair_skips_match_the_triple_scan_at_planted_scale():
    # Follow the rule-1 branch tree two levels below the root, with the
    # solver's resume starts: 0 at the root, the position of the parent's
    # first hit row below it.
    rng = random.Random(64)
    kinds = {None: 0, "H1": 0, "H2": 0}
    sizes = []
    for t in range(24):
        M = _planted_family(rng, 30 + 5 * t, 2 + t % 2, 30 + 5 * t, 1 + t % 4)
        sizes.append(M.m)
        cols, meets = _incidence(M.rows, M.n)
        cand = _helly_candidates(cols, meets)
        if t < 4:  # ``cand`` by its definition: meeting rows, less those holding the row
            assert cand == [meet & ~sum(1 << s for s, y in enumerate(M.rows) if not x & ~y)
                            for x, meet in zip(M.rows, meets)]
        frontier = [((1 << M.m) - 1, 0)]
        for _ in range(3):
            deeper = []
            for live, start in frontier:
                want = _helly_scan_by_triples(M.rows, meets, live >> start << start)
                assert _helly_scan(M.rows, cand, live >> start << start) == want, (t, live, start)
                kinds[None if want is None else want[1]] += 1
                if want is not None:
                    deeper += [(live & ~(1 << p), want[0][0]) for p in want[0]]
            frontier = deeper
    assert min(kinds.values()) > 20, kinds
    assert min(sizes) < 100 and max(sizes) > 500, sizes


def test_helly_candidates_match_their_definition():
    # ``cand[r]``: the rows meeting row r, less the rows holding all of r.
    # All-zero rows meet nothing, and a duplicate row holds its twin.
    rng = random.Random(66)
    kinds = {"zero": 0, "twin": 0}
    for seed in range(300):
        m, n = 2 + seed % 9, 1 + seed % 7
        rows = [rng.getrandbits(n) for _ in range(m)]
        rows += [0] * (seed % 2) + [rng.choice(rows)] * (seed % 3 > 0)
        rng.shuffle(rows)
        M = BinaryMatrix(tuple(rng.sample(range(-20, 40), len(rows))), tuple(range(1, n + 1)), tuple(rows))
        want = [sum(1 << s for s, y in enumerate(M.rows) if x & y and x & ~y) for x in M.rows]
        assert _helly_candidates(*_incidence(M.rows, M.n)) == want, M
        kinds["zero"] += 0 in M.rows
        kinds["twin"] += len(set(M.rows)) < M.m
    assert min(kinds.values()) > 100, kinds


def test_a_triple_with_a_nested_pair_is_clean():
    # The lemma behind ``_helly_scan``'s nested-pair skips.
    rng = random.Random(65)
    checked = 0
    for _ in range(20000):
        n = rng.randint(1, 10)
        inner = rng.getrandbits(n)
        outer = inner | rng.getrandbits(n)
        third = rng.getrandbits(n)
        if not (inner and third & inner):
            continue
        for a, b, c in set(permutations((inner, outer, third))):
            assert not _violates(a, b, c), (a, b, c)
        checked += 1
    assert checked > 10000


def test_pair_subgraph_examples():
    disjoint = parse_matrix("2 2\n10\n01\n")
    assert pair_subgraph(disjoint, 1, 2).edge_count() == 0
    tri = pair_subgraph(M1, 1, 6)
    assert sorted(tri.vertices) == [1, 2, 3]
    assert tri.edge_count() == 3  # rows 1 and 2 meet through column 2
    same = parse_matrix("3 2\n11\n11\n01\n")
    assert pair_subgraph(same, 1, 2).edge_count() == 3
    with pytest.raises(ValueError):
        pair_subgraph(M1, 1, 1)


def test_find_c4():
    assert find_c4(cycle(4)) == (1, 2, 3, 4)
    assert find_c4(complete(4)) is None
    chorded = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    assert find_c4(chorded) is None
    assert find_c4(cycle(5)) is None


def _c4_by_labels(G):
    """The label scan over neighbor sets that the mask scan replaced."""
    vs = G.vertices
    for ai, a in enumerate(vs):
        for c in vs[ai + 1 :]:
            if c in G.neighbors(a):
                continue
            common = sorted(G.neighbors(a) & G.neighbors(c))
            for bi, b in enumerate(common):
                for d in common[bi + 1 :]:
                    if d not in G.neighbors(b):
                        return (a, b, c, d)
    return None


def test_find_c4_matches_label_scan():
    rng = random.Random(31)
    found = 0
    for _ in range(400):
        labels = rng.sample(range(-10, 40), rng.randint(0, 10))
        p = rng.random()
        G = Graph(labels, [e for e in combinations(labels, 2) if rng.random() < p])
        got = find_c4(G)
        assert got == _c4_by_labels(G), G
        found += got is not None
    assert 50 < found < 350, found


def test_is_chordal():
    assert is_chordal(complete(3)) is not None
    assert is_chordal(cycle(4)) is None
    tree = Graph(range(1, 7), [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6)])
    assert is_chordal(tree) is not None
    assert is_chordal(cycle(5)) is None
    assert is_chordal(Graph(())) == ()


def test_maximal_cliques_chordal_examples():
    p3 = path(3)
    peo = is_chordal(p3)
    assert maximal_cliques_chordal(p3, peo) == [frozenset({1, 2}), frozenset({2, 3})]
    k4 = complete(4)
    assert maximal_cliques_chordal(k4, is_chordal(k4)) == [frozenset({1, 2, 3, 4})]
    pendant = Graph(range(1, 5), [(1, 2), (2, 3), (1, 3), (3, 4)])
    cliques = maximal_cliques_chordal(pendant, is_chordal(pendant))
    assert cliques == [frozenset({1, 2, 3}), frozenset({3, 4})]


def test_maximal_cliques_chordal_rejects_bad_order():
    p3 = path(3)
    with pytest.raises(ContractError):
        maximal_cliques_chordal(p3, (2, 1, 3))
    with pytest.raises(ContractError):
        maximal_cliques_chordal(p3, (1, 2))


def test_maximal_cliques_chordal_matches_brute_force():
    rng = random.Random(4242)
    tried = 0
    while tried < 60:
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        peo = is_chordal(g)
        if peo is None:
            continue
        tried += 1
        assert maximal_cliques_chordal(g, peo) == brute_maximal_cliques(g)


def test_is_simplicial():
    tree = path(4)
    assert is_simplicial(tree, 1)
    assert not is_simplicial(tree, 2)
    assert is_simplicial(complete(5), 3)
    with pytest.raises(ValueError):
        is_simplicial(tree, 9)


def test_find_uncovered_clique_examples():
    ones = parse_matrix("3 1\n1\n1\n1\n")
    assert find_uncovered_clique(ones) is None
    assert find_uncovered_clique(IDENT3) is None
    got = find_uncovered_clique(COMPLEMENT_IDENT4)
    assert got is not None
    clique, core = got
    assert clique == {1, 2, 3, 4}
    assert core == {1, 2, 3, 4}


def _complement_identity(k):
    rows = "\n".join("".join("0" if i == j else "1" for j in range(k)) for i in range(k))
    return parse_matrix(f"{k} {k}\n{rows}\n")


def test_find_uncovered_clique_core_is_inclusion_minimal():
    # columns listing every (k-1)-subset of the rows leave the full-row
    # clique uncovered while keeping rules 1 and 2 silent (k >= 4)
    cases = [_complement_identity(k) for k in (4, 5, 6)]
    for M in cases:
        assert find_helly_violation(M) is None
        got = find_uncovered_clique(M)
        assert got is not None
        clique, core = got
        assert clique == frozenset(M.row_ids)
        assert len(core) >= 3
        verts = [support(M, c) for c in M.col_ids]
        assert not any(core <= vs for vs in verts)
        for v in sorted(core):
            rest = core - {v}
            assert any(rest <= vs for vs in verts)


def _uncovered_clique_by_labels(M):
    """The label-set scan that the mask scan replaced: one Graph per column pair."""
    G = derived_graph(M)
    verts = [support(M, c) for c in M.col_ids]
    candidates = set()
    for a, b in combinations(M.col_ids, 2):
        sub = pair_subgraph(M, a, b)
        for clique in maximal_cliques_chordal(sub, is_chordal(sub)):
            if not frozenset.intersection(*map(G.neighbors, clique)):
                candidates.add(clique)

    def covered(group):
        return any(group <= vs for vs in verts)

    for clique in sorted(candidates, key=sorted):
        if covered(clique):
            continue
        minimal = set(clique)
        for v in sorted(clique):
            if len(minimal) > 1 and not covered(frozenset(minimal - {v})):
                minimal.discard(v)
        return clique, frozenset(minimal)
    return None


def _rules_1_and_2_clean(M):
    return find_helly_violation(M) is None and all(
        is_chordal(pair_subgraph(M, a, b)) is not None for a, b in combinations(M.col_ids, 2)
    )


def _scan_matrices():
    """Random matrices and survivors of ``delete_rows`` on them, and
    complement-of-identity cores with gapped, negative, unsorted labels."""
    rng = random.Random(7)
    matrices = []
    for seed in range(200):
        M = random_instance(seed + 4000, 3 + seed % 7, 2 + seed % 6, 0.3 + 0.1 * (seed % 5))
        matrices.append(M)
        drop = rng.sample(M.row_ids, rng.randint(1, M.m - 1))
        matrices.append(delete_rows(M, drop))
    for seed in range(150):
        # complement-of-identity cores on k columns (a second one on other
        # columns for odd seeds), extra random rows, columns and rows
        # shuffled, and labels drawn out of order
        k = 4 + seed % 3
        rows = [((1 << k) - 1) & ~(1 << i) for i in range(k)]
        rows += [r << k for r in rows] if seed % 2 else []
        n, m = len(rows) + seed % 3, len(rows) + seed % 4
        perm = rng.sample(range(n), n)
        rows += [rng.getrandbits(n) for _ in range(m - len(rows))]
        rows = [sum(1 << perm[j] for j in range(n) if r >> j & 1) for r in rows]
        rng.shuffle(rows)
        row_ids = tuple(rng.sample(range(-20, 40), m))
        M = BinaryMatrix(row_ids, tuple(range(1, n + 1)), tuple(rows))
        matrices += [M, delete_rows(M, [rng.choice(row_ids)])]
    return matrices


def test_uncovered_clique_mask_scan_matches_label_scan():
    found = checked = 0
    for M in _scan_matrices():
        if M.n < 2 or not _rules_1_and_2_clean(M):
            continue
        got = find_uncovered_clique(M)
        assert got == _uncovered_clique_by_labels(M), M
        found += got is not None
        checked += 1
    assert checked > 400 and found > 50


def _pass_against_the_two_scans(M, drop):
    """Rules 2 and 3's pass on the rows of M outside ``drop`` against the two
    scans it replaced, on ``delete_rows(M, drop)``: every pair's find_c4 for
    rule 2, then the label-set clique scan for rule 3."""
    sub = delete_rows(M, drop)
    cycle = next(
        filter(None, (find_c4(pair_subgraph(sub, a, b)) for a, b in combinations(sub.col_ids, 2))), None
    )
    assert _find_rule2_cycle(sub) == cycle, (M, drop)
    cols, meets = _incidence(M.rows, M.n)
    pair, candidates = _scan_column_pairs(cols, meets, _live(M, drop))
    uncovered = None if pair is not None else _uncovered_core(M.row_ids, cols, candidates)
    if uncovered is not None:
        uncovered = tuple(frozenset(M.row_ids[p] for p in _bits(mask)) for mask in uncovered)
    if cycle is None:
        assert pair is None and uncovered == _uncovered_clique_by_labels(sub), (M, drop)
    else:
        assert find_c4(pair_subgraph(sub, *(M.col_ids[c] for c in pair))) == cycle and candidates is None, (M, drop)
        # the solver's rule-2 cycle, read through the live mask of M
        group = (cols[pair[0]] | cols[pair[1]]) & _live(M, drop)
        assert tuple(M.row_ids[p] for p in _rule2_c4(M.row_ids, meets, group)) == cycle, (M, drop)
    return "rule2" if cycle else "rule3" if uncovered else "neither"


def test_one_pair_pass_matches_the_two_scans():
    # The sparse family adds pair subgraphs with holes.
    sparse = [random_instance(seed, 6 + seed % 4, 4 + seed % 5, 0.3) for seed in range(150)]
    outcomes = {"rule2": 0, "rule3": 0, "neither": 0, "helly": 0}
    for M in _scan_matrices() + sparse:
        outcomes[_pass_against_the_two_scans(M, ())] += 1
        outcomes["helly"] += find_helly_violation(M) is not None
    assert min(outcomes.values()) > 20, outcomes


def test_live_mask_scans_match_the_scans_of_delete_rows():
    # The solver's node is M minus a row set S, scanned through a live mask
    # over M's positions; on relabelled matrices the scans must give what
    # they give on delete_rows(M, S), labels and tie-breaks included.
    rng = random.Random(63)
    holes = []  # a 4-cycle of rows over two column pairs, sparse noise rows
    for seed in range(150):
        n = 4 + seed % 4
        a, b, c, d = (1 << j for j in rng.sample(range(n), 4))
        rows = [a | b, b | c, c | d, d | a, *random_instance(seed + 300, 3 + seed % 3, n, 0.3).rows]
        rng.shuffle(rows)
        holes.append(BinaryMatrix(tuple(rng.sample(range(-20, 40), len(rows))), tuple(range(1, n + 1)), tuple(rows)))
    outcomes = {"rule2": 0, "rule3": 0, "neither": 0, "helly": 0}
    for M in _scan_matrices()[::2] + holes:
        drop = frozenset(rng.sample(M.row_ids, rng.randint(1, min(3, M.m - 1))))
        want = _helly_by_sets(delete_rows(M, drop))
        assert _helly_at(M, _live(M, drop)) == want, (M, drop)
        outcomes["helly"] += want is not None
        outcomes[_pass_against_the_two_scans(M, drop)] += 1
    assert min(outcomes.values()) > 20, outcomes


def test_uncovered_clique_rejects_a_chordless_pair_subgraph():
    # columns 1 and 3 hold all four rows, which meet in the cycle 1-2-3-4
    M = parse_matrix("4 4\n1100\n0110\n0011\n1001\n")
    assert find_helly_violation(M) is None
    with pytest.raises(ContractError, match="columns 1, 3 is not chordal"):
        find_uncovered_clique(M)


def test_pair_subgraphs_of_helly_clean_matrices():
    # A pair subgraph is chordal iff it has no induced 4-cycle, on
    # Helly-clean and Helly-violating matrices alike: the rows holding
    # either column form two cliques that cover it, and a hole meets any
    # clique in at most two vertices, so no hole is longer than 4.
    # The sparser family is where Helly-clean pair subgraphs with holes
    # turn up.
    matrices = [random_instance(seed, 4 + seed % 4, 4 + seed % 5, 0.45) for seed in range(400)]
    matrices += [random_instance(seed, 6 + seed % 4, 4 + seed % 5, 0.3) for seed in range(800)]
    checked = {True: [0, 0], False: [0, 0]}  # Helly-clean -> [chordal, not]
    for M in matrices:
        counts = checked[find_helly_violation(M) is None]
        for i, ci in enumerate(M.col_ids):
            for cj in M.col_ids[i + 1 :]:
                sub = pair_subgraph(M, ci, cj)
                chordal = is_chordal(sub) is not None
                assert chordal == (find_c4(sub) is None)
                counts[not chordal] += 1
    assert min(checked[True] + checked[False]) > 10, checked


def test_maximal_cliques_covered_by_column_pairs_when_helly_clean():
    # every maximal clique lives inside support(ci) | support(cj) for some pair;
    # isolated vertices of all-zero rows are the documented exception
    checked = 0
    for seed in range(300):
        M = random_instance(seed + 500, 4 + seed % 5, 4 + seed % 4, 0.4)
        if find_helly_violation(M) is not None:
            continue
        G = derived_graph(M)
        zero_rows = {r for r, mask in zip(M.row_ids, M.rows) if mask == 0}
        verts = [support(M, c) for c in M.col_ids]
        for clique in brute_maximal_cliques(G):
            if clique <= zero_rows:
                continue
            assert any(
                clique <= verts[i] | verts[j]
                for i in range(M.n)
                for j in range(i + 1, M.n)
            ) or any(clique <= vs for vs in verts)
            checked += 1
    assert checked > 100


def test_pair_clique_union_equals_all_maximal_cliques():
    # candidate cliques gathered from chordal pair subgraphs and filtered
    # for maximality reproduce the brute-force maximal clique list
    checked = 0
    for seed in range(400):
        M = random_instance(seed + 900, 4 + seed % 6, 4 + seed % 4, 0.45)
        if M.n < 2 or find_helly_violation(M) is not None:
            continue
        G = derived_graph(M)
        candidates = set()
        bad = False
        for i in range(M.n):
            for j in range(i + 1, M.n):
                sub = pair_subgraph(M, M.col_ids[i], M.col_ids[j])
                if find_c4(sub) is not None:
                    bad = True
                    break
                for clique in maximal_cliques_chordal(sub, is_chordal(sub)):
                    if not frozenset.intersection(*map(G.neighbors, clique)):
                        candidates.add(clique)
            if bad:
                break
        if bad:
            continue
        zero_rows = {r for r, mask in zip(M.row_ids, M.rows) if mask == 0}
        want = {c for c in brute_maximal_cliques(G) if not c <= zero_rows}
        assert candidates == want
        checked += 1
    assert checked > 40


def test_graph_file_round_trip_and_errors():
    g = parse_graph("# sample\n4 3\n1 2\n2 3\n1 4\n")
    assert g.n == 4 and g.edge_count() == 3
    assert parse_graph(serialize_graph(g)) == g
    with pytest.raises(ParseError):
        parse_graph("2 1\n2 1\n")
    with pytest.raises(ParseError):
        parse_graph("2 2\n1 2\n1 2\n")
    with pytest.raises(ParseError):
        parse_graph("2 1\n")
    with pytest.raises(ParseError):
        parse_graph("bad\n")


def test_graph_rejects_loops_and_unknown_vertices():
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 1)])
    with pytest.raises(ValueError):
        Graph([1, 2], [(1, 3)])
