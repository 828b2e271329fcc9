import random
from itertools import combinations

import pytest

from cosr import (
    BinaryMatrix,
    ContractError,
    Graph,
    ParseError,
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
    vert,
    parse_matrix,
)
from cosr.oracle import brute_maximal_cliques, random_instance

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


def test_derived_graph_examples():
    assert derived_graph(IDENT3).edge_count() == 0
    g1 = derived_graph(M1)
    assert sorted(g1.edges()) == [(1, 2), (1, 3), (2, 3)]
    chain = parse_matrix("3 2\n10\n11\n01\n")
    assert sorted(derived_graph(chain).edges()) == [(1, 2), (2, 3)]


def test_vert_examples():
    assert vert(IDENT3, 1) == {1}
    assert vert(M1, 6) == {2, 3}
    assert vert(parse_matrix("2 2\n10\n10\n"), 2) == frozenset()
    with pytest.raises(ValueError):
        vert(IDENT3, 5)


def test_helly_violation_kinds():
    v1 = find_helly_violation(M1)
    assert v1 is not None and v1.rows == (1, 2, 3) and v1.kind == "H1"
    v2 = find_helly_violation(M2)
    assert v2 is not None and v2.rows == (1, 2, 3) and v2.kind == "H2"
    assert find_helly_violation(IDENT3) is None


def _helly_by_sets(M):
    """The frozenset scan over row sets that the mask scan replaced."""
    labels = list(M.row_ids)
    sets = {r: M.row_set(r) for r in labels}
    for i, j, k in combinations(range(len(labels)), 3):
        triple = (labels[i], labels[j], labels[k])
        a, b, c = (sets[r] for r in triple)
        if not (a & b and a & c and b & c):
            continue
        if not a & b & c:
            return triple, "H1"
        if not (a <= b | c or b <= a | c or c <= a | b):
            return triple, "H2"
    return None


def test_helly_mask_scan_matches_set_scan():
    rng = random.Random(6)
    matrices = []
    for seed in range(150):
        M = random_instance(seed + 3000, 3 + seed % 8, 2 + seed % 7, 0.3 + 0.1 * (seed % 5))
        matrices.append(M)
        drop = rng.sample(M.row_ids, rng.randint(1, M.m - 1))
        matrices.append(delete_rows(M, drop))
    for seed in range(150):
        m, n = 3 + seed % 7, 2 + seed % 6
        row_ids = tuple(rng.sample(range(-20, 40), m))
        rows = tuple(rng.getrandbits(n) for _ in range(m))
        matrices.append(BinaryMatrix(row_ids, tuple(range(1, n + 1)), rows))
    kinds = set()
    for M in matrices:
        got = find_helly_violation(M)
        want = _helly_by_sets(M)
        assert (None if got is None else (got.rows, got.kind)) == want, M
        kinds.add(None if got is None else got.kind)
    assert kinds == {None, "H1", "H2"}


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
        verts = [vert(M, c) for c in M.col_ids]
        assert not any(core <= vs for vs in verts)
        for v in sorted(core):
            rest = core - {v}
            assert any(rest <= vs for vs in verts)


def test_pair_subgraphs_of_helly_clean_matrices():
    # without Helly violations: a 4-cycle-free pair subgraph is chordal,
    # and every induced cycle in a pair subgraph has length at most 4
    checked = 0
    for seed in range(400):
        M = random_instance(seed, 4 + seed % 4, 4 + seed % 5, 0.45)
        if find_helly_violation(M) is not None:
            continue
        for i, ci in enumerate(M.col_ids):
            for cj in M.col_ids[i + 1 :]:
                sub = pair_subgraph(M, ci, cj)
                if find_c4(sub) is None:
                    assert is_chordal(sub) is not None
                    checked += 1
    assert checked > 50


def test_maximal_cliques_covered_by_column_pairs_when_helly_clean():
    # every maximal clique lives inside vert(ci) | vert(cj) for some pair;
    # isolated vertices of all-zero rows are the documented exception
    checked = 0
    for seed in range(300):
        M = random_instance(seed + 500, 4 + seed % 5, 4 + seed % 4, 0.4)
        if find_helly_violation(M) is not None:
            continue
        G = derived_graph(M)
        zero_rows = {r for r, mask in zip(M.row_ids, M.rows) if mask == 0}
        verts = [vert(M, c) for c in M.col_ids]
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
                    if G.common_neighbor_mask(clique) == 0:
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
