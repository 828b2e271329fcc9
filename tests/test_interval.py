import random
import time
from functools import partial

import pytest

from cosr import (
    ContractError,
    Graph,
    interval_deletion,
    is_interval,
    minimalize_solution,
)
from cosr.oracle import brute_interval_deletion


def path(n):
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def cycle(n):
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)] + [(1, n)])


def spider222(center=1):
    # claw with every edge subdivided once; chordal but not interval
    return Graph(range(1, 8), [(center, 2), (2, 5), (center, 3), (3, 6), (center, 4), (4, 7)])


def two_disjoint_c4():
    return Graph(
        range(1, 9),
        [(1, 2), (2, 3), (3, 4), (1, 4), (5, 6), (6, 7), (7, 8), (5, 8)],
    )


def interval_graph_from_intervals(spans):
    n = len(spans)
    edges = [
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]
    ]
    return Graph(range(1, n + 1), edges)


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p]
    return Graph(range(1, n + 1), edges)


def test_is_interval_examples():
    assert is_interval(path(4))
    assert not is_interval(cycle(4))
    assert not is_interval(spider222())
    assert not is_interval(cycle(5))
    assert not is_interval(two_disjoint_c4())


def test_spider_clique_matrix_rejected_by_exhaustive_search():
    # the subdivided claw is chordal; its rejection hinges on the clique
    # matrix, so cross-check that verdict by exhaustive permutation search
    from cosr import is_chordal
    from cosr.interval import clique_matrix
    from cosr.oracle import brute_cop, brute_maximal_cliques

    g = spider222()
    assert is_chordal(g) is not None
    cm = clique_matrix(g, brute_maximal_cliques(g))
    assert brute_cop(cm) is None


def test_random_interval_graphs_accepted():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(1, 50)
        spans = []
        for _ in range(n):
            a = rng.randint(1, 90)
            spans.append((a, a + rng.randint(0, 25)))
        assert is_interval(interval_graph_from_intervals(spans))


def test_interval_deletion_examples():
    assert interval_deletion(path(5), 0) == frozenset()
    assert interval_deletion(cycle(4), 1) == {1}
    assert interval_deletion(two_disjoint_c4(), 1) is None
    assert interval_deletion(spider222(), 1) == {1}
    assert interval_deletion(cycle(4), -1) is None


def test_interval_deletion_monotone_in_budget():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 8), 0.5)
        prev = None
        for d in range(4):
            got = interval_deletion(g, d)
            if prev is not None:
                assert got is not None
            prev = got


def test_interval_deletion_matches_brute_force():
    rng = random.Random(23)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 9), rng.choice((0.3, 0.5, 0.7)))
        brute = brute_interval_deletion(g, 3)
        for d in range(4):
            got = interval_deletion(g, d)
            want = brute is not None and len(brute) <= d
            assert (got is not None) == want
            if got is not None:
                assert len(got) <= d
                assert is_interval(g.without(got))


def test_interval_deletion_minimum_sizes_agree():
    rng = random.Random(31)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 8), 0.6)
        brute = brute_interval_deletion(g, 3)
        mine = next((d for d in range(4) if interval_deletion(g, d) is not None), None)
        if brute is None:
            assert mine is None
        else:
            assert mine == len(brute)


def test_interval_deletion_results_are_inclusion_minimal():
    rng = random.Random(47)
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 8), 0.55)
        got = interval_deletion(g, 3)
        if not got:
            continue
        for v in got:
            assert not is_interval(g.without(got - {v}))


def test_interval_deletion_forbidden_vertices():
    g = cycle(4)
    got = interval_deletion(g, 2, forbidden=frozenset({1, 2}))
    assert got is not None and got <= {3, 4} and len(got) == 1
    assert interval_deletion(g, 4, forbidden=frozenset({1, 2, 3, 4})) is None


def test_subset_fallback_matches_branching(monkeypatch):
    import cosr.interval as iv

    rng = random.Random(53)
    for _ in range(25):
        g = random_graph(rng, rng.randint(3, 7), 0.5)
        for d in range(3):
            a = interval_deletion(g, d)
            with monkeypatch.context() as patch:
                patch.setattr(iv, "_NODE_LIMIT", 0)
                b = interval_deletion(g, d)
            assert (a is None) == (b is None)
            if a is not None:
                assert is_interval(g.without(b)) and len(b) <= d


def test_subset_search_sizes_stop_at_the_allowed_vertices(monkeypatch):
    # The exhaustive search tries deletion sets no larger than the allowed
    # vertices, whatever the budget: a budget of 10**9 once looped over every
    # size up to it before giving up.
    import cosr.interval as iv

    monkeypatch.setattr(iv, "_NODE_LIMIT", 0)
    g = cycle(4)
    start = time.perf_counter()
    assert interval_deletion(g, 10**9, forbidden=frozenset(g.vertices)) is None
    assert interval_deletion(g, 10**9, forbidden=frozenset({1, 2, 3})) == {4}
    assert time.perf_counter() - start < 1


def test_minimalize_solution_examples():
    g = interval_graph_from_intervals([(1, 2), (2, 3), (3, 4)])
    assert minimalize_solution(g, frozenset({1, 3})) == frozenset()

    c4 = cycle(4)
    assert minimalize_solution(c4, frozenset({1, 2})) == {1}

    c4x = Graph(range(1, 6), [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert minimalize_solution(c4x, frozenset({1, 5})) == {1}

    with pytest.raises(ContractError):
        minimalize_solution(c4, frozenset({}))


def test_forbidden_is_keyword_only():
    with pytest.raises(TypeError):
        interval_deletion(cycle(4), 1, 0)


def _positional(g, d, forbidden=frozenset(), stand_in=True):
    """``_interval_deletion`` on all of g with a fresh memo, its deletion
    mask read back as labels. With ``stand_in`` the graph test comes in as
    the stand-in that the solver's leaf hands in, so MCS runs in _branch;
    without it the search reads chordality from the graph test's verdicts,
    as ``interval_deletion`` does."""
    import cosr.interval as iv

    removed, nodes, fell_back = iv._interval_deletion(
        g._adj, (1 << g.n) - 1, d, iv._mask(g, forbidden), partial(iv._chordal_interval, g._adj), {}, not stand_in)
    return None if removed is None else g.labels(removed), nodes, fell_back


def test_node_budget_fallback_is_reported(monkeypatch):
    import cosr.interval as iv

    def run(G, d, limit):
        monkeypatch.setattr(iv, "_NODE_LIMIT", limit)
        return _positional(G, d)

    assert run(cycle(4), 1, 200_000) == ({1}, 2, False)
    assert run(cycle(4), 1, 0) == ({1}, 1, True)
    assert run(two_disjoint_c4(), 1, 0) == (None, 1, True)
    assert run(cycle(4), -1, 0) == (None, 0, False)


def _all_labels_witness(adj, live):
    """The previous ``_asteroidal_witness``, which labels the components of
    G - N[z] for every live z before it tests a triple; it also returns the
    triple it found."""
    from cosr.interval import _bfs_path
    from cosr.matrix import _bits

    component = [[0] * len(adj) for _ in adj]
    for z in _bits(live):
        rest = live & ~adj[z] & ~(1 << z)
        while rest:
            reach = frontier = rest & -rest
            while frontier:
                grow = 0
                for u in _bits(frontier):
                    grow |= adj[u]
                frontier = grow & rest & ~reach
                reach |= frontier
            for u in _bits(reach):
                component[z][u] = reach
            rest &= ~reach
    for a in _bits(live):
        for b in _bits(live & ~adj[a] & ~((2 << a) - 1)):
            for c in _bits(live & ~adj[a] & ~adj[b] & ~((2 << b) - 1)):
                if component[c][a] >> b & 1 and component[b][a] >> c & 1 and component[a][b] >> c & 1:
                    witness = 0
                    for s, t, z in ((a, b, c), (a, c, b), (b, c, a)):
                        for v in _bfs_path(adj, live & ~adj[z] & ~(1 << z), s, t):
                            witness |= 1 << v
                    return (a, b, c), witness
    return None, None


def _joined_avoiding(adj, live, s, t, z):
    # A walk from s to t over live vertices outside N[z], as a set search.
    banned = {z} | {v for v in range(len(adj)) if adj[z] >> v & 1}
    seen, todo = {s}, [s]
    while todo:
        u = todo.pop()
        for w in range(len(adj)):
            if adj[u] >> w & 1 and live >> w & 1 and w not in banned and w not in seen:
                seen.add(w)
                todo.append(w)
    return t in seen


def test_asteroidal_witness_matches_the_all_labels_version():
    from cosr.interval import _asteroidal_witness

    rng = random.Random(61)
    found = 0
    for _ in range(4000):
        n = rng.randint(1, 16)
        adj = [0] * n
        p = rng.choice((0.1, 0.15, 0.2, 0.3, 0.5))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        for v in rng.sample(range(n), rng.randint(0, min(n, 2))):  # isolated or adjacent to all
            full = rng.random() < 0.5
            adj[v] = ((1 << n) - 1) ^ 1 << v if full else 0
            for u in range(n):
                adj[u] = adj[u] & ~(1 << v) | (adj[v] >> u & 1) << v
        live = rng.getrandbits(n) | rng.getrandbits(n)
        triple, want = _all_labels_witness(adj, live)
        assert _asteroidal_witness(adj, live) == want
        if triple is None:
            continue
        found += 1
        a, b, c = triple
        assert not (adj[a] >> b & 1 or adj[a] >> c & 1 or adj[b] >> c & 1)
        for s, t, z in ((a, b, c), (a, c, b), (b, c, a)):
            assert _joined_avoiding(adj, live, s, t, z)
        assert want & ~live == 0 and want >> a & want >> b & want >> c & 1
    assert found > 500


def _hole_with_spider(rng):
    """A C4 or C5 with a net or a subdivided claw hung on it by one edge,
    sometimes a second C4 hung on as well, and up to two pendant vertices,
    under shuffled labels. The root is not chordal; deleting a vertex of
    every hole leaves a chordal graph in which the net or the claw holds
    an asteroidal triple."""
    k = rng.choice((4, 5))
    edges = [(i, (i + 1) % k) for i in range(k)]
    net = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)]  # a triangle with a pendant at each corner
    claw = [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]  # subdivided
    parts = [rng.choice((net, claw))]
    if rng.random() < 0.3:
        parts.append([(0, 1), (1, 2), (2, 3), (0, 3)])
    n = k
    for part in parts:
        size = 1 + max(v for e in part for v in e)
        edges += [(n + u, n + v) for u, v in part] + [(rng.randrange(n), n + rng.randrange(size))]
        n += size
    for _ in range(rng.randint(0, 2)):
        edges.append((rng.randrange(n), n))
        n += 1
    labels = rng.sample(range(-20, 40), n)
    return Graph(labels, [(labels[u], labels[v]) for u, v in edges])


def test_chordal_children_skip_mcs_and_change_nothing(monkeypatch):
    # A hole in G - v is a hole in G, so the children of a chordal node skip
    # MCS. Passing no flag down runs MCS at every branch node, as before the
    # skip; the counts also take in the graph test's own MCS runs.
    import cosr.interval as iv
    from cosr import is_chordal

    def runs(graphs):
        calls = [0]
        mcs = iv._mcs_order

        def counted(*args):
            calls[0] += 1
            return mcs(*args)

        with monkeypatch.context() as patch:
            patch.setattr(iv, "_mcs_order", counted)
            out = [[_positional(g, d) for d in range(4)] for g in graphs]
        return out, calls[0]

    rng = random.Random(67)
    graphs = [_hole_with_spider(rng) for _ in range(40)]
    skipping, fewer = runs(graphs)
    plain = iv._branch
    monkeypatch.setattr(iv, "_branch", lambda *args: plain(*args[:8]))
    everywhere, more = runs(graphs)
    assert skipping == everywhere and fewer < more, (fewer, more)
    for g, found in zip(graphs, skipping):
        assert is_chordal(g) is None
        brute = brute_interval_deletion(g, 3)
        assert [s is not None for s, _, _ in found] == [brute is not None and len(brute) <= d for d in range(4)]
        for d, (s, _, _) in enumerate(found):
            assert s is None or (len(s) <= d and is_interval(g.without(s)))


def _memo_free_branch(adj, live, d, forbidden, counter, limit, interval, failed, chordal=False):
    """``_branch`` as it was before it remembered failed nodes or read
    chordality from the graph test: MCS at each node not yet known to be
    chordal, and ``failed`` left unread."""
    import cosr.interval as iv
    from cosr.matrix import _bits

    counter[0] += 1
    if counter[0] > limit:
        raise iv._NodeBudgetExceeded
    if interval(live):
        return 0
    if d <= 0:
        return None
    chordal = chordal or iv._is_peo(adj, iv._mcs_order(adj, live))
    if chordal:
        witness = iv._asteroidal_witness(adj, live)
    else:
        witness = sum(1 << v for v in iv._shortest_hole(adj, live))
    for v in _bits(witness & ~forbidden):
        sub = _memo_free_branch(adj, live & ~(1 << v), d - 1, forbidden, counter, limit, interval, failed, chordal)
        if sub is not None:
            return sub | 1 << v
    return None


def test_failed_node_memo_matches_the_memo_free_search(monkeypatch):
    # Lemma at _branch: within one search, a live mask that failed once fails
    # again after the same number of nodes. So the memo keeps the answer, the
    # node count and the fallback of the search without it, also where the
    # budget runs out inside a remembered subtree. Odd cases hand the graph
    # test in as a stand-in, which runs MCS in _branch as the solver's leaf does.
    # What runs after the branch is the same code on both sides, so the
    # branch's own deletion set is compared unminimalized, and a stub that
    # finds nothing stands in for the subset search after a fallback.
    import cosr.interval as iv

    monkeypatch.setattr(iv, "_minimalize", lambda everything, drop, interval: drop)
    monkeypatch.setattr(iv, "_subset_search", lambda live, d, forbidden, interval: None)
    rng = random.Random(71)
    cases = []
    for i in range(2000):
        n = rng.randint(1, 13)
        labels = sorted(rng.sample(range(-20, 40), n))
        p = rng.choice((0.2, 0.3, 0.5, 0.7))
        g = Graph(labels, [(u, v) for j, u in enumerate(labels) for v in labels[j + 1:] if rng.random() < p])
        cases.append((g, frozenset(rng.sample(labels, rng.randint(0, min(2, n)))), i % 2))

    def run():
        out = []
        for limit in (1, 3, 7, 20, 200_000):
            monkeypatch.setattr(iv, "_NODE_LIMIT", limit)
            out += [_positional(g, d, forbidden, stand_in) for g, forbidden, stand_in in cases for d in range(4)]
        return out

    out_on_hit = [0]
    branch = iv._branch

    def spying(adj, live, d, forbidden, counter, limit, interval, failed, chordal=False):
        hit = live in failed  # a hit returns at once, so only a hit's own frame counts
        try:
            return branch(adj, live, d, forbidden, counter, limit, interval, failed, chordal)
        except iv._NodeBudgetExceeded:
            out_on_hit[0] += hit
            raise

    with monkeypatch.context() as patch:
        patch.setattr(iv, "_branch", spying)
        remembered = run()
    monkeypatch.setattr(iv, "_branch", lambda *args: _memo_free_branch(*args[:8]))
    assert remembered == run()
    assert out_on_hit[0] > 0 and sum(fell_back for _, _, fell_back in remembered) > 1000


def test_public_path_reads_chordality_from_the_graph_test(monkeypatch):
    # The graph test runs MCS and the PEO test itself, so without a stand-in
    # its verdict tells _branch whether a node is chordal (False) or has a
    # hole (None), and _branch runs MCS no more. With the graph test handed in
    # as a stand-in, _branch runs MCS as the solver's leaf does. Both take the
    # same witnesses, so they visit the same nodes. The graphs are those of
    # test_interval_deletion_matches_brute_force.
    import sys

    import cosr.interval as iv

    rng = random.Random(23)
    graphs = [random_graph(rng, rng.randint(1, 9), rng.choice((0.3, 0.5, 0.7))) for _ in range(120)]
    callers, visits = [], []
    mcs, branch = iv._mcs_order, iv._branch

    def counted(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return mcs(*args)

    def visiting(*args):
        visits.append(args[1])
        return branch(*args)

    monkeypatch.setattr(iv, "_mcs_order", counted)
    monkeypatch.setattr(iv, "_branch", visiting)

    def run(stand_in):
        callers.clear()
        visits.clear()
        out = [_positional(g, d, stand_in=stand_in) for g in graphs for d in range(4)]
        return out, list(visits), callers.count("_branch")

    told, told_visits, told_runs = run(False)
    asked, asked_visits, asked_runs = run(True)
    assert told == asked and told_visits == asked_visits
    assert (told_runs, asked_runs) == (0, 185)
