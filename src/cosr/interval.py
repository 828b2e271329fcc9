"""Interval graph recognition and exact interval vertex deletion.

Recognition follows the Fulkerson-Gross characterization: a graph is
interval iff it is chordal and its clique matrix (vertices x maximal
cliques) has the consecutive ones property. The deletion solver is an
exact branch-and-search: it branches over an obstruction witness (a
shortest chordless cycle, or the paths of an asteroidal triple), which
every deletion set must meet, so the answer is exact regardless of input
shape. The search works on the input graph's adjacency masks, and a node
is the mask of the vertex positions still present, which also fixes its
budget; positions ascend with labels, so every "smallest label first"
tie-break is a "lowest bit first" one. It asks an interval test on that
mask, which the d-COS-R solver replaces by a consecutive-ones test of its
leaf matrix; MCS then only picks the witness, until a node is chordal: its
descendants are too, and skip it (the graph test's own verdict says which
nodes are); below it, a scan for asteroidal triples, resumed at the
parent's triple, stands in for the test wherever budget is left. Failed
nodes are remembered with their subtree sizes, so no deletion set is
searched twice (see ``branch``). The search takes and returns position
masks, from a start mask and with a memo that the caller owns: the d-COS-R
solver searches one graph per solve and identity shift from each leaf's
live mask, with one memo per graph. ``interval_deletion`` and
``minimalize_solution`` turn labels into positions and back.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from .cop import _cop_positions
from .errors import ContractError
# ``is_chordal`` stays importable from here: the benchmark's tracer wraps
# ``cosr.interval.is_chordal`` by name.
from .graphs import Graph, _maximal, _mcs_order, _peo_cliques, is_chordal  # noqa: F401
from .matrix import BinaryMatrix, _bits

_IntervalTest = Callable[[int], bool | None]  # truthy iff the subgraph on these live positions is interval
_Triple = tuple[int, int, int]


def clique_matrix(G: Graph, cliques: list[frozenset[int]]) -> BinaryMatrix:
    """Vertices-by-cliques incidence matrix; rows carry the vertex labels."""
    rows = []
    for v in G.vertices:
        mask = 0
        for j, clique in enumerate(cliques):
            if v in clique:
                mask |= 1 << j
        rows.append(mask)
    return BinaryMatrix(
        row_ids=G.vertices,
        col_ids=tuple(range(1, len(cliques) + 1)),
        rows=tuple(rows),
    )


def _chordal_interval(adj: list[int], live: int) -> bool | None:
    """Whether the subgraph induced on ``live`` is interval: chordal, and
    its clique matrix has consecutive ones. None when it is not chordal."""
    cliques = _peo_cliques(adj, _mcs_order(adj, live))
    if cliques is None:
        return None
    cliques = _maximal(cliques)
    rows = [0] * len(adj)
    for j, clique in enumerate(cliques):
        for v in _bits(clique):
            rows[v] |= 1 << j
    return _cop_positions(rows, len(cliques)) is not None


def _mask(G: Graph, labels) -> int:
    """Positions of the given labels; labels outside ``G`` are ignored."""
    return sum(1 << G._index[v] for v in set(labels) if v in G._index)


def is_interval(G: Graph) -> bool:
    """True iff ``G`` is an interval graph."""
    return bool(_chordal_interval(G._adj, (1 << G.n) - 1))


def _bfs_path(adj: list[int], allowed: int, start: int, goal: int) -> list[int] | None:
    """Shortest start-goal path inside ``allowed``; ties prefer low positions."""
    parent = {start: start}
    seen = 1 << start
    frontier = [start]
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            new = adj[u] & allowed & ~seen
            seen |= new
            while new:
                low = new & -new
                new ^= low
                w = low.bit_length() - 1
                parent[w] = u
                if w == goal:
                    path = [w]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    return path[::-1]
                nxt.append(w)
        frontier = nxt
    return None


def _shortest_hole(adj: list[int], live: int) -> list[int] | None:
    """A shortest chordless cycle of length >= 4, in cyclic order.

    For every vertex v and non-adjacent pair x, y of its neighbors, the
    shortest x-y path avoiding the rest of N[v] closes a chordless cycle
    through v; minimizing over all choices yields a shortest hole. The
    first one found is kept among equals, so the scan stops at the first
    4-cycle: no hole is shorter, and only a strictly shorter cycle would
    replace it.
    """
    best: list[int] | None = None
    for v in _bits(live):
        nbrs = adj[v] & live
        for x in _bits(nbrs):
            for y in _bits(nbrs & ~adj[x] & ~((2 << x) - 1)):
                path = _bfs_path(adj, (live & ~nbrs & ~(1 << v)) | 1 << x | 1 << y, x, y)
                if path is not None and (best is None or len(path) + 1 < len(best)):
                    best = [v] + path
                    if len(best) == 4:
                        return best
    return best


def _asteroidal_witness(adj: list[int], live: int, after: _Triple = (0, 0, 0)) -> tuple[int, _Triple] | None:
    """Vertices of an asteroidal triple plus its three connecting paths, and
    the triple; None when there is none.

    A triple of pairwise non-adjacent vertices is asteroidal when every
    pair is joined by a path avoiding the closed neighborhood of the
    third; interval graphs contain none, so any feasible deletion set
    must meet the witness vertex set returned here. Triples are tried in
    lexicographic order of position, from ``after`` on (see ``branch``).

    For a and b outside N[c], an a-b path avoiding N[c] exists iff a and
    b lie in one component of G - N[c]. So per pair a < b, only the c > b
    outside N[a] and N[b] that lie in a's component of G - N[b] and in b's
    component of G - N[a] are tested, ascending, for b in a's component
    of G - N[c]: the first triple found is the lexicographically first.
    Each component of a G - N[z] is built once, when first asked, and
    paths only for that triple.
    """
    components: dict[tuple[int, int], int] = {}  # (z, u): u's component of G - N[z]

    def component(z: int, u: int) -> int:
        if (z, u) not in components:
            rest = live & ~adj[z] & ~(1 << z)
            reach = frontier = 1 << u
            while frontier:
                grow = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    grow |= adj[low.bit_length() - 1]
                frontier = grow & rest & ~reach
                reach |= frontier
            spread = reach
            while spread:
                low = spread & -spread
                spread ^= low
                components[z, low.bit_length() - 1] = reach
        return components[z, u]

    a0, b0, c0 = after
    for a in _bits(live & -(1 << a0)):
        for b in _bits(live & ~adj[a] & -(2 << a) & (-(1 << b0) if a == a0 else -1)):
            far = live & ~adj[a] & ~adj[b] & -(2 << b)
            if a == a0 and b == b0:
                far &= -(1 << c0)
            if far:
                far &= component(b, a)
            if far:
                far &= component(a, b)
            while far:
                low = far & -far
                far ^= low
                c = low.bit_length() - 1
                if component(c, a) >> b & 1:
                    witness = 0
                    for s, t, z in ((a, b, c), (a, c, b), (b, c, a)):
                        for v in _bfs_path(adj, live & ~adj[z] & ~(1 << z), s, t):
                            witness |= 1 << v
                    return witness, (a, b, c)
    return None


def interval_deletion(G: Graph, d: int, *, forbidden: frozenset[int] = frozenset()) -> frozenset[int] | None:
    """An inclusion-minimal set of at most ``d`` vertices whose removal
    leaves an interval graph, or None when no such set exists.

    Exact: None is returned only on genuinely infeasible instances. A
    negative budget is infeasible by definition. Branching explores
    witness vertices in ascending label order, so results are
    deterministic. Vertices in ``forbidden`` are never deleted, which
    restricts the search to solutions avoiding them (None then means no
    such restricted solution exists).
    """
    removed, _ = _interval_deletion(
        G._adj, (1 << G.n) - 1, d, _mask(G, forbidden), partial(_chordal_interval, G._adj), {}, True)
    return None if removed is None else G.labels(removed)


def _interval_deletion(
    adj: list[int], start: int, d: int, forbidden: int, interval: _IntervalTest, failed: dict[int, int],
    chordal: bool,
) -> tuple[int | None, int]:
    """``interval_deletion`` over positions: the deletion mask for the
    subgraph induced on ``start``, never holding a ``forbidden`` position,
    plus the number of branch nodes the search without the memo would run.
    ``interval`` is the graph test, or a stand-in that agrees with it on
    every deletion set outside ``forbidden``; ``chordal`` says its verdicts
    are None exactly on the nodes with a hole, as the graph test's are. A
    branch node is its live mask: its budget is d less the positions of
    ``start`` it lacks. ``failed`` is the memo of failed nodes; a caller may
    share one memo between calls that agree on adj, ``forbidden`` and
    ``interval`` and on the budget each live mask gets."""
    if d < 0:
        return None, 0
    nodes = 0

    def branch(live: int, after: _Triple | None) -> int | None:
        # Lemma: within one search adj, forbidden, the interval test and
        # ``chordal`` are fixed, and the budget is a function of live. ``after``
        # picks the tests, not the witness: a shortest hole, else the first
        # asteroidal triple. So a live that failed once fails again after the
        # same number of nodes, which ``failed`` holds.
        # Termination: a failed live goes into ``failed`` and a success ends
        # the search, so each live mask is expanded at most once. A live is
        # ``start`` less at most d of its a allowed positions, so a search
        # expands at most sum_{k <= d} C(a, k) nodes.
        nonlocal nodes
        budget, first = d - (start & ~live).bit_count(), nodes
        nodes += failed.get(live, 1)
        if live in failed:
            return None
        # ``after`` is the asteroidal triple the parent G branched on, so G is
        # chordal, and so is this node G - v: a hole in G - v is a hole in G.
        # By Lekkerkerker and Boland a chordal graph is interval iff it has no
        # asteroidal triple: with budget to branch, the scan alone decides it.
        # An asteroidal triple of G - v is one of G (v's removal keeps the
        # three pairwise non-adjacent and only removes paths), so the node's
        # first triple is not before its parent's and the scan resumes there.
        known = after is not None and budget > 0
        verdict = None if known else interval(live)
        if verdict:
            return 0
        if budget > 0:
            if known:
                found = _asteroidal_witness(adj, live, after)
                if found is None:
                    return 0
            # On the graph test's verdicts (``chordal``) None marks a hole; on
            # a stand-in's, MCS tells.
            elif verdict is not None if chordal else _peo_cliques(adj, _mcs_order(adj, live)) is not None:
                found = _asteroidal_witness(adj, live)
                assert found is not None, "chordal non-interval graph must contain an asteroidal triple"
            else:
                hole = _shortest_hole(adj, live)
                assert hole is not None, "non-chordal graph must contain a hole"
                found = sum(1 << v for v in hole), None
            witness, after = found
            # Any feasible deletion set must meet the witness; one avoiding
            # the forbidden vertices must meet its allowed part.
            for v in _bits(witness & ~forbidden):
                sub = branch(live & ~(1 << v), after)
                if sub is not None:
                    return sub | 1 << v
        failed[live] = nodes - first
        return None

    solution = branch(start, None)
    return (None if solution is None else _minimalize(start, solution, interval)), nodes


def _minimalize(everything: int, drop: int, interval: _IntervalTest) -> int:
    """Drop positions from a feasible ``drop`` while the rest stays interval,
    highest position first."""
    if not interval(everything & ~drop):
        raise ContractError("deletion set does not leave an interval graph")
    for v in reversed(list(_bits(drop))):
        if interval(everything & ~(drop & ~(1 << v))):
            drop &= ~(1 << v)
    return drop


def minimalize_solution(G: Graph, deleted: frozenset[int]) -> frozenset[int]:
    """Shrink a feasible deletion set until it is inclusion-minimal.

    Redundant vertices are discarded highest label first, which keeps
    the smallest-labeled representative when several single vertices
    would do. Requires that ``G`` minus ``deleted`` is already interval.
    """
    return G.labels(_minimalize((1 << G.n) - 1, _mask(G, deleted), partial(_chordal_interval, G._adj)))
