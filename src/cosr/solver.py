"""Branching solver for consecutive-ones row deletion.

Given a binary matrix and a budget d, decide whether deleting at most d
rows leaves a matrix with the consecutive ones property, and produce the
rows plus a column-order certificate when it does. Each search node first
tries the cheap exits (budget exhausted; already consecutive-ones), then
fires the first applicable of three branching rules. Below the root rule
1's scan comes first, since its hit refutes consecutive ones:

1. three pairwise-intersecting row sets with an empty common
   intersection, or none of which lies in the union of the other two
   (no interval family can realize either pattern, and a triple with one
   set inside another shows neither, so the scan skips such triples);
2. an induced 4-cycle inside the subgraph spanned by two columns'
   vertex sets (forbidden in any interval graph);
3. a maximal clique of the derived graph realized by no column,
   shrunk to an inclusion-minimal uncovered core.

A search node is the input minus the rows deleted on its path, held as a
mask of live row positions over one row incidence built per solve: rules
1-3 scan that incidence through the mask, rule 1 reading one candidate
mask per row and one pass over the column pairs deciding rules 2 and 3,
and step 0 tests the kept row masks for consecutive ones. The children of
a rule-3 node skip that pass: they inherit its maximal cliques, less the
deleted row. Each rule deletes one row per child and lowers the budget, so
the branch tree has at most 4^d internal splits. When no rule applies, the
identity augmentation turns the node's rows into the clique matrix of its
derived graph and the residue is solved exactly as interval vertex
deletion. Row deletion keeps that correspondence, so the leaf search tests
its live rows for consecutive ones instead of testing the graph for
intervality. A solve builds one augmented graph for its leaves (two, when
some keep a row labelled -n..-1 and some do not), as adjacency masks and a
map from graph to row positions; each leaf searches it from its own live
mask, and the leaves on one graph share one memo of failed deletion sets.
Every layer below ``cos_r`` takes and returns positions, and labels only
break ties; a leaf builds its matrix only for the ``on_leaf`` hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable

# ``cop_order``, ``find_c4``, ``find_helly_violation``,
# ``find_uncovered_clique``, ``interval_deletion``, ``pair_subgraph`` and
# ``set_system`` stay here for the benchmark's tracer, which wraps them in
# ``cosr.solver`` by name.
from .graphs import Graph, _c4, _helly_candidates, _helly_scan, _incidence, _inherited_cliques
from .graphs import _scan_column_pairs, _uncovered_core, derived_graph
from .graphs import find_c4, find_helly_violation, find_uncovered_clique, pair_subgraph  # noqa: F401
from .interval import _interval_deletion, interval_deletion  # noqa: F401
from .cop import _cop_positions, cop_order  # noqa: F401
from .matrix import BinaryMatrix, _bits, augment, delete_rows, set_system  # noqa: F401


@dataclass
class SolveStats:
    """Counters describing one solver run."""

    leaves: int = 0  # the fields in the order ``as_dict`` lists them
    rule1: int = 0
    rule2: int = 0
    rule3: int = 0
    leaf_nodes: int = 0  # interval-deletion branch nodes, summed over leaves
    leaf_fallbacks: int = 0  # leaves that outgrew the node budget

    @property
    def internal_nodes(self) -> int:
        return self.rule1 + self.rule2 + self.rule3

    def as_dict(self) -> dict[str, int]:
        return {"internal_nodes": self.internal_nodes, **vars(self)}


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solver run.

    On YES, ``solution`` holds row labels of the original matrix whose
    deletion leaves a consecutive-ones matrix and ``certificate`` is a
    verified column order for the surviving matrix.
    """

    feasible: bool
    solution: frozenset[int] | None
    certificate: tuple[int, ...] | None
    stats: SolveStats = field(default_factory=SolveStats)

    def to_text(self) -> str:
        if not self.feasible:
            return "NO\n"
        rows = " ".join(str(r) for r in sorted(self.solution))
        cert = " ".join(str(c) for c in self.certificate)
        return f"YES\n{rows}\n{cert}\n"


def _find_rule2_cycle(M: BinaryMatrix) -> tuple[int, ...] | None:
    """Rows of the first induced 4-cycle over all column-pair subgraphs."""
    cols, meets = _incidence(M.rows, M.n)
    pair, _ = _scan_column_pairs(cols, meets, (1 << M.m) - 1)
    if pair is None:
        return None
    return tuple(M.row_ids[p] for p in _rule2_c4(M.row_ids, meets, cols[pair[0]] | cols[pair[1]]))


def _rule2_c4(ids: tuple[int, ...], meets: list[int], group: int) -> list[int]:
    """Positions of the cycle ``find_c4`` finds on the derived graph of the
    rows at the positions in ``group``, whose vertices go in label order."""
    order = sorted(_bits(group), key=ids.__getitem__)
    bit = {p: 1 << v for v, p in enumerate(order)}
    return [order[v] for v in _c4([sum(bit[q] for q in _bits(meets[p] & group) if q != p) for p in order])]


def _kept(rows: tuple[int, ...], dead: int) -> tuple[int, ...]:
    """``rows`` without the at most d positions in ``dead``, sliced out at C speed."""
    for p in reversed([*_bits(dead)]):
        rows = rows[:p] + rows[p + 1 :]
    return rows


_LeafGraph = tuple[list[int], int, dict[int, int], list[int], list[int], dict[int, int]]


def _leaf_graph(M: BinaryMatrix, shifted: bool) -> _LeafGraph:
    """The adjacency masks of the derived graph of ``augment(M)``, or if not
    ``shifted`` of the augmentation of M without its rows labelled -n..-1;
    the mask of its identity vertices; the graph bit of each row of M it
    keeps, keyed by position in M; the position in M of each vertex, -1 for
    an identity vertex; the row masks by vertex, 0 for identity rows; and an
    empty memo of failed nodes."""
    drop = [] if shifted else [r for r in M.row_ids if -M.n <= r < 0]
    aug = augment(delete_rows(M, drop) if drop else M)
    graph = derived_graph(aug)
    at = [-1 if v in aug.identity_rows else M.row_index[v] for v in graph.vertices]
    place = {p: 1 << v for v, p in enumerate(at) if p >= 0}
    identity = sum(1 << v for v, p in enumerate(at) if p < 0)
    return graph._adj, identity, place, at, [M.rows[p] if p >= 0 else 0 for p in at], {}


def _solve(
    M: BinaryMatrix,
    d: int,
    stats: SolveStats,
    on_leaf: Callable[[BinaryMatrix, int], None] | None,
) -> tuple[int, list[int]] | None:
    """The mask of deleted positions and the column positions of a
    consecutive-ones survivor, or None, from a depth-first search on an
    explicit stack: no recursion limit applies."""
    # A node is M minus the rows deleted on its path, and ``live`` marks the
    # positions in M of the rows it keeps. Lemma: every scan reads rows only
    # through ``live`` and visits them in ascending position, and it breaks
    # ties by label, so it sees and answers exactly what it would on M with
    # the other rows deleted, in the same order.
    ids, full = M.row_ids, (1 << M.m) - 1
    stack: list[tuple[int, int, int, Collection[int] | None]] = [(full, d, 0, None)]
    leaf_graphs: dict[bool, _LeafGraph] = {}
    while stack:
        live, budget, helly_start, cliques = stack.pop()
        # Step 1: budget exhausted.
        if budget < 0:
            continue
        # Step 0: done if the matrix already has the property. The root tries
        # it first, so an input with the property costs one call and builds
        # no incidence. Below the root rule 1's resumed scan goes first: rows
        # with the property are intervals of one column order, and
        # pairwise-meeting intervals form no H1 or H2 triple, so after a hit
        # step 0 could only say None.
        root = live == full
        hit = None if root else _helly_scan(M.rows, cand, live & -(1 << helly_start))
        if hit is None:
            positions = _cop_positions(_kept(M.rows, full ^ live), M.n)
            if positions is not None:
                return full ^ live, positions
            if root:
                cols, meets = _incidence(M.rows, M.n)
                cand = _helly_candidates(cols, meets)
                hit = _helly_scan(M.rows, cand, live)

        branch: Iterable[int] | None = None
        inherited = None
        # A child's triples are its parent's that avoid the deleted row, and
        # a triple's verdict depends on its three rows alone. So below a
        # rule-1 node whose first hit is (i, j, k), the child's scan may
        # start at position i; below a Helly-clean node, past the last row.
        child_start = M.m
        if hit is not None:
            stats.rule1 += 1
            branch = hit[0]
            child_start = hit[0][0]
        else:
            # A pair subgraph is chordal iff it has no induced C4: its two
            # columns' rows are cliques covering it, and a hole meets a
            # clique in at most two vertices. So one pass decides rules 2 and
            # 3, and it stops at the first pair on which ``find_c4`` hits.
            if cliques is None:
                pair, cliques = _scan_column_pairs(cols, meets, live)
            else:
                # A rule-3 child is its parent G minus one row r. Its triples
                # and pair subgraphs are induced ones of G's, so rule 1 stays
                # clean and the pair subgraphs stay chordal. With rules 1 and
                # 2 clean, G's scan listed every maximal clique Q of G (see
                # ``find_uncovered_clique``), and the maximal cliques of G - r
                # are the maximal nonempty sets among {Q - r}: a maximal
                # clique K of G - r lies in some Q, so K = Q - r, and a clique
                # past a maximal Q - r lies in some Q' - r past it. So these
                # are the cliques the child's scan would list.
                pair, cliques = None, _inherited_cliques(cliques, live)
            if pair is not None:
                stats.rule2 += 1
                branch = _rule2_c4(ids, meets, (cols[pair[0]] | cols[pair[1]]) & live)
            elif (uncovered := _uncovered_core(ids, cols, cliques)) is not None:
                stats.rule3 += 1
                inherited = cliques
                # Three core rows suffice even when the core has k > 3.
                # Minimality gives each core row S_i a column c_i lying in
                # every other core row but not in S_i. In a COP column
                # order every kept S_i is an interval that misses c_i,
                # while every other kept row contains c_i. So S_i alone
                # starts rightmost, or alone ends leftmost, among the
                # kept rows; each role fits one row, so at most 2 core
                # rows survive. Every solution deletes >= k - 2 of the k
                # core rows, hence at least one of any 3.
                branch = sorted(_bits(uncovered[1]), key=ids.__getitem__)[:3]

        if branch is not None:
            # Popped in ascending label order, each subtree before the next.
            for p in sorted(branch, key=ids.__getitem__, reverse=True):
                stack.append((live & ~(1 << p), budget - 1, child_start, inherited))
            continue

        # Step 5: no rule applies; the augmented matrix is the clique matrix
        # of its derived graph and the residue reduces to interval deletion.
        # Deletion is confined to original-row vertices: an unrestricted
        # solution may consume budget on identity vertices without making
        # the matrix side feasible, and restricting loses no exactness
        # because the three-rule-clean state survives original-row deletion.
        stats.leaves += 1
        if on_leaf is not None:
            on_leaf(delete_rows(M, [ids[p] for p in _bits(full ^ live)]), budget)
        # ``augment`` shifts a leaf's identity labels below its own rows iff
        # it keeps a row labelled -n..-1. Either way, in label order its
        # identity rows sit among its rows as they do in the graph of this
        # flag, so the leaf's derived graph is that graph induced on
        # ``start``, positions in the same order, and the search reads the
        # graph only through its live mask.
        shifted = any(-M.n <= ids[p] < 0 for p in _bits(live))
        if shifted not in leaf_graphs:
            leaf_graphs[shifted] = _leaf_graph(M, shifted)
        adj, identity, place, at, rows, failed = leaf_graphs[shifted]
        start = identity | sum(place[p] for p in _bits(live))
        # Lemma: for a leaf matrix L and a set S of its original rows, G - S
        # is interval iff delete_rows(L, S) has COP, with G the derived graph
        # of aug = augment(L).
        # (<=) COP rows are intervals of one column order.
        # (=>) Up to all-zero rows, isolated vertices that change neither
        #   side, aug is the clique matrix of G. Each column's identity
        #   vertex keeps that column minus S a maximal clique of G - S, so
        #   aug - S is the clique matrix of G - S and Fulkerson-Gross
        #   applies. Identity rows hold one 1, so the test leaves them out.
        # Memo key: on one flag's graph, equal live masks mean equal rows,
        # equal budget (d minus the rows deleted), equal forbidden set, equal
        # interval test and equal label order, so every leaf of this solve
        # on that graph may share one memo of failed nodes.
        removed, nodes, fell_back = _interval_deletion(
            adj, start, budget, identity,
            lambda live: _cop_positions([rows[p] for p in _bits(live)], M.n) is not None, failed, False)
        stats.leaf_nodes += nodes
        stats.leaf_fallbacks += fell_back
        # Step 6: ``at`` takes ``removed`` back to positions of M. By the
        # lemma the survivor has COP; its kept rows are tested in storage
        # order, as step 0 tests a node's.
        if removed is not None:
            assert not removed & identity
            dead = (full ^ live) | sum(1 << at[v] for v in _bits(removed))
            positions = _cop_positions(_kept(M.rows, dead), M.n)
            assert positions is not None
            return dead, positions
    return None


def cos_r(
    M: BinaryMatrix,
    d: int,
    on_leaf: Callable[[BinaryMatrix, int], None] | None = None,
) -> SolveReport:
    """Decide d-COS-R exactly and certify YES answers.

    ``on_leaf`` is an optional instrumentation hook invoked with the leaf
    matrix and remaining budget just before each interval-deletion call;
    it is meant for invariant checking in tests and must not mutate its
    arguments.
    """
    if d < 0:
        raise ValueError("deletion budget must be non-negative")
    stats = SolveStats()
    found = _solve(M, d, stats, on_leaf)
    if found is None:
        return SolveReport(False, None, None, stats)
    dead, positions = found
    solution = frozenset(M.row_ids[p] for p in _bits(dead))
    assert len(solution) <= d
    # Step 0 ran on the kept rows in storage order, so the certificate is
    # the one ``cop_order(delete_rows(M, solution))`` gives; ``_cop_positions``
    # has checked it on those rows.
    return SolveReport(True, solution, tuple(map(M.col_ids.__getitem__, positions)), stats)


def half_adjacency(G: Graph, side_one: Iterable[int]) -> BinaryMatrix:
    """The |V1| x |V2| half adjacency matrix of a bipartite graph.

    Rows are labeled by the V1 vertex labels; columns are numbered
    1..|V2| following the sorted V2 labels. An edge joining two vertices
    of the same side is rejected.
    """
    v1 = sorted(set(side_one))
    for v in v1:
        if v not in G.vertices:
            raise ValueError(f"side vertex {v} is not in the graph")
    v1_set = set(v1)
    v2 = [v for v in G.vertices if v not in v1_set]
    col_of = {v: j for j, v in enumerate(v2)}
    rows = {v: 0 for v in v1}
    for a, b in G.edges():
        if a in v1_set and b in v1_set:
            raise ValueError(f"edge ({a}, {b}) lies inside side one")
        if a not in v1_set and b not in v1_set:
            raise ValueError(f"edge ({a}, {b}) lies inside side two")
        x, y = (a, b) if a in v1_set else (b, a)
        rows[x] |= 1 << col_of[y]
    return BinaryMatrix(
        row_ids=tuple(v1),
        col_ids=tuple(range(1, len(v2) + 1)),
        rows=tuple(rows[v] for v in v1),
    )


def convex_bipartite_deletion(G: Graph, side_one: Iterable[int], d: int) -> SolveReport:
    """Delete at most ``d`` side-one vertices to make the graph convex.

    A bipartite graph is convex exactly when its half adjacency matrix
    has the consecutive ones property, so this is row deletion on that
    matrix; the returned solution holds side-one vertex labels.
    """
    return cos_r(half_adjacency(G, side_one), d)
