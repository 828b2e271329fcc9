"""Branching solver for consecutive-ones row deletion.

Given a binary matrix and a budget d, decide whether deleting at most d
rows leaves a matrix with the consecutive ones property, and produce the
rows plus a column-order certificate when it does. Each search node first
tries the cheap exits (budget exhausted; already consecutive-ones), then
fires the first applicable of three branching rules. Below the root rule
1's scan comes first, since its hit refutes consecutive ones:

1. three pairwise-intersecting row sets with an empty common
   intersection, or none of which lies in the union of the other two
   (no interval family can realize either pattern);
2. an induced 4-cycle inside the subgraph spanned by two columns'
   vertex sets (forbidden in any interval graph);
3. a maximal clique of the derived graph realized by no column,
   shrunk to an inclusion-minimal uncovered core.

A search node is the input minus the rows deleted on its path, held as a
mask of live row positions over one row incidence built per solve: rules
1-3 scan that incidence through the mask, one pass over the column pairs
deciding rules 2 and 3, and step 0 tests the kept row masks for consecutive
ones. Each rule deletes one row per child and lowers the budget, so the
branch tree has at most 4^d internal splits. When no rule applies, the node
builds its matrix, the only node that does; the identity augmentation turns
it into the clique matrix of its derived graph and the residue is solved
exactly as interval vertex deletion. Row deletion keeps that
correspondence, so the leaf search tests its live rows for consecutive ones
instead of testing the graph for intervality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

# ``cop_order``, ``find_helly_violation``, ``find_uncovered_clique``,
# ``interval_deletion`` and ``set_system`` stay here for the benchmark's
# tracer, which wraps them in ``cosr.solver`` by name. The leaf reads
# ``_LEAF_NODE_LIMIT`` from this module, so a test can patch it.
from .graphs import Graph, _helly_scan, _incidence, _scan_column_pairs, derived_graph, find_c4, pair_subgraph
from .graphs import find_helly_violation, find_uncovered_clique  # noqa: F401
from .interval import _NODE_LIMIT as _LEAF_NODE_LIMIT, _interval_deletion, interval_deletion  # noqa: F401
from .cop import _consecutive, _cop_positions, cop_order  # noqa: F401
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
    pair, _ = _scan_column_pairs(M, *_incidence(M.rows, M.n), (1 << M.m) - 1)
    return None if pair is None else _rule2_c4(M, pair, 0)


def _rule2_c4(M: BinaryMatrix, pair: tuple[int, int], dead: int) -> tuple[int, ...] | None:
    """``find_c4`` on ``pair_subgraph`` of M without the rows at the
    positions in ``dead``: an induced subgraph of an induced subgraph, so
    the same graph, labels and first hit as on M with those rows deleted."""
    return find_c4(pair_subgraph(M, *pair).without(M.row_ids[p] for p in _bits(dead)))


def _kept(rows: tuple[int, ...], dead: int) -> tuple[int, ...]:
    """``rows`` without the at most d positions in ``dead``, sliced out at C speed."""
    for p in reversed([*_bits(dead)]):
        rows = rows[:p] + rows[p + 1 :]
    return rows


def _solve(
    M: BinaryMatrix,
    d: int,
    stats: SolveStats,
    on_leaf: Callable[[BinaryMatrix, int], None] | None,
) -> tuple[int, tuple[int, ...], list[int]] | None:
    """The mask of deleted positions, the kept rows and the column positions
    of a consecutive-ones survivor, or None, from a depth-first search on an
    explicit stack: no recursion limit applies."""
    # A node is M minus the rows deleted on its path, and ``live`` marks the
    # positions in M of the rows it keeps. Lemma: every scan reads rows only
    # through ``live`` and visits them in ascending position, and it breaks
    # ties by label, so it sees and answers exactly what it would on M with
    # the other rows deleted, in the same order.
    full = (1 << M.m) - 1
    stack: list[tuple[int, int, int]] = [(full, d, 0)]
    while stack:
        live, budget, helly_start = stack.pop()
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
        hit = None if root else _helly_scan(M.rows, meets, live & -(1 << helly_start))
        if hit is None:
            kept = _kept(M.rows, full ^ live)
            positions = _cop_positions(kept, M.n)
            if positions is not None:
                return full ^ live, kept, positions
            if root:
                cols, meets = _incidence(M.rows, M.n)
                hit = _helly_scan(M.rows, meets, live)

        branch_rows: Iterable[int] | None = None
        # A child's triples are its parent's that avoid the deleted row, and
        # a triple's verdict depends on its three rows alone. So below a
        # rule-1 node whose first hit is (i, j, k), the child's scan may
        # start at position i; below a Helly-clean node, past the last row.
        child_start = M.m
        if hit is not None:
            stats.rule1 += 1
            branch_rows = [M.row_ids[p] for p in hit[0]]
            child_start = hit[0][0]
        else:
            # A pair subgraph is chordal iff it has no induced C4: its two
            # columns' rows are cliques covering it, and a hole meets a
            # clique in at most two vertices. So one pass decides rules 2 and
            # 3, and it stops at the first pair on which ``find_c4`` hits.
            pair, uncovered = _scan_column_pairs(M, cols, meets, live)
            if pair is not None:
                stats.rule2 += 1
                branch_rows = _rule2_c4(M, pair, full ^ live)
            elif uncovered is not None:
                stats.rule3 += 1
                _, core = uncovered
                # Three core rows suffice even when the core has k > 3.
                # Minimality gives each core row S_i a column c_i lying in
                # every other core row but not in S_i. In a COP column
                # order every kept S_i is an interval that misses c_i,
                # while every other kept row contains c_i. So S_i alone
                # starts rightmost, or alone ends leftmost, among the
                # kept rows; each role fits one row, so at most 2 core
                # rows survive. Every solution deletes >= k - 2 of the k
                # core rows, hence at least one of any 3.
                branch_rows = sorted(core)[:3]

        if branch_rows is not None:
            # Popped in ascending row order, each subtree before the next.
            for row in sorted(branch_rows, reverse=True):
                stack.append((live & ~(1 << M.row_index[row]), budget - 1, child_start))
            continue

        # Step 5: no rule applies; the augmented matrix is the clique matrix
        # of its derived graph and the residue reduces to interval deletion.
        # Deletion is confined to original-row vertices: an unrestricted
        # solution may consume budget on identity vertices without making
        # the matrix side feasible, and restricting loses no exactness
        # because the three-rule-clean state survives original-row deletion.
        stats.leaves += 1
        matrix = delete_rows(M, [M.row_ids[p] for p in _bits(full ^ live)])
        if on_leaf is not None:
            on_leaf(matrix, budget)
        aug = augment(matrix)
        graph = derived_graph(aug)
        # Lemma: for a set S of original rows, G - S is interval iff
        # delete_rows(matrix, S) has COP, with G the derived graph of aug.
        # (<=) COP rows are intervals of one column order.
        # (=>) Up to all-zero rows, isolated vertices that change neither
        #   side, aug is the clique matrix of G. Each column's identity
        #   vertex keeps that column minus S a maximal clique of G - S, so
        #   aug - S is the clique matrix of G - S and Fulkerson-Gross
        #   applies. Identity rows hold one 1, so the test leaves them out.
        rows = [0 if v in aug.identity_rows else aug.row_mask(v) for v in graph.vertices]
        removed, nodes, fell_back = _interval_deletion(
            graph, budget, _LEAF_NODE_LIMIT, aug.identity_rows,
            lambda live: _cop_positions([rows[p] for p in _bits(live)], M.n) is not None)
        stats.leaf_nodes += nodes
        stats.leaf_fallbacks += fell_back
        # Step 6: derived-graph vertices carry the row labels, so ``removed``
        # already names rows of M. By the lemma the survivor has COP; its
        # kept rows are tested in storage order, as step 0 tests a node's.
        if removed is not None:
            assert not removed & aug.identity_rows
            dead = (full ^ live) | sum(1 << M.row_index[r] for r in removed)
            kept = _kept(M.rows, dead)
            positions = _cop_positions(kept, M.n)
            assert positions is not None
            return dead, kept, positions
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
    dead, kept, positions = found
    solution = frozenset(M.row_ids[p] for p in _bits(dead))
    assert len(solution) <= d
    # Step 0 ran on the kept rows in storage order, so the certificate is
    # the one ``cop_order(delete_rows(M, solution))`` gives.
    assert _consecutive(set(kept), positions, M.n)
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
