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

One pass over the column pairs of one derived graph decides rules 2
and 3. Each rule deletes one row per child and lowers the budget, so the
branch tree has at most 4^d internal splits. When no rule applies, the
identity augmentation turns the matrix into the clique matrix of its
derived graph and the residue is solved exactly as interval vertex deletion.
Row deletion keeps that correspondence, so the leaf search tests its live
rows for consecutive ones instead of testing the graph for intervality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

# ``find_uncovered_clique``, ``interval_deletion`` and ``set_system`` stay
# here for the benchmark's tracer, which wraps them in ``cosr.solver`` by name.
# The leaf reads ``_LEAF_NODE_LIMIT`` from this module, so a test can patch it.
from .graphs import Graph, _scan_column_pairs, derived_graph, find_c4, find_helly_violation, pair_subgraph
from .graphs import find_uncovered_clique  # noqa: F401
from .interval import _NODE_LIMIT as _LEAF_NODE_LIMIT, _interval_deletion, interval_deletion  # noqa: F401
from .cop import _cop_positions, cop_order, verify_cop
from .matrix import BinaryMatrix, _bits, augment, delete_rows, set_system  # noqa: F401


@dataclass
class SolveStats:
    """Counters describing one solver run."""

    rule1: int = 0
    rule2: int = 0
    rule3: int = 0
    leaves: int = 0
    leaf_nodes: int = 0  # interval-deletion branch nodes, summed over leaves
    leaf_fallbacks: int = 0  # leaves that outgrew the node budget

    @property
    def internal_nodes(self) -> int:
        return self.rule1 + self.rule2 + self.rule3

    def as_dict(self) -> dict[str, int]:
        return {
            "internal_nodes": self.internal_nodes,
            "leaves": self.leaves,
            "rule1": self.rule1,
            "rule2": self.rule2,
            "rule3": self.rule3,
            "leaf_nodes": self.leaf_nodes,
            "leaf_fallbacks": self.leaf_fallbacks,
        }


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
    pair, _ = _scan_column_pairs(M)
    return None if pair is None else find_c4(pair_subgraph(M, *pair))


def _solve(
    M: BinaryMatrix,
    d: int,
    stats: SolveStats,
    on_leaf: Callable[[BinaryMatrix, int], None] | None,
) -> tuple[frozenset[int], BinaryMatrix, tuple[int, ...]] | None:
    """The deleted rows, the survivor and its column order, or None, from a
    depth-first search on an explicit stack: no recursion limit applies."""
    stack: list[tuple[BinaryMatrix, int | None, frozenset[int], int, int]] = [(M, None, frozenset(), d, 0)]
    while stack:
        parent, deleted, accumulated, budget, helly_start = stack.pop()
        matrix = parent if deleted is None else delete_rows(parent, {deleted})
        # Step 1: budget exhausted.
        if budget < 0:
            continue
        # Step 0: done if the matrix already has the property. The root tries
        # it first, so an input with the property costs one call. Below the
        # root rule 1's resumed scan goes first: rows with the property are
        # intervals of one column order, and pairwise-meeting intervals form
        # no H1 or H2 triple, so after a hit ``cop_order`` could only say None.
        below_root = bool(accumulated)
        violation = find_helly_violation(matrix, helly_start) if below_root else None
        if violation is None:
            order = cop_order(matrix)
            if order is not None:
                return accumulated, matrix, order
            if not below_root:
                violation = find_helly_violation(matrix, helly_start)

        branch_rows: Iterable[int] | None = None
        # Whether a triple violates H1 or H2 depends on its three rows alone,
        # and ``delete_rows`` keeps row order, so a child's triples are its
        # parent's triples that avoid the deleted row, in the same order.
        # Below a rule-1 node, every parent triple before the first hit
        # (i, j, k) is clean and the rows before position i are unchanged,
        # so the child's scan may start at position i. Below a rule-2 or
        # rule-3 node the parent was Helly-clean, so every child is too and
        # its scan starts past the last row.
        child_start = matrix.m
        if violation is not None:
            stats.rule1 += 1
            branch_rows = violation.rows
            child_start = matrix.row_ids.index(violation.rows[0])
        else:
            # A pair subgraph is chordal iff it has no induced C4: its two
            # columns' rows are cliques covering it, and a hole meets a
            # clique in at most two vertices. So one pass decides rules 2 and
            # 3, and it stops at the first pair on which ``find_c4`` hits.
            pair, uncovered = _scan_column_pairs(matrix)
            if pair is not None:
                stats.rule2 += 1
                branch_rows = find_c4(pair_subgraph(matrix, *pair))
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
                stack.append((matrix, row, accumulated | {row}, budget - 1, child_start))
            continue

        # Step 5: no rule applies; the augmented matrix is the clique matrix
        # of its derived graph and the residue reduces to interval deletion.
        # Deletion is confined to original-row vertices: an unrestricted
        # solution may consume budget on identity vertices without making
        # the matrix side feasible, and restricting loses no exactness
        # because the three-rule-clean state survives original-row deletion.
        stats.leaves += 1
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
            lambda live: _cop_positions([rows[p] for p in _bits(live)], matrix.n) is not None)
        stats.leaf_nodes += nodes
        stats.leaf_fallbacks += fell_back
        # Step 6: derived-graph vertices carry the row labels, so ``removed``
        # already names rows of the original matrix.
        if removed is not None:
            assert not removed & aug.identity_rows
            survivor = delete_rows(matrix, removed)
            return accumulated | removed, survivor, cop_order(survivor)
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
    solution, survivor, certificate = found
    assert len(solution) <= d
    # The certificate is the one ``cop_order(delete_rows(M, solution))``
    # would give: every node's matrix equals ``delete_rows(M, accumulated)``
    # (same labels, same order, same masks), and ``cop_order`` is a
    # function of that value.
    assert survivor.row_ids == tuple(r for r in M.row_ids if r not in solution)
    assert certificate is not None and verify_cop(survivor, certificate)
    return SolveReport(True, solution, certificate, stats)


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
