"""Simple undirected graphs and the structure detectors behind the solver.

Vertices are integer labels; adjacency is kept as one bitmask per vertex
over sorted-label positions. Derived graphs of a matrix use the row
labels as vertex labels, so matrix rows and graph vertices can be
identified without translation tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ContractError, ParseError
from .matrix import BinaryMatrix, _bits, _logical_lines, support


class Graph:
    """Immutable simple graph over integer vertex labels."""

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[tuple[int, int]] = (),
    ):
        self._vertices = tuple(sorted(set(vertices)))
        self._index = {v: i for i, v in enumerate(self._vertices)}
        self._adj = [0] * len(self._vertices)
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u not in self._index or v not in self._index:
                raise ValueError(f"edge ({u}, {v}) references a missing vertex")
            self._adj[self._index[u]] |= 1 << self._index[v]
            self._adj[self._index[v]] |= 1 << self._index[u]

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def n(self) -> int:
        return len(self._vertices)

    def _require(self, v: int) -> int:
        if v not in self._index:
            raise ValueError(f"unknown vertex {v}")
        return self._index[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[self._require(u)] >> self._require(v) & 1)

    def neighbors(self, v: int) -> frozenset[int]:
        mask = self._adj[self._require(v)]
        return frozenset(self._vertices[i] for i in _bits(mask))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i, u in enumerate(self._vertices):
            mask = self._adj[i] >> (i + 1)
            for off in _bits(mask):
                out.append((u, self._vertices[i + 1 + off]))
        return out

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self._adj) // 2

    def subgraph(self, keep: Iterable[int]) -> "Graph":
        keep = set(keep)
        for v in keep:
            self._require(v)
        edges = [(u, v) for u, v in self.edges() if u in keep and v in keep]
        return Graph(keep, edges)

    def without(self, drop: Iterable[int]) -> "Graph":
        drop = set(drop)
        return self.subgraph(set(self._vertices) - drop)

    def common_neighbor_mask(self, members: Iterable[int]) -> int:
        mask = (1 << self.n) - 1
        mem = 0
        for v in members:
            i = self._require(v)
            mask &= self._adj[i]
            mem |= 1 << i
        return mask & ~mem

    def labels(self, mask: int) -> frozenset[int]:
        return frozenset(self._vertices[i] for i in _bits(mask))

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self._vertices == other._vertices
            and self._adj == other._adj
        )

    def __repr__(self):
        return f"Graph({list(self._vertices)}, {self.edges()})"


@dataclass(frozen=True)
class HellyViolation:
    """Three pairwise-intersecting row sets breaking an interval necessity.

    ``kind`` is "H1" when the triple has an empty common intersection and
    "H2" when none of the three sets lies inside the union of the other
    two. Rows of a matrix with the consecutive ones property can exhibit
    neither.
    """

    rows: tuple[int, int, int]
    kind: str


def derived_graph(M: BinaryMatrix) -> Graph:
    """One vertex per row; an edge where two rows share a 1-column."""
    edges = []
    for j in range(M.n):
        bit = 1 << j
        members = [label for label, mask in zip(M.row_ids, M.rows) if mask & bit]
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                edges.append((members[a], members[b]))
    return Graph(M.row_ids, edges)


def vert(M: BinaryMatrix, col: int) -> frozenset[int]:
    """Vertices of the derived graph whose rows support ``col``."""
    return support(M, col)


def find_helly_violation(M: BinaryMatrix) -> HellyViolation | None:
    """First row triple (in matrix row order) violating H1 or H2.

    Each row is its column mask. H1 is tested before H2 on each triple;
    triples are scanned in lexicographic order of row position so the
    result is deterministic.
    """
    rows = M.rows
    for i, a in enumerate(rows):
        for j in range(i + 1, len(rows)):
            b = rows[j]
            if not a & b:
                continue
            for k in range(j + 1, len(rows)):
                c = rows[k]
                if not (a & c and b & c):
                    continue
                triple = (M.row_ids[i], M.row_ids[j], M.row_ids[k])
                if not a & b & c:
                    return HellyViolation(triple, "H1")
                if a & ~(b | c) and b & ~(a | c) and c & ~(a | b):
                    return HellyViolation(triple, "H2")
    return None


def pair_subgraph(M: BinaryMatrix, col_a: int, col_b: int) -> Graph:
    """Subgraph of the derived graph induced on vert(col_a) | vert(col_b)."""
    if col_a == col_b:
        raise ValueError("pair subgraph needs two distinct columns")
    keep = vert(M, col_a) | vert(M, col_b)
    return derived_graph(M).subgraph(keep)


def find_c4(G: Graph) -> tuple[int, int, int, int] | None:
    """An induced 4-cycle in cyclic order, or None.

    Scans non-adjacent vertex pairs in ascending label order for two
    non-adjacent common neighbors, so the first hit is deterministic.
    """
    vs = G.vertices
    for ai, a in enumerate(vs):
        for c in vs[ai + 1 :]:
            if G.has_edge(a, c):
                continue
            common = sorted(G.neighbors(a) & G.neighbors(c))
            for bi, b in enumerate(common):
                for d in common[bi + 1 :]:
                    if not G.has_edge(b, d):
                        return (a, b, c, d)
    return None


def _mcs_order(adj: list[int], live: int) -> list[int]:
    """Maximum-cardinality search over the ``live`` positions, reversed.

    ``adj`` holds one neighbor mask per position. Ties go to the lowest
    position. The result is a perfect elimination ordering exactly when
    the subgraph induced on ``live`` is chordal.
    """
    weight = [0] * len(adj)
    visit: list[int] = []
    while live:
        v = max(_bits(live), key=weight.__getitem__)
        visit.append(v)
        live &= ~(1 << v)
        for u in _bits(adj[v] & live):
            weight[u] += 1
    visit.reverse()
    return visit


def _is_peo(adj: list[int], order: list[int]) -> bool:
    """True iff the later neighbors of every position in ``order`` form a clique."""
    later = 0
    for v in reversed(order):
        nbrs = adj[v] & later
        for u in _bits(nbrs):
            if nbrs & ~adj[u] & ~(1 << u):
                return False
        later |= 1 << v
    return True


def _clique_masks(adj: list[int], peo: list[int]) -> list[int]:
    """The maximal cliques of a chordal graph, given a perfect elimination ordering."""
    later = 0
    candidates = set()
    for v in reversed(peo):
        candidates.add(adj[v] & later | 1 << v)
        later |= 1 << v
    return [c for c in candidates if not any(c != o and c & o == c for o in candidates)]


def is_chordal(G: Graph) -> tuple[int, ...] | None:
    """A perfect elimination ordering found by maximum-cardinality search.

    Returns None when the verification of the candidate ordering fails,
    which happens exactly on non-chordal graphs. Ties in the search are
    broken toward the smallest label, so chordal graphs always map to the
    same ordering.
    """
    order = _mcs_order(G._adj, (1 << G.n) - 1)
    if not _is_peo(G._adj, order):
        return None
    return tuple(G.vertices[i] for i in order)


def maximal_cliques_chordal(G: Graph, peo: tuple[int, ...]) -> list[frozenset[int]]:
    """All maximal cliques of a chordal graph, via its elimination order."""
    order = [G._index[v] for v in peo] if sorted(peo) == list(G.vertices) else None
    if order is None or not _is_peo(G._adj, order):
        raise ContractError("not a perfect elimination ordering of this graph")
    return sorted((G.labels(c) for c in _clique_masks(G._adj, order)), key=sorted)


def is_simplicial(G: Graph, v: int) -> bool:
    """True iff the neighborhood of ``v`` induces a clique."""
    nbrs = G._adj[G._require(v)]
    return all(nbrs & ~(G._adj[u] | 1 << u) == 0 for u in _bits(nbrs))


def find_uncovered_clique(
    M: BinaryMatrix,
) -> tuple[frozenset[int], frozenset[int]] | None:
    """A maximal clique of the derived graph not realized by any column.

    Assumes no Helly violation and no induced 4-cycle in any column-pair
    subgraph, which makes every pair subgraph chordal and lets the pair
    scan enumerate every maximal clique of the derived graph. Returns the
    first uncovered clique Q (in canonical member order) together with an
    inclusion-minimal Q' of Q contained in no column's vertex set,
    obtained by greedy removal in ascending label order. None when every
    maximal clique equals some column's vertex set.

    Isolated vertices coming from all-zero rows belong to no column and
    are deliberately not treated as uncovered cliques; they cannot affect
    whether the matrix can reach the consecutive ones property.
    """
    G = derived_graph(M)
    verts = [vert(M, c) for c in M.col_ids]
    candidates: set[frozenset[int]] = set()
    for i in range(M.n):
        for j in range(i + 1, M.n):
            sub = G.subgraph(verts[i] | verts[j])
            peo = is_chordal(sub)
            if peo is None:
                raise ContractError(
                    f"pair subgraph of columns {M.col_ids[i]}, {M.col_ids[j]} is not chordal"
                )
            for clique in maximal_cliques_chordal(sub, peo):
                if G.common_neighbor_mask(clique) == 0:
                    candidates.add(clique)

    def covered(group: frozenset[int]) -> bool:
        return any(group <= vs for vs in verts)

    for clique in sorted(candidates, key=sorted):
        if covered(clique):
            continue
        minimal = set(clique)
        for v in sorted(clique):
            if len(minimal) > 1 and not covered(frozenset(minimal - {v})):
                minimal.discard(v)
        assert len(minimal) >= 3, "two clique members always share a column"
        return clique, frozenset(minimal)
    return None


def parse_graph(text: str) -> Graph:
    """Parse the graph file format: header "n m", then m lines "u v"."""
    lines = _logical_lines(text)
    try:
        header_no, header = next(lines)
    except StopIteration:
        raise ParseError(1, "missing header") from None
    parts = header.split()
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise ParseError(header_no, f"expected header 'n m', got {header!r}")
    n, m = int(parts[0]), int(parts[1])
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for _ in range(m):
        try:
            no, line = next(lines)
        except StopIteration:
            raise ParseError(header_no, f"expected {m} edges, found {len(edges)}") from None
        parts = line.split()
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ParseError(no, f"expected edge 'u v', got {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if not (1 <= u < v <= n):
            raise ParseError(no, f"edge ({u}, {v}) must satisfy 1 <= u < v <= {n}")
        if (u, v) in seen:
            raise ParseError(no, f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))
    extra = next(lines, None)
    if extra is not None:
        raise ParseError(extra[0], "trailing content after last edge")
    return Graph(range(1, n + 1), edges)


def serialize_graph(G: Graph) -> str:
    """Graph file text; vertices are renumbered 1..n by sorted label."""
    relabel = {v: i + 1 for i, v in enumerate(G.vertices)}
    lines = [f"{G.n} {G.edge_count()}"]
    for u, v in G.edges():
        a, b = sorted((relabel[u], relabel[v]))
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"
