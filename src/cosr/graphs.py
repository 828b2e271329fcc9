"""Simple undirected graphs and the structure detectors behind the solver.

Vertices are integer labels; adjacency is kept as one bitmask per vertex
over sorted-label positions. Derived graphs of a matrix use the row
labels as vertex labels, so matrix rows and graph vertices can be
identified without translation tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Sequence

from .errors import ContractError, ParseError
from .matrix import BinaryMatrix, _bits, _expect_end, _read_header, support


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


def _incidence(rows: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """Row incidence masks over the positions in ``rows``.

    ``cols[c]`` has bit r when row r holds column c, and ``meets[r]`` has
    bit s when rows r and s share a column; a nonempty row meets itself.
    """
    cols, supports = [0] * n, [list(_bits(mask)) for mask in rows]
    for r, support_r in enumerate(supports):
        bit = 1 << r
        for c in support_r:
            cols[c] |= bit
    return cols, [reduce(or_, map(cols.__getitem__, support_r), 0) for support_r in supports]


def _helly_candidates(cols: list[int], meets: list[int]) -> list[int]:
    """``cand[r]`` has bit s when rows r and s meet and row s lacks some
    column of row r, given ``_incidence``'s ``cols`` and ``meets``."""
    sup = [-1] * len(meets)  # sup[r]: the rows holding every column of r
    for members in cols:
        rest = members
        while rest:
            low = rest & -rest
            rest ^= low
            sup[low.bit_length() - 1] &= members
    return [meet & ~held for meet, held in zip(meets, sup)]


def derived_graph(M: BinaryMatrix) -> Graph:
    """One vertex per row; an edge where two rows share a 1-column."""
    pairs = sorted(zip(M.row_ids, M.rows))  # graph positions ascend with labels
    _, meets = _incidence([mask for _, mask in pairs], M.n)
    G = Graph(label for label, _ in pairs)
    G._adj = [meet & ~(1 << v) for v, meet in enumerate(meets)]
    return G


def _helly_scan(rows: Sequence[int], cand: list[int], live: int) -> tuple[tuple[int, int, int], str] | None:
    """Positions and kind of the first triple of ``live`` rows, in order of
    position, violating H1 or H2 (H1 tested first); ``cand`` from
    ``_helly_candidates`` lets it visit only meeting triples with no nested pair."""
    # Lemma: a triple holding a nested pair x <= y is clean. The pair's
    # intersection is x, which meets the third row (no H1), and x has no
    # column outside y (no H2). So i skips the rows containing a, j is
    # skipped when b <= a, and the third rows skip those containing b.
    for i in _bits(live):
        a = rows[i]
        later = cand[i] & live & -(2 << i)
        while later:
            low = later & -later
            later ^= low
            j = low.bit_length() - 1
            b = rows[j]
            if not b & ~a:
                continue
            both = later & cand[j]  # rows after j meeting a and b, not holding b
            while both:
                low = both & -both
                both ^= low
                k = low.bit_length() - 1
                c = rows[k]
                if not a & b & c or a & ~(b | c) and b & ~(a | c) and c & ~(a | b):
                    return (i, j, k), "H2" if a & b & c else "H1"
    return None


def find_helly_violation(M: BinaryMatrix) -> HellyViolation | None:
    """First row triple (in matrix row order) violating H1 or H2, by ``_helly_scan``."""
    hit = _helly_scan(M.rows, _helly_candidates(*_incidence(M.rows, M.n)), (1 << M.m) - 1)
    if hit is None:
        return None
    return HellyViolation(tuple(M.row_ids[p] for p in hit[0]), hit[1])


def pair_subgraph(M: BinaryMatrix, col_a: int, col_b: int) -> Graph:
    """Subgraph of the derived graph induced on the rows holding col_a or col_b."""
    if col_a == col_b:
        raise ValueError("pair subgraph needs two distinct columns")
    keep = support(M, col_a) | support(M, col_b)
    return derived_graph(M).subgraph(keep)


def find_c4(G: Graph) -> tuple[int, int, int, int] | None:
    """An induced 4-cycle in cyclic order, or None.

    Scans non-adjacent vertex pairs in ascending label order for two
    non-adjacent common neighbors, so the first hit is deterministic.
    """
    hit = _c4(G._adj)
    return None if hit is None else tuple(G.vertices[v] for v in hit)


def _c4(adj: list[int]) -> tuple[int, int, int, int] | None:
    """``find_c4`` over the positions of ``adj``."""
    everything = (1 << len(adj)) - 1
    for a in range(len(adj)):
        for c in _bits(everything & ~adj[a] & ~((2 << a) - 1)):
            common = adj[a] & adj[c]
            for b in _bits(common):
                far = common & ~adj[b] & ~((2 << b) - 1)  # the d > b not adjacent to b
                if far:
                    return a, b, c, (far & -far).bit_length() - 1
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
    return _maximal(candidates)


def _maximal(masks: set[int]) -> list[int]:
    """The inclusion-maximal masks among ``masks``."""
    return [c for c in masks if not any(c != o and c & o == c for o in masks)]


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


def _scan_column_pairs(
    cols: list[int], meets: list[int], live: int
) -> tuple[tuple[int, int] | None, set[int] | None]:
    """Rules 2 and 3's scan in one pass over the ``live`` rows, given
    ``_incidence``'s ``cols`` and ``meets``: the first column pair, by position,
    whose subgraph is not chordal and None, or None and the pair subgraphs'
    cliques that no live row extends, which ``_uncovered_core`` picks from."""
    # ``meets`` serves as the adjacency: the search, the PEO check and the
    # clique listing read only ``meets[v] & live`` or ``meets[v] & later``
    # with ``later`` inside ``live`` and never holding v, so each pass sees
    # exactly the pair subgraph induced on its live rows; chordality and
    # the set of maximal cliques do not depend on the order of positions.
    candidates: set[int] = set()
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            order = _mcs_order(meets, (cols[i] | cols[j]) & live)
            if not _is_peo(meets, order):
                return (i, j), None
            for clique in _clique_masks(meets, order):
                common = live & ~clique
                for v in _bits(clique):
                    common &= meets[v]
                if not common:  # no live row extends the clique
                    candidates.add(clique)
    return None, candidates


def _inherited_cliques(cliques: Iterable[int], live: int) -> list[int]:
    """The maximal nonempty sets among the ``cliques`` cut down to ``live``."""
    return _maximal({clique & live for clique in cliques} - {0})


def _uncovered_core(ids: Sequence[int], cols: list[int], candidates: Iterable[int]) -> tuple[int, int] | None:
    """Rule 3's pick among the candidate cliques of ``_scan_column_pairs``:
    ``find_uncovered_clique``'s answer, as row positions, with ``ids`` the
    row labels by position."""

    def covered(group: int) -> bool:
        return any(not group & ~vs for vs in cols)

    # Candidates, and members in the greedy shrink, go in label order.
    for clique in sorted(candidates, key=lambda c: sorted(ids[v] for v in _bits(c))):
        if covered(clique):
            continue
        minimal = clique
        for v in sorted(_bits(clique), key=ids.__getitem__):
            if not covered(minimal & ~(1 << v)):
                minimal &= ~(1 << v)
        assert minimal.bit_count() >= 3, "two clique members always share a column"
        return clique, minimal
    return None


def find_uncovered_clique(M: BinaryMatrix) -> tuple[frozenset[int], frozenset[int]] | None:
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
    cols, meets = _incidence(M.rows, M.n)
    pair, candidates = _scan_column_pairs(cols, meets, (1 << M.m) - 1)
    if pair is not None:
        a, b = (M.col_ids[c] for c in pair)
        raise ContractError(f"pair subgraph of columns {a}, {b} is not chordal")
    found = _uncovered_core(M.row_ids, cols, candidates)
    return None if found is None else tuple(frozenset(M.row_ids[v] for v in _bits(c)) for c in found)


def parse_graph(text: str) -> Graph:
    """Parse the graph file format: header "n m", then m lines "u v"."""
    lines, header_no, n, m = _read_header(text, "n m")
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
    _expect_end(lines, "edge")
    return Graph(range(1, n + 1), edges)


def serialize_graph(G: Graph) -> str:
    """Graph file text; vertices are renumbered 1..n by sorted label."""
    relabel = {v: i + 1 for i, v in enumerate(G.vertices)}
    lines = [f"{G.n} {G.edge_count()}"]
    for u, v in G.edges():
        a, b = sorted((relabel[u], relabel[v]))
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"
