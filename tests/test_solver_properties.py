"""Property tests of ``cos_r`` on planted matrices, staircases,
complement-of-identity cores, rule-2 cycles and convex bipartite graphs,
each with noise rows and with all-zero rows and columns mixed in: the
verdicts and the optimum ignore row and column order, a duplicated row
never lowers the optimum, every YES certificate verifies, and the answer
is the brute-force one, and a rule-3 child's inherited cliques are the
ones its own pair scan lists. Matrices stay at oracle sizes: m <= 10,
n <= 12, d <= 3. Planted copies of Tucker's families, whose optimum is
known, go past those sizes."""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cosr import BinaryMatrix, Graph, cos_r, delete_rows, half_adjacency, verify_cop  # noqa: E402
from cosr import find_helly_violation, find_uncovered_clique  # noqa: E402
from cosr.cop import _cop_positions  # noqa: E402
from cosr.graphs import _incidence, _scan_column_pairs  # noqa: E402
from cosr.oracle import brute_cosr  # noqa: E402
from cosr.solver import _find_rule2_cycle  # noqa: E402
import tucker  # noqa: E402

# Derandomized and without an example database, so tier-1 stays repeatable.
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

MAX_M, MAX_N, MAX_D = 10, 12, 3


def _on(order, positions):
    return sum(1 << order[p] for p in positions)


@st.composite
def planted(draw):
    """Runs of a hidden column order plus up to three arbitrary noise rows."""
    n = draw(st.integers(1, MAX_N))
    order = draw(st.permutations(range(n)))
    spans = st.integers(0, n - 1)
    runs = draw(st.lists(st.tuples(spans, spans), min_size=2, max_size=MAX_M - 3))
    rows = [_on(order, range(min(a, b), max(a, b) + 1)) for a, b in runs]
    return n, rows + draw(st.lists(st.integers(0, (1 << n) - 1), max_size=3))


@st.composite
def staircase(draw):
    """Nested prefixes of a hidden order plus up to two arbitrary rows."""
    depth = draw(st.integers(1, min(MAX_N - 1, MAX_M - 2)))
    order = draw(st.permutations(range(depth + 1)))
    rows = [_on(order, range(r + 1)) for r in range(1, depth + 1)]
    return depth + 1, rows + draw(st.lists(st.integers(0, (2 << depth) - 1), max_size=2))


@st.composite
def core(draw):
    """Rows U minus {j}, one per column j, whose optimum alone is k - 2,
    plus up to MAX_M - k arbitrary rows."""
    k = draw(st.integers(4, min(MAX_N, MAX_M)))
    rows = [((1 << k) - 1) ^ 1 << j for j in range(k)]
    return k, rows + draw(st.lists(st.integers(0, (1 << k) - 1), max_size=MAX_M - k))


@st.composite
def pair_cycle(draw):
    """Rows {i, k}, {i, l}, {j, k} and {j, l}, which cross as an induced
    C4 in the derived graph over columns i and j, plus up to three
    arbitrary rows."""
    n = draw(st.integers(4, MAX_N))
    i, j, k, l = draw(st.permutations(range(n)))[:4]
    rows = [1 << i | 1 << k, 1 << i | 1 << l, 1 << j | 1 << k, 1 << j | 1 << l]
    return n, rows + draw(st.lists(st.integers(0, (1 << n) - 1), max_size=3))


@st.composite
def convex_bipartite(draw):
    """The half adjacency matrix of a bipartite graph whose side-one
    vertices see the rows of a planted family: runs of a hidden side-two
    order, and noise."""
    n, masks = draw(planted())
    side_one = [100 + i for i in range(len(masks))]
    edges = [(v, j) for v, mask in zip(side_one, masks) for j in range(n) if mask >> j & 1]
    M = half_adjacency(Graph(side_one + list(range(n)), edges), side_one)
    return M.n, list(M.rows)


@st.composite
def matrices(draw, families=None):
    """A drawn family (any of the above by default) with all-zero rows and
    columns inserted, under distinct labels that are gapped, negative and
    out of storage order."""
    if families is None:
        families = st.one_of(planted(), staircase(), core(), pair_cycle(), convex_bipartite())
    n, rows = draw(families)
    for _ in range(draw(st.integers(0, min(2, MAX_N - n)))):
        at = draw(st.integers(0, n))
        low = (1 << at) - 1
        rows = [mask & low | (mask & ~low) << 1 for mask in rows]
        n += 1
    for _ in range(draw(st.integers(0, min(2, MAX_M - len(rows))))):
        rows.insert(draw(st.integers(0, len(rows))), 0)
    labels = st.integers(-20, 40)
    row_ids = draw(st.lists(labels, min_size=len(rows), max_size=len(rows), unique=True))
    col_ids = draw(st.lists(labels, min_size=n, max_size=n, unique=True))
    return BinaryMatrix(tuple(row_ids), tuple(col_ids), tuple(rows))


def _answers(M):
    """Verdicts at d = 0..MAX_D and the smallest solution size, checking
    every YES certificate on the way."""
    verdicts, optimum = [], None
    for d in range(MAX_D + 1):
        report = cos_r(M, d)
        verdicts.append(report.feasible)
        if report.feasible:
            assert report.solution <= set(M.row_ids) and len(report.solution) <= d
            assert verify_cop(delete_rows(M, report.solution), report.certificate)
            optimum = len(report.solution) if optimum is None else optimum
    return verdicts, optimum


def _permuted(M, rows, cols):
    """M with its rows stored in order ``rows`` and its columns in ``cols``,
    each keeping its label."""
    masks = [sum(1 << j for j, old in enumerate(cols) if M.rows[r] >> old & 1) for r in rows]
    return BinaryMatrix(
        tuple(M.row_ids[r] for r in rows), tuple(M.col_ids[c] for c in cols), tuple(masks)
    )


@PROPERTY
@given(matrices(), st.data())
def test_verdicts_and_optimum_ignore_row_and_column_order(M, data):
    want = _answers(M)
    rows = data.draw(st.permutations(range(M.m)))
    cols = data.draw(st.permutations(range(M.n)))
    assert _answers(_permuted(M, rows, range(M.n))) == want
    assert _answers(_permuted(M, range(M.m), cols)) == want


@PROPERTY
@given(matrices(), st.data())
def test_a_duplicated_row_never_lowers_the_optimum(M, data):
    verdicts, _ = _answers(M)
    r = data.draw(st.integers(0, M.m - 1))
    twin = BinaryMatrix(M.row_ids + (max(M.row_ids) + 1,), M.col_ids, M.rows + (M.rows[r],))
    more, _ = _answers(twin)
    assert all(old or not new for old, new in zip(verdicts, more))


@PROPERTY
@given(matrices())
def test_answers_match_brute_force(M):
    verdicts, optimum = _answers(M)
    best = brute_cosr(M, MAX_D)
    assert verdicts == [best is not None and len(best) <= d for d in range(MAX_D + 1)]
    assert optimum == (None if best is None else len(best))


@PROPERTY
@given(st.one_of(matrices(), matrices(core())))
def test_an_uncovered_core_of_t_rows_needs_t_minus_2_deletions(M):
    # Rule 3's bound: with rules 1 and 2 clean, at most 2 rows of a minimal
    # uncovered core survive in a COP order, so a node whose budget is
    # below t - 2 has no solution. COP is hereditary, so it is enough that
    # no 3 core rows have it, by brute force; a core of at most 5 rows is
    # also checked against the optimum.
    assume(find_helly_violation(M) is None and _find_rule2_cycle(M) is None)
    found = find_uncovered_clique(M)
    assume(found is not None)
    core = sorted(found[1])
    for rows in combinations(core, 3):
        assert brute_cosr(delete_rows(M, set(M.row_ids) - set(rows)), 0) is None, (M, rows)
    if len(core) <= 5:
        assert brute_cosr(M, len(core) - 3) is None


@PROPERTY
@given(matrices())
def test_failing_overlap_components_need_a_deletion_each(M):
    # Step 0's bound: the overlap components without the property are
    # row-disjoint, and each needs a deletion of its own.
    failing = _cop_positions(M.rows, M.n, M.m)
    if isinstance(failing, list):
        assert brute_cosr(M, 0) is not None
    else:
        assert failing >= 1 and brute_cosr(M, failing - 1) is None


@st.composite
def tucker_copies(draw):
    """One to three copies of Tucker's families up to k = 6 (``tucker.py``)
    with up to three background interval rows, shuffled and labelled by a
    drawn generator; and each copy's row labels."""
    copies = draw(st.lists(st.sampled_from(list(tucker.families(6).values())), min_size=1, max_size=3))
    return tucker.planted(copies, draw(st.randoms(use_true_random=False)), draw(st.integers(0, 3)))


@PROPERTY
@given(tucker_copies())
def test_tucker_copies_need_one_deletion_each(drawn):
    tucker.check_one_deletion_per_copy(*drawn)


# A 6-row core, then a 4-row core on four more columns. Rule 3 branches
# only with budget for the core's bound, k - 2 deletions, so it first
# reaches children at d = 4: it branches on the 6-row core, then below each
# child on the 4-row one, and all 12 children inherit their cliques.
CORES_6_4 = BinaryMatrix(tuple(range(1, 11)), tuple(range(1, 11)),
                         tuple(63 ^ 1 << j for j in range(6)) + tuple((15 ^ 1 << j) << 6 for j in range(4)))


@PROPERTY
@given(st.one_of(matrices(), matrices(core())))
@example(CORES_6_4)
def test_rule3_children_inherit_the_cliques_their_scan_lists(M):
    # Every rule-3 child's inherited cliques against a fresh pair scan of its
    # live rows, at d up to MAX_D + 1, where a 6-row core first branches.
    # Patched by hand: hypothesis reruns the body per example.
    import cosr.solver

    inner, checked = cosr.solver._inherited_cliques, []

    def fresh(cliques, live):
        got = inner(cliques, live)
        cols, meets, _, _, _ = _incidence(M.rows, M.n)
        pair, listed = _scan_column_pairs(cols, meets, live)
        assert pair is None and sorted(got) == sorted(listed), (M, live)
        checked.append(live)
        return got

    cosr.solver._inherited_cliques = fresh
    try:
        for d in range(MAX_D + 2):
            cos_r(M, d)
    finally:
        cosr.solver._inherited_cliques = inner
    if M == CORES_6_4:
        assert len(checked) > 3
