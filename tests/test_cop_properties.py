"""Property tests of ``cop_order`` on planted matrices with noise and on
staircases: the verdict ignores row and column order, every certificate
verifies, and at oracle sizes the verdict is the brute-force one."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cosr import BinaryMatrix, cop_order, verify_cop  # noqa: E402
from cosr.oracle import brute_cop  # noqa: E402

# Derandomized and without an example database, so tier-1 stays repeatable.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _on(order, positions):
    return sum(1 << order[p] for p in positions)


@st.composite
def planted(draw, max_n=90):
    """Runs of a hidden column order plus up to three arbitrary noise rows.
    Above n = 12 every link is a run, so larger families pass the
    pair-test cut-off; below, a drawn subset of the links is."""
    n = draw(st.integers(2, max_n))
    order = draw(st.permutations(range(n)))
    runs = [(p, p + 1) for p in range(n - 1) if draw(st.booleans()) or n > 12]
    spans = st.integers(0, n - 1)
    runs += draw(st.lists(st.tuples(spans, spans), max_size=n))
    rows = [_on(order, range(min(a, b), max(a, b) + 1)) for a, b in runs]
    noise = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=3))
    return n, draw(st.permutations(rows + noise)), not noise


@st.composite
def staircase(draw):
    """Nested prefixes of a hidden order, in a drawn row order."""
    depth = draw(st.integers(1, 150))
    order = draw(st.permutations(range(depth + 1)))
    return depth + 1, draw(st.permutations([_on(order, range(r + 1)) for r in range(1, depth + 1)]))


def _matrix(n, rows):
    return BinaryMatrix(tuple(range(1, len(rows) + 1)), tuple(range(1, n + 1)), tuple(rows))


def _check_permutation_invariance(draw, n, rows):
    M = _matrix(n, rows)
    order = cop_order(M)
    if order is not None:
        assert verify_cop(M, order)
    cols = draw(st.permutations(range(n)))
    moved = [sum(1 << cols[j] for j in range(n) if mask >> j & 1) for mask in rows]
    for permuted in (_matrix(n, draw(st.permutations(rows))), _matrix(n, moved)):
        other = cop_order(permuted)
        assert (other is None) == (order is None)
        if other is not None:
            assert verify_cop(permuted, other)
    return order


@PROPERTY
@given(planted(), st.data())
def test_planted_verdict_ignores_row_and_column_order(family, data):
    n, rows, clean = family
    order = _check_permutation_invariance(data.draw, n, rows)
    assert order is not None or not clean


@PROPERTY
@given(staircase(), st.data())
def test_staircase_has_cop_in_any_row_and_column_order(family, data):
    n, rows = family
    assert _check_permutation_invariance(data.draw, n, rows) is not None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(planted(max_n=6))
def test_verdict_matches_brute_force_at_oracle_sizes(family):
    n, rows, _ = family
    M = _matrix(n, rows)
    assert (cop_order(M) is None) == (brute_cop(M) is None)
