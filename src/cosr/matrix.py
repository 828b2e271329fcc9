"""Binary matrices with named rows and columns.

Rows are stored bit-packed (one Python int per row, bit j = column at
position j), which makes the set operations used throughout the solver
cheap. Externally everything is label-based: rows and columns carry
stable integer labels, 1-based in all file I/O. Values are immutable
after construction and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator

from .errors import ParseError


@dataclass(frozen=True)
class BinaryMatrix:
    """An m x n 0/1 matrix.

    ``row_ids`` and ``col_ids`` are duplicate-free label tuples in storage
    order. ``identity_rows`` marks rows added by :func:`augment`; such a
    row has exactly one 1. Column labels are never renumbered: deletion
    removes rows only, and all n columns survive even if left all-zero.
    """

    row_ids: tuple[int, ...]
    col_ids: tuple[int, ...]
    rows: tuple[int, ...]
    identity_rows: frozenset[int] = field(default=frozenset())

    def __post_init__(self):
        if len(self.rows) != len(self.row_ids):
            raise ValueError("row count mismatch")
        if len(set(self.row_ids)) != len(self.row_ids):
            raise ValueError("duplicate row label")
        if len(set(self.col_ids)) != len(self.col_ids):
            raise ValueError("duplicate column label")
        full = (1 << self.n) - 1
        if self.rows and (min(self.rows) < 0 or max(self.rows) > full):
            label = next(r for r, mask in zip(self.row_ids, self.rows) if mask & ~full)
            raise ValueError(f"row {label}: bit outside column range")
        for label in self.identity_rows:
            if label not in self.row_index:
                raise ValueError(f"identity marker {label} is not a row")
            if self.rows[self.row_index[label]].bit_count() != 1:
                raise ValueError(f"identity row {label} must have exactly one 1")

    @property
    def m(self) -> int:
        return len(self.row_ids)

    @property
    def n(self) -> int:
        return len(self.col_ids)

    @cached_property
    def row_index(self) -> dict[int, int]:
        return {label: i for i, label in enumerate(self.row_ids)}

    @cached_property
    def col_index(self) -> dict[int, int]:
        return {label: j for j, label in enumerate(self.col_ids)}

    def row_mask(self, label: int) -> int:
        if label not in self.row_index:
            raise ValueError(f"unknown row label {label}")
        return self.rows[self.row_index[label]]

    def row_set(self, label: int) -> frozenset[int]:
        """Column labels carrying a 1 in the given row."""
        mask = self.row_mask(label)
        return frozenset(self.col_ids[j] for j in _bits(mask))

    def entry(self, row: int, col: int) -> int:
        if col not in self.col_index:
            raise ValueError(f"unknown column label {col}")
        return (self.row_mask(row) >> self.col_index[col]) & 1


@dataclass(frozen=True)
class SetSystem:
    """The row sets of a matrix: for each row, the columns holding a 1.

    ``sets`` is keyed by row label in matrix row order; the universe is
    the column label set {1..n}.
    """

    universe: frozenset[int]
    sets: dict[int, frozenset[int]]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _read_header(text: str, names: str) -> tuple[Iterator[tuple[int, str]], int, int, int]:
    """The numbered lines of ``text`` after its header, skipping blanks and
    comments, and the header's line number and two counts, which ``names``
    names in errors."""
    lines = ((no, line) for no, line in enumerate(map(str.strip, text.splitlines()), start=1)
             if line and line[0] != "#")
    try:
        no, header = next(lines)
    except StopIteration:
        raise ParseError(1, "missing header") from None
    parts = header.split()
    if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
        raise ParseError(no, f"expected header '{names}', got {header!r}")
    return lines, no, int(parts[0]), int(parts[1])


def _expect_end(lines: Iterator[tuple[int, str]], last: str) -> None:
    for no, _ in lines:  # the first line left over
        raise ParseError(no, f"trailing content after last {last}")


def parse_matrix(text: str) -> BinaryMatrix:
    """Parse the matrix file format.

    Comment lines start with '#'. The first non-comment line is "m n";
    then m rows follow, each n cells from {0,1}, with or without
    whitespace between them. When n is 0 a row is a blank
    line, and blank lines are skipped, so no row lines are read. Labels
    are assigned 1-based in file order.
    """
    lines, header_no, m, n = _read_header(text, "m n")
    rows: list[int] = [] if n else [0] * m
    while len(rows) < m:
        try:
            no, line = next(lines)
        except StopIteration:
            raise ParseError(header_no, f"expected {m} rows, found {len(rows)}") from None
        # A row of n characters is taken as it is; whitespace in it fails the
        # check below. Deleting the bytes 0 and 1 leaves nothing exactly when
        # every cell is 0 or 1, since no other character's UTF-8 form holds
        # either byte; so the +, - and _ and the non-ASCII digits that
        # int(_, 2) would take are rejected.
        joined = line if len(line) == n else "".join(line.split())
        if len(joined) != n or joined.encode().translate(None, b"01"):
            bad = next((t for t in line.split() if t not in ("0", "1")), line)
            raise ParseError(no, f"expected {n} cells from {{0,1}}, got {bad!r}")
        rows.append(int(joined[::-1], 2))  # cell j is bit j
    _expect_end(lines, "row")
    return BinaryMatrix(
        row_ids=tuple(range(1, m + 1)),
        col_ids=tuple(range(1, n + 1)),
        rows=tuple(rows),
    )


def serialize_matrix(M: BinaryMatrix) -> str:
    """Canonical matrix file text: header plus space-separated 0/1 rows."""
    out = [f"{M.m} {M.n}"]
    for mask in M.rows:
        out.append(" ".join("1" if (mask >> j) & 1 else "0" for j in range(M.n)))
    return "\n".join(out) + "\n"


def delete_rows(M: BinaryMatrix, deleted: Iterable[int]) -> BinaryMatrix:
    """Remove the given rows; survivors keep their labels, columns stay."""
    drop = frozenset(deleted)
    unknown = drop.difference(M.row_ids)
    if unknown:
        raise ValueError(f"unknown row label {min(unknown)}")
    keep = [label not in drop for label in M.row_ids]
    return BinaryMatrix(
        row_ids=tuple(compress(M.row_ids, keep)),
        col_ids=M.col_ids,
        rows=tuple(compress(M.rows, keep)),
        identity_rows=M.identity_rows - drop,
    )


def augment(M: BinaryMatrix) -> BinaryMatrix:
    """Stack an n x n identity block above M.

    The identity row for column k gets label -k. When an original label
    lies in -n..-1, the identity labels shift below the smallest original
    label instead. Original labels are preserved either way, and
    ``identity_rows`` tells the new rows apart.
    """
    below = min(M.row_ids) if any(-M.n <= r < 0 for r in M.row_ids) else 0
    ident_ids = tuple(below - (k + 1) for k in range(M.n))
    ident_rows = tuple(1 << k for k in range(M.n))
    return BinaryMatrix(
        row_ids=ident_ids + M.row_ids,
        col_ids=M.col_ids,
        rows=ident_rows + M.rows,
        identity_rows=frozenset(ident_ids),
    )


def set_system(M: BinaryMatrix) -> SetSystem:
    """Per-row column sets, keyed by row label in matrix order."""
    sets = {
        label: frozenset(M.col_ids[j] for j in _bits(mask))
        for label, mask in zip(M.row_ids, M.rows)
    }
    return SetSystem(universe=frozenset(M.col_ids), sets=sets)


def support(M: BinaryMatrix, col: int) -> frozenset[int]:
    """Labels of the rows holding a 1 in the given column."""
    if col not in M.col_index:
        raise ValueError(f"unknown column label {col}")
    bit = 1 << M.col_index[col]
    return frozenset(label for label, mask in zip(M.row_ids, M.rows) if mask & bit)
