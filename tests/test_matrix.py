import random

import pytest

from cosr import (
    BinaryMatrix,
    ParseError,
    augment,
    delete_rows,
    parse_matrix,
    serialize_matrix,
    set_system,
    support,
)
from cosr.cli import run
from cosr.oracle import random_instance

M1_TEXT = """3 8
1 1 1 1 1 0 0 0
0 1 0 0 1 1 1 0
1 0 1 1 0 1 0 1
"""


def test_parse_smallest():
    M = parse_matrix("1 1\n1")
    assert (M.m, M.n) == (1, 1)
    assert M.entry(1, 1) == 1


def test_parse_m1_row_sets():
    M = parse_matrix(M1_TEXT)
    assert (M.m, M.n) == (3, 8)
    assert M.row_set(1) == {1, 2, 3, 4, 5}
    assert M.row_set(2) == {2, 5, 6, 7}
    assert M.row_set(3) == {1, 3, 4, 6, 8}


def test_parse_bad_cell_names_line():
    with pytest.raises(ParseError) as err:
        parse_matrix("2 2\n1 2")
    assert "line 2" in str(err.value)


def test_parse_contiguous_digits_and_comments():
    M = parse_matrix("# title\n2 3\n101\n# interlude\n0 1 1\n")
    assert M.row_set(1) == {1, 3}
    assert M.row_set(2) == {2, 3}


def test_parse_row_length_mismatch():
    with pytest.raises(ParseError):
        parse_matrix("1 3\n1 0\n")
    with pytest.raises(ParseError):
        parse_matrix("2 2\n1 0\n")
    with pytest.raises(ParseError):
        parse_matrix("1 2\n1 0\n1 1\n")


def test_delete_rows_identity_case():
    M = parse_matrix(M1_TEXT)
    assert delete_rows(M, ()) == M


def test_delete_rows_definition():
    M = parse_matrix(M1_TEXT)
    rest = delete_rows(M, {3})
    assert rest.row_ids == (1, 2)
    assert rest.rows == M.rows[:2]
    assert rest.n == 8


def test_delete_all_rows():
    M = parse_matrix("3 3\n100\n010\n001\n")
    empty = delete_rows(M, {1, 2, 3})
    assert empty.m == 0 and empty.n == 3


def test_delete_unknown_row():
    M = parse_matrix("1 1\n1")
    with pytest.raises(ValueError):
        delete_rows(M, {4})


def _old_delete_rows(M, deleted):
    """The tuple-list implementation ``delete_rows`` replaced."""
    drop = frozenset(deleted)
    unknown = drop - set(M.row_ids)
    if unknown:
        raise ValueError(f"unknown row label {min(unknown)}")
    keep = [(label, mask) for label, mask in zip(M.row_ids, M.rows) if label not in drop]
    return BinaryMatrix(
        row_ids=tuple(label for label, _ in keep),
        col_ids=M.col_ids,
        rows=tuple(mask for _, mask in keep),
        identity_rows=M.identity_rows - drop,
    )


def test_delete_rows_matches_old_implementation():
    rng = random.Random(7)
    for seed in range(150):
        R = random_instance(seed, rng.randrange(0, 9), rng.randrange(0, 7), 0.5)
        # gapped, negative and unsorted labels; augment's identity rows
        # take -1..-n, so odd seeds draw their own labels below that
        low = -R.n if seed % 2 else 0
        labels = rng.sample([*range(-40, low), *range(1, 40)], R.m)
        M = BinaryMatrix(tuple(labels), R.col_ids, R.rows)
        if seed % 2:
            M = augment(M)
        drop = rng.sample(M.row_ids, rng.randrange(0, M.m + 1))
        want = _old_delete_rows(M, drop)
        for deleted in (drop, drop + drop, iter(drop), (r for r in drop)):
            assert delete_rows(M, deleted) == want  # identity_rows included
        # several unknown labels: the message names the smallest, not the first
        unknown = [1000 + seed, max(M.row_ids, default=0) + 5]
        for deleted in (unknown + drop, iter(drop + unknown)):
            with pytest.raises(ValueError) as err:
                delete_rows(M, deleted)
            assert str(err.value) == f"unknown row label {min(unknown)}"


def test_augment_definition():
    M = parse_matrix("1 1\n1")
    aug = augment(M)
    assert aug.m == 2 and aug.n == 1
    assert aug.rows == (1, 1)
    assert aug.identity_rows == {-1}

    M1 = parse_matrix(M1_TEXT)
    aug1 = augment(M1)
    assert aug1.m == 11
    assert aug1.rows[:8] == tuple(1 << k for k in range(8))
    assert aug1.row_ids[8:] == (1, 2, 3)

    # identity labels move below the smallest original only on a collision
    M = BinaryMatrix((3, -50, 7), (1, 2), (1, 2, 3))
    assert augment(M).row_ids == (-1, -2, 3, -50, 7)
    M = BinaryMatrix((3, -2, 7), (1, 2), (1, 2, 3))
    aug = augment(M)
    assert aug.row_ids == (-3, -4, 3, -2, 7) and aug.identity_rows == {-3, -4}
    assert delete_rows(aug, aug.identity_rows) == M


def test_augment_degenerate_empty():
    M = BinaryMatrix((), (1, 2), ())
    aug = augment(M)
    assert aug.m == 2 and aug.rows == (1, 2)


def test_augment_round_trip():
    for seed in range(20):
        M = random_instance(seed, 4, 5, 0.4)
        assert delete_rows(augment(M), range(-5, 0)) == M


def test_set_system_examples():
    M1 = parse_matrix(M1_TEXT)
    S = set_system(M1)
    assert S.sets == {1: frozenset({1, 2, 3, 4, 5}), 2: frozenset({2, 5, 6, 7}), 3: frozenset({1, 3, 4, 6, 8})}
    ident = parse_matrix("3 3\n100\n010\n001\n")
    assert list(set_system(ident).sets.values()) == [frozenset({1}), frozenset({2}), frozenset({3})]
    assert set_system(parse_matrix("1 3\n000\n")).sets[1] == frozenset()


def test_support_examples():
    ident = parse_matrix("3 3\n100\n010\n001\n")
    assert support(ident, 2) == {2}
    M1 = parse_matrix(M1_TEXT)
    assert support(M1, 1) == {1, 3}
    assert support(parse_matrix("2 2\n10\n10\n"), 2) == frozenset()
    with pytest.raises(ValueError):
        support(ident, 9)


def test_delete_rows_composes_over_disjoint_sets():
    for seed in range(15):
        M = random_instance(seed, 6, 4, 0.5)
        both = delete_rows(M, {1, 2, 5})
        stepwise = delete_rows(delete_rows(M, {1, 5}), {2})
        assert both == stepwise


def test_set_system_restriction_under_deletion():
    for seed in range(15):
        M = random_instance(seed, 6, 5, 0.5)
        sub = delete_rows(M, {2, 3})
        S, T = set_system(M), set_system(sub)
        assert T.sets == {r: S.sets[r] for r in sub.row_ids}


def test_serialize_parse_round_trip():
    sizes = [(5, 6)] * 15 + [(3, 0), (0, 3), (0, 0), (4, 5)]
    for seed, (m, n) in enumerate(sizes):
        M = random_instance(seed, m, n, 0.4)
        assert parse_matrix(serialize_matrix(M)) == M


def test_duplicate_rows_are_distinct_rows():
    M = parse_matrix("2 2\n11\n11\n")
    assert M.m == 2
    assert delete_rows(M, {1}).row_ids == (2,)


def test_parse_edge_cases():
    with pytest.raises(ParseError):
        parse_matrix("")
    with pytest.raises(ParseError):
        parse_matrix("# only comments\n")
    with pytest.raises(ParseError):
        parse_matrix("3\n1\n")
    with pytest.raises(ParseError):
        parse_matrix("-1 2\n")
    zero_rows = parse_matrix("0 3\n")
    assert zero_rows.m == 0 and zero_rows.n == 3
    assert parse_matrix("3 0\n").rows == (0, 0, 0)
    with pytest.raises(ParseError, match="trailing content"):
        parse_matrix("2 0\n1\n")
    padded = parse_matrix("\n\n  2 2  \n\n 1 0 \n01\n\n# done\n")
    assert padded.rows == (1, 2)
    assert parse_matrix("1 3\n01 1\n").rows == (6,)


def test_invalid_construction_rejected():
    with pytest.raises(ValueError):
        BinaryMatrix((1, 1), (1, 2), (0, 0))
    with pytest.raises(ValueError):
        BinaryMatrix((1,), (1, 1), (0,))
    with pytest.raises(ValueError):
        BinaryMatrix((1,), (1,), (2,))
    with pytest.raises(ValueError):
        BinaryMatrix((1, 2), (1, 2), (3, 1), identity_rows=frozenset({1}))
    with pytest.raises(ValueError):
        BinaryMatrix((1,), (1,), (1,), identity_rows=frozenset({9}))


def test_out_of_range_row_names_the_first_offender():
    # negative masks set every high bit, so they are out of range too
    for rows, label in (((1, 8, 16), 5), ((-1, 2, 9), 4), ((1, 2, -4), 6), ((7, 0, 8), 6)):
        with pytest.raises(ValueError, match=f"^row {label}: bit outside column range$"):
            BinaryMatrix((4, 5, 6), (1, 2, 3), rows)
    assert BinaryMatrix((4, 5, 6), (1, 2, 3), (7, 0, 4)).rows == (7, 0, 4)
    assert BinaryMatrix((4,), (), (0,)).rows == (0,)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 3\n1 2 0\n", "line 2: expected 3 cells from {0,1}, got '2'"),
        ("1 3\n1_01\n", "line 2: expected 3 cells from {0,1}, got '1_01'"),
        ("1 3\n+11\n", "line 2: expected 3 cells from {0,1}, got '+11'"),
        ("2 3\n011\n# note\n1_0\n", "line 4: expected 3 cells from {0,1}, got '1_0'"),
        ("1 3\n_ 1 0\n", "line 2: expected 3 cells from {0,1}, got '_'"),
        ("1 2\n+1\n", "line 2: expected 2 cells from {0,1}, got '+1'"),
        ("1 3\n1 + 0\n", "line 2: expected 3 cells from {0,1}, got '+'"),
        ("1 2\n-1\n", "line 2: expected 2 cells from {0,1}, got '-1'"),
        ("1 3\n0 - 1\n", "line 2: expected 3 cells from {0,1}, got '-'"),
        ("2 2\n10\n\n  22  \n", "line 4: expected 2 cells from {0,1}, got '22'"),
        # Rows of exactly n characters, which the parser takes without
        # splitting: a space or a tab inside, full-width and Arabic-Indic
        # digits (int(_, 2) takes both) and a base prefix.
        ("1 3\n0 1\n", "line 2: expected 3 cells from {0,1}, got '0 1'"),
        ("1 3\n0\t1\n", "line 2: expected 3 cells from {0,1}, got '0\\t1'"),
        ("1 3\n\uff10\uff11\uff10\n", "line 2: expected 3 cells from {0,1}, got '\uff10\uff11\uff10'"),
        ("1 3\n\u0660\u0661\u0660\n", "line 2: expected 3 cells from {0,1}, got '\u0660\u0661\u0660'"),
        ("1 3\n0b1\n", "line 2: expected 3 cells from {0,1}, got '0b1'"),
        ("1 3\n1 \uff10 1\n", "line 2: expected 3 cells from {0,1}, got '\uff10'"),
        ("1 3\n1\t\u0661\t0\n", "line 2: expected 3 cells from {0,1}, got '\u0661'"),
    ],
)
def test_parse_rejects_cells_outside_zero_one(text, message, tmp_path, capsys):
    # int(_, 2) alone would take "+1", "-1", "+11", "1_0" and non-ASCII
    # digits; the format does not. Each message names the first bad token
    # and its line, and check-cop exits 2 on the file.
    with pytest.raises(ParseError) as err:
        parse_matrix(text)
    assert str(err.value) == message
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    assert run(["check-cop", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        # "\u00b2" (superscript two) passes str.isdigit() but not int();
        # "\u0662" (Arabic-Indic two) passes both and would read as m = 2.
        ("2\u00b2 1\n1\n1\n", "line 1: expected header 'm n', got '2\u00b2 1'"),
        ("\u0662 1\n1\n1\n", "line 1: expected header 'm n', got '\u0662 1'"),
        ("# note\n2 \uff11\n1\n1\n", "line 2: expected header 'm n', got '2 \uff11'"),
    ],
)
def test_header_counts_take_ascii_digits_only(text, message, tmp_path, capsys):
    with pytest.raises(ParseError) as err:
        parse_matrix(text)
    assert str(err.value) == message
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    assert run(["check-cop", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
