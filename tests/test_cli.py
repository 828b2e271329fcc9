import pytest

from cosr.cli import run

M1_TEXT = """3 8
1 1 1 1 1 0 0 0
0 1 0 0 1 1 1 0
1 0 1 1 0 1 0 1
"""

M2_TEXT = """3 8
1 0 1 0 1 1 0 0
0 1 0 1 0 1 1 0
1 0 0 0 0 1 0 1
"""

IDENT3_TEXT = "3 3\n1 0 0\n0 1 0\n0 0 1\n"

BIPARTITE_M1 = (
    "11 14\nsides 3\n"
    + "\n".join(
        f"{r} {3 + c}"
        for r, cols in ((1, (1, 2, 3, 4, 5)), (2, (2, 5, 6, 7)), (3, (1, 3, 4, 6, 8)))
        for c in cols
    )
    + "\n"
)


@pytest.fixture
def m1_file(tmp_path):
    p = tmp_path / "m1.txt"
    p.write_text(M1_TEXT)
    return str(p)


def test_check_cop_yes(tmp_path, capsys):
    p = tmp_path / "ident.txt"
    p.write_text(IDENT3_TEXT)
    assert run(["check-cop", str(p)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "YES" and out[1].split() == ["1", "2", "3"]


def test_check_cop_no(m1_file, capsys):
    assert run(["check-cop", m1_file]) == 1
    assert capsys.readouterr().out == "NO\n"


def test_solve_yes_with_stats(m1_file, capsys):
    assert run(["solve", "--d", "1", "--stats", m1_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "YES"
    assert len(out[1].split()) == 1
    assert len(out[2].split()) == 8
    assert any(line.startswith("# internal_nodes ") for line in out[3:])


def test_solve_no(tmp_path, capsys):
    p = tmp_path / "m2.txt"
    p.write_text(M2_TEXT)
    assert run(["solve", "--d", "0", str(p)]) == 1
    assert capsys.readouterr().out == "NO\n"


def test_solve_and_oracle_solve_agree(tmp_path, capsys):
    # exit code and full stdout of both commands; the searches certify M1
    # with mirrored column orders, so each output is pinned on its own
    cases = [
        (M1_TEXT, "0", 1, "NO\n", "NO\n"),
        (M1_TEXT, "1", 0, "YES\n1\n2 5 7 6 1 3 4 8\n", "YES\n1\n1 3 4 8 6 2 5 7\n"),
        (M1_TEXT, "2", 0, "YES\n1\n2 5 7 6 1 3 4 8\n", "YES\n1\n1 3 4 8 6 2 5 7\n"),
        (IDENT3_TEXT, "0", 0, "YES\n\n1 2 3\n", "YES\n\n1 2 3\n"),
        ("2 0\n", "0", 0, "YES\n\n\n", "YES\n\n\n"),
    ]
    p = tmp_path / "m.txt"
    for text, d, code, solved, brute_solved in cases:
        p.write_text(text)
        assert run(["solve", "--d", d, str(p)]) == code
        assert capsys.readouterr().out == solved
        assert run(["oracle", "solve", "--d", d, str(p)]) == code
        assert capsys.readouterr().out == brute_solved


def test_oracle_check_cop(m1_file, capsys):
    assert run(["oracle", "check-cop", m1_file]) == 1
    assert capsys.readouterr().out == "NO\n"


def test_solve_output_reverifies(m1_file, capsys):
    from cosr import delete_rows, parse_matrix, verify_cop

    assert run(["solve", "--d", "2", m1_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    deleted = [int(tok) for tok in lines[1].split()]
    order = [int(tok) for tok in lines[2].split()]
    survivor = delete_rows(parse_matrix(M1_TEXT), deleted)
    assert verify_cop(survivor, order)


def test_interval_deletion_command(tmp_path, capsys):
    p = tmp_path / "c4.txt"
    p.write_text("4 4\n1 2\n2 3\n3 4\n1 4\n")
    assert run(["interval-deletion", "--d", "1", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert run(["oracle", "interval-deletion", "--d", "1", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert run(["interval-deletion", "--d", "0", str(p)]) == 1
    assert capsys.readouterr().out == "NO\n"


def test_convex_bipartite_command(tmp_path, capsys):
    p = tmp_path / "bip.txt"
    p.write_text(BIPARTITE_M1)
    assert run(["convex-bipartite", "--d", "0", str(p)]) == 1
    capsys.readouterr()
    assert run(["convex-bipartite", "--d", "1", str(p)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "YES"
    assert out[1].split() and all(1 <= int(v) <= 3 for v in out[1].split())


def test_gen_writes_matrix(tmp_path, capsys):
    out_path = tmp_path / "gen.txt"
    assert run(["gen", "--rows", "4", "--cols", "5", "--density", "0.5", "--seed", "9", "--out", str(out_path)]) == 0
    text = out_path.read_text()
    assert text.splitlines()[0] == "4 5"
    assert run(["gen", "--rows", "4", "--cols", "5", "--density", "0.5", "--seed", "9"]) == 0
    assert capsys.readouterr().out == text


def test_gen_zero_columns_solves(capsys, monkeypatch):
    import io

    assert run(["gen", "--rows", "3", "--cols", "0", "--density", "0.5", "--seed", "1"]) == 0
    text = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(["solve", "--d", "0", "-"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "YES"


def test_gen_deterministic(capsys):
    args = ["gen", "--rows", "6", "--cols", "6", "--density", "0.3", "--seed", "42"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("2 2\n1 2\n1 1\n")
    assert run(["solve", "--d", "0", str(p)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_usage_errors(tmp_path, capsys):
    assert run(["solve", "--d", "-1", "missing.txt"]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["solve", "missing.txt"]) == 2  # --d required
    capsys.readouterr()


@pytest.mark.parametrize("spelling", ["\u0662", "1_0"])
@pytest.mark.parametrize("command", ["solve", "interval-deletion", "gen"])
def test_count_options_take_ascii_digits_only(command, spelling, tmp_path, capsys):
    # ``int`` reads "\u0662" (Arabic-Indic two) as 2 and "1_0" as 10; the
    # options, like the file formats, take ASCII digits only.
    matrix, graph = tmp_path / "m.txt", tmp_path / "g.txt"
    matrix.write_text(IDENT3_TEXT)
    graph.write_text("3 2\n1 2\n2 3\n")
    argv = {
        "solve": ["solve", "--d", spelling, str(matrix)],
        "interval-deletion": ["interval-deletion", "--d", spelling, str(graph)],
        "gen": ["gen", "--rows", spelling, "--cols", "3", "--density", "0.5", "--seed", "1"],
    }[command]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:") and "must be an integer >= 0" in captured.err


def test_missing_file_is_reported(capsys):
    assert run(["check-cop", "/definitely/not/here.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(IDENT3_TEXT))
    assert run(["check-cop", "-"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "YES"


def test_missing_sides_line(tmp_path, capsys):
    p = tmp_path / "nosides.txt"
    p.write_text("2 1\n1 2\n")
    assert run(["convex-bipartite", "--d", "0", str(p)]) == 2
    assert "sides" in capsys.readouterr().err


def test_sides_line_needs_the_exact_keyword(capsys, monkeypatch):
    # "sidesX 2" is not a partition line, so the file has none
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("4 3\nsidesX 2\n1 3\n1 4\n2 3\n"))
    assert run(["convex-bipartite", "--d", "1", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "text, message",
    [
        ("4 3\nsides 2\n1 3\n1 4\n9 3\n", "error: line 5: edge (9, 3) must satisfy 1 <= u < v <= 4\n"),
        ("4 3\nsides 2\n1 3\n1 4\n2 3\nextra\n", "error: line 6: trailing content after last edge\n"),
    ],
)
def test_bipartite_parse_errors_count_the_sides_line(text, message, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(["convex-bipartite", "--d", "1", "-"]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("4 3\nsides \u0662\n1 3\n1 4\n2 3\n", "error: line 2: bad side partition line 'sides \u0662'\n"),
        ("4 3\nsides 2\u00b2\n1 3\n1 4\n2 3\n", "error: line 2: bad side partition line 'sides 2\u00b2'\n"),
    ],
)
def test_sides_count_takes_ascii_digits_only(text, message, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(["convex-bipartite", "--d", "1", "-"]) == 2
    assert capsys.readouterr().err == message


def test_check_cop_deep_staircase(tmp_path, capsys):
    # row r holds the first r + 1 columns: components nest 1,200 deep
    from cosr import parse_matrix, verify_cop

    depth = 1200
    text = f"{depth} {depth + 1}\n" + "".join(
        "1" * (r + 1) + "0" * (depth - r) + "\n" for r in range(1, depth + 1)
    )
    p = tmp_path / "stair.txt"
    p.write_text(text)
    assert run(["check-cop", str(p)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "YES"
    assert verify_cop(parse_matrix(text), [int(c) for c in out[1].split()])


def test_internal_error_exits_2(m1_file, capsys, monkeypatch):
    import cosr.cli

    def broken(M):
        raise RecursionError("injected")

    monkeypatch.setattr(cosr.cli, "cop_order", broken)
    assert run(["check-cop", m1_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "injected" in captured.err


def test_runs_share_one_parser(m1_file, monkeypatch):
    # The parser is built once, on first use, and every later run reuses it.
    import argparse

    run(["check-cop", m1_file])
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser, "__init__", lambda self, *a, **kw: built.append(self) or init(self, *a, **kw)
    )
    assert run(["check-cop", m1_file]) == 1 and run(["oracle", "solve", "--d", "1", m1_file]) == 0
    assert run(["solve", "--d", "x", m1_file]) == 2
    assert built == []
