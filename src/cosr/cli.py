"""Command-line front end.

Subcommands: check-cop, solve, interval-deletion, convex-bipartite,
oracle (brute-force mirrors), and gen (instance generator). All labels
in input and output are 1-based; exit status is 0 on YES, 1 on NO, and
2 on usage or parse errors and on any internal fault.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .errors import GuardError, ParseError
from .graphs import Graph, parse_graph
from .interval import interval_deletion
from .matrix import delete_rows, parse_matrix, serialize_matrix
from .oracle import brute_cop, brute_cosr, brute_interval_deletion, random_instance
from .cop import cop_order
from .solver import SolveReport, convex_bipartite_deletion, cos_r

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit_report(report: SolveReport, show_stats: bool) -> int:
    sys.stdout.write(report.to_text())
    if show_stats:
        for key, value in report.stats.as_dict().items():
            print(f"# {key} {value}")
    return EXIT_YES if report.feasible else EXIT_NO


def _cmd_check_cop(args) -> int:
    order = args.recognize(parse_matrix(_read_input(args.input)))
    if order is None:
        print("NO")
        return EXIT_NO
    print("YES")
    print(" ".join(str(c) for c in order))
    return EXIT_YES


def _cmd_solve(args) -> int:
    M = parse_matrix(_read_input(args.input))
    return _emit_report(cos_r(M, args.d), args.stats)


def _cmd_interval_deletion(args) -> int:
    removed = args.delete(parse_graph(_read_input(args.input)), args.d)
    if removed is None:
        print("NO")
        return EXIT_NO
    print(" ".join(str(v) for v in sorted(removed)))
    return EXIT_YES


def _parse_bipartite(text: str) -> tuple[Graph, frozenset[int]]:
    """Graph file with an extra "sides k" line (vertices 1..k form V1)."""
    sides = None
    kept: list[str] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        parts = line.split()
        if parts[:1] == ["sides"]:
            if sides is not None or len(parts) != 2 or not (parts[1].isascii() and parts[1].isdigit()):
                raise ParseError(no, f"bad side partition line {line!r}")
            sides = int(parts[1])
            raw = ""  # a blank in its place keeps later line numbers
        kept.append(raw)
    if sides is None:
        raise ParseError(1, "missing 'sides k' line")
    graph = parse_graph("\n".join(kept))
    if sides > graph.n:
        raise ParseError(1, f"sides {sides} exceeds vertex count {graph.n}")
    return graph, frozenset(range(1, sides + 1))


def _cmd_convex_bipartite(args) -> int:
    graph, side_one = _parse_bipartite(_read_input(args.input))
    return _emit_report(convex_bipartite_deletion(graph, side_one, args.d), args.stats)


def _cmd_oracle_solve(args) -> int:
    M = parse_matrix(_read_input(args.input))
    deleted = brute_cosr(M, args.d)
    certificate = None if deleted is None else brute_cop(delete_rows(M, deleted))
    return _emit_report(SolveReport(deleted is not None, deleted, certificate), False)


def _cmd_gen(args) -> int:
    M = random_instance(args.seed, args.rows, args.cols, args.density)
    text = serialize_matrix(M)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return EXIT_YES


def _nonnegative(value: str) -> int:
    """ASCII digits only, as in the file formats: ``int`` alone would also
    take other scripts' digits and underscores."""
    if not (value.isascii() and value.isdigit()):
        raise argparse.ArgumentTypeError("must be an integer >= 0")
    return int(value)


def _integer(value: str) -> int:
    """``_nonnegative``'s digits, after an optional minus sign."""
    if not (value.isascii() and value.removeprefix("-").isdigit()):
        raise argparse.ArgumentTypeError("must be an integer")
    return int(value)


def _number(value: str) -> float:
    """A ``float`` spelled in ASCII without underscores, as ``float`` alone
    would also take other scripts' digits and "1_0"."""
    try:
        if value.isascii() and "_" not in value:
            return float(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("must be a number")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared."""
    parser = argparse.ArgumentParser(
        prog="cosr",
        description="Exact consecutive-ones row deletion and interval deletion solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-cop", help="test a matrix for the consecutive ones property")
    p.add_argument("input", help="matrix file, or - for stdin")
    # Looked up at each call: the parser outlives a rebinding of ``cop_order``.
    p.set_defaults(func=_cmd_check_cop, recognize=lambda M: cop_order(M))

    p = sub.add_parser("solve", help="delete at most d rows to reach the property")
    p.add_argument("input", help="matrix file, or - for stdin")
    p.add_argument("--d", type=_nonnegative, required=True, help="deletion budget")
    p.add_argument("--stats", action="store_true", help="append '# key value' counters")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("interval-deletion", help="delete at most d vertices to reach an interval graph")
    p.add_argument("input", help="graph file, or - for stdin")
    p.add_argument("--d", type=_nonnegative, required=True)
    p.set_defaults(func=_cmd_interval_deletion, delete=interval_deletion)

    p = sub.add_parser("convex-bipartite", help="delete at most d side-one vertices to reach convexity")
    p.add_argument("input", help="graph file with a 'sides k' line, or - for stdin")
    p.add_argument("--d", type=_nonnegative, required=True)
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=_cmd_convex_bipartite)

    oracle = sub.add_parser("oracle", help="brute-force reference solvers")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)

    p = osub.add_parser("check-cop")
    p.add_argument("input")
    p.set_defaults(func=_cmd_check_cop, recognize=brute_cop)

    p = osub.add_parser("solve")
    p.add_argument("input")
    p.add_argument("--d", type=_nonnegative, required=True)
    p.set_defaults(func=_cmd_oracle_solve)

    p = osub.add_parser("interval-deletion")
    p.add_argument("input")
    p.add_argument("--d", type=_nonnegative, required=True)
    p.set_defaults(func=_cmd_interval_deletion, delete=brute_interval_deletion)

    p = sub.add_parser("gen", help="write a seeded random matrix file")
    p.add_argument("--rows", type=_nonnegative, required=True)
    p.add_argument("--cols", type=_nonnegative, required=True)
    p.add_argument("--density", type=_number, required=True)
    p.add_argument("--seed", type=_integer, required=True)
    p.add_argument("--out", default="-", help="output path, or - for stdout")
    p.set_defaults(func=_cmd_gen)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, GuardError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # an internal fault must not read as "NO"
        import traceback  # only needed here; importing it costs ~0.1 MB

        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
