"""Answer checkers written apart from the solver.

Nothing here imports ``cosr``. Instances are given as the benchmark built
them: one int mask per row over 0-based column positions, with row label
``i + 1`` for ``masks[i]`` and column label ``j + 1`` for bit ``j``. Each
checker returns None when the output is right and a short reason when it
is not.
"""

from __future__ import annotations

from itertools import combinations


def has_cop(masks, n: int) -> bool:
    """Exhaustive consecutive-ones test by a search over placed-column sets.

    Columns are placed left to right. A row is open when some but not all
    of its columns are placed; the next column must lie in every open row,
    or that row's run would break and resume later. Whether a prefix can be
    completed depends only on the set of placed columns, so the search
    visits each of the 2**n sets at most once.
    """
    rows = [r for r in set(masks) if r & (r - 1)]
    full = (1 << n) - 1
    seen = {0}
    stack = [0]
    while stack:
        placed = stack.pop()
        if placed == full:
            return True
        allowed = full & ~placed
        for r in rows:
            if r & placed and r & ~placed:
                allowed &= r
        while allowed:
            bit = allowed & -allowed
            allowed ^= bit
            if placed | bit not in seen:
                seen.add(placed | bit)
                stack.append(placed | bit)
    return False


def min_deletion(masks, n: int, cap: int) -> int:
    """Fewest rows whose deletion leaves COP, or ``cap + 1`` if more than ``cap``."""
    for k in range(min(cap, len(masks)) + 1):
        for dropped in combinations(range(len(masks)), k):
            gone = set(dropped)
            if has_cop([r for i, r in enumerate(masks) if i not in gone], n):
                return k
    return cap + 1


def contiguity_error(masks, n: int, order, deleted=()) -> str | None:
    """Why ``order`` (column labels) fails to make every kept row contiguous."""
    if sorted(order) != list(range(1, n + 1)):
        return "certificate is not a permutation of the columns"
    pos = [0] * n
    for i, label in enumerate(order):
        pos[label - 1] = i
    gone = set(deleted)
    for i, mask in enumerate(masks):
        if i + 1 in gone or not mask:
            continue
        places = [pos[j] for j in range(n) if mask >> j & 1]
        if max(places) - min(places) + 1 != len(places):
            return f"row {i + 1} is not contiguous under the certificate"
    return None


def check_solve(masks, n, d, feasible, solution, certificate, optimum, exact=None) -> str | None:
    """Check one ``cos_r`` answer against the instance's minimum deletion size.

    ``optimum`` is the minimum deletion size (any value above ``d`` means
    NO). ``exact``, when given, is the only solution of size ``optimum``.
    """
    if feasible != (optimum <= d):
        return f"verdict {'YES' if feasible else 'NO'} at d={d}, optimum {optimum}"
    if not feasible:
        return None if solution is None and certificate is None else "NO carries a solution"
    if not set(solution) <= set(range(1, len(masks) + 1)):
        return "solution names a row that does not exist"
    if len(solution) > d:
        return f"solution deletes {len(solution)} rows with d={d}"
    if exact is not None and set(solution) != set(exact):
        return f"solution {sorted(solution)} is not the planted {sorted(exact)}"
    return contiguity_error(masks, n, certificate, solution)


def check_cop_output(masks, n, has, code, out) -> str | None:
    """Check ``cosr check-cop`` exit code and text against the known verdict."""
    if not has:
        return None if (code, out) == (1, "NO\n") else f"expected NO, got exit {code}"
    lines = out.split("\n")
    if code != 0 or lines[0] != "YES" or len(lines) != 3 or lines[2]:
        return f"expected YES with an order, got exit {code}"
    try:
        order = [int(tok) for tok in lines[1].split()]
    except ValueError:
        return "order line is not a list of labels"
    return contiguity_error(masks, n, order)
