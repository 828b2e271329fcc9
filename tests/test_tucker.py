"""Planted copies of Tucker's minimal non-COP matrices (``tucker.py``): exact
optima past the oracle's column guard, the rule or leaf each family reaches
on its own, and copies past the budget refuted at the root."""

import random

from cosr import cop_order, cos_r, delete_rows
from cosr.oracle import _MAX_BRUTE_COLS, brute_cosr
from tucker import check_one_deletion_per_copy, families, matrix, planted


def test_every_family_is_minimally_without_the_property():
    for name, family in families(8).items():
        M = matrix(family)
        assert cop_order(M) is None, name
        assert all(cop_order(delete_rows(M, [r])) is not None for r in M.row_ids), name


def test_single_copies_reach_the_pinned_rule_or_leaf():
    # At d = 1, M_I(3) is an H1 triple and M_III(3) an H2 triple, so rule 1
    # fires; M_I(4) is an induced C4 inside one column pair, so rule 2 does.
    # Every other family leaves the three rules clean (M_I(k >= 5) is a hole
    # of the derived graph), and its leaf answers in two branch nodes. No
    # family alone fires rule 3.
    pinned = {"M_I(3)": (1, 0, 0, 0, 0), "M_III(3)": (1, 0, 0, 0, 0), "M_I(4)": (0, 1, 0, 0, 0)}
    for name, family in families(8).items():
        report = cos_r(matrix(family), 1)
        stats = report.stats
        assert report.feasible and len(report.solution) == 1, name
        got = (stats.rule1, stats.rule2, stats.rule3, stats.leaves, stats.leaf_nodes)
        assert got == pinned.get(name, (0, 0, 0, 1, 2)), name


def _instances():
    """Fixed draws of one to five copies of the families up to k = 6, some
    with background interval rows: the copy count, the matrix and each
    copy's row labels."""
    rng = random.Random(97)
    pool = list(families(6).values())
    for r in (1, 1, 2, 2, 3, 3, 4, 4, 5, 5):
        yield (r, *planted([rng.choice(pool) for _ in range(r)], rng, rng.choice((0, 0, 2, 3))))


def test_planted_copies_need_one_deletion_each():
    # Each copy needs a deletion of its own, and one row of each is enough,
    # so the optimum is the copy count; within the oracle's guard, the
    # oracle agrees.
    past_guard = 0
    for r, M, groups in _instances():
        check_one_deletion_per_copy(M, groups)
        if M.n > _MAX_BRUTE_COLS:
            past_guard += 1
        else:
            assert len(brute_cosr(M, r)) == r, M
    assert past_guard >= 4, past_guard


def test_copies_past_the_budget_are_refuted_at_the_root():
    # r copies on disjoint columns are r row-disjoint overlap components
    # without the property, so at d = r - 1 step 0's bound answers NO at the
    # root: no rule fires and no leaf searches, where the search alone takes
    # time exponential in r. At d = r one row of each copy still goes. (At
    # r = 1 the root has no budget left, and its rules run as before.)
    rng = random.Random(12)
    for name, family in families(6).items():
        for r in range(2, 13):
            M, groups = planted([family] * r, rng)
            stats = cos_r(M, r - 1).stats
            assert (stats.internal_nodes, stats.leaves) == (0, 0), (name, r)
            check_one_deletion_per_copy(M, groups)
