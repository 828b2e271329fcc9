"""Tests of the benchmark's answer checkers and built-in optima.

    python3 -m pytest bench/test_checks.py
"""

import os
import sys
from itertools import combinations

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import pytest

from checks import check_cop_output, check_solve, contiguity_error, has_cop, min_deletion
from workloads import _planted_instance, _recognize_pair, _staircase, core, corpus
from cosr import cos_r, parse_matrix
from cosr.oracle import brute_cosr, random_instance


def _solve(inst, d):
    return cos_r(parse_matrix(inst.text()), d)


def test_corpus_is_the_acceptance_corpus():
    insts = corpus(0).instances
    assert len(insts) == 504
    for i in (0, 1, 2, 250, 503):
        m, n = len(insts[i].masks), insts[i].n
        expected = random_instance(100_000 + i, m, n, (0.3, 0.5, 0.7)[i % 3])
        assert insts[i].masks == list(expected.rows)


def test_min_deletion_matches_the_oracle():
    for inst in corpus(0).instances[::8]:
        best = brute_cosr(parse_matrix(inst.text()), 3)
        assert min_deletion(inst.masks, inst.n, 3) == (4 if best is None else len(best))


def test_has_cop_on_known_matrices():
    assert has_cop([0b011, 0b110], 3)
    assert not has_cop([0b110, 0b101, 0b011], 3)  # complement of the identity
    assert has_cop(_staircase(list(range(9)), 8).masks, 9)


@pytest.mark.parametrize("k", [5, 6, 7])
def test_core_optimum_is_k_minus_2(k):
    for inst in core(k).instances:
        if inst.n == k:
            assert min_deletion(inst.masks, k, k) == inst.optimum == k - 2


@pytest.mark.parametrize("n,k,extra", [(8, 1, 4), (9, 2, 3), (10, 2, 6), (8, 3, 2)])
def test_planted_optimum_is_unique(n, k, extra):
    inst = _planted_instance(list(reversed(range(n))), k, extra)
    rows = range(len(inst.masks))
    solutions = [
        set(i + 1 for i in gone)
        for gone in combinations(rows, k)
        if has_cop([r for i, r in enumerate(inst.masks) if i not in gone], n)
    ]
    assert min_deletion(inst.masks, n, k) == k
    assert solutions == [set(inst.exact)]


@pytest.mark.parametrize("n,extra", [(6, 2), (9, 5), (12, 10)])
def test_recognize_verdicts_are_right(n, extra):
    for inst in _recognize_pair(list(reversed(range(n))), extra):
        assert has_cop(inst.masks, n) == inst.has_cop


def _checked(inst, d, feasible, solution, certificate, exact=None):
    return check_solve(inst.masks, inst.n, d, feasible, solution, certificate, inst.optimum, exact)


def test_check_solve_accepts_the_solver_and_rejects_tampering():
    inst = _planted_instance(list(range(40)), 2, 20)
    good = _solve(inst, 2)
    assert _checked(inst, 2, good.feasible, good.solution, good.certificate, inst.exact) is None
    assert _checked(inst, 1, False, None, None) is None
    # a flipped verdict, either way
    assert _checked(inst, 2, False, None, None) is not None
    assert _checked(inst, 1, True, good.solution, good.certificate) is not None
    # a dropped solution row: the noise row left in breaks the certificate
    dropped = set(good.solution) - {min(good.solution)}
    assert _checked(inst, 2, True, dropped, good.certificate) is not None
    assert contiguity_error(inst.masks, inst.n, good.certificate, dropped) is not None
    # a swapped certificate
    swapped = list(good.certificate)
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    assert _checked(inst, 2, True, good.solution, tuple(swapped)) is not None
    # a row that does not exist
    assert _checked(inst, 2, True, {len(inst.masks) + 1}, good.certificate) is not None


def test_check_cop_output_rejects_tampering():
    inst = _staircase([3, 0, 4, 1, 2], 4)
    order = [4, 1, 5, 2, 3]
    assert check_cop_output(inst.masks, inst.n, True, 0, f"YES\n{' '.join(map(str, order))}\n") is None
    order[0], order[-1] = order[-1], order[0]
    assert check_cop_output(inst.masks, inst.n, True, 0, f"YES\n{' '.join(map(str, order))}\n") is not None
    assert check_cop_output(inst.masks, inst.n, True, 1, "NO\n") is not None
    assert check_cop_output(inst.masks, inst.n, False, 0, "YES\n1 2 3 4 5\n") is not None
    assert check_cop_output(inst.masks, inst.n, False, 1, "NO\n") is None
