"""The benchmark's workloads keep their answers: one hash per workload and seed.

``bench/workloads.py`` is loaded by path and each operation runs as the
benchmark runs it, outside its timer. A solve hashes ``to_text()`` then
``repr(stats.as_dict())``; a ``check-cop`` run hashes its exit code, a
newline and its standard output. A solve workload also has an answer-only
hash, over ``to_text()`` alone, so a change that moves only counters moves
the first hash and keeps the second. The ``corpus`` workload is the
matrices of ``test_acceptance``, whose answers are pinned there.
"""

import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import cosr
import cosr.cli

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"

PINNED = {
    ("core", 1): "c602d470cea45acc",
    ("core", 2): "d2f8738496ef8650",
    ("planted", 1): "61ca612df70411fa",
    ("planted", 2): "2d1d3176930a4b28",
    ("recognize", 1): "986d08f69055cabd",
    ("recognize", 2): "bba4aff4c9c039e9",
}
PINNED_TEXTS = {
    ("core", 1): "0bbd540577249050",
    ("core", 2): "2f9d7ff42c78162e",
    ("planted", 1): "bf0331feefe233fa",
    ("planted", 2): "3a01b374f07382a6",
}


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _check_cop(text, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = cosr.cli.run(["check-cop", "-"])
    return f"{code}\n{capsys.readouterr().out}"


@pytest.mark.parametrize("name, seed", sorted(PINNED))
def test_workload_answers_are_byte_identical(name, seed, capsys, monkeypatch):
    workload = _workloads()[name](seed)
    answers = hashlib.sha256()
    if workload.recognize:
        for index, _ in workload.ops:
            answers.update(_check_cop(workload.texts[index], capsys, monkeypatch).encode())
    else:
        texts = hashlib.sha256()
        matrices = [cosr.parse_matrix(text) for text in workload.texts]
        for index, d in workload.ops:
            report = cosr.cos_r(matrices[index], d)
            answers.update(report.to_text().encode())
            answers.update(repr(report.stats.as_dict()).encode())
            texts.update(report.to_text().encode())
        assert texts.hexdigest()[:16] == PINNED_TEXTS[name, seed]
    assert answers.hexdigest()[:16] == PINNED[name, seed]
