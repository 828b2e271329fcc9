"""The benchmark's tracer wraps functions by module and name; they must exist."""

import importlib.util
from pathlib import Path

import cosr
import cosr.cli  # noqa: F401  (makes ``cosr.cli`` an attribute for the tracer)

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_tracer_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.bind(cosr)
    assert len(tracer._bindings) == len(spans.WRAPPED)
