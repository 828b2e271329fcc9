"""The benchmark's tracer wraps functions by module and name; they must exist."""

import ast
import importlib.util
from pathlib import Path

import cosr
import cosr.cli  # noqa: F401  (makes ``cosr.cli`` an attribute for the tracer)

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_names_resolve():
    spans = _spans()
    tracer = spans.Tracer()
    tracer.bind(cosr)
    assert len(tracer._bindings) == len(spans.WRAPPED)


def test_unused_imports_are_wrapped():
    # The reverse: a name that ``cosr.solver`` or ``cosr.interval`` imports
    # but never reads is kept only for the tracer, so the tracer must wrap
    # it there. Once the tracer stops wrapping it, the import can go.
    wrapped = {(module, attr) for module, attr, _ in _spans().WRAPPED}
    for module in ("solver", "interval"):
        tree = ast.parse(Path(cosr.__file__).with_name(f"{module}.py").read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module != "__future__" for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = {(module, name) for name in imported - read}
        assert unused <= wrapped, sorted(unused - wrapped)
