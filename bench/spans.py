"""Spans around the calls between the program's layers.

Tracing rebinds the names that ``cosr.solver``, ``cosr.graphs``,
``cosr.interval`` and ``cosr.cli`` call through, so every call made
through one of those names opens a span. A span records its name, start,
end and parent in memory; its self time is its duration minus the time of
its child spans. Self times are scaled by the reference-speed factor of
the chunk they ran in.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

# (module, name it is called by, span name). A function called from
# several modules is wrapped in each, under one span name. ``cop_order``
# inside ``interval`` is left unwrapped: the clique-matrix test belongs to
# ``is_interval``, and ``cop.cop_order`` stays the step-0 and CLI test.
WRAPPED = [
    ("solver", "cos_r", "solver.cos_r"),
    ("solver", "_solve", "solver.node"),
    ("solver", "_find_rule2_cycle", "solver.rule2_scan"),
    ("solver", "cop_order", "cop.cop_order"),
    ("solver", "set_system", "matrix.set_system"),
    ("solver", "delete_rows", "matrix.delete_rows"),
    ("solver", "find_helly_violation", "graphs.helly"),
    ("solver", "pair_subgraph", "graphs.pair_subgraph"),
    ("solver", "find_c4", "graphs.find_c4"),
    ("solver", "find_uncovered_clique", "graphs.rule3"),
    ("solver", "derived_graph", "graphs.derived_graph"),
    ("solver", "interval_deletion", "interval.deletion"),
    ("graphs", "derived_graph", "graphs.derived_graph"),
    ("graphs", "is_chordal", "graphs.is_chordal"),
    ("interval", "is_chordal", "graphs.is_chordal"),
    ("interval", "is_interval", "interval.is_interval"),
    ("interval", "minimalize_solution", "interval.minimalize"),
    ("cli", "run", "cli.run"),
    ("cli", "parse_matrix", "matrix.parse"),
    ("cli", "cop_order", "cop.cop_order"),
]


class Tracer:
    def __init__(self) -> None:
        self.recording = True  # keep spans for the output file
        self.spans: list[tuple | None] = []
        self.calls: Counter = Counter()
        self.self_ms: defaultdict = defaultdict(float)  # scaled, closed chunks only
        self.total_ms: defaultdict = defaultdict(float)  # the same, children included
        self._chunk: defaultdict = defaultdict(float)  # raw self seconds, open chunk
        self._chunk_total: defaultdict = defaultdict(float)
        self._stack: list[list] = []  # [span index or -1, child seconds]

    def wrap(self, name: str, fn):
        stack, chunk, chunk_total, calls, spans = self._stack, self._chunk, self._chunk_total, self.calls, self.spans

        def traced(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1][0] if stack else -1
            index = -1
            if self.recording:
                index = len(spans)
                spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                chunk[name] += end - start - frame[1]
                chunk_total[name] += end - start
                if stack:
                    stack[-1][1] += end - start
                if index >= 0:
                    spans[index] = (name, start, end, parent)

        return traced

    def bind(self, cosr) -> None:
        """Prepare a wrapper for every name in WRAPPED; ``install`` puts them in place."""
        self._bindings = []
        for module, attr, name in WRAPPED:
            owner = getattr(cosr, module)
            original = getattr(owner, attr)
            self._bindings.append((owner, attr, original, self.wrap(name, original)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def close_chunk(self, factor: float) -> None:
        for name, raw in self._chunk.items():
            self.self_ms[name] += raw * factor * 1e3
        for name, raw in self._chunk_total.items():
            self.total_ms[name] += raw * factor * 1e3
        self._chunk.clear()
        self._chunk_total.clear()

    def reset(self) -> None:
        """Start the per-pass totals again; recorded spans stay."""
        for totals in (self.calls, self.self_ms, self.total_ms, self._chunk, self._chunk_total):
            totals.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
