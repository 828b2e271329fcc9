"""Benchmark of the cosr solver: one workload per process, reference-speed timing.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Builds the workload's instances from the seed, sets up (imports ``cosr``
and parses the instances) several times, then runs whole passes over the
workload's operations for about ``--seconds`` seconds, checking every
answer outside the timed region. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). Times are seconds at the reference speed of
``refspeed.py``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter

import checks
from refspeed import CHUNK_S, Meter
from spans import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # operations beyond the reported tail percentile


def set_up(workload, meter):
    """Import ``cosr`` afresh and parse every instance.

    Returns the package, the parsed matrices, and the scaled seconds of
    the whole set-up and of its import.
    """
    for name in [m for m in sys.modules if m == "cosr" or m.startswith("cosr.")]:
        del sys.modules[name]
    meter.factor()
    start = perf_counter()
    cosr = importlib.import_module("cosr")
    importlib.import_module("cosr.cli")
    imported = perf_counter()
    matrices = [] if workload.recognize else [cosr.parse_matrix(text) for text in workload.texts]
    end = perf_counter()
    factor = meter.factor()
    return cosr, matrices, (end - start) * factor, (imported - start) * factor


def operation(cosr, workload, matrices):
    """The callable for one operation. It looks the program's entry point
    up through its module on every call, so tracing can rebind it."""
    solver, cli = cosr.solver, cosr.cli

    def solve(op):
        index, d = op
        return solver.cos_r(matrices[index], d)

    def check_cop(op):
        stdin, stdout = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = io.StringIO(workload.texts[op[0]]), io.StringIO()
        try:
            return cli.run(["check-cop", "-"]), sys.stdout.getvalue()
        finally:
            sys.stdin, sys.stdout = stdin, stdout

    return check_cop if workload.recognize else solve


class Tally:
    """Checks each answer as it comes and counts failures and solver stats.

    An answer equal to one already checked for the same operation is not
    checked again; every pass runs the same operations.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.verified: dict[int, tuple] = {}
        self.errors: list[str] = []
        self.failed = 0
        self.stats: Counter = Counter()  # SolveStats summed over the current pass

    def __call__(self, position, out) -> None:
        if isinstance(out, str):
            self.failed += 1
            return
        index, d = self.workload.ops[position]
        inst = self.workload.instances[index]
        if d is None:
            answer = out
        else:
            answer = (out.feasible, out.solution, out.certificate)
            self.stats.update(out.stats.as_dict())
        if self.verified.get(position) == answer:
            return
        if d is None:
            error = checks.check_cop_output(inst.masks, inst.n, inst.has_cop, *answer)
        else:
            error = checks.check_solve(inst.masks, inst.n, d, *answer, inst.optimum, inst.exact or None)
        if error:
            self.errors.append(f"instance {index} d={d}: {error}")
        else:
            self.verified[position] = answer


def run_pass(call, ops, meter, tally, tracer=None):
    """One pass; each operation's duration scaled to the reference speed."""
    gc.collect()
    tally.stats.clear()
    times = []
    chunk_start, chunk_raw = 0, 0.0
    meter.factor()
    for position, op in enumerate(ops):
        start = perf_counter()
        try:
            out = call(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = type(exc).__name__
        raw = perf_counter() - start
        tally(position, out)
        del out
        times.append(raw)
        chunk_raw += raw
        if chunk_raw >= CHUNK_S or len(times) == len(ops):
            factor = meter.factor()
            for i in range(chunk_start, len(times)):
                times[i] *= factor
            if tracer is not None:
                tracer.close_chunk(factor)
            chunk_start, chunk_raw = len(times), 0.0
    return times


def layer_metrics(stats, calls, ms):
    """Per-layer figures of a traced pass: counts, and scaled milliseconds."""
    nodes, leaves = stats["internal_nodes"], stats["leaves"]
    metrics = {
        "solver.nodes": nodes,
        "solver.rule1": stats["rule1"],
        "solver.rule2": stats["rule2"],
        "solver.rule3": stats["rule3"],
        "solver.leaves": leaves,
        "solver.self_ms": ms.get("solver.cos_r", 0) + ms.get("solver.node", 0) + ms.get("solver.rule2_scan", 0),
        "graphs.rule2.pairs": calls.get("graphs.pair_subgraph", 0),
        "graphs.rule2.ms": ms.get("graphs.pair_subgraph", 0) + ms.get("graphs.find_c4", 0),
        "graphs.derived_graph.per_node": calls.get("graphs.derived_graph", 0) / max(1, nodes + leaves),
        "interval.is_interval.per_leaf": calls.get("interval.is_interval", 0) / max(1, leaves),
        # Whole stages, children included: the shares of a search node's steps.
        "stage.rule2.total_ms": ms.get("solver.rule2_scan.total", 0),
        "stage.rule3.total_ms": ms.get("graphs.rule3.total", 0),
        "stage.leaf.total_ms": ms.get("interval.deletion.total", 0),
    }
    for name in ("cop.cop_order", "graphs.helly", "graphs.rule3", "graphs.derived_graph", "graphs.is_chordal",
                 "interval.deletion", "interval.is_interval", "matrix.delete_rows"):
        metrics[name + ".calls"] = calls.get(name, 0)
        metrics[name + ".ms"] = ms.get(name, 0)
    for name in ("interval.minimalize", "matrix.parse", "matrix.set_system", "cli.run"):
        metrics[name + ".ms"] = ms.get(name, 0)

    def unit(name):
        if name.endswith(("_ms", ".ms")):
            return "ms"
        return "ratio" if name.endswith(("per_node", "per_leaf")) else "count"

    return {name: (value, unit(name)) for name, value in metrics.items()}


def tail(times):
    """The highest percentile with at least TAIL_BEYOND operations beyond it."""
    return sorted(times)[len(times) - TAIL_BEYOND - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cosr", "__init__.py")):
        print(f"error: the program's source is missing: {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload](args.seed)
    for inst in workload.instances:
        if inst.optimum is None and not workload.recognize:
            inst.optimum = checks.min_deletion(inst.masks, inst.n, 3)
    meter = Meter()
    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        cosr, matrices, seconds, import_seconds = set_up(workload, meter)
        setups.append(seconds)
        imports.append(import_seconds)
    call = operation(cosr, workload, matrices)
    tally = Tally(workload)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.bind(cosr)

    # With --trace 1, untraced and traced passes alternate: the difference
    # of their medians is the tracing overhead.
    passes = {False: [], True: []}  # traced? -> [(scaled times, raw seconds)]
    layer_ms = []
    started = perf_counter()
    while True:
        traced = bool(args.trace) and len(passes[False]) > len(passes[True])
        if traced:
            tracer.reset()
            tracer.install()
        pass_start = perf_counter()
        times = run_pass(call, workload.ops, meter, tally, tracer if traced else None)
        passes[traced].append((times, perf_counter() - pass_start))
        if traced:
            tracer.remove()
            tracer.recording = False
            layer_ms.append({**tracer.self_ms, **{name + ".total": ms for name, ms in tracer.total_ms.items()}})
        elapsed = perf_counter() - started
        done = len(passes[False]) + len(passes[True])
        if elapsed * (done + 1) / done > args.seconds and (not args.trace or passes[True]):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def solve_s(traced):
        return statistics.median(sum(times) for times, _ in passes[traced])

    if args.trace:
        names = {name for ms in layer_ms for name in ms}
        median_ms = {name: statistics.median(ms.get(name, 0) for ms in layer_ms) for name in names}
        metrics = layer_metrics(tally.stats, tracer.calls, median_ms)
        metrics["trace.solve_s"] = (solve_s(True), "s")
        metrics["trace.overhead_s"] = (solve_s(True) - solve_s(False), "s")
        metrics["setup.import.ms"] = (statistics.median(imports) * 1e3, "ms")
        metrics["setup.parse.ms"] = (statistics.median(s - i for s, i in zip(setups, imports)) * 1e3, "ms")
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}.jsonl"))
    else:
        # Each operation's time is its median over the passes.
        op_times = [statistics.median(op) for op in zip(*(times for times, _ in passes[False]))]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "solve_s": (solve_s(False), "s"),
            "op_p50_ms": (statistics.median(op_times) * 1e3, "ms"),
            "op_tail_ms": (tail(op_times) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    raw = [seconds for kind in passes.values() for _, seconds in kind]
    print(
        f"# {args.workload} seed {args.seed}: {len(raw)} passes of {len(workload.ops)} operations, "
        f"raw pass seconds {' '.join(f'{s:.3f}' for s in raw)}, "
        f"kernel median {statistics.median(meter.kernels) * 1e3:.3f} ms"
    )
    for error in tally.errors[:5]:
        print(f"# wrong answer: {error}", file=sys.stderr)
    result = {
        "correct": not tally.errors,
        "attempted": len(raw) * len(workload.ops),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"run-{args.workload}-{args.seed}-{args.trace}.json"), "w") as out:
        out.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
