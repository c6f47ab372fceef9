#!/usr/bin/env python3
"""ergokit benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload report_corpus --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; ergokit is imported from ``src/`` there.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` the run alternates untraced and traced passes and
reports per-layer metrics, per operation, and writes every span to
``perfbench/out/trace-<workload>-<seed>.json``.

A run is whole passes over the workload's fixed, seeded list of operations
(closed loop, one caller), repeated until ``--seconds`` have been measured
and at least MIN_OPS operations were timed, so every run has the same mix.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread in this process, fixed before numpy loads; ergokit's own
# thread pool stays at its default of one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ERGOKIT_THREADS", None)

import argparse
import json
import resource
import shutil
import statistics
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")

#: Fewest timed operations per run, so op_s.p90 rests on enough samples.
MIN_OPS = 40


def _import_program():
    sys.path.insert(0, SRC)
    try:
        import ergokit
    except ImportError as e:
        sys.exit(f"perfbench: cannot import ergokit from {SRC}: {e}")
    if not os.path.abspath(ergokit.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: ergokit loaded from {ergokit.__file__}, not {SRC}")


class Run:
    """Counts and timings of one run's operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []  # ops that raised
        self.mismatches: list[str] = []  # ops whose output failed a check

    def attempt(self, op, timed):
        """Run one op through ``timed(fn) -> (out, seconds)``, check it, and
        return its seconds, or None if it raised."""
        from workloads import CheckError

        self.attempted += 1
        try:
            out, dt = timed(op.call)
        except Exception as e:  # a failed operation is counted, not fatal
            self.failures.append(f"{op.name}: {type(e).__name__}: {e}")
            return None
        try:
            op.check(out)
        except CheckError as e:
            self.mismatches.append(f"{op.name}: {e}")
        return dt


def plain_timer(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def timed_passes(build, seed: int, workdir: str, seconds: float, min_ops: int):
    """Yield (set-up times so far, ops) until ``seconds`` have passed and
    ``min_ops`` operations were handed out. Before each pass the inputs are set up
    afresh: the seeded build plus one warm-up call of the first op. Set-ups
    thus spread over the whole run, like the ops, and the run's set-up time
    is their median. The list of set-up times is filled in place."""
    setups: list[float] = []
    handed = 0
    k = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or handed < min_ops:
        d = os.path.join(workdir, f"pass{k}")
        os.makedirs(d)
        t0 = time.perf_counter()
        ops = build(seed, d)
        ops[0].call()
        setups.append(time.perf_counter() - t0)
        yield setups, ops
        handed += len(ops)
        shutil.rmtree(d)
        k += 1


def quantile(values, q: int) -> float:
    """The q-th percentile, inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run, build, seed: int, workdir: str, seconds: float) -> dict:
    # every import is done by now: the peak counts only what the run adds
    base_rss = peak_rss_mb()
    by_op: dict[str, list[float]] = {}
    for setups, ops in timed_passes(build, seed, workdir, seconds, MIN_OPS):
        for op in ops:
            dt = run.attempt(op, plain_timer)
            if dt is not None:
                by_op.setdefault(op.name, []).append(dt)
    times = [t for ts in by_op.values() for t in ts]
    return {
        "ops_per_s": len(times) / sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.p90": quantile(times, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb() - base_rss,
    }


def per_layer(run: Run, build, seed: int, workdir: str, seconds: float,
              trace_path: str) -> dict:
    from tracing import LAYERS, WALKER_FUNCTIONS, Tracer

    tracer = Tracer()
    plain: dict[str, list[float]] = {}
    traced: dict[str, list[float]] = {}
    for _, ops in timed_passes(build, seed, workdir, seconds, MIN_OPS):
        for op in ops:
            dt = run.attempt(op, plain_timer)
            if dt is not None:
                plain.setdefault(op.name, []).append(dt)
        tracer.install()
        try:
            for op in ops:
                dt = run.attempt(op, tracer.op)
                if dt is not None:
                    traced.setdefault(op.name, []).append(dt)
        finally:
            tracer.uninstall()
    tracer.write(trace_path)

    agg = tracer.aggregate()
    n = sum(len(ts) for ts in traced.values())
    # self time only: the sampling loop, without the traced checks
    # (analyze, product_ergodicity, ...) these functions call first
    walker_s = sum(agg["fn_self"][f] for f in WALKER_FUNCTIONS)
    layer_self = {m: agg["self"][m] / n for m in LAYERS}
    traced_op = sum(sum(ts) for ts in traced.values()) / n

    def median_op(by_op):  # mean over op types of each type's median time
        return statistics.mean(statistics.median(ts) for ts in by_op.values())

    metrics = {
        "trace.op_s": traced_op,
        "trace.overhead_s": median_op(traced) - median_op(plain),
        "trace.unattributed_s": traced_op - sum(layer_self.values()),
        "coupling.walker_steps": tracer.walker_steps / n,
        "walker_steps_per_s": tracer.walker_steps / walker_s if walker_s else 0.0,
    }
    for m in LAYERS:
        metrics[f"{m}.self_s"] = layer_self[m]
    for name in sorted(agg["calls"]):
        if name.partition(".")[0] in LAYERS:
            metrics[f"{name}.calls"] = agg["calls"][name] / n
            metrics[f"{name}.s"] = agg["inclusive"][name] / n
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ergokit benchmark (one workload per run)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    run = Run()
    try:
        build = WORKLOADS[args.workload]
        if args.trace:
            trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
            metrics = per_layer(run, build, args.seed, workdir, args.seconds, trace_path)
        else:
            metrics = end_to_end(run, build, args.seed, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in (run.failures + run.mismatches)[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    # a layer function that this workload never calls reads 0
    print(json.dumps({
        "correct": not run.mismatches,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
