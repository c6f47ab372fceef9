#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of benchmark runs of the same code.

    python3 perfbench/steady.py --runs 10

The workloads and the run length are those of BENCHMARK.json. Run i of set
s uses seed ``100 * s + i``, so the two sets share no seed. Runs go
round-robin over (run, set, workload), and the set that goes first
alternates with i, so slow drift of the machine lands on both sets alike.
For each end-to-end metric of each workload the report gives, per set, the
median, the quartiles and the spread (q3 - q1) / median, and the change of
the second set's median against the first set's, in the metric's worse
direction. A metric is "ok" when both spreads and that change stay within
the metric's bound in BENCHMARK.json, and the share of failed operations is
the same in both sets. All run results are saved to
``perfbench/out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def run_once(spec, workload: str, seed: int, seconds: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["wall_s"] = wall
    return res


def summarize(spec, results) -> list[str]:
    lines = []
    ok_all = True
    for wl in sorted({r["workload"] for r in results}):
        rows = [r for r in results if r["workload"] == wl]
        sets = range(SETS)
        shares = {s: {(r["result"]["failed"], r["result"]["attempted"]) for r in rows
                      if r["set"] == s} for s in sets}
        fail_share = {s: {f / a for f, a in v} for s, v in shares.items()}
        correct = all(r["result"]["correct"] for r in rows)
        walls = [r["result"]["wall_s"] for r in rows]
        lines.append(f"{wl}: runs {len(rows)}, correct {correct}, failed share "
                     f"{fail_share}, wall {min(walls):.1f}-{max(walls):.1f} s")
        same_share = len(set.union(*fail_share.values())) == 1
        ok_all &= correct and same_share
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            meds, spreads = [], []
            parts = []
            for s in sets:
                vals = [r["result"]["metrics"][name]["value"] for r in rows if r["set"] == s]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                meds.append(med)
                spreads.append((q3 - q1) / med)
                parts.append(f"set{s} med {med:.5g} [{q1:.5g}, {q3:.5g}] spread {spreads[-1]:.3f}")
            worse = sign * (meds[-1] - meds[0]) / meds[0]
            ok = worse <= bound and max(spreads) <= bound
            ok_all &= ok
            lines.append(f"  {name:<12} bound {bound:.2f} | " + " | ".join(parts)
                         + f" | worse {worse:+.3f} {'ok' if ok else 'FAIL'}")
    lines.append("steady" if ok_all else "NOT steady")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="interleaved steadiness runs")
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = []
    for i in range(1, args.runs + 1):
        order = list(range(SETS))
        if i % 2 == 0:
            order.reverse()
        for s in order:
            for wl in workloads:
                res = run_once(spec, wl, 100 * s + i, seconds)
                results.append({"workload": wl, "set": s, "seed": 100 * s + i, "result": res})
                print(f"run {i} set {s} {wl}: " + json.dumps(res), flush=True)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as f:
        json.dump({"seconds": seconds, "results": results}, f, indent=1)
    lines = summarize(spec, results)
    print("\n".join(lines))
    print(f"results: {path}")
    return 0 if lines[-1] == "steady" else 1


if __name__ == "__main__":
    sys.exit(main())
