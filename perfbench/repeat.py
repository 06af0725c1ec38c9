"""Repeat the benchmark over seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/repeat.py --runs 10 [--trace-runs 3]
        [--baseline perfbench/baseline.json]

Every workload of BENCHMARK.json runs for its run_seconds. Runs are
interleaved (seed 1 of every workload, then seed 2, ...) so that a change in
machine load falls on all workloads alike. For every metric it prints the
median, the quartiles of statistics.quantiles(n=4), and the spread
(q3 - q1) / median, which for an end-to-end metric must stay within its
bound in BENCHMARK.json (marked `!` above a third of the bound). Exact counts
(per-layer metrics in `count`) must be identical in every traced run; the
command exits 1 when one is not. With --baseline it writes these figures,
with the environment, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    env = json.loads(lines[0][len("env "):])
    return json.loads(lines[-1]), env


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    results = {w: {0: [], 1: []} for w in names}
    envs = []
    plan = [(seed, 0) for seed in range(1, args.runs + 1)]
    plan += [(seed, 1) for seed in range(1, args.trace_runs + 1)]
    for seed, trace in plan:
        for w in names:
            result, env = run_once(w, seed, seconds, trace)
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: {result['failed']} failed checks")
            results[w][trace].append(result["metrics"])
            envs.append({"workload": w, "seed": seed, "trace": trace, **env})
            print(f"{w} seed {seed} trace {trace}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if k in bounds), flush=True)

    report = {"env": envs[0] if envs else None, "load": [(e["loadavg_start"], e["loadavg_end"]) for e in envs],
              "run_seconds": seconds, "runs": args.runs, "trace_runs": args.trace_runs,
              "workloads": {}}
    worst = 0.0
    drifting = []
    for w in names:
        entry = report["workloads"][w] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            runs = results[w][trace]
            if not runs:
                continue
            entry[key] = {}
            for metric, first in runs[0].items():
                s = summarize([r[metric]["value"] for r in runs])
                s["unit"] = first["unit"]
                entry[key][metric] = s
                if trace == 1 and s["unit"] == "count" and len(set(s["values"])) > 1:
                    drifting.append(f"{w} {metric}: {sorted(set(s['values']))}")
                if trace == 0:
                    bound = bounds[metric]
                    flag = "!" if s["spread"] > bound / 3 else " "
                    worst = max(worst, s["spread"] / bound)
                    print(f"{flag} {w:<15} {metric:<12} median {s['median']:>10.4f} {s['unit']:<3}"
                          f" q1 {s['q1']:>10.4f} q3 {s['q3']:>10.4f} spread {s['spread']:.3f}"
                          f" (bound {bound})")
    print(f"largest spread / bound: {worst:.2f}")
    if args.baseline:
        args.baseline.write_text(json.dumps(report, indent=1) + "\n")
    for line in drifting:
        print(f"exact count differs between runs: {line}")
    return 1 if drifting else 0


if __name__ == "__main__":
    sys.exit(main())
