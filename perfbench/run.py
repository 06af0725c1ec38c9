"""The lapspec benchmark: one command, three workloads, checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (each a closed loop with one client, see README.md):
  sweep           verify-theorem --min 9 --max 12 --jobs 1, in-process
  catalog         families --case all (grid cap 20)
  queries         seeded single-graph requests (spectrum, classify, refine,
                  canonical_form) drawn from queries.py

Every pass runs in a fresh interpreter (worker.py) importing lapspec from
src/ of the checkout; passes repeat until --seconds have been measured.
Times are pace-normalised (pace.py). With --trace 0 the end-to-end metrics
are printed, as medians over the run's passes and set-ups. With --trace 1
untraced and traced passes alternate and the per-layer metrics are printed,
including the tracing overhead. Every output is checked against golden.json;
the last stdout line is one JSON object {correct, attempted, failed,
metrics}, and the exit code is nonzero when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import pace, queries  # noqa: E402
from perfbench.tracer import MODULES  # noqa: E402

SWEEP = ["verify-theorem", "--min", "9", "--max", "12"]
SETUP_PROBES = 10
MIN_PASSES = 3
DEADLINE_S = 170
GOLDEN = HERE / "golden.json"
TAIL_BEYOND = 10  # the tail percentile leaves at least this many requests above it


def cli_request(argv):
    # --jobs changes no byte of output, so sweeps at any --jobs share one golden key.
    key = list(argv)
    if "--jobs" in key:
        i = key.index("--jobs")
        del key[i : i + 2]
    return {"key": " ".join(key), "argv": argv}


WORKLOADS = {
    "sweep": lambda seed: [cli_request(SWEEP + ["--jobs", "1"])],
    "catalog": lambda seed: [cli_request(["families", "--case", "all"])],
    "queries": queries.stream,
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
}


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


# -- worker processes -----------------------------------------------------------


class WorkerError(RuntimeError):
    pass


def worker_env():
    """The caller's environment without PYTHON* settings, and one fixed hash
    seed so that every pass iterates its sets and dicts in the same order."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(job, timeout):
    """Start a fresh worker; return (set-up seconds, result or None).

    Set-up is pace-normalised by the reference-kernel runs the worker makes
    around its import, and leaves their time out."""
    cmd = [sys.executable, "-s", str(HERE / "worker.py"), str(ROOT)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=worker_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if not ready.startswith("ready "):
            _, err = proc.communicate(timeout=timeout)
            raise WorkerError(f"worker did not start: {err.strip()[-2000:]}")
        burst = json.loads(ready[len("ready "):])
        setup = (setup - sum(burst)) * pace.REF_S / statistics.median(burst)
        line = json.dumps(job) if job is not None else ""
        out, err = proc.communicate(input=line + "\n", timeout=timeout)
        if proc.returncode != 0:
            raise WorkerError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
        return setup, (json.loads(out) if job is not None else None)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {timeout:.0f} s") from exc
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if stream and not stream.closed:
                stream.close()


# -- checks ------------------------------------------------------------------------


def check_pass(requests, result, golden):
    """Failure messages for one pass; one request counts as one check."""
    failures = list(result["errors"])
    responses = golden["responses"]
    for i, (req, out, code) in enumerate(zip(requests, result["outputs"], result["codes"])):
        if out is None:
            continue  # already reported in errors
        if code != 0:
            failures.append(f"{req['key']}: exit code {code}")
            continue
        if "argv" in req:
            text = out
        else:
            text = out[0]
            if out[0] != out[1]:
                failures.append(f"{req['key']}: relabeled graph has another canonical form")
                continue
        expected = responses.get(req["key"])
        if expected is None:
            failures.append(f"{req['key']}: no golden digest")
        elif digest(text) != expected:
            failures.append(f"{req['key']}: output digest {digest(text)[:12]} != golden {expected[:12]}")
        elif req["key"].startswith("verify-theorem") and not text.endswith("\n0 disagreements\n"):
            failures.append(f"{req['key']}: sweep reports disagreements")
    return failures


def sweep_totals(requests, result):
    """(graphs decided, integral verdicts) summed over verify-theorem TSVs."""
    decided = integral = 0
    for req, out in zip(requests, result["outputs"]):
        if "argv" in req and req["argv"][0] == "verify-theorem" and out:
            for row in out.splitlines()[1:]:
                cols = row.split("\t")
                if len(cols) == 5:
                    decided += int(cols[2])
                    integral += int(cols[3])
    return decided, integral


# -- metrics ---------------------------------------------------------------------


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n):
    """Highest whole percentile with at least TAIL_BEYOND samples above it."""
    if n < 2 * TAIL_BEYOND:
        return 100
    return (100 * (n - TAIL_BEYOND)) // n


def end_to_end_metrics(setups, passes):
    """Pace-normalised times: medians over the run's set-ups and passes, and
    for latencies each request's median over the passes."""
    per_request = [statistics.median(lat) for lat in zip(*(p["latencies_s"] for p in passes))]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024 for p in passes),
        "req_p50_ms": 1000 * percentile(per_request, 50),
        "req_tail_ms": 1000 * percentile(per_request, tail_percentile(len(per_request))),
    }


# (metric, unit, span name, field of the span summary)
PER_LAYER_SPANS = [
    ("matrices.char_poly.int.s", "s", "matrices.char_poly.int", "s"),
    ("matrices.char_poly.sym.s", "s", "matrices.char_poly.sym", "s"),
    ("spectra.is_L_integral.self_s", "s", "spectra.is_L_integral", "self_s"),
    ("spectra.is_Q_integral.self_s", "s", "spectra.is_Q_integral", "self_s"),
    ("spectra.spectrum.self_s", "s", "spectra.spectrum", "self_s"),
    ("spectra.algebraic_connectivity.self_s", "s", "spectra.algebraic_connectivity", "self_s"),
    ("polys.isolate_roots.s", "s", "polys.isolate_roots", "s"),
    ("polys.integer_roots.s", "s", "polys.integer_roots", "s"),
    ("polys.sturm_count.calls", "count", "polys.sturm_count", "calls"),
    ("polys.sturm_count.s", "s", "polys.sturm_count", "s"),
    ("polys.MPoly.substitute.calls", "count", "polys.MPoly.substitute", "calls"),
    ("polys.MPoly.substitute.s", "s", "polys.MPoly.substitute", "s"),
    ("polys.MPoly.eval_at.calls", "count", "polys.MPoly.eval_at", "calls"),
    ("polys.MPoly.eval_at.s", "s", "polys.MPoly.eval_at", "s"),
    ("polys.sign_at.s", "s", "polys.sign_at", "s"),
    ("polys.divides.s", "s", "polys.divides", "s"),
    ("families.verify_sign_claims.self_s", "s", "families.verify_sign_claims", "self_s"),
    ("families.verify_printed_polynomial.self_s", "s", "families.verify_printed_polynomial", "self_s"),
    ("families.closed_form_root_check.self_s", "s", "families.closed_form_root_check", "self_s"),
    ("families.cross_check_with_realization.s", "s", "families.cross_check_with_realization", "s"),
    ("enumeration.enumerate_family.s", "s", "enumeration.enumerate_family", "s"),
    ("enumeration.config_tag.s", "s", "enumeration.config_tag", "s"),
    ("enumeration.canonical_form.calls", "count", "enumeration.canonical_form", "calls"),
    ("enumeration.canonical_form.s", "s", "enumeration.canonical_form", "s"),
    ("enumeration.theorem_tag.s", "s", "enumeration.theorem_tag", "s"),
    ("graphs.realize.s", "s", "graphs.realize", "s"),
    ("graphs.to_graph6.s", "s", "graphs.to_graph6", "s"),
    ("graphs.is_bipartite.s", "s", "graphs.is_bipartite", "s"),
    ("graphs.from_graph6.s", "s", "graphs.from_graph6", "s"),
    ("graphs.vertex_connectivity.s", "s", "graphs.vertex_connectivity", "s"),
    ("graphs.graph_to_config.s", "s", "graphs.graph_to_config", "s"),
    ("partitions.coarsest_equitable_refinement.s", "s", "partitions.coarsest_equitable_refinement", "s"),
    ("partitions.quotient_matrix.s", "s", "partitions.quotient_matrix", "s"),
    ("partitions.eigenvalue_containment_check.s", "s", "partitions.eigenvalue_containment_check", "s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
]


def trace_values(summary, totals):
    """Per-layer values of one traced pass, plus its exact counts."""
    spans, counters = summary["spans"], summary["counters"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    values = {metric: span(name, field) for metric, _, name, field in PER_LAYER_SPANS}
    counts = {name: s["calls"] for name, s in spans.items()}
    counts.update({k: v for k, v in counters.items() if isinstance(v, int)})
    decided, integral = totals
    counts["sweep.graphs_decided"] = decided
    counts["sweep.integral_verdicts"] = integral
    values["matrices.char_poly.calls"] = span("matrices.char_poly.int", "calls") + span("matrices.char_poly.sym", "calls")
    values["matrices.char_poly.dim_sum"] = counters.get("matrices.char_poly.dim_sum", 0)
    for mod in MODULES:
        mine = [s for name, s in spans.items() if name.split(".")[0] == mod]
        values[f"layer.{mod}.calls"] = sum(s["calls"] for s in mine)
        values[f"layer.{mod}.self_s"] = sum(s["self_s"] for s in mine)
    values["sweep.graphs_decided"] = decided
    values["sweep.integral_verdicts"] = integral
    values["sweep.integral_frac"] = integral / decided if decided else 0
    return values, counts


PER_LAYER_EXTRA = [
    ("matrices.char_poly.calls", "count"),
    ("matrices.char_poly.dim_sum", "count"),
    *((f"layer.{mod}.{f}", u) for mod in MODULES for f, u in (("self_s", "s"), ("calls", "count"))),
    ("sweep.graphs_decided", "count"),
    ("sweep.integral_verdicts", "count"),
    ("sweep.integral_frac", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.attributed_frac", "ratio"),
]
PER_LAYER = {m: u for m, u, _, _ in PER_LAYER_SPANS} | dict(PER_LAYER_EXTRA)


def per_layer_metrics(traced, untraced, requests):
    """Per-layer values of the median traced pass (the lower of two middle
    ones); exact counts must agree between all traced passes. The overhead
    pairs each traced pass with the untraced pass run just before it."""
    rows = [trace_values(p["trace"], sweep_totals(requests, p)) for p in traced]
    failures = []
    counts = [c for _, c in rows]
    if any(c != counts[0] for c in counts[1:]):
        diff = sorted(k for c in counts[1:] for k in set(c) | set(counts[0]) if c.get(k) != counts[0].get(k))
        failures.append(f"exact counts differ between traced passes: {diff[:10]}")
    walls = [p["wall_s"] for p in traced]
    mid = walls.index(statistics.median_low(walls))
    metrics = dict(rows[mid][0])
    metrics["trace.wall_s"] = walls[mid]
    metrics["trace.untraced_wall_s"] = statistics.median_low(p["wall_s"] for p in untraced)
    metrics["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced))
    metrics["trace.attributed_frac"] = traced[mid]["trace"]["top_s"] / walls[mid]
    return metrics, failures


# -- environment -------------------------------------------------------------------


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and ".egg-info" not in str(path):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment():
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "LAPSPEC_BUDGET": os.environ.get("LAPSPEC_BUDGET"),
        "loadavg_start": os.getloadavg(),
    }


# -- the run -------------------------------------------------------------------------


def measure(requests, seconds, trace, golden, spans_out=None):
    """Run passes for `seconds`; return the result record."""
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    env = environment()
    setups, untraced, traced, failures = [], [], [], []
    for _ in range(SETUP_PROBES):
        setups.append(spawn(None, deadline - time.perf_counter())[0])
    kinds = (False, True) if trace else (False,)
    while True:
        for traced_pass in kinds:
            job = {"requests": requests, "trace": traced_pass}
            if traced_pass and spans_out:
                job["spans_out"] = str(spans_out)
            setup, result = spawn(job, deadline - time.perf_counter())
            setups.append(setup)
            failures += check_pass(requests, result, golden)
            (traced if traced_pass else untraced).append(result)
        elapsed = time.perf_counter() - start
        if len(untraced) + len(traced) >= MIN_PASSES and elapsed >= seconds:
            break
    totals = {sweep_totals(requests, p) for p in untraced + traced}
    if len(totals) > 1:
        failures.append(f"sweep totals differ between passes: {sorted(totals)}")
    if trace:
        metrics, more = per_layer_metrics(traced, untraced, requests)
        failures += more
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(setups, untraced)
        units = END_TO_END
    env["loadavg_end"] = os.getloadavg()
    attempted = len(requests) * (len(untraced) + len(traced))
    return {
        "env": env,
        "passes": len(untraced) + len(traced),
        "requests_per_pass": len(requests),
        "tail_percentile": tail_percentile(len(requests)),
        "attempted": attempted,
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "pass_raw_wall_s": [p["raw_wall_s"] for p in untraced],
        "pass_probe_median_s": [p["probe_median_s"] for p in untraced],
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
        "setup_samples_s": setups,
        "failures": failures,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def emit(record):
    """Print the human-readable lines, then the one-line JSON result."""
    print("env " + json.dumps(record["env"]))
    print(
        f"passes {record['passes']}  requests/pass {record['requests_per_pass']}"
        f"  tail percentile p{record['tail_percentile']}"
    )
    for msg in record["failures"][:20]:
        print(f"FAILED {msg}")
    for name, m in record["metrics"].items():
        print(f"{name:<48} {m['value']:>16.6f} {m['unit']}")
    failed = min(len(record["failures"]), record["attempted"])
    print(f"{'failed_frac':<48} {failed / record['attempted']:>16.6f} ratio")
    result = {
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    sys.stdout.flush()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lapspec" / "__init__.py").is_file():
        print(f"error: no lapspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    requests = WORKLOADS[args.workload](args.seed)
    try:
        record = measure(
            requests, args.seconds, bool(args.trace), load_golden(), out_dir / f"{stem}-spans.tsv"
        )
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    record["workload"] = args.workload
    record["seed"] = args.seed
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    emit(record)
    return 0 if not record["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
