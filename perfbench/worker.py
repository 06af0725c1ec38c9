"""One pass of a benchmark workload, in a fresh interpreter.

Usage: python3 -s perfbench/worker.py <checkout root>

The worker imports lapspec from <root>/src, loads the catalog, and prints
`ready` (the parent times this as set-up), followed by the times of the
reference kernel run just before and after the import (perfbench.pace). It
then reads one JSON job line from stdin -- none for a set-up probe -- runs
the job's requests in order through the package as a single closed-loop
client, and prints one JSON line with the outputs, per-request latencies,
and the pass's wall time, CPU time and peak RSS. Times are pace-normalised
against the reference kernel. With "trace" set, the requests run under
perfbench.tracer.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

SETUP_BURST = 8  # reference-kernel runs before and after the import


def peak_rss_kb():
    """Peak RSS of the pass, in KiB: this process or its largest pool worker.

    This process's high-water mark is VmHWM, which exec resets; ru_maxrss of
    RUSAGE_SELF would carry over the spawning parent's. The pool workers of
    `--jobs 2` are reaped children, counted by RUSAGE_CHILDREN.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def run_requests(requests, tracer=None):
    """Run the requests under a Pacer; times in the result are
    pace-normalised, and so are the span times of the trace summary."""
    import lapspec.cli
    from lapspec import enumeration, graphs
    from perfbench import pace
    from perfbench.tracer import cpu_s

    outputs, codes, spans, errors = [], [], [], []
    clock = time.perf_counter
    pacer = pace.Pacer()
    pacer.start()
    cpu0, t0 = cpu_s(), clock()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.item = i
        start = clock()
        try:
            if "argv" in req:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = lapspec.cli.main(req["argv"])
                out = buf.getvalue()
            else:
                out = [
                    enumeration.canonical_form(graphs.from_graph6(req["g6"])),
                    enumeration.canonical_form(graphs.from_graph6(req["relabeled"])),
                ]
                code = 0
        except Exception as exc:  # reported per request as a failed check
            out, code = None, None
            errors.append(f"request {i}: {type(exc).__name__}: {exc}")
        spans.append((start, clock()))
        outputs.append(out)
        codes.append(code)
    t1 = clock()
    cpu = cpu_s() - cpu0
    paced = pacer.stop()
    if tracer is not None:
        tracer.enabled = False
    wall = paced.normalise(t0, t1)
    probe_wall, probe_cpu = paced.probe_s(t0, t1)
    result = {
        "wall_s": wall,
        "cpu_s": (cpu - probe_cpu) * wall / (t1 - t0 - probe_wall),
        "raw_wall_s": t1 - t0,
        "probes": len(paced.probes),
        "probe_median_s": paced.median_s(),
        "peak_rss_kb": peak_rss_kb(),
        "latencies_s": [paced.normalise(start, end) for start, end in spans],
        "outputs": outputs,
        "codes": codes,
        "errors": errors,
    }
    if tracer is not None:
        result["trace"] = tracer.summary(paced.normalise)
    return result


def main(argv):
    root = os.path.abspath(argv[1])
    src = os.path.join(root, "src")
    sys.path[:0] = [src, root]
    from perfbench import pace

    before = pace.burst(SETUP_BURST)
    import lapspec
    import lapspec.cli

    if not os.path.abspath(lapspec.__file__).startswith(src + os.sep):
        print(f"lapspec imported from {lapspec.__file__}, not {src}", file=sys.stderr)
        return 2
    lapspec.families.load_cases()
    after = pace.burst(SETUP_BURST)
    proto = sys.stdout
    proto.write("ready " + json.dumps(before + after) + "\n")
    proto.flush()
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    job = json.loads(line)
    tracer = None
    if job.get("trace"):
        from perfbench.tracer import install

        tracer = install()
    result = run_requests(job["requests"], tracer)
    if tracer is not None and job.get("spans_out"):
        tracer.write(job["spans_out"])
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
