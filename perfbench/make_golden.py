"""Record golden.json: the sha256 digest of every response the benchmark checks.

Usage (from the root of a checkout): python3 perfbench/make_golden.py

Run it only on a commit whose outputs are trusted; the file committed with
the benchmark was recorded at the commit that introduced it. Before writing,
it checks what the digests cannot: the sweep output is byte-identical at
--jobs 1 and 2 and ends in `0 disagreements`, and every relabeled graph has
the canonical form of its original.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import queries  # noqa: E402
from perfbench.run import HERE, SWEEP, cli_request, digest, spawn  # noqa: E402

# Requests of the smoke test, besides the workloads themselves.
SMOKE_SWEEP = ["verify-theorem", "--min", "9", "--max", "9"]
SMOKE_CASE = ["families", "--case", "4.4"]


def golden_requests():
    reqs = [
        cli_request(SWEEP + ["--jobs", "1"]),
        cli_request(SWEEP + ["--jobs", "2"]),
        cli_request(SMOKE_SWEEP + ["--jobs", "1"]),
        cli_request(SMOKE_SWEEP + ["--jobs", "2"]),
        cli_request(["families", "--case", "all"]),
        cli_request(SMOKE_CASE),
    ]
    rng = random.Random(0)
    for variants in queries.pool().values():
        for g6 in variants:
            reqs += [queries.request(kind, g6, rng) for kind in queries.KINDS]
    return reqs


def main():
    reqs = golden_requests()
    _, result = spawn({"requests": reqs, "trace": False}, timeout=3600)
    if result["errors"]:
        sys.exit("\n".join(result["errors"]))
    responses = {}
    for req, out, code in zip(reqs, result["outputs"], result["codes"]):
        if code != 0:
            sys.exit(f"{req['key']}: exit code {code}")
        if "argv" not in req:
            if out[0] != out[1]:
                sys.exit(f"{req['key']}: relabeled graph has another canonical form")
            out = out[0]
        elif req["key"].startswith("verify-theorem") and not out.endswith("\n0 disagreements\n"):
            sys.exit(f"{req['key']}: sweep reports disagreements")
        d = digest(out)
        if responses.setdefault(req["key"], d) != d:
            sys.exit(f"{req['key']}: output differs between --jobs values")
    with open(HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump({"responses": responses}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(responses)} golden digests written")


if __name__ == "__main__":
    main()
