"""Smoke test of the benchmark harness on tiny inputs.

Run from the root of a checkout: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import make_golden, pace, queries, run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_requests():
    return {
        "sweep": [run.cli_request(make_golden.SMOKE_SWEEP + ["--jobs", "1"])],
        "catalog": [run.cli_request(make_golden.SMOKE_CASE)],
        "queries": queries.stream(7)[:6],
    }


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER


def test_stated_dense_share():
    why = next(w["why"] for w in BENCH["workloads"] if w["name"] == "queries")
    assert f"{round(100 * queries.dense_share())}% dense" in why


def test_query_stream_is_seeded():
    assert queries.stream(3) == queries.stream(3)
    assert queries.stream(3) != queries.stream(4)
    assert sorted(r["key"] for r in queries.stream(3)) == sorted(r["key"] for r in queries.stream(4))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    record = run.measure(tiny_requests()[workload], 0, bool(trace), run.load_golden())
    run.emit(record)
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if len(line.split()) == 3}
    assert all(printed.get(name) == unit for name, unit in expected.items())
    assert float(next(ln for ln in lines if ln.startswith("failed_frac")).split()[1]) == 0


def test_parallel_sweep_matches_golden(capsys):
    reqs = [run.cli_request(make_golden.SMOKE_SWEEP + ["--jobs", "2"])]
    run.emit(run.measure(reqs, 0, False, run.load_golden()))
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"]


def test_pace_normalise_skips_probes():
    p = pace.Pace([(1.0, 1.5, 0.5), (3.0, 4.0, 1.0)])
    assert p.probe_s(0.0, 5.0) == (1.5, 1.5)
    # Work outside the probes, each stretch scaled by REF_S over its pace.
    expected = sum((b - a) * f for (a, b), f in zip([(0.5, 1.0), (1.5, 3.0), (4.0, 4.5)], p.factors))
    assert p.normalise(0.5, 4.5) == pytest.approx(expected)
    assert p.normalise(1.2, 1.4) == 0


def test_corrupted_golden_digest_fails(capsys):
    reqs = tiny_requests()["catalog"]
    golden = copy.deepcopy(run.load_golden())
    golden["responses"][reqs[0]["key"]] = "0" * 64
    run.emit(run.measure(reqs, 0, False, golden))
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] > 0
    assert float(next(ln for ln in lines if ln.startswith("failed_frac")).split()[1]) > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
