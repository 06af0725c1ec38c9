"""Golden digests of the README's CLI examples and the benchmark workloads.

Each case runs one documented command, or every request of a benchmark
workload, and compares the sha256 of its stdout (or of the file its --out
option writes) with a digest recorded from a known-good build, so any
change to the printed bytes (JSON, JSONL or TSV) fails here.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from lapspec import canonical_form, from_graph6
from lapspec.cli import EXIT_OK, main

GOLDEN = [
    (
        ["spectrum", "--builder", "star 6", "--kind", "L"],
        "8ae3b82a26e9665e91e183a425e165bc4a68ac3348f9afcbd1b1f79c13b62e38",
    ),
    (
        ["spectrum", "--g6", "D?{", "--kind", "Q", "--precision", "1/1000000"],
        "8708976bc662c269203aa37d2d2822ee308de9817850e4c9b6bf15b74a442a80",
    ),
    (
        ["classify", "--builder", "firefly 2 3 0"],
        "23516893991364d89cc841a4d200a75825780e6e6859cb81e81f0a007d123456",
    ),
    (
        ["quotient", "--builder", "star 6", "--partition", "0 | 1 2 3 4 5"],
        "075099176a46c8889e8aff84dc53c2d2641998071607150ac1b981e904494c7a",
    ),
    (
        ["refine", "--builder", "g2 path-orders=3,3,5 hub-edge", "--partition", "0 | 1 | *"],
        "6a810acf697fe2cd797684573b84414f5c542d3b35444b40d72c561eff8e71f0",
    ),
    (
        ["families", "--case", "4.4", "--s", "2..10"],
        "47ccca71b8bb3030ce3e1ab410a81e37a08d5c88e0c1014fffb1b150bd52759c",
    ),
    (
        ["enumerate", "--family", "G2", "--n", "8"],
        "d321824eb100dce7539aa028683ebe899ed8d898c598497db8a5e4d7326ea441",
    ),
    (
        ["erratum-report"],
        "90c22b534310f1f575f9211f0c9723a841a9cb5d76fc63403ee67feb70a57064",
    ),
    (
        ["verify-theorem", "--min", "9", "--max", "10"],
        "28788f0885e48c3f82265b888b5cda6badceae6ac0369ee671325fd6d9e9d147",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[a[0] for a, _ in GOLDEN])
def test_readme_example_stdout_is_unchanged(capsys, argv, digest):
    assert main(list(argv)) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


OUT_GOLDEN = [
    (
        ["verify-theorem", "--min", "9", "--max", "10"],
        1823,
        "0e9d94564e60aab7a5f33bbc3fb68b3a4facabb9f2c61b6428bb5ddd03de20ff",
    ),
    (
        # orders below 9 too, and members of both bipartite values
        ["verify-theorem", "--min", "5", "--max", "10", "--jobs", "2"],
        2188,
        "415ded381444e8d182022d14ab490be132da26fb63c909ac1ac7adae9330f8c1",
    ),
]


@pytest.mark.parametrize("argv,lines,digest", OUT_GOLDEN, ids=["9..10", "5..10-jobs2"])
def test_verdict_stream_file_is_unchanged(capsys, tmp_path, argv, lines, digest):
    out = tmp_path / "verdicts.jsonl"
    assert main(list(argv) + ["--out", str(out)]) == EXIT_OK
    data = out.read_bytes()
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == digest


BENCH_GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def _bench_digest(argv):
    return json.loads(BENCH_GOLDEN.read_text(encoding="utf-8"))["responses"][" ".join(argv)]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_headline_sweep_stdout_matches_the_benchmark_golden(capsys, jobs):
    # the paper's headline range, 10,422 members; the benchmark checks the
    # same digest, but CI does not run the benchmark
    argv = ["verify-theorem", "--min", "9", "--max", "12"]
    assert main(argv + ["--jobs", jobs]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _bench_digest(argv)


def test_catalog_stdout_matches_the_benchmark_golden(capsys):
    # all twelve catalog cases at grid cap 20, the benchmark's catalog workload
    argv = ["families", "--case", "all"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _bench_digest(argv)


def _bench_queries():
    spec = importlib.util.spec_from_file_location("perfbench_queries", BENCH_GOLDEN.with_name("queries.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_queries_responses_match_the_benchmark_golden(capsys):
    # every request of the benchmark's queries workload: 288 CLI requests
    # (spectrum, classify, refine) and 72 canonical_form pairs
    responses = json.loads(BENCH_GOLDEN.read_text(encoding="utf-8"))["responses"]
    requests = _bench_queries().stream(1)
    assert len(requests) == 360
    for req in requests:
        if "argv" in req:
            assert main(list(req["argv"])) == EXIT_OK, req["key"]
            text = capsys.readouterr().out
        else:
            text = canonical_form(from_graph6(req["g6"]))
            assert canonical_form(from_graph6(req["relabeled"])) == text, req["key"]
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == responses[req["key"]], req["key"]


def test_cached_parser_carries_no_state_between_calls(capsys, tmp_path):
    # every main call parses its argv afresh from the one command table
    star_l = ["spectrum", "--builder", "star 6"]
    golden = dict((" ".join(argv), digest) for argv, digest in GOLDEN)
    l_digest = golden["spectrum --builder star 6 --kind L"]

    def stdout_digest(argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, hashlib.sha256(out.encode("utf-8")).hexdigest()

    # a --kind given once is not the default of the next call
    assert main(star_l + ["--kind", "Q"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["kind"] == "Q"
    assert stdout_digest(star_l) == (EXIT_OK, l_digest)
    # nor is an --out path
    out = tmp_path / "report.json"
    assert main(star_l + ["--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    out.unlink()
    assert stdout_digest(star_l) == (EXIT_OK, l_digest)
    assert not out.exists()
    # a usage error on the warm parser leaves it whole
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--builder", "star 6", "--kind", "X"])
    assert exc.value.code == 2
    capsys.readouterr()
    for argv, digest in GOLDEN[:5]:
        assert stdout_digest(argv) == (EXIT_OK, digest), argv
