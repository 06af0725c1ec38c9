import json
import os
import subprocess
import sys

import pytest

import lapspec
from lapspec import families, from_graph6, to_graph6, star
from lapspec.cli import (
    EXIT_BAD_PARTITION,
    EXIT_BROKEN_PIPE,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_UNKNOWN_CASE,
    EXIT_USAGE,
    main,
    parse_builder,
)
from lapspec.graphs import degree_sequence


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_builder_expressions():
    assert degree_sequence(parse_builder("star 6")) == (5, 1, 1, 1, 1, 1)
    assert parse_builder("K 2").edge_count == 1
    assert parse_builder("K1").n == 1
    assert parse_builder("P4").edges() == [(0, 1), (1, 2), (2, 3)]
    assert parse_builder("C5").edge_count == 5
    g = parse_builder("join(K 2, union(K1 x 7))")
    assert degree_sequence(g) == (8, 8) + (2,) * 7
    g = parse_builder("union(K 2, K 2, K1)")
    assert g.n == 5 and g.edge_count == 2
    g = parse_builder("product(K 2, star 4)")
    assert g.n == 8 and g.edge_count == 10
    g = parse_builder("firefly 2 3 0")
    assert g.degree(0) == 7
    g = parse_builder("g2 path-orders=3,3,5 hub-edge pendants-u=1")
    assert g.n == 8
    g = parse_builder("g1 pendants=1,1 cycles=3")
    assert degree_sequence(g) == (4, 2, 2, 1, 1)
    # config atoms nest inside calls; the value list stops at a non-integer
    g = parse_builder("union(g2 path-orders=3,3 hub-edge, K1)")
    assert g.n == 5 and degree_sequence(g) == (3, 3, 2, 2, 0)


def test_builder_rejects_garbage():
    from lapspec.cli import CliError

    for bad in ("star", "join(K 2)", "wat 3", "star 6 extra", "g2 wrong=1"):
        with pytest.raises(CliError):
            parse_builder(bad)


def test_spectrum_command(capsys):
    code, out, _ = run(capsys, "spectrum", "--builder", "star 6", "--kind", "L")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["integral"] and doc["integer_roots"] == [[6, 1], [1, 4], [0, 1]]
    code, out, _ = run(capsys, "spectrum", "--g6", "D?{", "--kind", "L")
    assert code == EXIT_OK and json.loads(out)["n"] == 5
    code, out, _ = run(capsys, "spectrum", "--builder", "firefly 2 3 0")
    assert json.loads(out)["integral"]


def test_spectrum_reports_exact_intervals(capsys):
    code, out, _ = run(capsys, "spectrum", "--builder", "g2 path-orders=3,3,4")
    doc = json.loads(out)
    assert not doc["integral"]
    assert doc["residual"] == "λ^2 - 6*λ + 6"
    for lo, hi in doc["intervals"]:
        from fractions import Fraction

        assert Fraction(hi) - Fraction(lo) <= Fraction(1, 10**6)


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "--builder", "firefly 3 0 0")
    doc = json.loads(out)
    assert doc["family"] == "G1" and doc["L_integral"] and doc["tag"] == "F_{r,s,0}"


def test_quotient_command(capsys):
    code, out, _ = run(
        capsys, "quotient", "--builder", "star 6", "--partition", "0 | 1 2 3 4 5"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["quotient"] == [[5, -5], [-1, 1]] and doc["divides"]
    code, _, err = run(
        capsys, "quotient", "--builder", "path 4", "--partition", "0 1 | 2 3"
    )
    assert code == EXIT_BAD_PARTITION


def test_refine_command(capsys):
    code, out, _ = run(
        capsys, "refine", "--builder", "g2 path-orders=3,3,5 hub-edge", "--partition", "0 | 1 | *"
    )
    doc = json.loads(out)
    assert doc["partition"] == "0 | 1 | 2 3 | 4 | 5 | 6"
    assert doc["divides"]


def test_enumerate_command(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "G1", "--n", "5")
    lines = [json.loads(ln) for ln in out.strip().splitlines()]
    assert len(lines) == 6
    assert all(ln["n"] == 5 for ln in lines)
    # graph6 round-trips for every emitted graph
    for ln in lines:
        assert to_graph6(from_graph6(ln["graph6"])) == ln["graph6"]


def test_closed_pipe_ends_quietly_with_its_exit_code():
    # `lapspec enumerate --family G2 --n 12 | head -1`: the reader closes
    # the pipe after one line, long before the 5,567 lines are written
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(lapspec.__file__))}
    argv = [sys.executable, "-m", "lapspec", "enumerate", "--family", "G2", "--n", "12"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = json.loads(proc.stdout.readline())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
    assert err == b""
    assert (first["family"], first["n"]) == ("G2", 12)


def test_verify_theorem_command(capsys, tmp_path):
    out_path = tmp_path / "verdicts.jsonl"
    code, out, _ = run(
        capsys, "verify-theorem", "--min", "9", "--max", "9", "--out", str(out_path)
    )
    assert code == EXIT_OK
    assert "0 disagreements" in out
    assert out.startswith("n\tfamily\tgraphs\tintegral\tdisagreements")
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 69 + 484
    assert all(json.loads(ln)["agreement"] for ln in lines)


def test_verify_theorem_deterministic_across_jobs(capsys, tmp_path):
    # --jobs is accepted for compatibility only: no value changes a byte
    runs = []
    for name, jobs in (("none", []), ("one", ["--jobs", "1"]), ("two", ["--jobs", "2"])):
        path = tmp_path / f"{name}.jsonl"
        code, out, _ = run(capsys, "verify-theorem", "--min", "9", "--max", "9", *jobs, "--out", str(path))
        assert code == EXIT_OK
        runs.append((out, path.read_bytes()))
    assert runs[0] == runs[1] == runs[2]


def test_budget_exit_code(capsys, monkeypatch):
    for argv in (
        ["verify-theorem", "--min", "9", "--max", "13"],
        ["enumerate", "--family", "G2", "--n", "13"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_BUDGET, argv
        assert out == "" and err == "error: n_max=13 exceeds the budget 12 (set LAPSPEC_BUDGET to raise it)\n", argv
    monkeypatch.setenv("LAPSPEC_BUDGET", "13")
    # now allowed (but keep it cheap: only check argument validation path)
    from lapspec.enumeration import configured_budget

    assert configured_budget() == 13


def test_non_integer_budget_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("LAPSPEC_BUDGET", "abc")
    for argv in (
        ["verify-theorem", "--min", "9", "--max", "10"],
        ["enumerate", "--family", "G1", "--n", "5"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and err == "error: LAPSPEC_BUDGET must be an integer, got 'abc'\n", argv
    # the other commands never read the budget
    code, out, err = run(capsys, "spectrum", "--builder", "star 6")
    assert code == EXIT_OK and err == "" and json.loads(out)["integral"]


def test_families_command(capsys):
    code, out, _ = run(capsys, "families", "--case", "4.4", "--grid-cap", "4")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["printed_polynomial"]["matches"]
    assert doc["sign_claims"]["signs_ok"]
    assert doc["cross_check"]["all_ok"]
    code, _, err = run(capsys, "families", "--case", "5.5")
    assert code == EXIT_UNKNOWN_CASE


def test_families_command_with_parameter_range(capsys):
    code, out, _ = run(capsys, "families", "--case", "4.4", "--s", "2..10")
    assert code == EXIT_OK
    doc = json.loads(out)
    signs = doc["sign_claims"]
    assert signs["points_checked"] == 9
    assert signs["signs_ok"] and signs["root_in_interval_ok"]
    code, out, _ = run(capsys, "families", "--case", "4.6-c1.1", "--s", "2", "--t", "1..3")
    doc = json.loads(out)
    assert doc["sign_claims"]["points_checked"] == 3


def test_families_rejects_an_empty_grid(capsys):
    # a sign check over no grid point would report signs_ok vacuously
    for argv in (
        ["--case", "4.4", "--grid-cap", "-1"],
        ["--case", "4.4", "--grid-cap", "0"],
        ["--case", "all", "--grid-cap", "0"],
        ["--case", "4.4", "--s", "5..2"],
        ["--case", "4.6-c1.1", "--t", "3..1"],
        ["--case", "4.4", "--grid-cap", "1"],  # 4.4 needs s >= 2
        ["--case", "4.4", "--s", "30..40"],
        ["--case", "all", "--grid-cap", "2"],  # 4.6-c2.2 needs s >= 3
    ):
        code, out, err = run(capsys, "families", *argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1, argv
    code, out, _ = run(capsys, "families", "--case", "4.4", "--grid-cap", "2")
    assert code == EXIT_OK
    assert json.loads(out)["sign_claims"]["points_checked"] == 1


def test_families_bounds_the_grid_cap(capsys):
    # a two-parameter case walks cap² points: a cap above the maximum is a
    # usage error, found before any point is walked
    for cap in (families.GRID_CAP_MAX + 1, 10**8):
        code, out, err = run(capsys, "families", "--case", "4.4", "--grid-cap", str(cap))
        assert code == EXIT_USAGE, cap
        assert out == "" and err == f"error: --grid-cap must be from 1 to {families.GRID_CAP_MAX}\n"
    code, out, _ = run(capsys, "families", "--case", "4.4", "--grid-cap", str(families.GRID_CAP_MAX))
    assert code == EXIT_OK
    assert json.loads(out)["sign_claims"]["points_checked"] == families.GRID_CAP_MAX - 1


def test_families_rejects_a_parameter_no_selected_case_has(capsys):
    # 4.4 and 4.5 have only s: a --t range there would be silently ignored
    for argv in (["--case", "4.4", "--t", "1..3"], ["--case", "4.5", "--s", "2", "--t", "1"]):
        code, out, err = run(capsys, "families", *argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and err.startswith("error: --t ") and len(err.splitlines()) == 1, argv
    # some cases of "all" have t, so the range narrows those
    code, out, _ = run(capsys, "families", "--case", "all", "--t", "1..3", "--grid-cap", "3")
    assert code == EXIT_OK
    docs = [json.loads(line) for line in out.splitlines()]
    assert docs[0]["case"] == "4.4" and docs[0]["sign_claims"]["points_checked"] == 2
    assert docs[2]["case"] == "4.6-c1.1" and docs[2]["sign_claims"]["points_checked"] == 9


def test_bad_precision_rejected(capsys):
    for precision in ("0", "-1/2"):
        code, out, err = run(capsys, "spectrum", "--builder", "K 2", f"--precision={precision}")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: precision must be positive\n"


def test_bad_input_exits_with_usage_error(capsys, tmp_path):
    for argv in (
        ["spectrum", "--file", str(tmp_path / "missing.txt")],
        ["spectrum", "--g6", "D?{", "--precision", "1/0"],
        ["verify-theorem", "--min", "9", "--max", "9", "--jobs", "0"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and err.startswith("error: "), argv


def test_unwritable_out_exits_with_usage_error(capsys, tmp_path):
    missing = str(tmp_path / "no-such-dir" / "x.json")
    for argv in (
        ["spectrum", "--builder", "star 6", "--out", missing],
        ["verify-theorem", "--min", "9", "--max", "9", "--out", missing],
    ):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and err.startswith("error: cannot write "), argv


def test_rejected_sweep_creates_no_out_file(capsys, tmp_path, monkeypatch):
    # the budget (exit 5) and range (exit 2) checks come before --out is opened
    monkeypatch.delenv("LAPSPEC_BUDGET", raising=False)
    out = tmp_path / "x"
    for argv, want in (
        (["verify-theorem", "--min", "9", "--max", "13"], EXIT_BUDGET),
        (["verify-theorem", "--min", "10", "--max", "9"], EXIT_USAGE),
        (["verify-theorem", "--min", "0", "--max", "9"], EXIT_USAGE),
        (["enumerate", "--family", "G2", "--n", "13"], EXIT_BUDGET),
        (["enumerate", "--family", "G2", "--n", "0"], EXIT_USAGE),
    ):
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert code == want, argv
        assert stdout == "" and err.startswith("error: "), argv
        assert not out.exists(), argv


def test_empty_member_stream_is_zero_bytes(capsys, tmp_path):
    # G1 needs a hub of degree 3, so no member has two vertices
    code, out, _ = run(capsys, "enumerate", "--family", "G1", "--n", "2")
    assert (code, out) == (EXIT_OK, "")
    path = tmp_path / "members.jsonl"
    code, _, _ = run(capsys, "enumerate", "--family", "G1", "--n", "2", "--out", str(path))
    assert code == EXIT_OK and path.read_bytes() == b""
    code, out, _ = run(capsys, "verify-theorem", "--min", "1", "--max", "2", "--out", str(path))
    assert code == EXIT_OK and path.read_bytes() == b""
    assert out == "n\tfamily\tgraphs\tintegral\tdisagreements\n0 disagreements\n"


def test_verify_theorem_stats_on_stderr(capsys):
    _, plain, _ = run(capsys, "verify-theorem", "--min", "9", "--max", "9")
    code, out, err = run(capsys, "verify-theorem", "--min", "9", "--max", "9", "--stats")
    assert code == EXIT_OK
    assert out == plain
    (line,) = err.splitlines()
    stats = json.loads(line)
    assert stats["configs"] == 69 + 484
    assert set(stats) == {
        "configs", "chains", "sides", "links", "repeated_exits", "sign_exits",
        "tables_s", "root_test_s", "walk_s",
    }
    assert 0 < stats["repeated_exits"] < stats["configs"]
    assert 0 < stats["sign_exits"] < stats["configs"] - stats["repeated_exits"]
    # the members left to the root search are the integral ones and a few more
    integral = sum(int(row.split("\t")[3]) for row in plain.splitlines()[1:3])
    assert integral < stats["configs"] - stats["repeated_exits"] - stats["sign_exits"]


def test_erratum_report_command(capsys):
    code, out, _ = run(capsys, "erratum-report")
    assert code == EXIT_OK
    entries = [json.loads(ln) for ln in out.strip().splitlines()]
    assert any(e["id"] == "quotient-poly-15^2" for e in entries)


def test_file_sources(capsys, tmp_path):
    adj = tmp_path / "graph.txt"
    adj.write_text("4\n0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "spectrum", "--file", str(adj))
    assert json.loads(out)["n"] == 4
    g6s = tmp_path / "graphs.g6"
    g6s.write_text(to_graph6(star(5)) + "\n" + to_graph6(star(6)) + "\n")
    code, out, _ = run(capsys, "classify", "--file", str(g6s))
    docs = [json.loads(ln) for ln in out.strip().splitlines()]
    assert [d["n"] for d in docs] == [5, 6]
