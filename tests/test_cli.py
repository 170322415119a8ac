import json
import random
import subprocess
import sys

import pytest

from ftpath import bipath
from ftpath.cli import (EXIT_CAPS, EXIT_EMPTY, EXIT_INFEASIBLE, EXIT_INTERNAL,
                        EXIT_INVALID, EXIT_OK, ParseError, main, parse_dimacs,
                        parse_instance, parse_solution, serialize_instance,
                        serialize_solution)
from ftpath.core import Solution, SolverCheckFailed, build_instance
from ftpath.frac import gap_family
from ftpath.oracle import brute_force_feasible

from conftest import random_instance


@pytest.fixture()
def gap_file(tmp_path):
    path = tmp_path / "gap41.ftp"
    path.write_text(serialize_instance(gap_family(4, 1)))
    return str(path)


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roundtrip_fuzzed_instances():
    rng = random.Random(301)
    for _ in range(60):
        inst = random_instance(rng, n_max=6, m_max=10)
        assert parse_instance(serialize_instance(inst)) == inst


def test_parse_rejects_unknown_and_missing_fields():
    good = serialize_instance(gap_family(2, 1))
    with pytest.raises(ParseError):
        parse_instance(good + "color: blue\n")
    with pytest.raises(ParseError):
        parse_instance(good.replace("k: 1\n", ""))
    with pytest.raises(ParseError):
        parse_instance("nonsense")


def test_dimacs_dialect():
    text = """c tiny example
p ftp 2 2 0 1
n s 1
n t 2
a 1 2 1 1
a 1 2 1 1
"""
    inst = parse_dimacs(text)
    assert inst == gap_family(2, 1)


def test_solution_document_roundtrip():
    sol = Solution(frozenset({2, 0}), 7, "optimal")
    text = serialize_solution(sol, "bipath")
    assert "edges: 0 2" in text
    assert parse_solution(text) == frozenset({0, 2})


def test_solve_gap_family_bipath(gap_file, capsys):
    code, out, _ = run_main(["solve", gap_file, "--algorithm", "bipath"], capsys)
    assert code == EXIT_OK
    assert "status: optimal" in out
    assert "cost: 2" in out
    code2, out2, _ = run_main(["solve", gap_file, "--algorithm", "bipath"], capsys)
    assert out2 == out  # byte-identical reruns


def test_solve_auto_dispatch(tmp_path, capsys):
    # k=0 goes to the plain shortest path.
    inst = build_instance(False, 3, 0, 2, 0,
                          [(0, 1, 1, False), (1, 2, 1, True), (0, 2, 9, False)])
    p = tmp_path / "k0.ftp"
    p.write_text(serialize_instance(inst))
    code, out, _ = run_main(["solve", str(p)], capsys)
    assert code == EXIT_OK
    assert "algorithm: shortest" in out
    assert "cost: 2" in out

    dag_inst = build_instance(True, 3, 0, 2, 2,
                              [(0, 1, 1, True), (0, 1, 1, True), (0, 1, 1, True),
                               (1, 2, 1, False)])
    p2 = tmp_path / "dag.ftp"
    p2.write_text(serialize_instance(dag_inst))
    code, out, _ = run_main(["solve", str(p2)], capsys)
    assert code == EXIT_OK
    assert "algorithm: dag" in out
    assert "cost: 4" in out

    srp_inst = build_instance(False, 2, 0, 1, 2, [(0, 1, 1, True)] * 4)
    p3 = tmp_path / "srp.ftp"
    p3.write_text(serialize_instance(srp_inst))
    code, out, _ = run_main(["solve", str(p3)], capsys)
    assert code == EXIT_OK
    assert "algorithm: srp" in out
    assert "cost: 3" in out


def test_solve_infeasible_exit_code(tmp_path, capsys):
    inst = build_instance(True, 3, 0, 2, 1, [(0, 1, 1, False)])
    p = tmp_path / "bad.ftp"
    p.write_text(serialize_instance(inst))
    code, _, err = run_main(["solve", str(p)], capsys)
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in err


def test_solve_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "garbage.ftp"
    p.write_text("not an instance\n")
    code, _, err = run_main(["solve", str(p)], capsys)
    assert code == EXIT_INVALID


def test_solver_check_failure_exit_code(gap_file, capsys, monkeypatch):
    monkeypatch.setattr(bipath, "is_feasible", lambda instance, edges: False)
    with pytest.raises(SolverCheckFailed):
        bipath.solve_1ftp(gap_family(4, 1))
    code, out, err = run_main(["solve", gap_file], capsys)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("internal error: SolverCheckFailed")
    assert err.count("\n") == 1


def test_solve_dag_on_long_cycle_exit_code(tmp_path, capsys):
    n = 3000
    inst = build_instance(True, n, 0, n - 1, 2,
                          [(i, (i + 1) % n, 1, True) for i in range(n)])
    p = tmp_path / "cycle.ftp"
    p.write_text(serialize_instance(inst))
    code, _, err = run_main(["solve", str(p), "--algorithm", "dag"], capsys)
    assert code == EXIT_INVALID
    assert "directed cycle" in err


def test_solve_srp_on_k4_exit_code(tmp_path, capsys):
    edges = [(u, v, 1, False) for u in range(4) for v in range(u + 1, 4)]
    inst = build_instance(False, 4, 0, 3, 1, edges)
    p = tmp_path / "k4.ftp"
    p.write_text(serialize_instance(inst))
    code, _, err = run_main(["solve", str(p), "--algorithm", "srp"], capsys)
    assert code == EXIT_INVALID
    assert "invalid input" in err


def test_solve_oracle_cap_exit_code(tmp_path, capsys):
    p = tmp_path / "wide.ftp"
    p.write_text(serialize_instance(gap_family(25, 1)))
    code, _, err = run_main(["solve", str(p), "--algorithm", "oracle"], capsys)
    assert code == EXIT_CAPS
    assert "caps exceeded" in err


def test_solve_frac_document(gap_file, capsys):
    code, out, _ = run_main(["solve", gap_file, "--algorithm", "frac"], capsys)
    assert code == EXIT_OK
    assert "value: 4/3" in out
    assert "x 0 1/3" in out


def test_check_pipeline(tmp_path, gap_file, capsys):
    code, out, _ = run_main(["solve", gap_file, "--algorithm", "bipath"], capsys)
    sol_path = tmp_path / "sol.ftps"
    sol_path.write_text(out)
    code, out, _ = run_main(["check", gap_file, str(sol_path)], capsys)
    assert code == EXIT_OK
    assert out.startswith("feasible")

    bad = tmp_path / "bad.ftps"
    bad.write_text("ftp-solution v1\nedges: 0\n")
    code, out, _ = run_main(["check", gap_file, str(bad)], capsys)
    assert code == EXIT_OK
    assert out.startswith("infeasible")
    assert "witness-scenario: 0" in out


def test_check_matches_brute_force_on_fuzzed_subsets(tmp_path, capsys):
    rng = random.Random(307)
    for i in range(25):
        inst = random_instance(rng, n_max=5, m_max=7, k=rng.randint(0, 2))
        ip = tmp_path / f"i{i}.ftp"
        ip.write_text(serialize_instance(inst))
        subset = frozenset(rng.sample(range(len(inst.edges)),
                                      rng.randint(0, len(inst.edges))))
        sp = tmp_path / f"s{i}.ftps"
        sp.write_text("ftp-solution v1\nedges: " +
                      " ".join(str(e) for e in sorted(subset)) + "\n")
        code, out, _ = run_main(["check", str(ip), str(sp)], capsys)
        assert code == EXIT_OK
        verdict = out.splitlines()[0]
        assert verdict == ("feasible" if brute_force_feasible(inst, subset)
                           else "infeasible")


def test_more_invalid_inputs(tmp_path, gap_file, capsys):
    # Budget 0 cannot feed the k-ratio algorithm.
    inst = build_instance(False, 2, 0, 1, 0, [(0, 1, 1, False)])
    p = tmp_path / "k0.ftp"
    p.write_text(serialize_instance(inst))
    code, _, _ = run_main(["solve", str(p), "--algorithm", "approx-k"], capsys)
    assert code == EXIT_INVALID

    # Solution referencing an edge the instance does not have.
    bad = tmp_path / "alien.ftps"
    bad.write_text("ftp-solution v1\nedges: 0 99\n")
    code, _, _ = run_main(["check", gap_file, str(bad)], capsys)
    assert code == EXIT_INVALID

    # Unreadable instance path.
    code, _, _ = run_main(["solve", str(tmp_path / "missing.ftp")], capsys)
    assert code == EXIT_INVALID

    # Generator needs at least two vertices.
    code, _, _ = run_main(["gen", "--kind", "random", "--n", "1",
                           "--out", str(tmp_path / "g")], capsys)
    assert code == EXIT_INVALID

    # Series-parallel decomposition refuses directed instances.
    directed = build_instance(True, 2, 0, 1, 1, [(0, 1, 1, True), (0, 1, 1, True)])
    pd = tmp_path / "directed.ftp"
    pd.write_text(serialize_instance(directed))
    code, _, _ = run_main(["solve", str(pd), "--algorithm", "srp"], capsys)
    assert code == EXIT_INVALID

    # Bad numbers in the DIMACS dialect.
    bad_dimacs = tmp_path / "bad.dimacs"
    bad_dimacs.write_text("p ftp 2 1 0 1\nn s 1\nn t 2\na one 2 1 1\n")
    code, _, _ = run_main(["solve", str(bad_dimacs), "--format", "dimacs"], capsys)
    assert code == EXIT_INVALID


def test_gap_command(capsys):
    code, out, _ = run_main(["gap", "4", "1"], capsys)
    assert code == EXIT_OK
    assert "integral: 2" in out
    assert "fractional: 4/3" in out
    assert "ratio: 3/2" in out


def test_bench_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    rng = random.Random(311)
    from conftest import random_srp_instance
    for i in range(10):
        inst = random_srp_instance(rng, leaves=rng.randint(2, 6), k=1)
        (corpus / f"srp{i}.ftp").write_text(serialize_instance(inst))
    out_path = tmp_path / "table.txt"
    code, out, _ = run_main(["bench", str(corpus), str(out_path)], capsys)
    assert code == EXIT_OK
    table = out_path.read_text()
    # Exact solvers agree with the oracle on every row that has one.
    for line in table.splitlines():
        cols = line.split()
        if len(cols) >= 5 and cols[1] in ("srp", "bipath") and cols[4] != "-":
            assert cols[4] == "1"
    # The stdout table omits timings, so reruns are byte-identical.
    code2, out2, _ = run_main(["bench", str(corpus), str(out_path)], capsys)
    assert out2 == out
    assert "time-s" in table and "time-s" not in out


def test_bench_skips_and_failures_do_not_abort(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a_bad.ftp").write_text("garbage\n")
    (corpus / "b_wide.ftp").write_text(serialize_instance(gap_family(25, 1)))
    (corpus / "c_ok.ftp").write_text(serialize_instance(gap_family(4, 1)))
    out_path = tmp_path / "table.txt"
    code, out, _ = run_main(["bench", str(corpus), str(out_path)], capsys)
    assert code == EXIT_OK  # one instance succeeded
    table = out_path.read_text()
    assert "PARSE-ERROR" in table
    assert "SKIPPED(caps" in table  # oracle refuses the 25-edge family
    # The append-only record log lands next to the table.
    log = tmp_path / "table.txt.runs.jsonl"
    assert log.exists()
    assert all(json.loads(line) for line in log.read_text().splitlines())


def test_gap_command_large_family(capsys):
    code, out, _ = run_main(["gap", "100", "3"], capsys)
    assert code == EXIT_OK
    assert "integral: 4" in out
    assert "fractional: 100/97" in out
    assert "ratio: 97/25" in out


def test_bench_empty_dir(tmp_path, capsys):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    code, _, err = run_main(["bench", str(corpus), str(tmp_path / "t.txt")], capsys)
    assert code == EXIT_EMPTY
    assert "no instances" in err


def test_gen_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        code, _, _ = run_main(["gen", "--kind", "srp", "--out", str(out),
                               "--count", "3", "--seed", "9"], capsys)
        assert code == EXIT_OK
    for name in ("srp_000.ftp", "srp_001.ftp", "srp_002.ftp"):
        assert (out1 / name).read_text() == (out2 / name).read_text()
    parse_instance((out1 / "srp_000.ftp").read_text())


def test_run_log_appends(tmp_path, gap_file, capsys, monkeypatch):
    log_dir = tmp_path / "logs"
    monkeypatch.setenv("FTP_LOG_DIR", str(log_dir))
    run_main(["solve", gap_file, "--algorithm", "bipath"], capsys)
    run_main(["solve", gap_file, "--algorithm", "approx-k1"], capsys)
    records = [json.loads(line)
               for line in (log_dir / "runs.jsonl").read_text().splitlines()]
    assert len(records) == 2
    assert records[0]["solver"] == "bipath"
    assert records[1]["solver"] == "approx-k1"
    assert records[0]["instance_digest"] == records[1]["instance_digest"]


def test_module_entry_point(gap_file):
    proc = subprocess.run([sys.executable, "-m", "ftpath", "solve", gap_file,
                           "--algorithm", "bipath"],
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert "cost: 2" in proc.stdout
