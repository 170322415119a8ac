import copy
import dataclasses
import hashlib
import json
import pickle
import random
import subprocess
import sys
import time

import pytest

from ftpath import bipath, cli, core, dag, flow, simplex, srp
from ftpath.cli import (EXIT_CAPS, EXIT_EMPTY, EXIT_INFEASIBLE, EXIT_INTERNAL,
                        EXIT_INVALID, EXIT_OK, ParseError, main, parse_dimacs,
                        parse_instance, parse_solution, serialize_instance,
                        serialize_solution)
from ftpath.core import Edge, Solution, SolverCheckFailed, build_instance
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


def test_instances_survive_pickle_deepcopy_and_replace():
    # Edges are frozen slotted dataclasses built without ``__init__``; every
    # copy must still compare and hash equal.
    rng = random.Random(17)
    built = [random_instance(rng, n_max=6, m_max=10) for _ in range(10)]
    insts = (built + [parse_instance(serialize_instance(i)) for i in built]
             + [parse_dimacs("p ftp 3 2 1 1\nn s 1\nn t 3\na 1 2 4 1\na 2 3 0 0\n")])
    for inst in insts:
        copies = [copy.deepcopy(inst)]
        copies += [pickle.loads(pickle.dumps(inst, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert other == inst and hash(other) == hash(inst)
            assert all(type(e) is Edge for e in other.edges)
        for edge in inst.edges:
            heavier = dataclasses.replace(edge, w=edge.w + 1)
            expected = Edge(edge.id, edge.u, edge.v, edge.w + 1, edge.faulty)
            assert heavier == expected and hash(heavier) == hash(expected)
            same = dataclasses.replace(edge, w=edge.w)
            assert same == edge and hash(same) == hash(edge) and same is not edge
            with pytest.raises(dataclasses.FrozenInstanceError):
                heavier.w = 0


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
    monkeypatch.setattr(core, "is_feasible", lambda instance, edges: False)
    with pytest.raises(SolverCheckFailed):
        bipath.solve_1ftp(gap_family(4, 1))
    code, out, err = run_main(["solve", gap_file], capsys)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("internal error: SolverCheckFailed")
    assert err.count("\n") == 1


@pytest.mark.parametrize("solver, k", [("srp", 2), ("shortest", 0)],
                         ids=["srp", "shortest"])
def test_srp_and_shortest_check_failure_exit_code(tmp_path, capsys, monkeypatch,
                                                  solver, k):
    path = tmp_path / "gap.ftp"
    path.write_text(serialize_instance(gap_family(4, k)))
    # Both return through core's checked constructor.
    monkeypatch.setattr(core, "is_feasible", lambda instance, edges: False)
    code, out, err = run_main(["solve", str(path)], capsys)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("internal error: SolverCheckFailed")
    assert f"{solver} returned an infeasible edge set" in err


def test_frac_check_failure_exit_code(gap_file, capsys, monkeypatch):
    real = simplex.solve_lp

    def off_by_one(*args):
        x, value = real(*args)
        return x, value + 1

    monkeypatch.setattr(simplex, "solve_lp", off_by_one)
    code, out, err = run_main(["solve", gap_file, "--algorithm", "frac"], capsys)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("internal error: SolverCheckFailed")


def test_auto_srp_decomposes_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "gap42.ftp"
    path.write_text(serialize_instance(gap_family(4, 2)))
    expected = run_main(["solve", str(path), "--algorithm", "srp"], capsys)
    calls = []
    real = srp._reduce

    def counting(instance):
        calls.append(instance)
        return real(instance)

    monkeypatch.setattr(srp, "_reduce", counting)
    assert run_main(["solve", str(path)], capsys) == expected
    assert len(calls) == 1


@pytest.mark.parametrize("arcs", [21, 200])
def test_dag_many_parallel_arcs_solve(tmp_path, capsys, arcs):
    # Three of the parallel faulty arcs carry the three units; no cap on
    # the candidate edges of one link remains.
    inst = build_instance(True, 3, 0, 2, 2,
                          [(0, 1, 1, True)] * arcs + [(1, 2, 1, False)])
    path = tmp_path / "parallel.ftp"
    path.write_text(serialize_instance(inst))
    expected = ("ftp-solution v1\nalgorithm: dag\nstatus: optimal\ncost: 4\n"
                f"edges: 0 1 2 {arcs}\n")
    for algorithm in ("auto", "dag"):
        assert run_main(["solve", str(path), "--algorithm", algorithm],
                        capsys) == (EXIT_OK, expected, "")


def test_auto_dag_layerizes_once(tmp_path, capsys, monkeypatch):
    inst = build_instance(True, 4, 0, 3, 2,
                          [(0, 1, 2, True), (0, 1, 1, True), (0, 2, 3, False),
                           (1, 3, 1, True), (1, 3, 2, True), (2, 3, 0, True),
                           (0, 3, 9, True), (1, 2, 1, False)])
    path = tmp_path / "dag.ftp"
    path.write_text(serialize_instance(inst))
    expected = run_main(["solve", str(path), "--algorithm", "dag"], capsys)
    assert expected[0] == EXIT_OK
    calls = []
    real = dag.layerize

    def counting(instance):
        calls.append(instance)
        return real(instance)

    monkeypatch.setattr(dag, "layerize", counting)
    assert run_main(["solve", str(path)], capsys) == expected
    assert len(calls) == 1


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


def _write(tmp_path, inst):
    path = tmp_path / "inst.ftp"
    path.write_text(serialize_instance(inst))
    return str(path)


@pytest.mark.parametrize("case", ["k4", "directed cycle", "capped dag"])
def test_auto_falls_back_to_approx_k(tmp_path, capsys, case):
    # Each exact solver auto tries at k >= 2 refuses these inputs.
    caps = []
    if case == "k4":
        inst = build_instance(False, 4, 0, 3, 2, [(u, v, 1, False) for u in range(4)
                                                  for v in range(u + 1, 4)])
    elif case == "directed cycle":
        inst = build_instance(True, 3, 0, 2, 2, [(0, 1, 1, False), (1, 2, 1, False),
                                                 (2, 0, 1, False)])
    else:
        inst = build_instance(True, 3, 0, 2, 2,
                              [(0, 1, 1, True)] * 21 + [(1, 2, 1, False)])
        caps = ["--cap-configs", "2"]
    path = _write(tmp_path, inst)
    expected = run_main(["solve", path, "--algorithm", "approx-k", *caps], capsys)
    assert expected[0] == EXIT_OK and "algorithm: approx-k\n" in expected[1]
    assert run_main(["solve", path, *caps], capsys) == expected


EDGE_SHAPES = {
    "cyclic s=t": build_instance(True, 2, 0, 0, 2, [(0, 1, 1, True), (1, 0, 1, True)]),
    "acyclic s=t": build_instance(True, 2, 0, 0, 2, [(0, 1, 1, True)]),
    "undirected s=t": build_instance(False, 2, 0, 0, 2, [(0, 1, 1, True)]),
    "disconnected dag": build_instance(True, 3, 0, 2, 2, [(0, 1, 1, False)]),
    "small dag": build_instance(True, 3, 0, 2, 2,
                                [(0, 1, 1, True), (0, 1, 2, True), (0, 1, 3, True),
                                 (1, 2, 4, False), (0, 2, 9, True)]),
}
_EMPTY_DAG = (EXIT_OK, "ftp-solution v1\nalgorithm: dag\nstatus: optimal\ncost: 0\n"
              "edges: \n", "")
_EMPTY_SRP = (EXIT_OK, "ftp-solution v1\nalgorithm: srp\nstatus: optimal\ncost: 0\n"
              "edges: \n", "")
_EMPTY_APPROX = (EXIT_OK, "ftp-solution v1\nalgorithm: approx-k\nstatus: ratio-bounded\n"
                 "cost: 0\nedges: \nratio-bound: 2/1\n", "")
_DISCONNECTED = (EXIT_INFEASIBLE, "", "infeasible: terminals are disconnected\n")
_NO_EDGE_SET = (EXIT_INFEASIBLE, "",
                "infeasible: instance is infeasible even with every edge bought\n")
_SMALL_DAG = (EXIT_OK, "ftp-solution v1\nalgorithm: dag\nstatus: optimal\ncost: 10\n"
              "edges: 0 1 2 3\n", "")
_SMALL_APPROX = (EXIT_OK, "ftp-solution v1\nalgorithm: approx-k\nstatus: ratio-bounded\n"
                 "cost: 10\nedges: 0 1 2 3\nratio-bound: 2/1\n", "")
# auto at --cap-configs 10**6, 2, 1 and 0.  The DAG solver checks its cap
# before its s == t and no-edge answers, so each DAG shape falls back to
# approx-k from the first cap below its configuration count on.
AUTO_ON_EDGE_SHAPES = {
    "cyclic s=t": [_EMPTY_APPROX] * 4,
    "acyclic s=t": [_EMPTY_DAG] * 3 + [_EMPTY_APPROX],
    "undirected s=t": [_EMPTY_SRP] * 4,
    "disconnected dag": [_DISCONNECTED] * 2 + [_NO_EDGE_SET] * 2,
    "small dag": [_SMALL_DAG] + [_SMALL_APPROX] * 3,
}


@pytest.mark.parametrize("shape", sorted(AUTO_ON_EDGE_SHAPES))
def test_auto_on_edge_shapes(tmp_path, capsys, shape):
    path = _write(tmp_path, EDGE_SHAPES[shape])
    for cap, expected in zip(("1000000", "2", "1", "0"), AUTO_ON_EDGE_SHAPES[shape]):
        assert run_main(["solve", path, "--cap-configs", cap], capsys) == expected


@pytest.mark.parametrize("shape, cap, code, err", [
    ("undirected s=t", "1000000", EXIT_INVALID, "invalid input: instance is undirected\n"),
    ("cyclic s=t", "1000000", EXIT_INVALID,
     "invalid input: graph contains a directed cycle\n"),
    ("disconnected dag", "1", EXIT_CAPS,
     "caps exceeded: about 2 configurations, cap is 1\n"),
    ("acyclic s=t", "0", EXIT_CAPS, "caps exceeded: about 1 configurations, cap is 0\n"),
], ids=["undirected s=t", "cyclic s=t", "disconnected under cap", "s=t under cap"])
def test_dag_checks_domain_and_cap_before_shortcuts(tmp_path, capsys, shape, cap,
                                                    code, err):
    # Layerizing and the cap come before the s == t and no-edge answers.
    path = _write(tmp_path, EDGE_SHAPES[shape])
    assert run_main(["solve", path, "--algorithm", "dag", "--cap-configs", cap],
                    capsys) == (code, "", err)


@pytest.mark.parametrize("cap, err", [
    ("1000000", "about 5000000000050000000000 spread entries, cap is 1000000"),
    ("5", "about 5000000000050000000000 spread entries, cap is 1000000"),
    ("1000000000000000000000", "about 5000000000050000000000 spread entries, "
                               "cap is 1000000000000000000000"),
    ("1", "about 2 configurations, cap is 1"),
])
def test_dag_cap_message_names_what_it_counts(tmp_path, capsys, cap, err):
    # One edge, so two configurations; at this k one tail's units split
    # into (k + 1)(k + 2) / 2 spread entries, refused past the larger of
    # the given cap and the default.
    path = _write(tmp_path, build_instance(True, 2, 0, 1, 99999999999, [(0, 1, 1, False)]))
    assert run_main(["solve", path, "--algorithm", "dag", "--cap-configs", cap],
                    capsys) == (EXIT_CAPS, "", f"caps exceeded: {err}\n")


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


@pytest.mark.parametrize("vertices, code, err", [
    (20, EXIT_INFEASIBLE, "infeasible: instance is infeasible even with every edge bought\n"),
    (21, EXIT_CAPS, "caps exceeded: 21 vertices give too many cuts to enumerate\n"),
    (30_000_000, EXIT_CAPS,
     "caps exceeded: 30000000 vertices give too many cuts to enumerate\n"),
])
def test_frac_vertex_cap_comes_before_the_feasibility_flow(tmp_path, capsys, vertices,
                                                            code, err):
    # The faulty bridge makes the document infeasible at k = 1.  Past 2**18
    # s-sides the cap refuses it before any per-vertex list is built.
    path = tmp_path / "wide.ftp"
    path.write_text(f"ftp-instance v1\ndirected: false\nvertices: {vertices}\n"
                    "s: 0\nt: 2\nk: 1\nedge 0 0 1 1 faulty\nedge 1 1 2 1 safe\n")
    started = time.perf_counter()
    assert run_main(["solve", str(path), "--algorithm", "frac"], capsys) == (code, "", err)
    assert time.perf_counter() - started < 5


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


def test_check_infeasible_runs_one_max_flow(tmp_path, gap_file, capsys,
                                            monkeypatch):
    # The check runs the flow search that max_flow shares, without max_flow.
    calls = []
    original = flow._residual_flow

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(flow, "_residual_flow", counting)
    bad = tmp_path / "bad.ftps"
    bad.write_text("ftp-solution v1\nedges: 0\n")
    code, out, _ = run_main(["check", gap_file, str(bad)], capsys)
    assert code == EXIT_OK
    assert out == "infeasible\nwitness-scenario: 0\nwitness-cut-side: 0\n"
    assert len(calls) == 1


def test_parser_built_once_per_process(gap_file, capsys, monkeypatch):
    builds = []
    original = cli._build_parser

    def counting():
        builds.append(1)
        return original()

    monkeypatch.setattr(cli, "_parser", None, raising=False)
    monkeypatch.setattr(cli, "_build_parser", counting)
    code, out, _ = run_main(["solve", gap_file, "--algorithm", "bipath"], capsys)
    assert code == EXIT_OK
    assert out == ("ftp-solution v1\nalgorithm: bipath\nstatus: optimal\n"
                   "cost: 2\nedges: 2 3\n")
    code, out, _ = run_main(["gap", "2", "1"], capsys)
    assert code == EXIT_OK
    assert out.startswith("ftp-gap-report v1\nd: 2\nk: 1\n")
    assert builds == [1]


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


_HEAD = "ftp-instance v1\ndirected: false\nvertices: 2\ns: 0\nt: 1\nk: 1\n"
_P = "p ftp 2 1 0 1\n"
_NST = _P + "n s 1\nn t 2\n"
MALFORMED = [
    ("native", "\n# comment first\n" + _HEAD + "edge 0 0 1 1\n",
     "bad edge line: 'edge 0 0 1 1'"),
    ("native", _HEAD + "edge 0 0 1 1 broken\n",
     "edge flag must be 'faulty' or 'safe': 'edge 0 0 1 1 broken'"),
    ("native", _HEAD + "edge 0 0 1 x safe\n", "bad edge numbers: 'edge 0 0 1 x safe'"),
    ("native", _HEAD + "edge 1 0 1 1 safe\n",
     "edge ids must be dense and ordered; got 1, expected 0"),
    ("native", _HEAD + "stray\n", "unrecognized line: 'stray'"),
    ("native", _HEAD + "color: blue\n", "unknown field 'color'"),
    ("native", _HEAD + "k: 2\n", "field 'k' given twice"),
    ("native", "nonsense\n" + _HEAD,
     "expected 'ftp-instance v1' header first, got 'nonsense'"),
    ("native", _HEAD.replace("k: 1\n", "").replace("s: 0\n", ""), "missing fields: k, s"),
    ("native", _HEAD.replace("false", "maybe"), "field 'directed' must be true or false"),
    ("native", _HEAD.replace("2", "two"), "invalid literal for int() with base 10: 'two'"),
    ("dimacs", "p ftp 2 1 0\n", "bad problem line: 'p ftp 2 1 0'"),
    ("dimacs", "p ftp 2 1 2 1\n", "directed flag must be 0 or 1"),
    ("dimacs", _P + "n x 1\n", "bad terminal line: 'n x 1'"),
    ("dimacs", _NST + "a 1 2 1\n", "bad arc line: 'a 1 2 1'"),
    ("dimacs", _NST + "a 1 2 1 2\n", "faulty column must be 0 or 1"),
    ("dimacs", _NST + "q 1\n", "unrecognized line: 'q 1'"),
    ("dimacs", _NST + "a one 2 1 1\n", "bad number in line: 'a one 2 1 1'"),
    ("dimacs", _P + "n s 1\na 1 2 1 1\n", "missing p/n lines"),
    ("dimacs", _NST.replace(" 1 0 ", " 2 0 ") + "a 1 2 1 1\n",
     "problem line promises 2 edges, got 1"),
    ("solution", "edges: 0\n", "expected 'ftp-solution v1' header first, got 'edges: 0'"),
    ("solution", "ftp-solution v1\ncolor: red\nedges: 0\n", "unknown field 'color'"),
    ("solution", "ftp-solution v1\nedges: 0\nedges: 1\n", "field 'edges' given twice"),
    ("solution", "ftp-solution v1\nedges: 0 x\n", "bad edge list: '0 x'"),
    ("solution", "# comment\n\nftp-solution v1\nstatus: optimal\n",
     "solution document has no 'edges' field"),
    ("native", "\n# only comments\n  # and blanks\n\n", "missing 'ftp-instance v1' header"),
    ("solution", "# comment\n  edges: 0\nftp-solution v1\nedges: 0\n",
     "expected 'ftp-solution v1' header first, got 'edges: 0'"),
    ("solution", "\n# only comments\n  # and blanks\n\n", "missing 'ftp-solution v1' header"),
    ("native", _HEAD + "edge 0 0 1 1 safe\nedge \nedge 1 0 1 1 safe\n",
     "unrecognized line: 'edge'"),
    ("native", _HEAD + "edge 0 0 1 1 safe\nedge\t1 0 1 1 safe\n",
     "unrecognized line: 'edge\\t1 0 1 1 safe'"),
    ("native", _HEAD + "edge 0 0 1 1 safe\nedge 1 0 1 x safe\nstray\n",
     "bad edge numbers: 'edge 1 0 1 x safe'"),
    ("native", _HEAD + "edge 0 0 1 1 safe\nstray\nedge 1 0 1 x safe\n",
     "unrecognized line: 'stray'"),
    ("native", _HEAD + "edge 0 0 1 1 safe\nedge 1 0 1 1 safe extra  \n",
     "bad edge line: 'edge 1 0 1 1 safe extra'"),
    ("native", _HEAD + "edge 0 0 1 1 safe\n edge 2 0 1 1 safe\n",
     "edge ids must be dense and ordered; got 2, expected 1"),
    ("dimacs", _P + _NST + "a 1 2 1 1\n", "repeated problem line: 'p ftp 2 1 0 1'"),
    ("dimacs", _NST + "n s 2\na 1 2 1 1\n", "repeated terminal line: 'n s 2'"),
    ("dimacs", "p ftp 3 2 0 1\nn s 1\nn t 3\nn t 2\na 1 2 1 0\na 2 3 1 0\n",
     "repeated terminal line: 'n t 2'"),
]


def test_edge_lines_parse_alike_in_any_layout():
    inst = build_instance(False, 3, 0, 2, 1,
                          [(0, 1, 1, True), (1, 2, 0, False), (0, 2, 5, True)])
    text = serialize_instance(inst)
    head, _, rest = text.partition("edge 0")
    rest = "edge 0" + rest
    layouts = [
        head.replace("k: 1\n", "") + rest + "k: 1\n",
        head + "".join(f"  {line} \t\n" for line in rest.splitlines()),
        head + rest.replace(" ", "  "),
        head + rest.replace("\n", "\n# note\n\n", 1),
        head + rest.replace("edge 1 1 2 0", "edge +1 1 2 00"),
    ]
    for layout in layouts:
        assert parse_instance(layout) == inst


def test_edge_runs_parse_in_chunks(monkeypatch):
    monkeypatch.setattr(cli, "_EDGE_CHUNK", 2)
    inst = build_instance(False, 3, 0, 2, 1, [(0, 1, 1, True), (1, 2, 0, False),
                                              (0, 2, 5, True), (0, 1, 2, False),
                                              (1, 2, 3, True)])
    text = serialize_instance(inst)
    assert parse_instance(text) == inst
    with pytest.raises(ParseError, match="^edge ids must be dense and ordered; got 5, expected 4$"):
        parse_instance(text.replace("edge 4 ", "edge 5 ") + "stray\n")


def _built_from_rows(text):
    # The row path: fields by name, each edge line checked alone and made
    # a row, then build_instance.  Documents here have a valid header.
    fields, rows = {}, []
    for line in text.splitlines()[1:]:
        if not line.startswith("edge "):
            key, _, value = line.partition(":")
            fields[key] = value.strip()
            continue
        _, eid, u, v, w, flag = line.split()
        if flag not in ("faulty", "safe"):
            raise ParseError(f"edge flag must be 'faulty' or 'safe': {line!r}")
        if int(eid) != len(rows):
            raise ParseError(f"edge ids must be dense and ordered; got {int(eid)}, "
                             f"expected {len(rows)}")
        rows.append((int(u), int(v), int(w), flag == "faulty"))
    return build_instance(fields["directed"] == "true", int(fields["vertices"]),
                          int(fields["s"]), int(fields["t"]), int(fields["k"]), rows)


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


def test_parsers_build_what_build_instance_builds():
    rng = random.Random(2302)
    # (word of the edge line, its replacement given the word and n)
    mutations = [
        (1, lambda word, n: str(int(word) + 1)),  # ids not dense
        (5, lambda word, n: "broken"),
        (5, lambda word, n: "1" if word == "faulty" else "0"),
        (4, lambda word, n: str(-int(word) - 1)),
        (4, lambda word, n: str(2**63 + int(word))),
        (2, lambda word, n: "-1"),
        (3, lambda word, n: str(n)),
    ]
    seen = set()
    for _ in range(300):
        inst = random_instance(rng, n_max=8, m_max=30)
        text = serialize_instance(inst)
        assert parse_instance(text) == _built_from_rows(text) == inst
        dimacs = "".join([f"p ftp {inst.vertex_count} {len(inst.edges)} "
                          f"{int(inst.directed)} {inst.k}\n",
                          f"n s {inst.s + 1}\nn t {inst.t + 1}\n"]
                         + [f"a {e.u + 1} {e.v + 1} {e.w} {int(e.faulty)}\n"
                            for e in inst.edges])
        assert parse_dimacs(dimacs) == inst
        lines = text.splitlines()
        at = 6 + rng.randrange(len(inst.edges))
        words = lines[at].split()
        index = rng.randrange(len(mutations))
        word, replace = mutations[index]
        words[word] = replace(words[word], inst.vertex_count)
        lines[at] = " ".join(words)
        mutated = "\n".join(lines) + "\n"
        outcome = _outcome(parse_instance, mutated)
        assert outcome == _outcome(_built_from_rows, mutated)
        assert isinstance(outcome, tuple), mutated
        seen.add(index)
    assert seen == set(range(len(mutations)))


@pytest.mark.parametrize("kind, text, message", MALFORMED,
                         ids=[f"{kind}-{i}" for i, (kind, _, _) in enumerate(MALFORMED)])
def test_malformed_documents_exit_3(tmp_path, gap_file, capsys, kind, text, message):
    path = tmp_path / "malformed"
    path.write_text(text)
    if kind == "solution":
        argv = ["check", gap_file, str(path)]
    else:
        argv = ["solve", str(path), "--format", kind]
    assert run_main(argv, capsys) == (EXIT_INVALID, "", f"invalid input: {message}\n")


@pytest.mark.parametrize("kind", ["srp", "gap"])
def test_gen_n_is_checked_only_where_read(kind, tmp_path, capsys):
    # srp and gap instances do not depend on --n, so --n 1 is harmless.
    out = tmp_path / kind
    code, stdout, _ = run_main(["gen", "--kind", kind, "--n", "1", "--count", "2",
                                "--out", str(out)], capsys)
    assert code == EXIT_OK
    assert stdout == f"wrote 2 instances to {out}\n"
    assert sorted(p.name for p in out.iterdir()) == [f"{kind}_000.ftp", f"{kind}_001.ftp"]
    code, _, err = run_main(["gen", "--kind", "dag", "--n", "1",
                             "--out", str(tmp_path / "dag")], capsys)
    assert code == EXIT_INVALID
    assert "--n of at least 2" in err


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


def test_gen_random_and_dag_documents(tmp_path, capsys):
    for kind in ("random", "dag"):
        dirs = [tmp_path / f"{kind}{i}" for i in range(2)]
        for out in dirs:
            assert run_main(["gen", "--kind", kind, "--out", str(out), "--count", "5",
                             "--seed", "1", "--k", "2", "--faulty-prob", "0.3"],
                            capsys)[0] == EXIT_OK
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == [f"{kind}_{i:03d}.ftp" for i in range(5)]
        for name in names:
            text = (dirs[0] / name).read_text()
            assert (dirs[1] / name).read_bytes() == text.encode()
            inst = parse_instance(text)
            assert inst.directed == (kind == "dag")
            if kind == "random":
                assert all(e.u != e.v for e in inst.edges)
                continue
            assert all(e.u < e.v for e in inst.edges)
            code, out, _ = run_main(["solve", str(dirs[0] / name)], capsys)
            assert code == EXIT_OK and "algorithm: dag\n" in out


SOLUTION_RECORD_KEYS = {"instance_digest", "solver", "wall_time_s", "edges",
                        "cost", "status", "version"}
FRAC_RECORD_KEYS = {"instance_digest", "solver", "wall_time_s", "value"}


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_run_log_appends(tmp_path, gap_file, capsys, monkeypatch):
    # Without a log nothing is serialized or hashed.
    monkeypatch.delenv("FTP_LOG_DIR", raising=False)
    calls = []
    serialize = cli.serialize_instance
    monkeypatch.setattr(cli, "serialize_instance",
                        lambda instance: calls.append(1) or serialize(instance))
    code, _, _ = run_main(["solve", gap_file], capsys)
    assert code == EXIT_OK and calls == []

    log_dir = tmp_path / "logs"
    monkeypatch.setenv("FTP_LOG_DIR", str(log_dir))
    outs = []
    for algorithm in ("bipath", "approx-k1", "frac"):
        code, out, _ = run_main(["solve", gap_file, "--algorithm", algorithm], capsys)
        assert code == EXIT_OK
        outs.append(out)
    records = _records(log_dir / "runs.jsonl")
    assert [r["solver"] for r in records] == ["bipath", "approx-k1", "frac"]
    assert set(records[0]) == set(records[1]) == SOLUTION_RECORD_KEYS
    assert set(records[2]) == FRAC_RECORD_KEYS
    with open(gap_file, encoding="utf-8") as handle:
        digest = hashlib.sha256(handle.read().encode()).hexdigest()
    assert {r["instance_digest"] for r in records} == {digest}
    assert records[0]["edges"] == sorted(parse_solution(outs[0]))
    assert f"cost: {records[0]['cost']}\n" in outs[0]
    assert f"value: {records[2]['value']}\n" in outs[2]

    # Without FTP_LOG_DIR the bench log lands next to its table.
    monkeypatch.delenv("FTP_LOG_DIR")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "gap.ftp").write_text(serialize(gap_family(4, 1)))
    code, _, _ = run_main(["bench", str(corpus), str(tmp_path / "t.txt")], capsys)
    assert code == EXIT_OK
    bench = _records(tmp_path / "t.txt.runs.jsonl")
    assert [r["solver"] for r in bench] == ["oracle", "bipath", "srp", "approx-k1",
                                            "approx-k", "frac"]
    assert all(set(r) == SOLUTION_RECORD_KEYS for r in bench[:-1])
    assert set(bench[-1]) == FRAC_RECORD_KEYS
    assert {r["instance_digest"] for r in bench} == {digest}


@pytest.mark.parametrize("case", ["bench", "gen", "log"])
def test_unwritable_output_paths_exit_3(tmp_path, gap_file, capsys, monkeypatch,
                                        case):
    monkeypatch.delenv("FTP_LOG_DIR", raising=False)
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    if case == "bench":
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "gap.ftp").write_text(serialize_instance(gap_family(4, 1)))
        argv = ["bench", str(corpus), str(tmp_path / "missing" / "t.txt")]
    elif case == "gen":
        argv = ["gen", "--out", str(a_file)]
    else:
        monkeypatch.setenv("FTP_LOG_DIR", str(a_file))
        argv = ["solve", gap_file]
    code, out, err = run_main(argv, capsys)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("invalid input: cannot write ")


def test_gen_srp_needs_edges(tmp_path, capsys):
    code, _, err = run_main(["gen", "--kind", "srp", "--edges", "0",
                             "--out", str(tmp_path / "g")], capsys)
    assert code == EXIT_INVALID
    assert err == "invalid input: gen --kind srp needs --edges of at least 1\n"



def test_gen_rejects_negative_max_w(tmp_path, capsys):
    code, out, err = run_main(["gen", "--max-w", "-1", "--out", str(tmp_path / "g")],
                              capsys)
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "invalid input: gen --max-w must be at least 0\n"


def test_internal_value_error_exits_5(gap_file, capsys, monkeypatch):
    def broken(instance):
        raise ValueError("bug")

    monkeypatch.setattr(bipath, "solve_1ftp", broken)
    code, out, err = run_main(["solve", gap_file, "--algorithm", "bipath"], capsys)
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err == "internal error: ValueError('bug')\n"


def test_srp_on_directed_document_is_invalid_input(tmp_path, capsys):
    path = _write(tmp_path, build_instance(True, 2, 0, 1, 1, [(0, 1, 1, False)]))
    code, out, err = run_main(["solve", path, "--algorithm", "srp"], capsys)
    assert (code, out) == (EXIT_INVALID, "")
    assert err == ("invalid input: series-parallel decomposition requires "
                   "an undirected instance\n")

@pytest.mark.parametrize("algorithm", ["srp", "auto"])
def test_srp_skips_a_self_loop(tmp_path, capsys, algorithm):
    # A loop carries no s-t flow, so the path 0-1-2 with a faulty loop at
    # 1 reduces, and auto answers through srp, optimally.
    path = _write(tmp_path, build_instance(False, 3, 0, 2, 2, [(0, 1, 1, False),
                                                               (1, 2, 1, False),
                                                               (1, 1, 1, True)]))
    code, out, err = run_main(["solve", path, "--algorithm", algorithm], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert out == ("ftp-solution v1\nalgorithm: srp\nstatus: optimal\n"
                   "cost: 2\nedges: 0 1\n")


@pytest.mark.parametrize("argv", [["solve", "x", "--algorithm", "bogus"], ["solve"],
                                  ["frobnicate"], []],
                         ids=["bad choice", "missing path", "bad command", "no command"])
def test_usage_errors_exit_3(capsys, argv):
    # argparse would exit 2, which reads as an infeasible instance.
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (EXIT_INVALID, "")
    assert err.startswith("usage: ftp")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ftp solve")


def test_module_entry_point(gap_file, capsys):
    expected = run_main(["solve", gap_file, "--algorithm", "bipath"], capsys)
    assert expected[0] == EXIT_OK and "cost: 2" in expected[1]
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-m", "ftpath", "solve", gap_file,
                               "--algorithm", "bipath"],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected


HUGE_BUDGET = 10**11
# Exit codes at k = 10**11: the exact solvers for k = 1 and undirected
# DAGs refuse (3), the DAG solver's cap refuses (4), the rest answer.
HUGE_BUDGET_EXITS = {
    False: {"auto": EXIT_OK, "bipath": EXIT_INVALID, "dag": EXIT_INVALID, "srp": EXIT_OK,
            "approx-k": EXIT_OK, "approx-k1": EXIT_OK, "oracle": EXIT_OK, "frac": EXIT_OK},
    True: {"auto": EXIT_OK, "bipath": EXIT_INVALID, "dag": EXIT_CAPS, "srp": EXIT_INVALID,
           "approx-k": EXIT_OK, "approx-k1": EXIT_OK, "oracle": EXIT_OK, "frac": EXIT_OK},
}


@pytest.mark.parametrize("edges", [
    [(0, 1, 1, False)],
    [(0, 1, 2, False), (0, 1, 1, True), (0, 2, 0, True), (2, 1, 0, False)],
], ids=["one-safe-edge", "two-faulty"])
@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("algorithm", cli.ALGORITHMS)
def test_huge_budget_answers_at_once(tmp_path, capsys, edges, directed, algorithm):
    # Budgets far above the number of faulty edges must neither allocate
    # budget-sized rows nor push one flow unit at a time.
    inst = build_instance(directed, 3, 0, 1, HUGE_BUDGET, edges)
    path = tmp_path / "huge.ftp"
    path.write_text(serialize_instance(inst))
    started = time.perf_counter()
    code, out, err = run_main(["solve", str(path), "--algorithm", algorithm], capsys)
    assert time.perf_counter() - started < 5
    assert code == HUGE_BUDGET_EXITS[directed][algorithm], err
    if algorithm == "srp" and code == EXIT_OK:
        path.write_text(serialize_instance(inst.with_budget(len(inst.faulty_ids))))
        assert run_main(["solve", str(path), "--algorithm", "srp"], capsys)[1] == out
