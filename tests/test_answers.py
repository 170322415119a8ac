"""Every integral answer goes through core's one checked constructor."""

import pytest

from ftpath import approx, bipath, core, dag, srp
from ftpath.cli import EXIT_OK, main, serialize_instance
from ftpath.core import (OPTIMAL, RATIO_BOUNDED, Solution, SolverCheckFailed,
                         build_instance)
from ftpath.frac import gap_family
from ftpath.oracle import brute_force_opt
from ftpath.shortest import meta_shortest_path, shortest_path_solution

# s = t = 1 with a faulty edge into it and a self-loop there.
_UNDIRECTED_EDGES = [(0, 1, 1, True), (1, 2, 1, False), (1, 1, 3, True)]
_DAG_EDGES = [(0, 1, 1, True), (1, 2, 1, False), (0, 2, 5, True)]


def _s_is_t(directed: bool, k: int):
    return build_instance(directed, 3, 1, 1, k, _DAG_EDGES if directed else _UNDIRECTED_EDGES)


@pytest.mark.parametrize("solve, directed, k, status, ratio", [
    (bipath.solve_1ftp, False, 1, OPTIMAL, None),
    (bipath.solve_1ftp, True, 1, OPTIMAL, None),
    (approx.approx_k, False, 2, RATIO_BOUNDED, (2, 1)),
    (approx.approx_k, True, 3, RATIO_BOUNDED, (3, 1)),
    (approx.approx_kplus1, False, 2, RATIO_BOUNDED, (3, 1)),
    (approx.approx_kplus1, True, 0, RATIO_BOUNDED, (1, 1)),
    (shortest_path_solution, False, 0, OPTIMAL, None),
    (shortest_path_solution, True, 0, OPTIMAL, None),
    (srp.solve_srp, False, 2, OPTIMAL, None),
    (dag.solve_kftp_dag, True, 2, OPTIMAL, None),
    (lambda inst: brute_force_opt(inst).best, False, 2, OPTIMAL, None),
    (lambda inst: brute_force_opt(inst).best, True, 1, OPTIMAL, None),
], ids=["bipath", "bipath-directed", "approx-k", "approx-k-directed", "approx-k1",
        "approx-k1-directed", "shortest", "shortest-directed", "srp", "dag", "oracle",
        "oracle-directed"])
def test_s_equal_t_answers_the_empty_set(solve, directed, k, status, ratio):
    assert solve(_s_is_t(directed, k)) == Solution(frozenset(), 0, status, ratio)


def test_srp_answers_s_equal_t_without_a_tree(tmp_path, capsys):
    # A tree needs s != t, so decompose_srp still refuses, and a directed
    # instance is still not srp's; solve_srp answers the empty set.
    inst = build_instance(False, 3, 1, 1, 2, [(0, 1, 1, True), (1, 2, 1, False)])
    with pytest.raises(srp.NotSeriesParallel, match="terminals coincide"):
        srp.decompose_srp(inst)
    with pytest.raises(srp.NotSeriesParallel, match="requires an undirected instance"):
        srp.solve_srp(_s_is_t(True, 2))
    path = tmp_path / "s_is_t.ftp"
    path.write_text(serialize_instance(inst))
    assert main(["solve", str(path), "--algorithm", "srp"]) == EXIT_OK
    assert capsys.readouterr().out == ("ftp-solution v1\nalgorithm: srp\nstatus: optimal\n"
                                       "cost: 0\nedges: \n")


def test_meta_shortest_path_at_s_equal_t_reads_no_link():
    def length(u, v, limit):
        raise AssertionError("no link is read when s = t")

    assert meta_shortest_path(4, length, 2, 2) == (0, [2])
    assert meta_shortest_path(4, length, 2, 2, [1, 1, 0, 1]) == (0, [2])


_SP = gap_family(3, 2)  # three parallel faulty unit edges, k = 2
_DAG = build_instance(True, 3, 0, 2, 1, [(0, 1, 1, True), (0, 1, 1, True),
                                         (1, 2, 1, False), (0, 2, 5, False)])


@pytest.mark.parametrize("solve, instance, name", [
    (bipath.solve_1ftp, gap_family(3, 1), "bipath"),
    (approx.approx_kplus1, _SP, "approx-k1"),
    (approx.approx_k, _SP, "approx-k"),
    (dag.solve_kftp_dag, _DAG, "dag"),
    (srp.solve_srp, _SP, "srp"),
    (shortest_path_solution, gap_family(3, 0), "shortest"),
    (lambda inst: srp.solve_ftp_srp(inst, srp.decompose_srp(inst)), _SP, "srp at budget 0"),
], ids=["bipath", "approx-k1", "approx-k", "dag", "srp", "shortest", "solve_ftp_srp"])
def test_every_integral_solver_checks_its_answer(monkeypatch, solve, instance, name):
    monkeypatch.setattr(core, "is_feasible", lambda instance, edges: False)
    with pytest.raises(SolverCheckFailed, match=f"^{name} returned an infeasible edge set$"):
        solve(instance)
