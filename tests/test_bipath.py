import math
import random

import pytest

from ftpath.bipath import WrongBudget, link_lengths, solve_1ftp
from ftpath.core import Infeasible, build_instance, is_feasible
from ftpath.frac import gap_family
from ftpath.oracle import brute_force_opt

from conftest import cheapest_disjoint_pair, random_instance

INF = math.inf


def test_wrong_budget():
    inst = build_instance(False, 2, 0, 1, 2, [(0, 1, 1, True)] * 3)
    with pytest.raises(WrongBudget):
        link_lengths(inst)
    with pytest.raises(WrongBudget):
        solve_1ftp(inst)


def test_triangle_safe_edges():
    # Direct safe s-t edge beats the two-route alternative.
    inst = build_instance(False, 3, 0, 2, 1,
                          [(0, 2, 1, False), (0, 1, 1, False), (1, 2, 1, False)])
    ll = link_lengths(inst)
    assert ll.safe_dist[0][2] == 1
    assert ll.pair_dist[0][2] == 3
    assert ll.dist[0][2] == 1
    assert ll.witness[(0, 2)][0] == "safe-path"


def test_two_parallel_faulty_edges():
    inst = gap_family(2, 1)
    ll = link_lengths(inst)
    assert ll.safe_dist[0][1] == INF
    assert ll.pair_dist[0][1] == 2
    assert ll.dist[0][1] == 2
    solution = solve_1ftp(inst)
    assert solution.cost == 2
    assert solution.edges == frozenset({0, 1})


def test_single_safe_bridge_suffices():
    # A safe s-t edge of cost 5, with pricier faulty noise elsewhere.
    inst = build_instance(False, 3, 0, 2, 1,
                          [(0, 2, 5, False), (0, 1, 9, True), (1, 2, 9, True)])
    solution = solve_1ftp(inst)
    assert solution.edges == frozenset({0})
    assert solution.cost == 5


def test_pair_dist_matches_disjoint_path_enumeration():
    rng = random.Random(31)
    compared = 0
    for _ in range(60):
        inst = random_instance(rng, n_max=5, m_max=8, directed=False, k=1)
        ll = link_lengths(inst)
        for u in range(inst.vertex_count):
            for v in range(inst.vertex_count):
                if u == v:
                    continue
                expected = cheapest_disjoint_pair(inst, u, v)
                got = ll.pair_dist[u][v]
                assert got == (INF if expected is None else expected)
                compared += 1
    assert compared >= 400


def test_directed_pair_dist_counts_shared_safe_edge_twice():
    # Both units cross the safe s->a edge, so the flow cost counts it
    # twice: 5 + 5 + 1 + 1 = 12, not the support weight 5 + 1 + 1 = 7.
    inst = build_instance(True, 3, 0, 2, 1,
                          [(0, 1, 5, False), (1, 2, 1, True), (1, 2, 1, True)])
    ll = link_lengths(inst)
    assert ll.safe_dist[0][2] == INF
    assert ll.pair_dist[0][2] == 12
    assert ll.dist[0][2] == 12
    assert ll.witness[(0, 2)] == ("two-route", (0, 1, 2))
    assert solve_1ftp(inst).cost == 7


def test_directed_shared_safe_arc():
    # No two arc-disjoint 0->2 paths exist, yet {all three arcs} is
    # robust: the single safe arc may serve both routes.  The link
    # decomposition must split at the middle vertex and find cost 3.
    inst = build_instance(True, 3, 0, 2, 1,
                          [(0, 1, 1, False), (1, 2, 1, True), (1, 2, 1, True)])
    solution = solve_1ftp(inst)
    assert solution.edges == frozenset({0, 1, 2})
    assert solution.cost == 3
    assert solution.cost == brute_force_opt(inst).best.cost

    # Mirrored: the shared safe arc sits at the sink side.
    mirrored = build_instance(True, 3, 0, 2, 1,
                              [(0, 1, 1, True), (0, 1, 1, True), (1, 2, 1, False)])
    assert solve_1ftp(mirrored).cost == 3


def test_infeasible_instance_raises():
    inst = build_instance(False, 3, 0, 2, 1, [(0, 1, 1, False), (1, 2, 1, True)])
    with pytest.raises(Infeasible):
        solve_1ftp(inst)


def test_degenerate_same_terminals():
    inst = build_instance(False, 2, 0, 0, 1, [(0, 1, 1, True)])
    assert solve_1ftp(inst).cost == 0


def test_matches_oracle_on_random_instances():
    rng = random.Random(41)
    feasible_count = 0
    for _ in range(250):
        inst = random_instance(rng, n_max=6, m_max=10, k=1)
        result = brute_force_opt(inst)
        if result.best is None:
            with pytest.raises(Infeasible):
                solve_1ftp(inst)
            continue
        solution = solve_1ftp(inst)
        assert solution.cost == result.best.cost
        assert is_feasible(inst, solution.edges)
        feasible_count += 1
    assert feasible_count >= 80


def test_robust_structure_of_witnesses():
    # Every chosen two-route link survives the failure of any one edge:
    # the supporting edge set is itself feasible between its endpoints.
    rng = random.Random(43)
    for _ in range(60):
        inst = random_instance(rng, n_max=5, m_max=9, k=1)
        ll = link_lengths(inst)
        for (u, v), (kind, ids) in ll.witness.items():
            if u == v or kind != "two-route":
                continue
            seg = inst.with_terminals(u, v)
            assert is_feasible(seg, ids)
