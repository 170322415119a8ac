import random
from itertools import product

import pytest

from ftpath.bipath import solve_1ftp
from ftpath.core import Infeasible, build_instance, is_feasible
from ftpath.dag import (Configuration, ConfigurationSpaceTooLarge, NotADag,
                        configuration_count, enumerate_configurations,
                        layerize, link_cost, solve_kftp_dag)
from ftpath.oracle import brute_force_opt
from ftpath.shortest import shortest_path_solution

from conftest import random_dag_instance


def test_layerize_identity_on_layered_graph():
    # Diamond: 3 layers, edges only between consecutive ones, so the
    # transform is the identity up to relabeling.
    inst = build_instance(True, 4, 0, 3, 1,
                          [(0, 1, 2, False), (0, 2, 3, True),
                           (1, 3, 1, False), (2, 3, 1, True)])
    layered = layerize(inst)
    assert len(layered.edges) == 4
    assert [len(layer) for layer in layered.layers] == [1, 2, 1]
    assert [e.w for e in layered.edges] == [2, 3, 1, 1]
    assert [e.faulty for e in layered.edges] == [False, True, False, True]


def test_layerize_subdivides_long_edges():
    # Edge jumping from the first to the third position in topological
    # order becomes a two-edge chain: costs (7, 0), both faulty.
    inst = build_instance(True, 3, 0, 2, 1,
                          [(0, 2, 7, True), (0, 1, 1, False), (1, 2, 1, False)])
    layered = layerize(inst)
    chain = sorted((e for e in layered.edges if e.origin == 0),
                   key=lambda e: e.layer)
    assert len(chain) == 2
    assert [e.w for e in chain] == [7, 0]
    assert all(e.faulty for e in chain)
    assert chain[0].head == chain[1].tail


def test_layerize_rejects_undirected_and_cycles():
    undirected = build_instance(False, 2, 0, 1, 1, [(0, 1, 1, True)])
    with pytest.raises(NotADag):
        layerize(undirected)
    cyclic = build_instance(True, 3, 0, 2, 1,
                            [(0, 1, 1, False), (1, 0, 1, False), (0, 2, 1, False)])
    with pytest.raises(NotADag) as err:
        layerize(cyclic)
    assert err.value.cycle is not None


def test_configuration_enumeration():
    inst = build_instance(True, 3, 0, 2, 2,
                          [(0, 1, 1, False), (1, 2, 1, False)])
    layered = layerize(inst)
    only = enumerate_configurations(layered, 0, 2)
    assert [c.demand for c in only] == [(3,)]

    # Two vertices, one failure allowed: three ways to split 2 units.
    wide = build_instance(True, 4, 0, 3, 1,
                          [(0, 1, 1, False), (0, 2, 1, False),
                           (1, 3, 1, False), (2, 3, 1, False)])
    wl = layerize(wide)
    middle = enumerate_configurations(wl, 1, 1)
    assert [c.demand for c in middle] == [(2, 0), (1, 1), (0, 2)]

    # Three vertices in one layer: compositions of 2 into 3 parts.
    tri = build_instance(True, 5, 0, 4, 1,
                         [(0, 1, 1, False), (0, 2, 1, False), (0, 3, 1, False),
                          (1, 4, 1, False), (2, 4, 1, False), (3, 4, 1, False)])
    tl = layerize(tri)
    assert len(enumerate_configurations(tl, 1, 1)) == 6
    assert configuration_count(tl, 1) == 1 + 6 + 1


def test_configuration_cap():
    inst = build_instance(True, 4, 0, 3, 2,
                          [(0, 1, 1, False), (0, 2, 1, False),
                           (1, 3, 1, False), (2, 3, 1, False)])
    layered = layerize(inst)
    with pytest.raises(ConfigurationSpaceTooLarge):
        enumerate_configurations(layered, 1, 2, cap=3)
    with pytest.raises(ConfigurationSpaceTooLarge):
        solve_kftp_dag(inst, cap=3)


def _transport_feasible_reference(edges, have, need, k):
    """Enumerate integral assignments: faulty <= 1 unit, safe <= k+1."""
    caps = [1 if e.faulty else k + 1 for e in edges]
    for assignment in product(*(range(c + 1) for c in caps)):
        out = dict.fromkeys(have, 0)
        inn = dict.fromkeys(need, 0)
        ok = True
        for e, units in zip(edges, assignment):
            if units:
                if e.tail not in out or e.head not in inn:
                    ok = False
                    break
                out[e.tail] += units
                inn[e.head] += units
        if ok and all(out[v] == have[v] for v in have) and \
                all(inn[v] == need[v] for v in need):
            return True
    return False


def test_link_cost_single_edges():
    inst = build_instance(True, 2, 0, 1, 2, [(0, 1, 4, False)])
    layered = layerize(inst)
    d1 = Configuration(0, (3,))
    d2 = Configuration(1, (3,))
    link = link_cost(layered, d1, d2, 2)
    assert link is not None
    assert link.cost == 4 and link.realizing == frozenset({0})

    faulty = build_instance(True, 2, 0, 1, 2, [(0, 1, 4, True)])
    fl = layerize(faulty)
    assert link_cost(fl, d1, d2, 2) is None  # capacity 1 < 3 units


def test_link_cost_matches_subset_brute_force():
    # Hand-built bipartite gadgets: two vertices per layer, up to six
    # parallel-ish edges, every demand split, against a brute force over
    # all edge subsets with a unit-assignment transport check.
    from ftpath.dag import LayeredEdge, LayeredInstance

    rng = random.Random(71)
    compared = 0
    for _ in range(60):
        k = rng.randint(1, 2)
        m = rng.randint(1, 6)
        gadget = [LayeredEdge(i, 0, rng.randrange(2), 2 + rng.randrange(2),
                              rng.randint(0, 6), rng.random() < 0.6, i)
                  for i in range(m)]
        shell = build_instance(True, 4, 0, 3, k,
                               [(0, 2, 1, False)] * 1)  # placeholder original
        layered = LayeredInstance(shell, ((0, 1), (2, 3)), tuple(gadget))
        total = k + 1
        for cut1 in range(total + 1):
            for cut2 in range(total + 1):
                d1 = Configuration(0, (cut1, total - cut1))
                d2 = Configuration(1, (cut2, total - cut2))
                have = {v: d for v, d in zip((0, 1), d1.demand) if d}
                need = {v: d for v, d in zip((2, 3), d2.demand) if d}
                best = None
                for mask in range(1, 2 ** m):
                    subset = [gadget[i] for i in range(m) if mask >> i & 1]
                    if _transport_feasible_reference(subset, have, need, k):
                        cost = sum(e.w for e in subset)
                        if best is None or cost < best:
                            best = cost
                link = link_cost(layered, d1, d2, k)
                assert (link.cost if link else None) == best
                compared += 1
    assert compared >= 500


def test_link_cost_monotone_in_edge_set():
    # More candidate edges can only make the link cheaper (or appear).
    from ftpath.dag import LayeredEdge, LayeredInstance

    rng = random.Random(79)
    for _ in range(40):
        k = rng.randint(1, 2)
        m = rng.randint(2, 6)
        gadget = [LayeredEdge(i, 0, rng.randrange(2), 2 + rng.randrange(2),
                              rng.randint(0, 6), rng.random() < 0.6, i)
                  for i in range(m)]
        shell = build_instance(True, 4, 0, 3, k, [(0, 2, 1, False)])
        total = k + 1
        d1 = Configuration(0, (total - 1, 1))
        d2 = Configuration(1, (1, total - 1))
        previous = None
        for count in range(1, m + 1):
            layered = LayeredInstance(shell, ((0, 1), (2, 3)),
                                      tuple(gadget[:count]))
            link = link_cost(layered, d1, d2, k)
            if link is not None:
                if previous is not None:
                    assert link.cost <= previous
                previous = link.cost
            else:
                assert previous is None  # once linked, stays linked


def test_solve_gap_family_two_layer():
    inst = build_instance(True, 2, 0, 1, 1, [(0, 1, 1, True)] * 4)
    solution = solve_kftp_dag(inst)
    assert solution.cost == 2
    assert len(solution.edges) == 2


def test_solve_budget_zero_is_shortest_path():
    rng = random.Random(72)
    for _ in range(40):
        inst = random_dag_instance(rng, k=0)
        try:
            expected = shortest_path_solution(inst)
        except Infeasible:
            with pytest.raises(Infeasible):
                solve_kftp_dag(inst)
            continue
        assert solve_kftp_dag(inst).cost == expected.cost


def test_matches_oracle_on_random_dags():
    rng = random.Random(73)
    feasible = 0
    for _ in range(120):
        inst = random_dag_instance(rng, n_max=6, m_max=9)
        result = brute_force_opt(inst)
        if result.best is None:
            with pytest.raises(Infeasible):
                solve_kftp_dag(inst)
            continue
        solution = solve_kftp_dag(inst)
        assert solution.cost == result.best.cost
        assert is_feasible(inst, solution.edges)
        feasible += 1
    assert feasible >= 40


def test_layerize_preserves_optimum():
    rng = random.Random(74)
    checked = 0
    for _ in range(60):
        inst = random_dag_instance(rng, n_max=6, m_max=7)
        layered = layerize(inst)
        if not layered.edges or len(layered.edges) > 16:
            continue
        original = brute_force_opt(inst)
        relayered = brute_force_opt(layered.as_instance())
        if original.best is None:
            assert relayered.best is None
        else:
            assert relayered.best is not None
            assert original.best.cost == relayered.best.cost
            checked += 1
    assert checked >= 15


def test_agrees_with_single_failure_solver():
    rng = random.Random(75)
    for _ in range(60):
        inst = random_dag_instance(rng, k=1)
        try:
            expected = solve_1ftp(inst)
        except Infeasible:
            with pytest.raises(Infeasible):
                solve_kftp_dag(inst)
            continue
        assert solve_kftp_dag(inst).cost == expected.cost


def test_agrees_with_single_failure_solver_beyond_oracle_scale():
    # Both solvers are polynomial, so the cross-check scales past the
    # brute-force regime.
    rng = random.Random(76)
    for _ in range(50):
        n = rng.randint(8, 12)
        m = rng.randint(n, 24)
        edges = []
        for _ in range(m):
            u = rng.randrange(n - 1)
            v = rng.randrange(u + 1, n)
            edges.append((u, v, rng.randint(0, 9), rng.random() < 0.6))
        inst = build_instance(True, n, 0, n - 1, 1, edges)
        try:
            expected = solve_1ftp(inst)
        except Infeasible:
            with pytest.raises(Infeasible):
                solve_kftp_dag(inst)
            continue
        assert solve_kftp_dag(inst).cost == expected.cost


def test_matches_oracle_at_budget_three():
    rng = random.Random(78)
    feasible = 0
    for _ in range(60):
        inst = random_dag_instance(rng, n_max=6, m_max=8, k=3)
        result = brute_force_opt(inst)
        if result.best is None:
            with pytest.raises(Infeasible):
                solve_kftp_dag(inst)
            continue
        assert solve_kftp_dag(inst).cost == result.best.cost
        feasible += 1
    assert feasible >= 10


def test_cost_monotone_in_budget():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(3, 8)
        m = rng.randint(n, 16)
        edges = []
        for _ in range(m):
            u = rng.randrange(n - 1)
            v = rng.randrange(u + 1, n)
            edges.append((u, v, rng.randint(0, 9), rng.random() < 0.7))
        costs = []
        for k in (0, 1, 2):
            inst = build_instance(True, n, 0, n - 1, k, edges)
            try:
                costs.append(solve_kftp_dag(inst).cost)
            except Infeasible:
                break
        assert all(a <= b for a, b in zip(costs, costs[1:]))


def test_degenerate_terminals():
    inst = build_instance(True, 2, 0, 0, 2, [(0, 1, 1, True)])
    assert solve_kftp_dag(inst).cost == 0
    disconnected = build_instance(True, 3, 0, 2, 1, [(0, 1, 1, False)])
    with pytest.raises(Infeasible):
        solve_kftp_dag(disconnected)


def test_self_loops_are_harmless():
    # A self-loop never helps connectivity, so it neither disqualifies
    # the DAG nor shows up in the answer.
    inst = build_instance(True, 3, 0, 2, 1,
                          [(0, 1, 1, False), (1, 1, 0, True), (1, 2, 2, False)])
    solution = solve_kftp_dag(inst)
    assert solution.cost == 3
    assert 1 not in solution.edges


def test_layerize_long_cycle_has_no_recursion_limit():
    n = 3000
    cyclic = build_instance(True, n, 0, n - 1, 2,
                            [(i, (i + 1) % n, 1, True) for i in range(n)])
    with pytest.raises(NotADag) as err:
        layerize(cyclic)
    assert err.value.cycle == tuple(range(n)) + (0,)
