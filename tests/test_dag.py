import math
import random
from itertools import accumulate, groupby, product

import pytest

from ftpath import dag
from ftpath.bipath import solve_1ftp
from ftpath.core import Infeasible, build_instance, is_feasible
from ftpath.dag import (Configuration, ConfigurationSpaceTooLarge, NotADag,
                        configuration_count, enumerate_configurations,
                        layerize, link_cost, solve_kftp_dag)
from ftpath.oracle import brute_force_opt
from ftpath.shortest import shortest_path_solution

from conftest import random_dag_instance, simple_paths


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


def test_budget_cap_counts_spread_entries():
    # A tail's k + 1 units split into about (k + 1)(k + 2) / 2 spread
    # entries: k = 1412 stays under the default cap, k = 1413 passes it
    # although each layer has one configuration, and 10**11 returns at once.
    edges = [(0, 1, 3, False), (0, 1, 1, True)]
    assert solve_kftp_dag(build_instance(True, 2, 0, 1, 1412, edges)).edges == {0}
    for k in (1413, 10**11):
        with pytest.raises(ConfigurationSpaceTooLarge) as err:
            solve_kftp_dag(build_instance(True, 2, 0, 1, k, edges))
        assert err.value.estimate == (k + 1) * (k + 2) // 2
    assert solve_kftp_dag(build_instance(True, 2, 0, 1, 1413, edges),
                          cap=10**7).edges == {0}



def test_enumerate_configurations_refuses_huge_budgets():
    # One configuration per layer, but a spread of 10**11 + 1 entries:
    # refused at once, by the same rule as solve_kftp_dag.
    layered = layerize(build_instance(True, 2, 0, 1, 0, [(0, 1, 1, True)]))
    for k in (1413, 10**11):
        with pytest.raises(ConfigurationSpaceTooLarge) as err:
            enumerate_configurations(layered, 0, k)
        assert err.value.estimate == (k + 1) * (k + 2) // 2
    assert len(enumerate_configurations(layered, 0, 1412)) == 1
    assert len(enumerate_configurations(layered, 0, 1413, cap=10**7)) == 1

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


def _least_feasible_subset(edges, have, need, k):
    """The subset least in (cost, sum of 2^id) that carries the demand."""
    subsets = [[e for i, e in enumerate(edges) if mask >> i & 1]
               for mask in range(1, 2 ** len(edges))]
    subsets.sort(key=lambda s: (sum(e.w for e in s), sum(1 << e.id for e in s)))
    for subset in subsets:
        if _transport_feasible_reference(subset, have, need, k):
            return sum(e.w for e in subset), frozenset(e.id for e in subset)
    return None


def _tie_gadget_links(seed):
    # Zero weights make ties common.  Yields (gadget, have, need, k, link)
    # for every configuration pair of 40 two-layer gadgets.
    from ftpath.dag import LayeredEdge, LayeredInstance

    rng = random.Random(seed)
    for _ in range(40):
        k = rng.randint(1, 3)
        width1, width2 = rng.randint(2, 3), rng.randint(2, 3)
        heads = range(width1, width1 + width2)
        gadget = [LayeredEdge(i, 0, rng.randrange(width1), rng.choice(heads),
                              rng.randint(0, 4), rng.random() < 0.7, i)
                  for i in range(rng.randint(1, 8))]
        shell = build_instance(True, 2, 0, 1, k, [(0, 1, 1, False)])
        layered = LayeredInstance(shell, (tuple(range(width1)), tuple(heads)),
                                  tuple(gadget))
        for d1 in enumerate_configurations(layered, 0, k):
            have = {v: d for v, d in zip(layered.layers[0], d1.demand) if d}
            for d2 in enumerate_configurations(layered, 1, k):
                need = {v: d for v, d in zip(layered.layers[1], d2.demand) if d}
                yield gadget, have, need, k, link_cost(layered, d1, d2, k)


def test_link_cost_realizing_set_is_least_in_cost_then_id_bits():
    # Among the subsets of least cost, the one with the least sum of
    # 2^id: the smallest largest id, then the next largest, and so on.
    compared = linked = 0
    for gadget, have, need, k, link in _tie_gadget_links(83):
        candidates = [e for e in gadget if e.tail in have and e.head in need]
        expected = _least_feasible_subset(candidates, have, need, k)
        assert (None if link is None else (link.cost, link.realizing)) == expected
        compared += 1
        linked += link is not None
    assert compared >= 1000 and linked >= 150


def test_link_cost_realizing_set_is_inclusion_minimal():
    # A proper subset that still carried the transport would cost less
    # (against the least cost) or as much (an edge carrying nothing).
    checked = 0
    for seed in (83, 89):
        for gadget, have, need, k, link in _tie_gadget_links(seed):
            if link is None:
                continue
            chosen = [e for e in gadget if e.id in link.realizing]
            assert sum(e.w for e in chosen) == link.cost
            assert _transport_feasible_reference(chosen, have, need, k)
            for e in chosen:
                rest = [f for f in chosen if f is not e]
                assert not _transport_feasible_reference(rest, have, need, k)
                checked += 1
    assert checked >= 500


def test_link_cost_runs_one_transition(monkeypatch):
    calls = []
    advance = dag._advance
    monkeypatch.setattr(dag, "_advance", lambda *args: calls.append(1) or advance(*args))
    inst = build_instance(True, 3, 0, 2, 1, [(0, 1, 0, True), (0, 1, 0, True),
                                             (0, 1, 2, False), (1, 2, 1, False),
                                             (0, 2, 3, True)])
    layered = layerize(inst)
    d1, d2 = Configuration(0, (2,)), Configuration(1, (2, 0))
    link = link_cost(layered, d1, d2, 1)
    assert (link.cost, link.realizing, len(calls)) == (0, frozenset({0, 1}), 1)


def test_matches_oracle_at_budget_three_with_zero_weights():
    rng = random.Random(84)
    feasible = 0
    for _ in range(60):
        inst = random_dag_instance(rng, n_max=6, m_max=9, k=3, max_w=2,
                                   faulty_prob=0.7)
        result = brute_force_opt(inst)
        if result.best is None:
            with pytest.raises(Infeasible):
                solve_kftp_dag(inst)
            continue
        solution = solve_kftp_dag(inst)
        assert solution.cost == result.best.cost
        assert is_feasible(inst, solution.edges)
        feasible += 1
    assert feasible >= 10


def _layer_spans(layered):
    """Per original edge id: (layer of its first chain edge, chain length)."""
    spans = {}
    for e in layered.edges:
        first, length = spans.get(e.origin, (e.layer, 0))
        spans[e.origin] = (min(first, e.layer), length + 1)
    return spans


def test_layerize_depths_are_longest_paths():
    rng = random.Random(85)
    checked = 0
    for _ in range(80):
        inst = random_dag_instance(rng, n_max=8, m_max=14)
        s, t = inst.s, inst.t
        longest = {v: max((len(p) for p in simple_paths(inst, s, v)), default=None)
                   for v in range(inst.vertex_count)}
        relevant = {v for v in range(inst.vertex_count)
                    if longest[v] is not None and simple_paths(inst, v, t)}
        layered = layerize(inst)
        if t not in relevant:
            assert not layered.edges
            continue
        assert len(layered.layers) == longest[t] + 1
        kept = [e for e in inst.edges
                if e.u != e.v and e.u in relevant and e.v in relevant]
        assert _layer_spans(layered) == {
            e.id: (longest[e.u], longest[e.v] - longest[e.u]) for e in kept}
        checked += 1
    assert checked >= 40


def test_layerize_long_chain_with_skip_edges():
    # Every vertex lies on the chain, so its depth is its index, and a
    # skip edge u -> u+3 becomes a three-edge chain.
    n = 4000
    edges = [(i, i + 1, 1, True) for i in range(n - 1)]
    edges += [(i, i + 3, 2, False) for i in range(0, n - 3, 5)]
    inst = build_instance(True, n, 0, n - 1, 2, edges)
    layered = layerize(inst)
    assert len(layered.layers) == n
    assert _layer_spans(layered) == {
        eid: (u, v - u) for eid, (u, v, _, _) in enumerate(edges)}


def test_route_ties_keep_the_first_configuration_in_descending_order():
    # Layer 1 holds vertex 1 and the midpoint of the long edge.  Two
    # configurations of layer 1 lead to t at the same cost, and the one
    # first in descending demand order stays the parent: (1, 1) before
    # (0, 2) in the first instance, (2, 0) before (1, 1) in the second.
    both = build_instance(True, 3, 0, 2, 1,
                          [(0, 1, 0, True), (1, 2, 0, True), (0, 2, 1, False)])
    assert solve_kftp_dag(both).edges == frozenset({0, 1, 2})
    safe_path = build_instance(True, 3, 0, 2, 1,
                               [(0, 2, 0, True), (0, 1, 2, False), (1, 2, 2, False)])
    assert solve_kftp_dag(safe_path).edges == frozenset({1, 2})


# Reference copies of the cycle search and layering that built their own
# neighbour maps from the edge list; layerize now reads core.adjacency.

def _reference_cycle(inst):
    n = inst.vertex_count
    indeg = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    for e in inst.edges:
        if e.u != e.v:
            indeg[e.v] += 1
            out[e.u].append(e.v)
    ready = sorted(v for v in range(n) if indeg[v] == 0)
    ordered = set()
    while ready:
        u = ready.pop(0)
        ordered.add(u)
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready = sorted(ready + [v])
    adj: dict[int, list[int]] = {}
    for e in inst.edges:
        if e.u not in ordered and e.v not in ordered and e.u != e.v:
            adj.setdefault(e.u, []).append(e.v)
    for lst in adj.values():
        lst.sort()
    state: dict[int, int] = {}
    for root in sorted(adj):
        if state.get(root, 0):
            continue
        state[root] = 1
        path = [root]
        pending = [iter(adj[root])]
        while pending:
            for v in pending[-1]:
                seen = state.get(v, 0)
                if seen == 1:
                    return tuple(path[path.index(v):]) + (v,)
                if not seen:
                    state[v] = 1
                    path.append(v)
                    pending.append(iter(adj.get(v, ())))
                    break
            else:
                state[path.pop()] = 2
                pending.pop()
    return None


def _reference_layers(inst):
    # (layers, (layer, tail, head, w, faulty, origin) per edge), as the
    # relevant-vertex filter, topological order and depth pass gave them.
    n, s, t = inst.vertex_count, inst.s, inst.t
    if s == t:
        return ((0,),), ()
    fwd, back = {s}, {t}
    for _ in range(n):
        for e in inst.edges:
            if e.u in fwd:
                fwd.add(e.v)
            if e.v in back:
                back.add(e.u)
    relevant = fwd & back
    if t not in relevant:
        return ((0,), (1,)), ()
    kept_edges = [e for e in inst.edges
                  if e.u in relevant and e.v in relevant and e.u != e.v]
    indeg = {v: 0 for v in relevant}
    for e in kept_edges:
        indeg[e.v] += 1
    kept = []
    ready = sorted(v for v in relevant if indeg[v] == 0)
    while ready:
        u = ready.pop(0)
        kept.append(u)
        for e in kept_edges:
            if e.u == u:
                indeg[e.v] -= 1
                if indeg[e.v] == 0:
                    ready = sorted(ready + [e.v])
    depth = dict.fromkeys(kept, 0)
    for v in kept:
        for e in kept_edges:
            if e.u == v:
                depth[e.v] = max(depth[e.v], depth[v] + 1)
    members: list[list[int]] = [[] for _ in range(depth[t] + 1)]
    vertex_of = {}
    for v in kept:
        vertex_of[v] = len(vertex_of)
        members[depth[v]].append(vertex_of[v])
    fresh = len(vertex_of)
    edges = []
    for e in kept_edges:
        chain = [vertex_of[e.u]]
        for layer in range(depth[e.u] + 1, depth[e.v]):
            members[layer].append(fresh)
            chain.append(fresh)
            fresh += 1
        chain.append(vertex_of[e.v])
        for step, (a, b) in enumerate(zip(chain, chain[1:])):
            edges.append((depth[e.u] + step, a, b, e.w if step == 0 else 0,
                          e.faulty, e.id))
    return tuple(map(tuple, members)), tuple(edges)


def _relabelled_dag(rng):
    # A DAG whose vertex ids are shuffled, so the topological order is not
    # the id order; parallel arcs and self-loops included.
    n = rng.randint(2, 9)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    for _ in range(rng.randint(1, 16)):
        u = rng.randrange(n - 1)
        v = rng.randrange(u + 1, n) if rng.random() < 0.9 else u
        w, f = rng.randint(0, 3), rng.random() < 0.5
        edges += [(perm[u], perm[v], w, f)] * rng.choice((1, 1, 2))
    s, t = rng.randrange(n), rng.randrange(n)
    return build_instance(True, n, perm[min(s, t)], perm[max(s, t)], 1, edges)


def test_cycle_witness_matches_reference():
    # Cyclic digraphs with parallel arcs, self-loops and cycles away from
    # s and t: the witness is the one the edge-list search found.
    rng = random.Random(1218)
    for _ in range(300):
        n = rng.randint(2, 9)
        edges = [(rng.randrange(n), rng.randrange(n), rng.randint(0, 3),
                  rng.random() < 0.5) for _ in range(rng.randint(1, 14))]
        u, v = rng.sample(range(n), 2)
        edges += [(u, v, 1, False), (v, u, 1, True)] * rng.choice((1, 2))
        rng.shuffle(edges)
        inst = build_instance(True, n, rng.randrange(n), rng.randrange(n), 1, edges)
        with pytest.raises(NotADag) as err:
            layerize(inst)
        assert err.value.cycle == _reference_cycle(inst)


def test_layerize_matches_reference_on_seeded_dags():
    rng = random.Random(1219)
    for _ in range(300):
        inst = _relabelled_dag(rng)
        layered = layerize(inst)
        edges = tuple((e.layer, e.tail, e.head, e.w, e.faulty, e.origin)
                      for e in layered.edges)
        assert (layered.layers, edges) == _reference_layers(inst)


# Reference copy of the per-spread dynamic program that the staged layer
# transition replaced.  Each spread of a layer (the sorted positions of
# its k + 1 units) ran its own _reach, spreads in ascending order, and
# only a strictly cheaper route replaced a parent; link_cost ran _reach
# from its one spread.

def _reference_pair_rows(edges, k, pos):
    # Per tail vertex, (head position, row) pairs: row[f] is the least
    # weight that lets the tail->head edges carry f units.
    units = k + 1
    groups = {}
    for e in edges:
        safe, faulty = groups.setdefault((e.tail, e.head), ([], []))
        (faulty if e.faulty else safe).append(e.w)
    rows = {}
    for (tail, head), (safe, faulty) in groups.items():
        sums = [0, *accumulate(sorted(faulty))]
        carried = range(units + 1) if safe else range(min(units, len(faulty)) + 1)
        rows.setdefault(tail, []).append((pos[head], [min(safe + sums[f:f + 1])
                                                      for f in carried]))
    return rows


def _reach(rows, have, memo):
    partial = {(): 0}
    for tail, units in have:
        if (tail, units) not in memo:
            splits = [((), 0)]
            for p, row in rows.get(tail, []):
                splits = [(taken + (p,) * x, cost + row[x]) for taken, cost in splits
                          for x in range(min(units - len(taken), len(row) - 1) + 1)]
            memo[tail, units] = [split for split in splits if len(split[0]) == units]
        grown = {}
        for spread, cost in partial.items():
            for taken, extra in memo[tail, units]:
                key = tuple(sorted(spread + taken))
                if cost + extra < grown.get(key, math.inf):
                    grown[key] = cost + extra
        partial = grown
    return partial


def _reference_tables(layered, k, ties):
    # ``ties`` counts the routes that matched a parent's cost and lost.
    best = [{(0,) * (k + 1): (0, ())}]
    for i in range(len(layered.layers) - 1):
        pos = {v: p for p, v in enumerate(layered.layers[i + 1])}
        rows = _reference_pair_rows(layered.edges_in_layer(i), k, pos)
        memo, reached = {}, {}
        for spread in sorted(best[i]):
            base = best[i][spread][0]
            have = [(layered.layers[i][p], len(list(units)))
                    for p, units in groupby(spread)]
            for head_spread, cost in _reach(rows, have, memo).items():
                old = reached.get(head_spread, (math.inf,))[0]
                ties[0] += base + cost == old
                if base + cost < old:
                    reached[head_spread] = (base + cost, spread)
        best.append(reached)
    return best


def _reference_link_cost(layered, d1, d2, k):
    # The least cost by _reach; the realizing set by a greedy that drops,
    # in descending id order, each edge whose removal keeps that cost.
    supp1, supp2 = set(d1.support(layered)), set(d2.support(layered))
    edges = [e for e in layered.edges_in_layer(d1.layer)
             if e.tail in supp1 and e.head in supp2]
    have = [(v, d) for v, d in zip(layered.layers[d1.layer], d1.demand) if d]
    pos = {v: p for p, v in enumerate(layered.layers[d2.layer])}
    target = tuple(p for p, d in enumerate(d2.demand) for _ in range(d))

    def cheapest(pool):
        return _reach(_reference_pair_rows(pool, k, pos), have, {}).get(target)

    best = cheapest(edges)
    if best is None:
        return None
    kept = list(edges)
    for e in sorted(edges, key=lambda e: -e.id):
        rest = [f for f in kept if f is not e]
        if cheapest(rest) == best:
            kept = rest
    return best, frozenset(e.id for e in kept)


def _demand(spread, width):
    return tuple(map(spread.count, range(width)))


def _reference_solve(inst, layered, best):
    """(sorted edges, cost) as the per-spread program gave them from ``best``."""
    if not layered.edges:
        raise Infeasible("terminals are disconnected")
    spread = (0,) * (inst.k + 1)
    if spread not in best[-1]:
        raise Infeasible("no robust route through the layered graph")
    ids = set()
    for i in range(len(best) - 1, 0, -1):
        parent = best[i][spread][1]
        d1 = Configuration(i - 1, _demand(parent, len(layered.layers[i - 1])))
        d2 = Configuration(i, _demand(spread, len(layered.layers[i])))
        ids |= _reference_link_cost(layered, d1, d2, inst.k)[1]
        spread = parent
    origins = {layered.edges[lid].origin for lid in ids}
    return sorted(origins), sum(inst.edges[e].w for e in origins)


def _tie_heavy_dag(rng):
    # Weights 0-3, parallel arcs, a zero-weight chain and a self-loop now
    # and then, so that many routes tie.
    n = rng.randint(2, 9)
    edges = []
    for _ in range(rng.randint(n - 1, 2 * n)):
        u = rng.randrange(n - 1)
        v = rng.randrange(u + 1, n)
        for _ in range(rng.choice((1, 1, 2, 3))):
            edges.append((u, v, rng.randint(0, 3), rng.random() < 0.6))
    if rng.random() < 0.5:
        a = rng.randrange(n - 1)
        edges += [(u, u + 1, 0, rng.random() < 0.5)
                  for u in range(a, rng.randrange(a + 1, n))]
    if rng.random() < 0.3:
        v = rng.randrange(n)
        edges.append((v, v, rng.randint(0, 3), rng.random() < 0.5))
    rng.shuffle(edges)
    return build_instance(True, n, 0, n - 1, rng.randint(0, 3), edges)


def _spread_tables(layered, k, tables):
    # The staged tables keyed and parented by spreads, as the reference.
    bits = (k + 1).bit_length()

    def spread(i, code):
        demand = dag._configuration(layered, i, code, bits).demand
        return tuple(p for p, d in enumerate(demand) for _ in range(d))

    return [{(0,) * (k + 1): (0, ())}] + [
        {spread(i, code): (cost, spread(i - 1, parent)) for code, (cost, parent) in table.items()}
        for i, table in enumerate(tables) if i]


def test_staged_transition_matches_the_per_spread_program():
    # Every layer's table agrees in cost and parent for every spread, and
    # solve_kftp_dag gives the same edges, cost or error message.
    rng = random.Random(1720)
    ties, solved, compared = [0], 0, 0
    for _ in range(2500):
        inst = _tie_heavy_dag(rng)
        layered, best = layerize(inst), None
        if layered.edges:
            best = _reference_tables(layered, inst.k, ties)
            assert _spread_tables(layered, inst.k, dag._route_tables(layered, inst.k)) == best
            compared += 1
        try:
            expected = _reference_solve(inst, layered, best)
        except Infeasible as err:
            with pytest.raises(Infeasible) as got:
                solve_kftp_dag(inst)
            assert str(got.value) == str(err)
            continue
        solution = solve_kftp_dag(inst)
        assert (sorted(solution.edges), solution.cost) == expected
        solved += 1
    assert compared >= 2000 and solved >= 1500 and ties[0] >= 5000
