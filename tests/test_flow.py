import random
from collections import deque
from fractions import Fraction

import pytest

from ftpath.core import Infeasible, build_instance, infeasibility_witness
from ftpath.flow import (Arc, FlowNetwork, FlowResult, balanced_flow, edge_network, max_flow,
                         min_cost_flow)

from conftest import exhaustive_min_cost_flow, min_cut_by_bipartition


def random_network(rng: random.Random, n_max=6, m_max=10, max_cap=3, max_cost=6):
    n = rng.randint(2, n_max)
    arcs = []
    for _ in range(rng.randint(1, m_max)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        cap = None if rng.random() < 0.1 else rng.randint(0, max_cap)
        arcs.append(Arc(u, v, cap, rng.randint(0, max_cost)))
    return FlowNetwork(n, tuple(arcs)), 0, n - 1


def assert_valid_flow(net: FlowNetwork, result: FlowResult, s: int, t: int,
                      value: int):
    balance = [0] * net.vertex_count
    for arc, f in zip(net.arcs, result.flows):
        assert isinstance(f, int)
        assert f >= 0
        if arc.capacity is not None:
            assert f <= arc.capacity
        balance[arc.tail] -= f
        balance[arc.head] += f
    for v in range(net.vertex_count):
        if v == s:
            assert balance[v] == -value
        elif v == t:
            assert balance[v] == value
        else:
            assert balance[v] == 0


def test_max_flow_two_parallel_unit_arcs():
    net = FlowNetwork(2, (Arc(0, 1, 1), Arc(0, 1, 1)))
    result = max_flow(net, 0, 1, 3)
    assert result.value == 2
    assert result.min_cut is not None
    assert sorted(result.min_cut) == [0, 1]


def test_max_flow_path_cut():
    net = FlowNetwork(3, (Arc(0, 1, 1), Arc(1, 2, 1)))
    result = max_flow(net, 0, 2, 2)
    assert result.value == 1
    assert result.min_cut is not None and len(result.min_cut) == 1


def test_max_flow_cap_at_stops_early():
    net = FlowNetwork(2, (Arc(0, 1, 5),))
    result = max_flow(net, 0, 1, 2)
    assert result.value == 2
    assert result.min_cut is None


def test_max_flow_matches_enumerated_min_cut():
    rng = random.Random(4)
    for _ in range(200):
        net, s, t = random_network(rng)
        cap_at = 25
        result = max_flow(net, s, t, cap_at)
        assert_valid_flow(net, result, s, t, result.value)
        arcs = [(a.tail, a.head, a.capacity) for a in net.arcs]
        expected = min_cut_by_bipartition(net.vertex_count, arcs, s, t, cap_at)
        assert result.value == min(expected, cap_at)
        if result.value < cap_at:
            cut_cap = sum(
                (cap_at if net.arcs[i].capacity is None else net.arcs[i].capacity)
                for i in result.min_cut)
            assert cut_cap == result.value


def test_min_cost_flow_parallel_costs():
    net = FlowNetwork(2, (Arc(0, 1, 1, 1), Arc(0, 1, 1, 3)))
    result = min_cost_flow(net, 0, 1, 2)
    assert result.total_cost == 4
    assert result.flows == (1, 1)


def test_min_cost_flow_zero_amount():
    net = FlowNetwork(2, (Arc(0, 1, 1, 1),))
    result = min_cost_flow(net, 0, 1, 0)
    assert result.total_cost == 0
    assert result.flows == (0,)


def test_min_cost_flow_infeasible_reports_max():
    net = FlowNetwork(3, (Arc(0, 1, 1, 0), Arc(1, 2, 1, 0)))
    with pytest.raises(Infeasible) as err:
        min_cost_flow(net, 0, 2, 3)
    assert err.value.max_achievable == 1


def test_min_cost_flow_pushes_the_bottleneck(monkeypatch):
    # A billion units over one arc of that capacity take one search, and
    # a second arc with room for one unit adds one more.
    from ftpath import flow

    searches = []
    real = flow._dijkstra
    monkeypatch.setattr(flow, "_dijkstra", lambda *a: searches.append(1) or real(*a))
    result = min_cost_flow(FlowNetwork(2, (Arc(0, 1, 10**9, 2),)), 0, 1, 10**9)
    assert (result.flows, result.total_cost, len(searches)) == ((10**9,), 2 * 10**9, 1)
    searches.clear()
    net = FlowNetwork(2, (Arc(0, 1, 1, 1), Arc(0, 1, 10**9, 2)))
    result = min_cost_flow(net, 0, 1, 10**9)
    assert (result.flows, result.total_cost, len(searches)) == (
        (1, 10**9 - 1), 2 * 10**9 - 1, 2)
    with pytest.raises(Infeasible) as err:
        min_cost_flow(net, 0, 1, 10**9 + 2)
    assert err.value.max_achievable == 10**9 + 1


def test_min_cost_flow_matches_exhaustive_search():
    rng = random.Random(11)
    agree = 0
    for _ in range(250):
        net, s, t = random_network(rng, n_max=4, m_max=10, max_cap=3)
        amount = rng.randint(1, 3)
        arcs = [(a.tail, a.head, a.capacity, a.cost) for a in net.arcs]
        expected = exhaustive_min_cost_flow(net.vertex_count, arcs, s, t, amount)
        try:
            result = min_cost_flow(net, s, t, amount)
        except Infeasible:
            assert expected is None
            continue
        assert expected is not None
        assert result.total_cost == expected[0]
        # Deterministic contract: lexicographically smallest flow vector
        # among the optimal flows.
        assert result.flows == expected[1]
        assert_valid_flow(net, result, s, t, amount)
        agree += 1
    assert agree >= 60


def test_min_cost_flow_value_convex_in_amount():
    rng = random.Random(13)
    for _ in range(60):
        net, s, t = random_network(rng, n_max=5, m_max=8)
        costs = []
        for amount in range(5):
            try:
                costs.append(min_cost_flow(net, s, t, amount).total_cost)
            except Infeasible:
                break
        for a, b in zip(costs, costs[1:]):
            assert b >= a
        for a, b, c in zip(costs, costs[1:], costs[2:]):
            assert c - b >= b - a


def test_balanced_flow_transportation():
    # Two sources (1 unit each), one sink needing 2.
    net = FlowNetwork(3, (Arc(0, 2, 1), Arc(1, 2, 1)), supplies=(-1, -1, 2))
    result = balanced_flow(net)
    assert result is not None
    assert result.flows == (1, 1)

    short = FlowNetwork(3, (Arc(0, 2, 1),), supplies=(-1, -1, 2))
    assert balanced_flow(short) is None


def _query(net: FlowNetwork, s: int, t: int, amount: int):
    try:
        return min_cost_flow(net, s, t, amount)
    except Infeasible as err:
        return ("infeasible", err.max_achievable)


def test_min_cost_flow_reused_network_matches_fresh_and_exhaustive():
    # One network answers every (s, t, amount) query in a shuffled
    # order, so memoized state from earlier queries is reused.
    rng = random.Random(29)
    for _ in range(40):
        net, _, _ = random_network(rng, n_max=4, m_max=10, max_cap=3)
        n = net.vertex_count
        arcs = [(a.tail, a.head, a.capacity, a.cost) for a in net.arcs]
        queries = [(s, t, amount) for s in range(n) for t in range(n)
                   if s != t for amount in range(4)]
        rng.shuffle(queries)
        for s, t, amount in queries:
            got = _query(net, s, t, amount)
            fresh = FlowNetwork(net.vertex_count, tuple(net.arcs))
            assert got == _query(fresh, s, t, amount)
            expected = exhaustive_min_cost_flow(n, arcs, s, t, amount)
            if expected is None:
                assert not isinstance(got, FlowResult)
                assert got[1] == max_flow(net, s, t, amount).value < amount
            else:
                assert (got.total_cost, got.flows) == expected
                assert_valid_flow(net, got, s, t, amount)


def test_min_cost_flow_negative_cost_raises_on_every_call():
    net = FlowNetwork(2, (Arc(0, 1, 1, 1), Arc(0, 1, 1, -1)))
    for _ in range(2):
        with pytest.raises(ValueError, match="negative cost"):
            min_cost_flow(net, 0, 1, 1)


def test_min_cost_flow_target_outside_first_tree():
    # 0 -> 1 exists, 2 has no incoming arc: the tree cached for source 0
    # by the first query does not reach it.
    net = FlowNetwork(3, (Arc(0, 1, 2, 1), Arc(2, 0, 1, 1)))
    assert min_cost_flow(net, 0, 1, 1).flows == (1, 0)
    with pytest.raises(Infeasible) as err:
        min_cost_flow(net, 0, 2, 1)
    assert err.value.max_achievable == 0


def test_min_cost_flow_five_units_matches_exhaustive_search():
    # Five augmentations: the later searches only stay exact if the
    # potentials are refreshed after each one.
    arcs = [(2, 4, 1, 2), (0, 2, 1, 1), (1, 2, 1, 1), (2, 3, None, 0),
            (3, 4, 3, 1), (3, 4, 1, 2), (1, 3, None, 1), (0, 1, 1, 6),
            (0, 3, 2, 1), (0, 3, 1, 3)]
    net = FlowNetwork(5, tuple(Arc(*a) for a in arcs))
    result = min_cost_flow(net, 0, 4, 5)
    assert (result.total_cost, result.flows) == exhaustive_min_cost_flow(5, arcs, 0, 4, 5)
    assert_valid_flow(net, result, 0, 4, 5)


def _reference_max_flow(net: FlowNetwork, s: int, t: int, cap_at):
    # The augmenting loop of an earlier max_flow, kept as a reference: it
    # walks each path twice and finds the cut with a separate residual DFS.
    arcs = net.arcs
    caps = [cap_at if a.capacity is None else a.capacity for a in arcs]
    flows = [0] * len(arcs)
    adj = [[] for _ in range(net.vertex_count)]
    for i, a in enumerate(arcs):
        if a.tail != a.head:
            adj[a.tail].append((i, a.head, True))
            adj[a.head].append((i, a.tail, False))
    value = 0
    while value < cap_at:
        parent = {s: (-1, True)}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for idx, v, fwd in adj[u]:
                residual = caps[idx] - flows[idx] if fwd else flows[idx]
                if v not in parent and residual > 0:
                    parent[v] = (idx, fwd)
                    queue.append(v)
        if t not in parent:
            break
        bottleneck = cap_at - value
        v = t
        while v != s:
            idx, fwd = parent[v]
            if fwd:
                bottleneck = min(bottleneck, caps[idx] - flows[idx])
                v = arcs[idx].tail
            else:
                bottleneck = min(bottleneck, flows[idx])
                v = arcs[idx].head
        v = t
        while v != s:
            idx, fwd = parent[v]
            if fwd:
                flows[idx] += bottleneck
                v = arcs[idx].tail
            else:
                flows[idx] -= bottleneck
                v = arcs[idx].head
        value += bottleneck
    min_cut = None
    if value < cap_at:
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for idx, v, fwd in adj[u]:
                residual = caps[idx] - flows[idx] if fwd else flows[idx]
                if v not in seen and residual > 0:
                    seen.add(v)
                    stack.append(v)
        min_cut = tuple(i for i, a in enumerate(arcs)
                        if a.tail in seen and a.head not in seen and a.tail != a.head)
    return FlowResult(value=value, flows=tuple(flows), min_cut=min_cut)


def test_max_flow_matches_reference_on_seeded_networks():
    # Same value, flow vector and cut as the reference on int, unlimited
    # and Fraction capacities, with parallel and antiparallel arcs and
    # self-loops, at cap_at 0, 1, k + 1 and the total capacity.
    rng = random.Random(1301)
    cuts = capped = 0
    for number in range(500):
        n = rng.randint(2, 5)
        kind = number % 3

        def capacity():
            if kind == 1 and rng.random() < 0.25:
                return None
            if kind == 2:
                return Fraction(rng.randint(0, 6), rng.randint(1, 4))
            return rng.randint(0, 4)

        arcs = []
        for _ in range(rng.randint(0, 14)):
            roll = rng.random()
            if arcs and roll < 0.2:
                a = rng.choice(arcs)
                arcs.append(Arc(a.tail, a.head, capacity()))
            elif arcs and roll < 0.4:
                a = rng.choice(arcs)
                arcs.append(Arc(a.head, a.tail, capacity()))
            else:
                u = rng.randrange(n)
                v = u if roll > 0.9 else rng.randrange(n)
                arcs.append(Arc(u, v, capacity()))
        net = FlowNetwork(n, tuple(arcs))
        s, t = rng.sample(range(n), 2)
        total = sum(a.capacity for a in arcs if a.capacity is not None)
        for cap_at in (0, 1, rng.randint(0, 3) + 1, total):
            got = max_flow(net, s, t, cap_at)
            assert got == _reference_max_flow(net, s, t, cap_at)
            cuts += got.min_cut is not None and got.value > 0
            capped += got.min_cut is None and cap_at > 0
    assert cuts > 200 and capped > 300
    # The second path cancels the unit on 1 -> 2, which is its bottleneck.
    net = FlowNetwork(6, (Arc(0, 1, 1), Arc(1, 2, 1), Arc(2, 3, 1), Arc(0, 4, 5),
                          Arc(4, 2, 5), Arc(1, 5, 5), Arc(5, 3, 5)))
    got = max_flow(net, 0, 3, 10)
    assert got == _reference_max_flow(net, 0, 3, 10)
    assert got.value == 2 and got.flows == (1, 0, 1, 1, 1, 1, 1)


def _arc_max_flow(net: FlowNetwork, s: int, t: int, cap_at):
    # max_flow as it was on Arc tuples before the shared residual search:
    # tuple adjacency lists, dict parents, and the cut read off the last
    # search's parents.
    arcs = net.arcs
    caps = [cap_at if a.capacity is None else a.capacity for a in arcs]
    flows = [0] * len(arcs)
    adj = [[] for _ in range(net.vertex_count)]
    for i, a in enumerate(arcs):
        if a.tail != a.head:
            adj[a.tail].append((i, a.head, True))
            adj[a.head].append((i, a.tail, False))
    value, min_cut = 0, None
    while value < cap_at:
        parent = {s: (-1, True)}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for idx, v, fwd in adj[u]:
                residual = caps[idx] - flows[idx] if fwd else flows[idx]
                if v not in parent and residual > 0:
                    parent[v] = (idx, fwd)
                    queue.append(v)
        if t not in parent:
            min_cut = tuple(i for i, a in enumerate(arcs)
                            if a.tail in parent and a.head not in parent)
            break
        push, path, v = cap_at - value, [], t
        while v != s:
            idx, fwd = parent[v]
            path.append((idx, fwd))
            room = caps[idx] - flows[idx] if fwd else flows[idx]
            if room < push:
                push = room
            v = arcs[idx].tail if fwd else arcs[idx].head
        for idx, fwd in path:
            flows[idx] += push if fwd else -push
        value += push
    return FlowResult(value=value, flows=tuple(flows), min_cut=min_cut)


def test_residual_search_matches_arc_max_flow_and_witness():
    # The one residual search against the Arc-based method it replaced:
    # max_flow on networks mixing unlimited, zero, int and Fraction
    # capacities, and the feasibility witness against the min cut of the
    # instance's edge network, on multigraphs with loops, candidate
    # subsets, s = t and budgets up to 10**11.
    rng = random.Random(2701)
    capacities = (None, 0, 1, 2, 3, Fraction(1, 2), Fraction(5, 3))
    for _ in range(1500):
        n = rng.randint(2, 6)
        arcs = tuple(Arc(rng.randrange(n), rng.randrange(n), rng.choice(capacities))
                     for _ in range(rng.randint(0, 12)))
        net = FlowNetwork(n, arcs)
        s, t = rng.sample(range(n), 2)
        for cap_at in (0, 1, 2, Fraction(7, 2), 10**11):
            assert max_flow(net, s, t, cap_at) == _arc_max_flow(net, s, t, cap_at)
    infeasible = 0
    for number in range(3000):
        n = rng.randint(1, 6)
        rows = [(rng.randrange(n), rng.randrange(n), 1, rng.random() < 0.6)
                for _ in range(rng.randint(0, 10))]
        k = (0, 1, 2, 3, 10**11)[number % 5]
        inst = build_instance(number % 2 == 0, n, rng.randrange(n), rng.randrange(n), k, rows)
        ids = rng.sample(range(len(rows)), rng.randint(0, len(rows)))
        expected = None
        if inst.s != inst.t:
            edge_net = edge_network(inst, k + 2, ids)
            result = max_flow(edge_net, inst.s, inst.t, k + 1)
            if result.value <= k:
                expected = frozenset(edge_net.arcs[i].origin for i in result.min_cut)
        assert infeasibility_witness(inst, ids) == expected
        infeasible += expected is not None
    assert infeasible > 1000
