"""The link-graph solvers compute links on demand.

``solve_1ftp`` and ``approx_k`` compute a pair's link only when the meta
shortest path reads it.  These tests pin that this changes nothing: an
eager reference that fills every pair first, then runs the same meta
shortest path, must give the same edge sets, costs and ``Infeasible``
messages.  They also pin the reading contract of ``meta_shortest_path``
that makes the lazy table possible, and that the solvers really skip
the links they never read.
"""

import math
import random

import pytest

from ftpath import flow
from ftpath.approx import approx_k
from ftpath.bipath import link_lengths, solve_1ftp
from ftpath.core import Infeasible, build_instance, is_feasible
from ftpath.shortest import meta_shortest_path, safe_subgraph_distances

from conftest import random_instance

INF = math.inf


def _support(net, result):
    return tuple(sorted({net.arcs[i].origin for i, f in enumerate(result.flows) if f > 0}))


def _eager_table(instance, safe_cap, units, weight):
    # Every pair's (dist, witness), filled before any route is sought:
    # safe path versus min-cost flow, the safe path winning ties.
    n = instance.vertex_count
    safe_dist, safe_witness = safe_subgraph_distances(instance)
    net = flow.edge_network(instance, safe_cap)
    dist = [[INF] * n for _ in range(n)]
    witness = {}
    for u in range(n):
        for v in range(n):
            if u == v:
                dist[u][u] = 0
                witness[(u, u)] = ("safe-path", ())
                continue
            try:
                res = flow.min_cost_flow(net, u, v, units)
                pair = weight(net, res)
            except Infeasible:
                pair = INF
            if safe_dist[u][v] == INF and pair == INF:
                continue
            if safe_dist[u][v] <= pair:
                dist[u][v] = safe_dist[u][v]
                witness[(u, v)] = ("safe-path", safe_witness[(u, v)])
            else:
                dist[u][v] = pair
                witness[(u, v)] = ("two-route", _support(net, res))
    return dist, witness


def _eager_route(instance, dist, witness, infeasible_message):
    # (edge set, cost) of the meta shortest path over a full table, or
    # the message of the Infeasible the solver raises.
    total, seq = meta_shortest_path(instance.vertex_count, lambda u, v: dist[u][v],
                                    instance.s, instance.t)
    if total == INF:
        return infeasible_message
    edges = frozenset(e for u, v in zip(seq, seq[1:]) for e in witness[(u, v)][1])
    return edges, sum(instance.edges[e].w for e in edges)


def _eager_bipath(instance):
    ll = link_lengths(instance)
    return _eager_route(instance, ll.dist, ll.witness,
                        "no single-failure-tolerant route exists")


def _eager_approx_k(instance):
    if not is_feasible(instance, range(len(instance.edges))):
        return "instance is infeasible even with every edge bought"

    def support_weight(net, res):
        return sum(instance.edges[e].w for e in _support(net, res))

    k = instance.k
    dist, witness = _eager_table(instance, k, k + 1, support_weight)
    return _eager_route(instance, dist, witness,
                        "no link decomposition connects the terminals")


def _outcome(solver, instance):
    try:
        solution = solver(instance)
    except Infeasible as exc:
        return str(exc)
    return solution.edges, solution.cost


def _has_parallel_edges(instance):
    ends = [frozenset((e.u, e.v)) if not instance.directed else (e.u, e.v)
            for e in instance.edges]
    return len(set(ends)) < len(ends)


@pytest.mark.parametrize("directed", [False, True])
def test_lazy_solvers_match_eager_reference(directed):
    rng = random.Random(61 if directed else 67)
    routes = parallel = 0
    for _ in range(120):
        # Weights from 0 to 3, so equal link lengths and ties are common.
        inst = random_instance(rng, n_max=7, m_max=14, directed=directed, k=1,
                               max_w=3)
        parallel += _has_parallel_edges(inst)
        expected = _eager_bipath(inst)
        assert _outcome(solve_1ftp, inst) == expected
        routes += not isinstance(expected, str)
        for k in (1, 2, 3):
            budgeted = inst.with_budget(k)
            assert _outcome(approx_k, budgeted) == _eager_approx_k(budgeted)
    assert routes >= 30 and parallel >= 30


def test_link_lengths_fill_the_eager_table():
    rng = random.Random(71)
    for _ in range(60):
        inst = random_instance(rng, n_max=6, m_max=10, k=1, max_w=3)
        ll = link_lengths(inst)
        dist, witness = _eager_table(inst, 2 if inst.directed else 1, 2,
                                     lambda net, res: res.total_cost)
        assert ll.dist == dist
        assert ll.witness == witness
        assert ll.safe_dist == safe_subgraph_distances(inst)[0]


def _far_vertices_instance(k):
    # s=0 reaches t=2 through vertex 1 at link distance 1 + (k+1); the
    # detour 0-3-4-2 costs 150, so 3 and 4 are settled after t.
    edges = [(0, 1, 1, False)] + [(1, 2, 1, True)] * (k + 1)
    edges += [(0, 3, 50, False), (3, 4, 50, False), (4, 2, 50, True)]
    return build_instance(False, 5, 0, 2, k, edges)


@pytest.mark.parametrize("solver,k", [(solve_1ftp, 1), (approx_k, 1), (approx_k, 2)])
def test_links_from_vertices_settled_after_t_are_never_computed(solver, k, monkeypatch):
    inst = _far_vertices_instance(k)
    sources = []
    original = flow.min_cost_flow

    def recording(net, s, t, amount):
        sources.append(s)
        return original(net, s, t, amount)

    monkeypatch.setattr(flow, "min_cost_flow", recording)
    solution = solver(inst)
    assert solution.edges == frozenset(range(k + 2))
    n = inst.vertex_count
    assert len(sources) < n * (n - 1)
    assert set(sources) == {0, 1}


def _all_pairs(table):
    n = len(table)
    dist = [row[:] for row in table]
    for u in range(n):
        dist[u][u] = 0
    for m in range(n):
        for u in range(n):
            for v in range(n):
                dist[u][v] = min(dist[u][v], dist[u][m] + dist[m][v])
    return dist


def test_meta_shortest_path_reading_contract():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(2, 9)
        s, t = rng.sample(range(n), 2)
        table = [[rng.choice((0, 1, 1, 2, 3, INF)) for _ in range(n)] for _ in range(n)]
        reads = []

        def length(u, v):
            reads.append((u, v))
            return table[u][v]

        total, seq = meta_shortest_path(n, length, s, t)
        true = _all_pairs(table)[s]
        assert total == true[t]
        assert len(set(reads)) == len(reads)
        # Reads come in one row per settled vertex, in settling order.
        settled = []
        for u, v in reads:
            if not settled or settled[-1] != u:
                assert u not in settled
                settled.append(u)
            assert v not in settled
        assert t not in settled
        if settled:
            assert settled[0] == s
        # Each row reads every vertex not yet settled.
        for i, u in enumerate(settled):
            assert [v for a, v in reads if a == u] == [
                v for v in range(n) if v not in settled[:i + 1]]
        # Vertices settle by distance, and only those no farther than t.
        dists = [true[u] for u in settled]
        assert dists == sorted(dists)
        assert all(d <= true[t] for d in dists)
        assert {v for v in range(n) if true[v] < true[t]} <= set(settled)
        if total != INF:
            assert sum(table[u][v] for u, v in zip(seq, seq[1:])) == total
