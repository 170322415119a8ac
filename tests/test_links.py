"""The link-graph solvers compute links on demand.

``solve_1ftp`` and ``approx_k`` compute a pair's link only when the meta
shortest path reads it.  These tests pin that this changes nothing: an
eager reference that fills every pair first, then runs the same meta
shortest path, must give the same edge sets, costs and ``Infeasible``
messages.  They also pin the reading, ``limit`` and ``bound`` contracts
of ``meta_shortest_path`` that make the lazy table possible, the lower
bound on a flow link's weight (``c2``, the min cost of 2 unit routes,
checked against ``min_cost_flow``), and that the solvers really skip
the links they never read and the flows that bound decides.  The meta
search runs in A* order on the potential ``d2(v -> t)``, the distance
to t with every faulty edge's weight doubled; a plain Dijkstra search
with a selection scan, kept here as a reference, must give the same
routes, and the potential must be consistent.  The flow network is
built only for a solve's first flow, and the shortest-path trees match
a copy of their earlier tuple-compare version.
"""

import heapq
import importlib.util
import math
import random
import sys
import types
from pathlib import Path

import pytest

from ftpath import approx, bipath, flow
from ftpath.approx import approx_k
from ftpath.bipath import _Links, _one_failure_links, link_lengths, solve_1ftp
from ftpath.core import Infeasible, adjacency, build_instance, is_feasible
from ftpath.shortest import (_shortest_tree, _two_route_costs, dijkstra_tree,
                             meta_shortest_path, safe_subgraph_distances)

from conftest import random_instance

INF = math.inf


def _plain_meta_shortest_path(n, length, s, t):
    # The meta search without a potential, as a plain Dijkstra search
    # that picks each next vertex by a scan: the reference for A* order.
    if s == t:
        return 0, [s]
    dist = [INF] * n
    hops = [INF] * n
    pred = [None] * n
    done = [False] * n
    dist[s], hops[s] = 0, 0
    for _ in range(n):
        u, best = -1, (INF, INF, INF)
        for v in range(n):
            if not done[v] and dist[v] != INF and (dist[v], hops[v], v) < best:
                best = (dist[v], hops[v], v)
                u = v
        if u < 0:
            break
        done[u] = True
        if u == t:
            break
        for v in range(n):
            if done[v]:
                continue
            ell = length(u, v, dist[v] - dist[u])
            if ell == INF:
                continue
            old_pred = pred[v] if pred[v] is not None else INF
            if (dist[u] + ell, hops[u] + 1, u) < (dist[v], hops[v], old_pred):
                dist[v], hops[v], pred[v] = dist[u] + ell, hops[u] + 1, u
    if dist[t] == INF:
        return INF, []
    seq = [t]
    while seq[-1] != s:
        seq.append(pred[seq[-1]])
    seq.reverse()
    return dist[t], seq


def _plain_search(monkeypatch):
    # Let both solvers run the reference search over exact lengths,
    # dropping the potential and the lower bound.
    def plain(n, length, s, t, potential=None, bound=None):
        return _plain_meta_shortest_path(n, length, s, t)

    monkeypatch.setattr(bipath, "meta_shortest_path", plain)
    monkeypatch.setattr(approx, "meta_shortest_path", plain)


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
    total, seq = meta_shortest_path(instance.vertex_count, lambda u, v, limit: dist[u][v],
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


def _general_sized_instance(rng, directed):
    # The shape of the benchmark's general workload, n = 14..16 and
    # m = 3n, with weights from 0 to 3.
    n = rng.randint(14, 16)
    edges = [(rng.randrange(n), rng.randrange(n), rng.randint(0, 3), rng.random() < 0.5)
             for _ in range(3 * n)]
    return build_instance(directed, n, 0, n - 1, 1, edges)


def _bound_boundary_instances():
    # Undirected k=1 instances on the edges of the bounds that skip flows.
    # At k=2, from 0 to 1, d1 = 2 and the safe path costs 6, which is not
    # above 3*d1 but is above the bound ceil(3*d1/2) = 3; the flow's
    # support {0, 1, 2, 3} weighs 5 and wins.
    wide = build_instance(False, 4, 0, 1, 1, [
        (0, 2, 1, True), (0, 2, 1, True), (2, 1, 1, False), (0, 1, 2, True),
        (0, 3, 3, False), (3, 1, 3, False)])
    # t = 1 is reached through 3 at distance 4 before 2 settles, and the
    # link 2 -> 1 equals both its bound and the limit 2, so it ties and
    # relaxes to the smaller predecessor 2: edges {1, 4, 5}.
    tie = build_instance(False, 4, 0, 1, 1, [
        (0, 3, 1, False), (0, 2, 2, False), (3, 1, 1, True), (3, 1, 2, True),
        (2, 1, 1, True), (2, 1, 1, True)])
    return [wide, tie]


@pytest.mark.parametrize("directed", [False, True])
def test_lazy_solvers_match_eager_reference(directed):
    rng = random.Random(61 if directed else 67)
    # Weights from 0 to 3, so equal link lengths and ties are common.
    instances = [random_instance(rng, n_max=7, m_max=14, directed=directed, k=1,
                                 max_w=3) for _ in range(120)]
    instances += [_general_sized_instance(rng, directed) for _ in range(6)]
    if not directed:
        instances += _bound_boundary_instances()
    routes = parallel = 0
    for inst in instances:
        parallel += _has_parallel_edges(inst)
        expected = _eager_bipath(inst)
        assert _outcome(solve_1ftp, inst) == expected
        routes += not isinstance(expected, str)
        for k in (1, 2, 3):
            budgeted = inst.with_budget(k)
            assert _outcome(approx_k, budgeted) == _eager_approx_k(budgeted)
    assert routes >= 30 and parallel >= 30


@pytest.mark.parametrize("potential", [False, True])
def test_meta_search_matches_the_plain_search(potential):
    # Random tables with lengths 0 to 3, so ties are common.
    rng = random.Random(23 + potential)
    routes = 0
    for _ in range(500):
        n = rng.randint(2, 9)
        s, t = rng.sample(range(n), 2)
        table = [[rng.choice((0, 1, 1, 2, 3, INF)) for _ in range(n)] for _ in range(n)]
        h = _potentials(rng, table, t) if potential else None

        def exact(u, v, limit):
            return table[u][v]

        found = meta_shortest_path(n, exact, s, t, h)
        assert found == _plain_meta_shortest_path(n, exact, s, t)
        routes += len(found[1]) > 2
    assert routes >= 150


@pytest.mark.parametrize("directed", [False, True])
def test_solvers_match_the_plain_meta_search(directed, monkeypatch):
    # Tie-heavy instances: weights 0 to 3, zero-weight, parallel edges
    # and self-loops.  Each solver gives the same edges, cost or
    # Infeasible message with the A* search as with the plain one.
    rng = random.Random(29 if directed else 31)
    instances = [random_instance(rng, n_max=9, m_max=18, directed=directed, k=1,
                                 max_w=3, ensure_backbone=i % 2 == 0) for i in range(300)]

    def outcomes():
        return [_outcome(solve_1ftp, inst) for inst in instances] + [
            _outcome(approx_k, inst.with_budget(k)) for inst in instances for k in (1, 2, 3)]

    a_star = outcomes()
    _plain_search(monkeypatch)
    assert outcomes() == a_star
    assert sum(not isinstance(o, str) for o in a_star) >= 500
    assert sum(_has_parallel_edges(inst) for inst in instances) >= 150
    assert sum(any(e.u == e.v for e in inst.edges) for inst in instances) >= 40
    assert sum(any(e.w == 0 for e in inst.edges) for inst in instances) >= 200


def _approx_links(instance):
    # The table approx_k reads.
    def support_weight(net, res):
        return sum(instance.edges[e].w for e in _support(net, res))

    k = instance.k
    return _Links(instance, safe_cap=k, units=k + 1, weight=support_weight)


def test_the_potential_is_consistent():
    # h(u) = d2(u -> t) <= length(u, v) + h(v) for every exact link
    # length of both solvers' tables: what keeps the A* order exact.
    rng = random.Random(37)
    pairs = tight = 0
    for i in range(100):
        inst = random_instance(rng, n_max=7, m_max=14, directed=i % 2 == 1, k=1, max_w=3)
        tables = [_one_failure_links(inst)]
        tables += [_approx_links(inst.with_budget(k)) for k in (1, 2, 3)]
        for links in tables:
            h = links.potential()
            assert h[inst.t] == 0
            for u in range(inst.vertex_count):
                for v in range(inst.vertex_count):
                    ell = links.length(u, v)
                    assert h[u] <= ell + h[v]
                    pairs += ell != INF and u != v
                    tight += ell != INF and u != v and h[u] == ell + h[v]
    assert pairs >= 2500 and tight >= 800


def _distances_to(instance, t, weight):
    # Bellman-Ford distances to t over every edge, weighted by
    # ``weight(edge)``: an independent reference for the potential.
    dist = [INF] * instance.vertex_count
    dist[t] = 0
    for _ in range(instance.vertex_count):
        for e in instance.edges:
            w = weight(e)
            dist[e.u] = min(dist[e.u], w + dist[e.v])
            if not instance.directed:
                dist[e.v] = min(dist[e.v], w + dist[e.u])
    return dist


def test_the_potential_doubles_faulty_edges():
    # potential() is d2(v -> t), the distance to t with every faulty
    # edge's weight doubled: at least d1 everywhere, infinite exactly
    # where d1 is, and often above it.
    rng = random.Random(41)
    above = 0
    for i in range(200):
        inst = random_instance(rng, n_max=8, m_max=16, directed=i % 2 == 1, k=1,
                               max_w=rng.choice((1, 3)), ensure_backbone=i % 4 < 2)
        d1 = _distances_to(inst, inst.t, lambda e: e.w)
        d2 = _distances_to(inst, inst.t, lambda e: 2 * e.w if e.faulty else e.w)
        for links in [_one_failure_links(inst)] + [_approx_links(inst.with_budget(k))
                                                   for k in (2, 3)]:
            assert links.potential() == d2
        assert all(a <= b for a, b in zip(d1, d2))
        assert [a == INF for a in d1] == [b == INF for b in d2]
        above += any(a < b for a, b in zip(d1, d2))
    assert above >= 60


def _general_corpus(seeds, monkeypatch):
    # The benchmark's general documents of these seeds, drawn by its own
    # corpus module with this package's instance builder.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("general_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, corpus)  # for its dataclasses
    spec.loader.exec_module(corpus)
    ftpath = types.SimpleNamespace(build_instance=build_instance, is_feasible=is_feasible)
    return [inst for seed in seeds
            for inst in corpus.generate(ftpath, corpus.WORKLOADS["general"], seed)]


def test_a_star_reads_fewer_sources_on_the_general_corpus(monkeypatch):
    # Every source whose link row the search reads costs a safe tree and
    # a d1 tree; the A* order on d2 reads fewer of them, with the same
    # answers.
    instances = _general_corpus((3, 4), monkeypatch)
    sources = []
    tree = _Links._tree

    def recording(self, u):
        if u not in self.trees:
            sources.append(u)
        return tree(self, u)

    monkeypatch.setattr(_Links, "_tree", recording)

    def solve_all():
        sources.clear()
        return [_outcome(solve_1ftp if inst.k == 1 else approx_k, inst)
                for inst in instances], len(sources)

    a_star, a_star_sources = solve_all()
    _plain_search(monkeypatch)
    plain, plain_sources = solve_all()
    assert a_star == plain
    # 503 sources against 1,080 for the 160 documents; 611 with the
    # weaker potential d1(v -> t).
    assert 3 * a_star_sources < 2 * plain_sources
    assert a_star_sources < 540


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
    pairs = []
    original = flow.min_cost_flow

    def recording(net, s, t, amount):
        pairs.append((s, t))
        return original(net, s, t, amount)

    monkeypatch.setattr(flow, "min_cost_flow", recording)
    solution = solver(inst)
    assert solution.edges == frozenset(range(k + 2))
    # Only the route's one flow link runs its flow: the bound of 0 -> 2
    # keys it after t settles.
    assert pairs == [(1, 2)]


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

        def length(u, v, limit):
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


def _potentials(rng, table, t):
    # A consistent lower bound on each vertex's distance to t: the true
    # distance, or that divided down (floor(d / c) is consistent too).
    to_t = [row[t] for row in _all_pairs(table)]
    c = rng.choice((1, 1, 2, 3))
    return [d if d == INF else d // c for d in to_t]


def test_meta_shortest_path_reading_contract_with_a_potential():
    rng = random.Random(19)
    unreadable = cut_off = 0
    for _ in range(400):
        n = rng.randint(2, 9)
        s, t = rng.sample(range(n), 2)
        # Sparser tables leave vertices that cannot reach t.
        missing = rng.choice((0.2, 0.5, 0.7))
        table = [[INF if rng.random() < missing else rng.choice((0, 1, 1, 2, 3))
                  for _ in range(n)] for _ in range(n)]
        h = _potentials(rng, table, t)
        reads = []

        def length(u, v, limit):
            reads.append((u, v))
            return table[u][v]

        total, seq = meta_shortest_path(n, length, s, t, h)
        assert (total, seq) == _plain_meta_shortest_path(n, lambda u, v, limit: table[u][v],
                                                         s, t)
        if h[s] == INF:
            assert (total, seq, reads) == (INF, [], [])
            cut_off += 1
            continue
        assert len(set(reads)) == len(reads)
        settled = []
        for u, v in reads:
            if not settled or settled[-1] != u:
                assert u not in settled
                settled.append(u)
            assert v not in settled and h[v] != INF
        assert t not in settled
        assert settled[0] == s
        # Each row reads every vertex not yet settled that can reach t.
        for i, u in enumerate(settled):
            assert [v for a, v in reads if a == u] == [
                v for v in range(n) if v not in settled[:i + 1] and h[v] != INF]
        unreadable += sum(h[v] == INF for v in range(n))
        # Vertices settle by distance plus potential, none beyond t's.
        true = _all_pairs(table)[s]
        keys = [true[u] + h[u] for u in settled]
        assert keys == sorted(keys)
        assert all(key <= true[t] for key in keys)
    assert unreadable >= 40 and cut_off >= 60


def test_meta_shortest_path_limit_contract():
    # A length that is exact up to ``limit`` and anything above it
    # otherwise gives the same route as exact lengths.
    rng = random.Random(17)
    skipped = 0
    for _ in range(300):
        n = rng.randint(2, 9)
        s, t = rng.sample(range(n), 2)
        table = [[rng.choice((0, 1, 1, 2, 3, INF)) for _ in range(n)] for _ in range(n)]

        def exact(u, v, limit):
            return table[u][v]

        def bounded(u, v, limit):
            nonlocal skipped
            if table[u][v] <= limit:
                return table[u][v]
            skipped += 1
            return rng.choice((INF, limit + rng.randint(1, 3)))

        assert meta_shortest_path(n, bounded, s, t) == meta_shortest_path(n, exact, s, t)
    assert skipped >= 300


@pytest.mark.parametrize("potential", [False, True])
def test_lazy_meta_search_reading_contract(potential):
    # Random admissible bounds: the exact length, the length less a
    # random amount, or 0, and INF only where the length is INF.  Above
    # ``limit`` either call may also answer any larger value.
    rng = random.Random(43 + potential)
    unread = evaluated = 0
    for _ in range(500):
        n = rng.randint(2, 9)
        s, t = rng.sample(range(n), 2)
        table = [[rng.choice((0, 1, 1, 2, 3, INF)) for _ in range(n)] for _ in range(n)]
        lower = [[ell if ell == INF else rng.choice((ell, max(0, ell - rng.randint(0, 3)), 0))
                  for ell in row] for row in table]
        h = _potentials(rng, table, t) if potential else [0] * n
        events = []

        def loose(value, limit):
            return rng.choice((value, INF, limit + rng.randint(1, 3)))

        def bound(u, v, limit):
            b = lower[u][v] if table[u][v] <= limit else loose(lower[u][v], limit)
            events.append(("bound", u, v, b))
            return b

        def length(u, v, limit):
            events.append(("length", u, v, None))
            return table[u][v] if table[u][v] <= limit else loose(table[u][v], limit)

        found = meta_shortest_path(n, length, s, t, h if potential else None, bound=bound)
        assert found == _plain_meta_shortest_path(n, lambda u, v, limit: table[u][v], s, t)
        true = _all_pairs(table)[s]
        bounds = [(u, v) for kind, u, v, _ in events if kind == "bound"]
        lengths = [(u, v) for kind, u, v, _ in events if kind == "length"]
        assert len(set(bounds)) == len(bounds) and len(set(lengths)) == len(lengths)
        settled, read = [], {}
        for kind, u, v, b in events:
            if kind == "bound":
                if not settled or settled[-1] != u:
                    assert u not in settled
                    settled.append(u)
                assert v not in settled and h[v] != INF
                read[(u, v)] = b
                continue
            assert (u, v) in read and v not in settled
            # The entry's key reached the top before t's final label.
            assert true[u] + read[(u, v)] + h[v] <= true[t]
            evaluated += lower[u][v] < table[u][v]
        assert t not in settled
        # Settling u reads the bound of every unsettled v that can reach t.
        for i, u in enumerate(settled):
            assert [v for a, v in bounds if a == u] == [
                v for v in range(n) if v not in settled[:i + 1] and h[v] != INF]
        keys = [true[u] + h[u] for u in settled]
        assert keys == sorted(keys) and all(key <= true[t] for key in keys)
        unread += len(bounds) - len(lengths)
    assert unread >= 2000 and evaluated >= 1000


def test_lazy_links_run_few_flows_on_the_general_corpus(monkeypatch):
    # The solvers' flows run only for links whose bound reaches the top
    # of the queue, with the answers of the plain search over exact
    # lengths.
    instances = _general_corpus((3, 4), monkeypatch)
    original = flow.min_cost_flow
    calls = 0

    def counting(net, s, t, amount):
        nonlocal calls
        calls += 1
        return original(net, s, t, amount)

    monkeypatch.setattr(flow, "min_cost_flow", counting)

    def solve_all():
        return [_outcome(solve_1ftp if inst.k == 1 else approx_k, inst) for inst in instances]

    lazy, lazy_calls = solve_all(), calls
    _plain_search(monkeypatch)
    assert solve_all() == lazy
    # About 1.5 flows per solve, against about 7.9 with each link's flow
    # run when its source settles.
    assert lazy_calls < 2.5 * len(instances)


def _c2_rows(instance, cap):
    # c2[u][v] for every pair, with safe edges of capacity ``cap`` (1 or 2).
    adj, radj = adjacency(instance), adjacency(instance, reverse=True)
    doubled = {e.id for e in instance.edges if not e.faulty} if cap == 2 else ()
    return [_two_route_costs(adj, radj, *_shortest_tree(adj, u), u, doubled)
            for u in range(instance.vertex_count)]


def _two_unit_cost(instance, cap, u, v):
    try:
        return flow.min_cost_flow(flow.edge_network(instance, cap), u, v, 2).total_cost
    except Infeasible:
        return INF


@pytest.mark.parametrize("cap", [1, 2])
def test_two_route_costs_match_min_cost_flow(cap):
    # c2[u][v] is the min cost of 2 units from u to v on the instance's
    # network, whatever the direction, weights and multi-edges.
    rng = random.Random(101 + cap)
    parallel = loops = unreachable = finite = 0
    for i in range(300):
        inst = random_instance(rng, n_max=7, m_max=14, directed=i % 2 == 1, k=1,
                               max_w=rng.choice((0, 1, 3)))
        parallel += _has_parallel_edges(inst)
        loops += any(e.u == e.v for e in inst.edges)
        for u, row in enumerate(_c2_rows(inst, cap)):
            d1 = dijkstra_tree(inst, u, range(len(inst.edges)))[0]
            assert row[u] == 0
            for v in range(inst.vertex_count):
                if v != u:
                    assert row[v] == _two_unit_cost(inst, cap, u, v)
                    finite += row[v] != INF
                    unreachable += d1[v] == INF
    assert parallel >= 150 and loops >= 50 and unreachable >= 1500 and finite >= 1500


def test_two_route_costs_cancel_a_shortest_path_edge():
    # The shortest 0-3 path 0-1-2-3 (cost 3) shares 0->1 with 0-1-3 and
    # 2->3 with 0-2-3, so the only pair, 0-1-3 and 0-2-3 (cost 8), must
    # leave out its middle arc 1->2.
    for directed in (True, False):
        inst = build_instance(directed, 4, 0, 3, 1, [
            (0, 1, 1, True), (1, 2, 1, True), (2, 3, 1, True), (0, 2, 3, True),
            (1, 3, 3, True)])
        assert dijkstra_tree(inst, 0, range(5))[0][3] == 3
        for cap in (1, 2):
            assert _c2_rows(inst, cap)[0][3] == 8 == _two_unit_cost(inst, cap, 0, 3)
        net = flow.edge_network(inst, 1)
        res = flow.min_cost_flow(net, 0, 3, 2)
        assert 1 not in _support(net, res)


def test_two_route_costs_double_a_safe_arc():
    # Safe arcs 0->1->2, then two faulty arcs 2->3, and a detour 0->3 of
    # weight 10.  With capacity 2 both units take the safe chain (cost
    # 2*2 + 1 + 1); with capacity 1 the second one takes the detour.
    inst = build_instance(True, 4, 0, 3, 1, [
        (0, 1, 1, False), (1, 2, 1, False), (2, 3, 1, True), (2, 3, 1, True),
        (0, 3, 10, True)])
    doubled, single = _c2_rows(inst, 2), _c2_rows(inst, 1)
    assert doubled[0][3] == 6 == _two_unit_cost(inst, 2, 0, 3)
    assert single[0][3] == 13 == _two_unit_cost(inst, 1, 0, 3)
    assert doubled[0][2] == 4 and single[0][2] == INF


def _lower_bound(units, d1):
    # ceil(units * d1 / (units - 1)), the least weight of a flow link.
    return -(-units * d1 // (units - 1))


def _flow_link_weights(instance, safe_cap, units, weight, c2):
    # (flow link weight, d1, c2) for every pair with a feasible flow.
    net = flow.edge_network(instance, safe_cap)
    out = []
    for u in range(instance.vertex_count):
        d1 = dijkstra_tree(instance, u, range(len(instance.edges)))[0]
        for v in range(instance.vertex_count):
            if u == v:
                continue
            try:
                res = flow.min_cost_flow(net, u, v, units)
            except Infeasible:
                continue
            out.append((weight(net, res), d1[v], c2[u][v]))
    return out


@pytest.mark.parametrize("directed", [False, True])
def test_flow_link_weight_lower_bound(directed):
    # Every flow link weighs at least ceil(units * d1 / (units - 1)),
    # where d1 is the distance over all edges, and at least c2, the min
    # cost of 2 routes with every capacity 1: the bound that lets the
    # link table skip flows.  A bipath link (2 units on its own
    # capacities) weighs exactly its c2.
    rng = random.Random(83 if directed else 89)
    parallel = tight = pairs = c2_tight = c2_above_old = 0
    for _ in range(60):
        inst = random_instance(rng, n_max=7, m_max=14, directed=directed, k=1,
                               max_w=3)
        parallel += _has_parallel_edges(inst)

        def support_weight(net, res):
            return sum(inst.edges[e].w for e in _support(net, res))

        bipath_cap = 2 if directed else 1
        unit_c2 = _c2_rows(inst, 1)
        for w, d1, c2 in _flow_link_weights(inst, bipath_cap, 2,
                                            lambda net, res: res.total_cost,
                                            _c2_rows(inst, bipath_cap)):
            assert w >= _lower_bound(2, d1)
            assert w == c2
            pairs += 1
            tight += w == _lower_bound(2, d1) and d1 > 0
        for k in (1, 2, 3):
            for w, d1, c2 in _flow_link_weights(inst, k, k + 1, support_weight, unit_c2):
                lb = _lower_bound(k + 1, d1)
                assert w >= c2 >= lb
                pairs += 1
                tight += w == lb and d1 > 0
                c2_tight += w == c2
                c2_above_old += c2 > lb
    assert parallel >= 15 and pairs >= 500 and tight >= 20
    assert c2_tight >= 300 and c2_above_old >= 300


@pytest.mark.parametrize("solver,k", [(solve_1ftp, 1), (approx_k, 1), (approx_k, 2),
                                      (approx_k, 3)])
def test_no_flow_for_links_the_bound_decides(solver, k, monkeypatch):
    # A pair whose safe distance is at most the flow link's lower bound
    # is settled without min_cost_flow.
    rng = random.Random(97 + k)
    original = flow.min_cost_flow
    calls = []

    def recording(net, s, t, amount):
        calls.append((s, t))
        return original(net, s, t, amount)

    monkeypatch.setattr(flow, "min_cost_flow", recording)
    decided = 0
    for _ in range(40):
        inst = _general_sized_instance(rng, directed=rng.random() < 0.5).with_budget(k)
        calls.clear()
        try:
            solver(inst)
        except Infeasible:
            pass
        safe = [e.id for e in inst.edges if not e.faulty]
        for u in {s for s, _ in calls}:
            safe_d = dijkstra_tree(inst, u, safe)[0]
            d1 = dijkstra_tree(inst, u, range(len(inst.edges)))[0]
            for s, v in calls:
                if s == u:
                    assert safe_d[v] > _lower_bound(k + 1, d1[v])
            decided += sum(safe_d[v] <= _lower_bound(k + 1, d1[v])
                           for v in range(inst.vertex_count) if v != u)
    # The bound decides many pairs from these sources: the pin has teeth.
    assert decided >= 100


def _recording_networks(monkeypatch):
    # Record the safe capacity of every flow.edge_network built, and the
    # (s, t) of every min_cost_flow run.
    built, flows = [], []
    edge_network, min_cost_flow = flow.edge_network, flow.min_cost_flow

    def building(instance, safe_cap, *rest):
        built.append(safe_cap)
        return edge_network(instance, safe_cap, *rest)

    def running(net, s, t, amount):
        flows.append((s, t))
        return min_cost_flow(net, s, t, amount)

    monkeypatch.setattr(flow, "edge_network", building)
    monkeypatch.setattr(flow, "min_cost_flow", running)
    return built, flows


def test_the_flow_network_is_built_on_the_first_flow(monkeypatch):
    built, flows = _recording_networks(monkeypatch)
    # The safe route 0-1-2 (cost 2) is decided by its bound 2 * d1 = 2
    # against the faulty edges 0-2: no flow, so no network.
    safe = build_instance(False, 3, 0, 2, 1, [
        (0, 1, 1, False), (1, 2, 1, False), (0, 2, 1, True), (0, 2, 1, True)])
    for solver in (solve_1ftp, approx_k):
        assert _outcome(solver, safe) == (frozenset({0, 1}), 2)
    assert built == [] and flows == []
    # The route takes the two-route link 0 -> 1 over two faulty edges,
    # then the safe edge 1-2: one network, built for its flow.
    pair = build_instance(False, 3, 0, 2, 1, [
        (0, 1, 1, True), (0, 1, 1, True), (1, 2, 1, False), (0, 2, 9, False)])
    for solver, eager in ((solve_1ftp, _eager_bipath), (approx_k, _eager_approx_k)):
        built.clear()
        flows.clear()
        assert _outcome(solver, pair) == (frozenset({0, 1, 2}), 3)
        assert built == [1] and flows == [(0, 1)]
        assert _outcome(solver, pair) == eager(pair)
    # link_lengths runs every pair's flow on one network.
    built.clear()
    flows.clear()
    ll = link_lengths(pair)
    assert built == [1] and len(flows) == 9
    dist, witness = _eager_table(pair, 1, 2, lambda net, res: res.total_cost)
    assert ll.dist == dist and ll.witness == witness
    assert ll.witness[(0, 1)] == ("two-route", (0, 1))


def test_solves_without_a_flow_build_no_network(monkeypatch):
    # On instances of the general workload's shape, a solve builds the
    # flow network exactly when it runs a flow, and many run none.
    built, flows = _recording_networks(monkeypatch)
    rng = random.Random(127)
    without = 0
    for _ in range(40):
        inst = _general_sized_instance(rng, directed=rng.random() < 0.5)
        for solver, k in ((solve_1ftp, 1), (approx_k, 1), (approx_k, 2)):
            built.clear()
            flows.clear()
            _outcome(solver, inst.with_budget(k))
            assert len(built) == (1 if flows else 0)
            without += not flows
    assert without >= 50


def test_flows_per_solve_on_general_sized_instances(monkeypatch):
    # On instances of the general workload's shape the c2 bound decides
    # most pairs.  bipath's bound is exact, so it never runs a flow that
    # does not fit.  With ceil(units * d1 / (units - 1)) as the bound
    # these solves ran 3,999 flows, 1,435 of them in bipath (314
    # infeasible); with c2 they run 1,685.
    rng = random.Random(113)
    original = flow.min_cost_flow
    calls = {solve_1ftp: [], approx_k: []}
    solver = solve_1ftp

    def recording(net, s, t, amount):
        try:
            result = original(net, s, t, amount)
        except Infeasible:
            calls[solver].append(False)
            raise
        calls[solver].append(True)
        return result

    monkeypatch.setattr(flow, "min_cost_flow", recording)
    for _ in range(40):
        inst = _general_sized_instance(rng, directed=rng.random() < 0.5)
        for solver, k in ((solve_1ftp, 1), (approx_k, 1), (approx_k, 2)):
            try:
                solver(inst.with_budget(k))
            except Infeasible:
                pass
    assert all(calls[solve_1ftp])
    assert len(calls[solve_1ftp]) + len(calls[approx_k]) < 2000


def _tuple_shortest_tree(adj, source):
    # _shortest_tree as it was before its scalar compares: one tuple
    # compare per edge, (dist, hops, entering edge id).  pred is set with
    # via.
    n = len(adj)
    dist = [INF] * n
    hops = [INF] * n
    via = [None] * n
    pred = [-1] * n
    done = [False] * n
    dist[source], hops[source] = 0, 0
    heap = [(0, 0, source)]
    while heap:
        d, h, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w, eid in adj[u]:
            if done[v]:
                continue
            old_eid = via[v] if via[v] is not None else INF
            if (d + w, h + 1, eid) < (dist[v], hops[v], old_eid):
                dist[v], hops[v], via[v], pred[v] = d + w, h + 1, eid, u
                heapq.heappush(heap, (d + w, h + 1, v))
    return dist, via, pred


class _Counted(int):
    # An edge weight that counts the distances it is added to.
    adds = 0

    def __radd__(self, other):
        _Counted.adds += 1
        return other + int(self)


def _counted_weights(adj):
    return [[(v, _Counted(w), e) for v, w, e in row] for row in adj]


def _depth(pred, source, v):
    depth = 0
    while v != source:
        v, depth = pred[v], depth + 1
    return depth


def test_shortest_tree_matches_the_tuple_compare_reference():
    # dist, via and pred equal the tuple-compare reference's, over every
    # edge, the safe edges and the reverse lists, with rows as
    # core.adjacency gives them and shuffled, so that a larger edge id
    # often comes first.  pred[v] is the tail of via[v]: the row of
    # pred[v] lists via[v] into v.  With non-negative weights the done
    # checks change no label, so the count of adds pins them.
    rng = random.Random(137)
    parallel = loops = zero = unreached = tied = 0
    for i in range(320):
        inst = random_instance(rng, n_max=9, m_max=20, directed=i % 2 == 1, k=1,
                               max_w=rng.choice((0, 1, 1, 3)))
        parallel += _has_parallel_edges(inst)
        loops += any(e.u == e.v for e in inst.edges)
        zero += any(e.w == 0 for e in inst.edges)
        safe = [e.id for e in inst.edges if not e.faulty]
        lists = [adjacency(inst), adjacency(inst, safe), adjacency(inst, reverse=True)]
        lists += [[rng.sample(row, len(row)) for row in adj] for adj in lists]
        for adj in lists:
            for source in range(inst.vertex_count):
                dist, via, pred = found = _shortest_tree(adj, source)
                assert found == _tuple_shortest_tree(adj, source)
                hops = {v: _depth(pred, source, v) for v in range(len(adj)) if dist[v] != INF}
                # Vertices settle once each, by (dist, hops, vertex), and
                # an edge into a settled vertex is skipped without an add.
                rank = {v: i for i, (_, _, v) in enumerate(sorted(
                    (dist[v], h, v) for v, h in hops.items()))}
                _Counted.adds = 0
                assert _shortest_tree(_counted_weights(adj), source) == found
                assert _Counted.adds == sum(rank.get(v, INF) > rank[u]
                                            for u in rank for v, _, _ in adj[u])
                for v, e in enumerate(via):
                    if e is None:
                        assert pred[v] == -1
                        unreached += dist[v] == INF
                        continue
                    assert (v, inst._w[e], e) in adj[pred[v]]
                    assert sorted((pred[v], v)) == sorted((inst._u[e], inst._v[e]))
                    tied += any(x in hops and eid != e and dist[x] + w == dist[v]
                                and hops[x] + 1 == hops[v]
                                for x, row in enumerate(adj) for y, w, eid in row if y == v)
    assert parallel >= 150 and loops >= 50 and zero >= 200
    assert unreached >= 10000 and tied >= 3000
