"""Deterministic shortest-path helpers shared by the route solvers.

Distances are integers; ``math.inf`` marks unreachable pairs.  All tie
breaking is fixed: among equal-length paths the one with fewer edges is
preferred, then the one entered through the smaller edge id, so repeated
runs reconstruct identical paths.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Sequence

from .core import Infeasible, Instance, Solution, OPTIMAL, _checked_solution, adjacency

__all__ = ["dijkstra_tree", "path_edges", "safe_subgraph_distances",
           "meta_shortest_path", "shortest_path_solution"]

INF = math.inf


def dijkstra_tree(instance: Instance, source: int, edge_ids) -> tuple[list, list]:
    """Single-source shortest paths over a subset of the instance edges.

    Returns ``(dist, via)`` where ``via[v]`` is the edge id used to enter
    ``v`` on the reconstructed path (``None`` at the source and for
    unreachable vertices).
    """
    return _shortest_tree(adjacency(instance, edge_ids), source)


def _shortest_tree(adj: list, source: int) -> tuple[list, list]:
    # dijkstra_tree on prebuilt core.adjacency lists, which a caller may reuse.
    n = len(adj)
    dist: list = [INF] * n
    hops: list = [INF] * n
    via: list = [None] * n
    done = [False] * n
    dist[source], hops[source] = 0, 0
    heap: list[tuple] = [(0, 0, source)]
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
                dist[v], hops[v], via[v] = d + w, h + 1, eid
                heapq.heappush(heap, (d + w, h + 1, v))
    return dist, via


def _two_route_costs(adj: list, radj: list, dist: list, via: list, source: int,
                     doubled) -> list:
    """Min cost of two unit routes from ``source`` to every vertex.

    The network has one unit arc per ``core.adjacency`` entry over all
    edges (``radj`` lists them by head), except that the tree edge into
    a vertex may carry a second unit when its id is in ``doubled``.
    ``(dist, via)`` is a shortest-path tree over the same arcs, such as
    ``_shortest_tree(adj, source)``.  Entry ``v`` is the cost of a
    minimum-cost 2-unit source-v flow, ``INF`` when 2 units do not fit,
    and 0 at the source.

    Suurballe & Tarjan, "A quick method for finding shortest pairs of
    disjoint paths" (Networks 14, 1984), in its edge-disjoint form: the
    second unit to ``v`` is a shortest path on reduced costs
    ``w + dist[x] - dist[y]`` (0 on tree arcs) with the tree path to
    ``v`` reversed, and one Dijkstra search over labels ``D`` finds it
    for every ``v`` at once.  The reached vertices start as one part of
    the tree.  Popping ``v`` removes it from its part: each child of
    ``v`` still in that part takes its subtree as a new part, the rest
    keeps the old one, and every arc leaving ``v``, or joining two
    pieces of the old part, offers its head ``D[v]`` plus its reduced
    cost: with the tree path to the head reversed, every other piece is
    reached from ``v`` at no cost, down tree arcs or back up that path.
    The tree arc into a vertex is its first unit, so it offers nothing
    unless it is doubled.  The answer is ``2 * dist[v] + D[v]``.
    """
    n = len(adj)
    children: list[list[int]] = [[] for _ in range(n)]
    parent = [-1] * n
    for y, e in enumerate(via):
        if e is not None:
            for x, _, eid in radj[y]:
                if eid == e:
                    children[x].append(y)
                    parent[y] = x
                    break
    # part[x]: id of x's part; -1 once popped, and for unreached vertices.
    part = [-1 if d == INF else 0 for d in dist]
    label = [INF] * n
    costs = [INF] * n
    label[source] = 0
    heap = [(0, source)]
    parts = 0
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        dv, v = pop(heap)
        old = part[v]
        if old < 0:
            continue
        part[v] = -1
        costs[v] = 2 * dist[v] + dv
        base = dv + dist[v]
        for y, w, e in adj[v]:
            if part[y] >= 0 and (e != via[y] or e in doubled):
                d = base + w - dist[y]
                if d < label[y]:
                    label[y] = d
                    push(heap, (d, y))
        first = parts  # parts above ``first`` are new
        moved = []
        # When v is its part's root, nothing of the part is left above
        # it, so its first child's subtree keeps the old id instead.
        keep = parent[v] < 0 or part[parent[v]] != old
        for c in children[v]:
            if part[c] == old:
                if keep:
                    keep = False
                    continue
                parts += 1
                part[c] = parts
                subtree = [c]
                for x in subtree:  # grows while it is walked
                    for z in children[x]:
                        if part[z] == old:
                            part[z] = parts
                            subtree.append(z)
                moved += subtree
        for x in moved:
            px = part[x]
            base = dv + dist[x]
            for y, w, _ in adj[x]:
                py = part[y]
                if py != px and (py == old or py > first):
                    d = base + w - dist[y]
                    if d < label[y]:
                        label[y] = d
                        push(heap, (d, y))
            for z, w, _ in radj[x]:
                if part[z] == old:
                    d = dv + w + dist[z] - dist[x]
                    if d < label[x]:
                        label[x] = d
                        push(heap, (d, x))
    return costs


def path_edges(instance: Instance, via: Sequence, source: int, target: int) -> tuple[int, ...]:
    """Edge ids along the tree path from ``source`` back from ``target``."""
    out = []
    v = target
    while v != source:
        eid = via[v]
        if eid is None:
            raise ValueError(f"vertex {target} is unreachable from {source}")
        out.append(eid)
        e = instance.edges[eid]
        v = e.u if (instance.directed or e.v == v) else e.v
    return tuple(reversed(out))


def safe_subgraph_distances(instance: Instance) -> tuple[list[list], dict]:
    """All-pairs distances and path witnesses over the non-faulty edges.

    Returns ``(dist, witness)`` with ``dist[u][v]`` the distance using
    safe edges only and ``witness[(u, v)]`` the realizing edge-id tuple
    for each finite pair.
    """
    adj = adjacency(instance, [e.id for e in instance.edges if not e.faulty])
    n = instance.vertex_count
    dist: list[list] = []
    witness: dict[tuple[int, int], tuple[int, ...]] = {}
    for u in range(n):
        du, via = _shortest_tree(adj, u)
        dist.append(du)
        for v in range(n):
            if du[v] != INF:
                witness[(u, v)] = path_edges(instance, via, u, v)
    return dist, witness


def meta_shortest_path(n: int, length: Callable[[int, int, object], object],
                       s: int, t: int, potential: Sequence | None = None
                       ) -> tuple[object, list[int]]:
    """Shortest s-t path in the complete graph with lengths ``length(u, v, limit)``.

    ``length`` may return ``math.inf`` for missing links.  Returns
    ``(distance, vertex sequence)``; an infinite distance comes with an
    empty sequence.  Ties prefer fewer hops, then smaller predecessors.

    ``potential[v]``, if given, is a lower bound on the distance from
    ``v`` to ``t`` (``math.inf`` when ``v`` cannot reach ``t``), and it
    must be consistent: ``potential[u] <= length(u, v) + potential[v]``
    for the exact lengths.  The search then settles vertices in A* order
    (Hart, Nilsson & Raphael, 1968), by ``(dist + potential, dist, hops,
    vertex)``; the result is the one without a potential.

    Callers may compute lengths on demand: each ``(u, v)`` is read at
    most once, only after ``u`` is settled, never for a settled ``v``,
    never for a ``v`` of infinite potential (one that cannot reach
    ``t``) and never once ``t`` is settled.  With or without a
    potential, ``limit`` is the largest length that could still relax
    ``v`` (``math.inf`` while ``v`` is unreached): ``length`` must
    return the exact length when it is at most ``limit``, and may return
    any larger value otherwise, so a caller can skip computing a link
    that a lower bound already rules out.  The result is the same as
    with exact lengths.
    """
    h = [0] * n if potential is None else potential
    dist: list = [INF] * n
    hops: list = [INF] * n
    pred: list = [None] * n
    done = [False] * n
    dist[s], hops[s] = 0, 0
    heap = [(h[s], 0, 0, s)] if h[s] != INF else []
    while heap:
        _, du, hu, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == t:
            break
        for v in range(n):
            if done[v] or h[v] == INF:
                continue
            ell = length(u, v, dist[v] - du)
            if ell == INF:
                continue
            old_pred = pred[v] if pred[v] is not None else INF
            if (du + ell, hu + 1, u) < (dist[v], hops[v], old_pred):
                if (du + ell, hu + 1) < (dist[v], hops[v]):
                    heapq.heappush(heap, (du + ell + h[v], du + ell, hu + 1, v))
                dist[v], hops[v], pred[v] = du + ell, hu + 1, u
    if dist[t] == INF:
        return INF, []
    seq = [t]
    while seq[-1] != s:
        seq.append(pred[seq[-1]])
    seq.reverse()
    return dist[t], seq


def shortest_path_solution(instance: Instance) -> Solution:
    """Plain shortest s-t path over all edges, as a Solution.

    This is the exact answer when the failure budget is zero.
    """
    dist, via = dijkstra_tree(instance, instance.s, range(len(instance.edges)))
    if dist[instance.t] == INF:
        raise Infeasible("terminals are disconnected")
    path = path_edges(instance, via, instance.s, instance.t)
    return _checked_solution(instance.with_budget(0), path, OPTIMAL, "shortest")
