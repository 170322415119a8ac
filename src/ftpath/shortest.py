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

from .core import (Infeasible, Instance, Solution, OPTIMAL, SolverCheckFailed,
                   is_feasible)

__all__ = ["dijkstra_tree", "path_edges", "safe_subgraph_distances",
           "meta_shortest_path", "shortest_path_solution"]

INF = math.inf


def dijkstra_tree(instance: Instance, source: int, edge_ids) -> tuple[list, list]:
    """Single-source shortest paths over a subset of the instance edges.

    Returns ``(dist, via)`` where ``via[v]`` is the edge id used to enter
    ``v`` on the reconstructed path (``None`` at the source and for
    unreachable vertices).
    """
    n = instance.vertex_count
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]  # (v, w, eid)
    for eid in sorted(edge_ids):
        e = instance.edges[eid]
        if e.u == e.v:
            continue
        adj[e.u].append((e.v, e.w, e.id))
        if not instance.directed:
            adj[e.v].append((e.u, e.w, e.id))
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
    safe = [e.id for e in instance.edges if not e.faulty]
    n = instance.vertex_count
    dist: list[list] = []
    witness: dict[tuple[int, int], tuple[int, ...]] = {}
    for u in range(n):
        du, via = dijkstra_tree(instance, u, safe)
        dist.append(du)
        for v in range(n):
            if du[v] != INF:
                witness[(u, v)] = path_edges(instance, via, u, v)
    return dist, witness


def meta_shortest_path(n: int, length: Callable[[int, int], object],
                       s: int, t: int) -> tuple[object, list[int]]:
    """Shortest s-t path in the complete graph with lengths ``length(u, v)``.

    ``length`` may return ``math.inf`` for missing links.  Returns
    ``(distance, vertex sequence)``; an infinite distance comes with an
    empty sequence.  Ties prefer fewer hops, then smaller predecessors.

    Callers may compute lengths on demand: each ``(u, v)`` is read at
    most once, only after ``u`` is settled, never for a settled ``v``
    and never once ``t`` is settled.
    """
    if s == t:
        return 0, [s]
    dist: list = [INF] * n
    hops: list = [INF] * n
    pred: list = [None] * n
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
            ell = length(u, v)
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


def shortest_path_solution(instance: Instance) -> Solution:
    """Plain shortest s-t path over all edges, as a Solution.

    This is the exact answer when the failure budget is zero.
    """
    if instance.s == instance.t:
        return Solution(frozenset(), 0, OPTIMAL)
    dist, via = dijkstra_tree(instance, instance.s, range(len(instance.edges)))
    if dist[instance.t] == INF:
        raise Infeasible("terminals are disconnected")
    edges = frozenset(path_edges(instance, via, instance.s, instance.t))
    cost = sum(instance.edges[eid].w for eid in edges)
    if not is_feasible(instance.with_budget(0), edges):
        raise SolverCheckFailed("shortest returned no s-t path")
    return Solution(edges, cost, OPTIMAL)
