"""Exact polynomial solver for the single-failure case (k = 1).

Any minimal solution that survives one faulty-edge failure is a union of
two s-t routes that agree on the order of their shared vertices and
share no faulty edge.  The solver therefore computes, for every vertex
pair, the cheaper of (a) a shortest path using safe edges only and (b) a
cheapest pair of routes carrying two flow units, then finds a shortest
s-t path in the complete "link" graph over those lengths and expands
each chosen link back into concrete edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import flow
from .core import (FTPError, Infeasible, Instance, Solution, OPTIMAL,
                   SolverCheckFailed, is_feasible)
from .shortest import INF, meta_shortest_path, safe_subgraph_distances

__all__ = ["WrongBudget", "LinkLengths", "link_lengths", "solve_1ftp"]

SAFE_PATH = "safe-path"
TWO_ROUTE = "two-route"


class WrongBudget(FTPError):
    """The solver only supports the stated failure budget."""


@dataclass(frozen=True)
class LinkLengths:
    """Per-pair link lengths and the structures realizing them.

    ``safe_dist[u][v]``: shortest-path distance using safe edges only.
    ``pair_dist[u][v]``: cost of a cheapest 2-unit flow from u to v
    (two edge-disjoint routes when undirected).  ``dist`` is the
    pointwise minimum and ``witness[(u, v)]`` records which case won and
    the realizing edge ids.
    """

    safe_dist: list[list]
    pair_dist: list[list]
    dist: list[list]
    witness: dict[tuple[int, int], tuple[str, tuple[int, ...]]]


def _two_route_network(instance: Instance) -> flow.FlowNetwork:
    arcs = []
    for e in instance.edges:
        if e.u == e.v:
            continue
        if instance.directed:
            # A safe edge may carry both units; a faulty one at most one.
            cap = 1 if e.faulty else 2
            arcs.append(flow.Arc(e.u, e.v, cap, e.w, e.id))
        else:
            # One capacity unit per undirected edge.  The two opposite
            # arcs never carry flow together: cancelling them is always
            # at least as cheap, and the deterministic tie-break of
            # min_cost_flow prefers the cancelled vector.
            arcs.append(flow.Arc(e.u, e.v, 1, e.w, e.id))
            arcs.append(flow.Arc(e.v, e.u, 1, e.w, e.id))
    return flow.FlowNetwork(instance.vertex_count, tuple(arcs))


def _support(net: flow.FlowNetwork, result: flow.FlowResult) -> tuple[int, ...]:
    used = {net.arcs[i].origin for i, f in enumerate(result.flows) if f > 0}
    return tuple(sorted(used))


def link_lengths(instance: Instance) -> LinkLengths:
    """Compute all-pairs link lengths for the single-failure solver.

    Raises:
        WrongBudget: the instance budget is not 1.
    """
    if instance.k != 1:
        raise WrongBudget(f"budget is {instance.k}, this solver requires k=1")
    n = instance.vertex_count
    safe_dist, safe_witness = safe_subgraph_distances(instance)
    net = _two_route_network(instance)
    pair_dist: list[list] = [[INF] * n for _ in range(n)]
    dist: list[list] = [[INF] * n for _ in range(n)]
    witness: dict[tuple[int, int], tuple[str, tuple[int, ...]]] = {}
    for u in range(n):
        pair_dist[u][u] = 0
        for v in range(n):
            if u == v:
                dist[u][u] = 0
                witness[(u, u)] = (SAFE_PATH, ())
                continue
            try:
                res = flow.min_cost_flow(net, u, v, 2)
                pair_dist[u][v] = res.total_cost
            except Infeasible:
                res = None
            s_d = safe_dist[u][v]
            p_d = pair_dist[u][v]
            if s_d == INF and p_d == INF:
                continue
            if s_d <= p_d:
                dist[u][v] = s_d
                witness[(u, v)] = (SAFE_PATH, safe_witness[(u, v)])
            else:
                dist[u][v] = p_d
                witness[(u, v)] = (TWO_ROUTE, _support(net, res))
    return LinkLengths(safe_dist, pair_dist, dist, witness)


def solve_1ftp(instance: Instance) -> Solution:
    """Minimum-cost edge set surviving any single faulty-edge failure.

    Raises:
        WrongBudget: the instance budget is not 1.
        Infeasible: some single failure disconnects the terminals in
            every subgraph.
    """
    if instance.k != 1:
        raise WrongBudget(f"budget is {instance.k}, this solver requires k=1")
    if instance.s == instance.t:
        return Solution(frozenset(), 0, OPTIMAL)
    ll = link_lengths(instance)
    total, seq = meta_shortest_path(
        instance.vertex_count, lambda u, v: ll.dist[u][v],
        instance.s, instance.t)
    if total == INF:
        raise Infeasible("no single-failure-tolerant route exists")
    chosen: set[int] = set()
    for u, v in zip(seq, seq[1:]):
        chosen.update(ll.witness[(u, v)][1])
    cost = sum(instance.edges[eid].w for eid in chosen)
    solution = Solution(frozenset(chosen), cost, OPTIMAL)
    if not is_feasible(instance, solution.edges):
        raise SolverCheckFailed("bipath returned an infeasible edge set")
    return solution
