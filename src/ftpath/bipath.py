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
    ``pair_dist[u][v]``: weight of a min-cost flow of ``units`` units
    from u to v whose safe edges carry at most ``safe_cap`` units each
    (faulty edges one).  ``dist`` is the pointwise minimum and
    ``witness[(u, v)]`` records which case won and the realizing edge
    ids.  For k=1, :func:`link_lengths` takes 2 units, ``safe_cap`` 2
    if directed and 1 if undirected (two edge-disjoint routes), and the
    flow cost as the weight; ``approx.approx_k`` takes k+1 units,
    ``safe_cap`` k and the weight of the flow's support.
    """

    safe_dist: list[list]
    pair_dist: list[list]
    dist: list[list]
    witness: dict[tuple[int, int], tuple[str, tuple[int, ...]]]


def _support(net: flow.FlowNetwork, result: flow.FlowResult) -> tuple[int, ...]:
    used = {net.arcs[i].origin for i, f in enumerate(result.flows) if f > 0}
    return tuple(sorted(used))


def _link_graph(instance: Instance, safe, safe_cap: int, units: int,
                weight) -> LinkLengths:
    """Link lengths of every vertex pair, see :class:`LinkLengths`.

    ``safe`` is the ``(dist, witness)`` pair of
    ``safe_subgraph_distances``; ``weight(net, result)`` gives the
    length of a pair's flow link.  A safe path wins ties.
    """
    n = instance.vertex_count
    safe_dist, safe_witness = safe
    net = flow.edge_network(instance, safe_cap)
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
                res = flow.min_cost_flow(net, u, v, units)
                pair_dist[u][v] = weight(net, res)
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


def link_lengths(instance: Instance) -> LinkLengths:
    """Compute all-pairs link lengths for the single-failure solver.

    Raises:
        WrongBudget: the instance budget is not 1.
    """
    if instance.k != 1:
        raise WrongBudget(f"budget is {instance.k}, this solver requires k=1")
    # A directed safe edge may carry both units, an undirected one only
    # one, so the two routes are edge-disjoint.
    return _link_graph(instance, safe_subgraph_distances(instance),
                       safe_cap=2 if instance.directed else 1, units=2,
                       weight=lambda net, res: res.total_cost)


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
