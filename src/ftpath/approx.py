"""Ratio-bounded solvers for general instances.

Two algorithms: the support of a min-cost (k+1)-unit flow with faulty
edges capped at one unit costs at most (k+1) times the optimum; routing
that flow segment-by-segment between consecutive cut vertices -- the
same link construction the k=1 solver uses, with the safe-edge capacity
lowered to k -- improves the guarantee to k times the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import flow
from .bipath import WrongBudget
from .core import (FTPError, Infeasible, Instance, Solution, RATIO_BOUNDED,
                   SolverCheckFailed, is_feasible)
from .shortest import INF, dijkstra_tree, meta_shortest_path, safe_subgraph_distances

__all__ = ["NotFeasible", "InducedFlow", "SegmentDecomposition",
           "approx_kplus1", "approx_k", "induced_flow",
           "segment_decomposition"]


class NotFeasible(FTPError):
    """The supplied edge set is not a feasible solution."""


def _flow_network(instance: Instance, safe_cap: int,
                  edge_ids=None) -> flow.FlowNetwork:
    # Faulty edges always carry at most one unit.  Undirected edges are
    # expanded into opposite arcs; the deterministic min-cost flow never
    # loads both directions, so one edge is one capacity budget.
    ids = sorted(edge_ids) if edge_ids is not None else range(len(instance.edges))
    arcs = []
    for eid in ids:
        e = instance.edges[eid]
        if e.u == e.v:
            continue
        cap = 1 if e.faulty else safe_cap
        arcs.append(flow.Arc(e.u, e.v, cap, e.w, e.id))
        if not instance.directed:
            arcs.append(flow.Arc(e.v, e.u, cap, e.w, e.id))
    return flow.FlowNetwork(instance.vertex_count, tuple(arcs))


def _support(net: flow.FlowNetwork, result: flow.FlowResult) -> frozenset[int]:
    return frozenset(net.arcs[i].origin for i, f in enumerate(result.flows) if f > 0)


def _require_feasible(instance: Instance) -> None:
    if not is_feasible(instance, range(len(instance.edges))):
        raise Infeasible("instance is infeasible even with every edge bought")


def approx_kplus1(instance: Instance) -> Solution:
    """Solution of cost at most (k+1) times the optimum.

    Buys the support of a minimum-cost integral (k+1)-unit flow in which
    faulty edges carry at most one unit and safe edges up to k+1; every
    failure of at most k faulty edges leaves a unit of s-t flow intact.

    Raises:
        Infeasible: no feasible solution exists at all.
    """
    _require_feasible(instance)
    k = instance.k
    if instance.s == instance.t:
        return Solution(frozenset(), 0, RATIO_BOUNDED, (k + 1, 1))
    net = _flow_network(instance, safe_cap=k + 1)
    result = flow.min_cost_flow(net, instance.s, instance.t, k + 1)
    support = _support(net, result)
    cost = sum(instance.edges[eid].w for eid in support)
    solution = Solution(support, cost, RATIO_BOUNDED, (k + 1, 1))
    if not is_feasible(instance, solution.edges):
        raise SolverCheckFailed("approx-k1 returned an infeasible edge set")
    return solution


def approx_k(instance: Instance) -> Solution:
    """Solution of cost at most k times the optimum (k >= 1).

    Works like the exact k=1 solver: for every vertex pair the link
    length is the cheaper of the safe-subgraph distance and the support
    weight of a min-cost (k+1)-flow whose safe edges carry at most k
    units; the final solution expands a shortest path over those links.

    Raises:
        WrongBudget: k is zero.
        Infeasible: no feasible solution exists at all.
    """
    k = instance.k
    if k < 1:
        raise WrongBudget("the k-ratio algorithm needs a budget of at least 1")
    _require_feasible(instance)
    if instance.s == instance.t:
        return Solution(frozenset(), 0, RATIO_BOUNDED, (k, 1))
    n = instance.vertex_count
    safe_dist, safe_witness = safe_subgraph_distances(instance)
    net = _flow_network(instance, safe_cap=k)
    length: list[list] = [[INF] * n for _ in range(n)]
    witness: dict[tuple[int, int], frozenset[int] | tuple[int, ...]] = {}
    for u in range(n):
        for v in range(n):
            if u == v:
                length[u][v] = 0
                witness[(u, v)] = frozenset()
                continue
            support_weight = INF
            support: frozenset[int] = frozenset()
            try:
                res = flow.min_cost_flow(net, u, v, k + 1)
                support = _support(net, res)
                support_weight = sum(instance.edges[eid].w for eid in support)
            except Infeasible:
                pass
            if safe_dist[u][v] <= support_weight:
                if safe_dist[u][v] != INF:
                    length[u][v] = safe_dist[u][v]
                    witness[(u, v)] = frozenset(safe_witness[(u, v)])
            else:
                length[u][v] = support_weight
                witness[(u, v)] = support
    total, seq = meta_shortest_path(n, lambda u, v: length[u][v],
                                    instance.s, instance.t)
    if total == INF:
        raise Infeasible("no link decomposition connects the terminals")
    chosen: set[int] = set()
    for u, v in zip(seq, seq[1:]):
        segment = witness[(u, v)]
        if not is_feasible(instance.with_terminals(u, v), segment):
            raise SolverCheckFailed(
                f"approx-k link {u}->{v} is not a feasible segment")
        chosen |= set(segment)
    cost = sum(instance.edges[eid].w for eid in chosen)
    solution = Solution(frozenset(chosen), cost, RATIO_BOUNDED, (k, 1))
    if not is_feasible(instance, solution.edges):
        raise SolverCheckFailed("approx-k returned an infeasible edge set")
    return solution


@dataclass(frozen=True)
class InducedFlow:
    """An integral (k+1)-flow squeezed through a feasible solution.

    Faulty solution edges carry at most one unit, safe ones up to k+1.
    ``bridge_edges`` (flow exactly k+1) are forced s-t cut edges of the
    solution; ``parallel_edges`` carry k or fewer units.
    """

    value: int
    edge_flow: dict[int, int]
    parallel_edges: frozenset[int]
    bridge_edges: frozenset[int]


def induced_flow(instance: Instance, solution) -> InducedFlow:
    """Route k+1 units through a feasible solution's edges.

    The flow is the deterministic minimum-cost one, so repeated calls
    agree.  Intended for analysis of (near-)minimal solutions.

    Raises:
        NotFeasible: the edge set is not feasible for the instance.
    """
    ids = frozenset(solution)
    if not is_feasible(instance, ids):
        raise NotFeasible("edge set fails the feasibility check")
    k = instance.k
    if instance.s == instance.t:
        return InducedFlow(k + 1, {}, frozenset(), frozenset())
    net = _flow_network(instance, safe_cap=k + 1, edge_ids=ids)
    result = flow.min_cost_flow(net, instance.s, instance.t, k + 1)
    edge_flow: dict[int, int] = {}
    for i, f in enumerate(result.flows):
        if f > 0:
            origin = net.arcs[i].origin
            edge_flow[origin] = edge_flow.get(origin, 0) + f
    parallel = frozenset(e for e, f in edge_flow.items() if f <= k)
    bridges = frozenset(e for e, f in edge_flow.items() if f == k + 1)
    return InducedFlow(k + 1, edge_flow, parallel, bridges)


@dataclass(frozen=True)
class SegmentDecomposition:
    """Solution split at its forced cut vertices.

    ``cut_vertices`` runs from s to t in traversal order; ``segments[i]``
    holds the solution edges lying between consecutive cut vertices.
    """

    cut_vertices: tuple[int, ...]
    segments: tuple[frozenset[int], ...]


def segment_decomposition(instance: Instance, solution) -> SegmentDecomposition:
    """Order the forced cut vertices and split the solution between them.

    Edges whose endpoints are unreachable from s within the solution are
    left out; for minimal solutions every edge lands in exactly one
    segment.

    Raises:
        NotFeasible: the edge set is not feasible for the instance.
    """
    ids = frozenset(solution)
    induced = induced_flow(instance, ids)
    if instance.s == instance.t:
        return SegmentDecomposition((instance.s,), ())
    dist, _ = dijkstra_tree(instance, instance.s, ids)
    cuts = {instance.s, instance.t}
    for eid in induced.bridge_edges:
        e = instance.edges[eid]
        cuts.add(e.u)
        cuts.add(e.v)
    ordered = tuple(sorted(cuts, key=lambda v: (dist[v], v)))
    position = {v: i for i, v in enumerate(ordered)}
    # Blocks: expand from each cut vertex, stopping at cut vertices;
    # interior vertices of a block all sit between the same pair.
    touch: dict[int, list[tuple[int, int]]] = {}
    for eid in sorted(ids):
        e = instance.edges[eid]
        touch.setdefault(e.u, []).append((e.v, eid))
        touch.setdefault(e.v, []).append((e.u, eid))
    block: dict[int, int] = {}
    for i, a in enumerate(ordered[:-1]):
        stack = [a]
        while stack:
            u = stack.pop()
            for v, _eid in touch.get(u, ()):
                if v not in cuts and v not in block:
                    block[v] = i
                    stack.append(v)
    segments: list[set[int]] = [set() for _ in range(len(ordered) - 1)]
    for eid in sorted(ids):
        e = instance.edges[eid]
        if e.u in cuts and e.v in cuts:
            if e.u != e.v:
                segments[min(position[e.u], position[e.v])].add(eid)
        else:
            anchor = e.v if e.u in cuts else e.u
            if anchor in block:
                segments[block[anchor]].add(eid)
    return SegmentDecomposition(ordered, tuple(frozenset(seg) for seg in segments))
