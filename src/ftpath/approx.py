"""Ratio-bounded solvers for general instances.

Two algorithms: the support of a min-cost (k+1)-unit flow with faulty
edges capped at one unit costs at most (k+1) times the optimum; routing
that flow segment-by-segment between consecutive cut vertices improves
the guarantee to k times the optimum.  The second is the link graph of
the exact k=1 solver (``bipath``) with three parameters changed: the
safe-edge capacity is k (not 2 or 1), each link carries k+1 flow units
(not 2), and a link weighs its flow's support, each edge counted once
(not the flow's cost).  As there, a link's flow runs only when its
lower bound reaches the top of the lazy A* meta search's queue and
cannot decide the link; the A* potential is ``d2(v -> t)``, the
distance to t with faulty edges doubled, which no support undercuts.
No support edge carries more than k of the k+1 units, so every u-v cut
crosses at least 2 support edges, and the support holds 2 edge-disjoint
u-v routes (Menger).  It therefore weighs at least ``c2``, the min
cost of 2 edge-disjoint routes, which ``bipath``'s table takes for
every target of a source from one Suurballe-Tarjan pass with every
capacity 1; ``c2`` is at least twice the distance d1 over all edges.  A
safe path no longer than ``c2`` wins without a flow.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import flow
from .bipath import WrongBudget, _Links, _support
from .core import (Infeasible, Instance, Solution, RATIO_BOUNDED, SolverCheckFailed,
                   ValidationError, _checked_solution, adjacency, is_feasible)
# safe_subgraph_distances is not called here; perfbench's tracer wraps it.
from .shortest import (INF, dijkstra_tree, meta_shortest_path,
                       safe_subgraph_distances)

__all__ = ["NotFeasible", "InducedFlow", "SegmentDecomposition",
           "approx_kplus1", "approx_k", "induced_flow",
           "segment_decomposition"]


class NotFeasible(ValidationError):
    """The supplied edge set is not a feasible solution."""


def _require_feasible(instance: Instance) -> None:
    if not is_feasible(instance, range(len(instance._u))):
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
    net = flow.edge_network(instance, k + 1)
    result = flow.min_cost_flow(net, instance.s, instance.t, k + 1)
    return _checked_solution(instance, _support(net, result), RATIO_BOUNDED,
                             "approx-k1", (k + 1, 1))


def approx_k(instance: Instance) -> Solution:
    """Solution of cost at most k times the optimum (k >= 1).

    Works like the exact k=1 solver: a pair's link length is the cheaper
    of the safe-subgraph distance and the support weight of a min-cost
    (k+1)-flow whose safe edges carry at most k units; the final
    solution expands a shortest path over those links, computing each
    link only when that path's search first reads it.

    Raises:
        WrongBudget: k is zero.
        Infeasible: no feasible solution exists at all.
    """
    k = instance.k
    if k < 1:
        raise WrongBudget("the k-ratio algorithm needs a budget of at least 1")
    _require_feasible(instance)

    def support_weight(net, res):
        return sum(map(instance._w.__getitem__, _support(net, res)))

    links = _Links(instance, safe_cap=k, units=k + 1, weight=support_weight)
    total, seq = meta_shortest_path(instance.vertex_count, links.length,
                                    instance.s, instance.t, links.potential(),
                                    bound=links.bound)
    if total == INF:
        raise Infeasible("no link decomposition connects the terminals")
    chosen: set[int] = set()
    for u, v in zip(seq, seq[1:]):
        segment = links.witness(u, v)[1]
        if not is_feasible(instance.with_terminals(u, v), segment):
            raise SolverCheckFailed(
                f"approx-k link {u}->{v} is not a feasible segment")
        chosen.update(segment)
    return _checked_solution(instance, chosen, RATIO_BOUNDED, "approx-k", (k, 1))


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
    net = flow.edge_network(instance, k + 1, ids)
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
    dist, _ = dijkstra_tree(instance, instance.s, ids)
    cuts = {instance.s, instance.t}
    us, vs = instance._u, instance._v
    for eid in induced.bridge_edges:
        cuts.add(us[eid])
        cuts.add(vs[eid])
    ordered = tuple(sorted(cuts, key=lambda v: (dist[v], v)))
    position = {v: i for i, v in enumerate(ordered)}
    # Blocks: expand from each cut vertex, stopping at cut vertices;
    # interior vertices of a block all sit between the same pair.
    touch = adjacency(instance, ids)
    if instance.directed:  # an arc touches both its ends
        touch = [a + b for a, b in zip(touch, adjacency(instance, ids, reverse=True))]
    block: dict[int, int] = {}
    for i, a in enumerate(ordered[:-1]):
        stack = [a]
        while stack:
            u = stack.pop()
            for v, _, _ in touch[u]:
                if v not in cuts and v not in block:
                    block[v] = i
                    stack.append(v)
    segments: list[set[int]] = [set() for _ in range(len(ordered) - 1)]
    for eid in sorted(ids):
        u, v = us[eid], vs[eid]
        if u in cuts and v in cuts:
            if u != v:
                segments[min(position[u], position[v])].add(eid)
        else:
            anchor = v if u in cuts else u
            if anchor in block:
                segments[block[anchor]].add(eid)
    return SegmentDecomposition(ordered, tuple(frozenset(seg) for seg in segments))
