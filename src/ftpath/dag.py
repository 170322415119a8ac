"""Exact solver for directed acyclic instances at any fixed budget.

The graph is first stretched into a layered graph (one layer per vertex
in topological order, long edges subdivided into zero-cost chains).  A
*configuration* assigns k+1 demand units to the vertices of one layer;
two configurations in consecutive layers are linked when the demand can
be transported between them with capacity 1 on faulty edges, and the
link cost is the cheapest edge subset supporting that transport.  A
shortest path through the configuration graph then yields an optimal
solution, mapped back through edge origins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import flow
from .core import (FTPError, Infeasible, Instance, Solution, OPTIMAL,
                   SolverCheckFailed, is_feasible, reachable)

__all__ = ["NotADag", "ConfigurationSpaceTooLarge", "LayeredEdge",
           "LayeredInstance", "Configuration", "Link", "layerize",
           "enumerate_configurations", "link_cost", "solve_kftp_dag"]

DEFAULT_CONFIG_CAP = 10**6
LINK_EDGE_CAP = 20


class NotADag(FTPError):
    """The instance is not a directed acyclic graph.

    ``cycle`` carries a witnessing vertex sequence when a directed cycle
    exists; it is ``None`` when the instance is simply undirected.
    """

    def __init__(self, message: str, cycle: tuple[int, ...] | None = None):
        super().__init__(message)
        self.cycle = cycle


class ConfigurationSpaceTooLarge(FTPError):
    """A size cap of the DAG solver was exceeded.

    ``estimate`` and ``cap`` count layer configurations unless
    ``message`` names another quantity.
    """

    def __init__(self, estimate: int, cap: int, message: str | None = None):
        super().__init__(message or f"about {estimate} configurations, cap is {cap}")
        self.estimate = estimate
        self.cap = cap


@dataclass(frozen=True)
class LayeredEdge:
    """One edge of the layered graph, from layer ``layer`` to ``layer+1``."""

    id: int
    layer: int
    tail: int
    head: int
    w: int
    faulty: bool
    origin: int  # original edge id


@dataclass(frozen=True)
class LayeredInstance:
    """Layered equivalent of a DAG instance.

    ``layers[i]`` lists the layered-vertex ids of layer ``i`` (0-based);
    layer 0 is ``{s}`` and the last layer is ``{t}``.  Subdivision keeps
    the optimum intact: the first edge of each chain carries the original
    cost, the rest cost zero, and every chain edge inherits the origin's
    faulty flag.
    """

    original: Instance
    layers: tuple[tuple[int, ...], ...]
    edges: tuple[LayeredEdge, ...]

    @property
    def origin_map(self) -> dict[int, int]:
        return {e.id: e.origin for e in self.edges}

    def edges_in_layer(self, i: int) -> tuple[LayeredEdge, ...]:
        return tuple(e for e in self.edges if e.layer == i)

    def as_instance(self) -> Instance:
        """The layered graph as a plain directed instance (same budget)."""
        from .core import build_instance

        count = max((max(layer) for layer in self.layers if layer), default=0) + 1
        return build_instance(
            True, count, self.layers[0][0], self.layers[-1][0],
            self.original.k,
            [(e.tail, e.head, e.w, e.faulty) for e in self.edges])


@dataclass(frozen=True)
class Configuration:
    """Demand vector over one layer's vertices, summing to k+1."""

    layer: int
    demand: tuple[int, ...]  # aligned with LayeredInstance.layers[layer]

    def support(self, layered: LayeredInstance) -> tuple[int, ...]:
        verts = layered.layers[self.layer]
        return tuple(v for v, d in zip(verts, self.demand) if d > 0)


@dataclass(frozen=True)
class Link:
    """A costed transition between consecutive-layer configurations."""

    tail: Configuration
    head: Configuration
    cost: int
    realizing: frozenset[int]  # layered edge ids


def _find_cycle(instance: Instance, order_pos: dict[int, int]) -> tuple[int, ...]:
    # DFS over vertices that could not be topologically ordered.
    adj: dict[int, list[int]] = {}
    for e in instance.edges:
        if e.u not in order_pos and e.v not in order_pos and e.u != e.v:
            adj.setdefault(e.u, []).append(e.v)
    for lst in adj.values():
        lst.sort()
    # Explicit stack: the path holds the open vertices (state 1), and
    # each keeps an iterator over its remaining neighbours.
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
    raise AssertionError("no cycle found in a non-sortable graph")


def _topological_order(instance: Instance) -> list[int]:
    # Self-loops are skipped: they carry no s-t connectivity and never
    # appear in minimal solutions, so they do not disqualify a DAG.
    n = instance.vertex_count
    indeg = [0] * n
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in instance.edges:
        if e.u == e.v:
            continue
        indeg[e.v] += 1
        adj[e.u].append(e.v)
    import heapq
    ready = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    if len(order) < n:
        pos = {v: i for i, v in enumerate(order)}
        cycle = _find_cycle(instance, pos)
        raise NotADag("graph contains a directed cycle", cycle=cycle)
    return order


def layerize(instance: Instance) -> LayeredInstance:
    """Stretch a DAG instance into an equivalent layered instance.

    Vertices that cannot lie on any s-t path are dropped first (they
    never appear in a minimal solution), which also guarantees that the
    first layer is exactly ``{s}`` and the last exactly ``{t}``.  Layers
    are longest-path depths from s, so a graph that is already layered
    comes back unchanged up to relabeling; edges spanning several depths
    are subdivided into chains.

    Raises:
        NotADag: the instance is undirected or has a directed cycle.
    """
    if not instance.directed:
        raise NotADag("instance is undirected")
    order = _topological_order(instance)
    if instance.s == instance.t:
        return LayeredInstance(instance, ((0,),), ())
    forward = reachable(instance, instance.s)
    backward = reachable(instance, instance.t, reverse=True)
    relevant = forward & backward
    if instance.t not in relevant or instance.s not in relevant:
        # No s-t path at all; a two-layer shell with no edges.
        return LayeredInstance(instance, ((0,), (1,)), ())
    kept = [v for v in order if v in relevant]
    kept_edges = [e for e in instance.edges
                  if e.u in relevant and e.v in relevant and e.u != e.v]
    depth: dict[int, int] = {instance.s: 0}
    for v in kept[1:]:
        depth[v] = max(depth[e.u] + 1 for e in kept_edges if e.v == v)
    r = depth[instance.t] + 1
    next_vertex = 0
    layer_members: list[list[int]] = [[] for _ in range(r)]
    vertex_of: dict[int, int] = {}
    for v in kept:
        vertex_of[v] = next_vertex
        layer_members[depth[v]].append(next_vertex)
        next_vertex += 1
    edges: list[LayeredEdge] = []
    for e in kept_edges:
        i, j = depth[e.u], depth[e.v]
        chain = [vertex_of[e.u]]
        for layer in range(i + 1, j):
            layer_members[layer].append(next_vertex)
            chain.append(next_vertex)
            next_vertex += 1
        chain.append(vertex_of[e.v])
        for step, (a, b) in enumerate(zip(chain, chain[1:])):
            edges.append(LayeredEdge(
                id=len(edges), layer=i + step, tail=a, head=b,
                w=e.w if step == 0 else 0, faulty=e.faulty, origin=e.id))
    if (layer_members[0] != [vertex_of[instance.s]]
            or layer_members[r - 1] != [vertex_of[instance.t]]):
        raise SolverCheckFailed("layerize did not put s alone in the first "
                                "layer and t alone in the last")
    return LayeredInstance(instance,
                           tuple(tuple(lm) for lm in layer_members),
                           tuple(edges))


def configuration_count(layered: LayeredInstance, k: int) -> int:
    """Total configurations across all layers for budget ``k``."""
    return sum(math.comb(len(layer) + k, k + 1) if layer else 0
               for layer in layered.layers)


def enumerate_configurations(layered: LayeredInstance, i: int, k: int,
                             cap: int = DEFAULT_CONFIG_CAP) -> list[Configuration]:
    """All demand vectors over layer ``i`` summing to k+1.

    Ordered by decreasing demand tuple, e.g. for two vertices and k=1:
    (2,0), (1,1), (0,2).  Raises :class:`ConfigurationSpaceTooLarge` when
    the whole instance's configuration space exceeds ``cap``.
    """
    total = configuration_count(layered, k)
    if total > cap:
        raise ConfigurationSpaceTooLarge(total, cap)
    width = len(layered.layers[i])
    out: list[Configuration] = []

    def emit(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(Configuration(i, tuple(prefix + [remaining])))
            return
        for d in range(remaining, -1, -1):
            emit(prefix + [d], remaining - d, slots - 1)

    if width:
        emit([], k + 1, width)
    return out


def _transport_feasible(layered: LayeredInstance, edges: list[LayeredEdge],
                        d1: Configuration, d2: Configuration, k: int) -> bool:
    # Transportation check: move d1's units to d2 across `edges` with
    # capacity 1 on faulty edges and k+2 (unlimited here) on safe ones.
    verts1 = layered.layers[d1.layer]
    verts2 = layered.layers[d2.layer]
    need = {v: d for v, d in zip(verts2, d2.demand) if d > 0}
    have = {v: d for v, d in zip(verts1, d1.demand) if d > 0}
    # Quick degree bounds before running a flow.
    out_cap: dict[int, int] = {v: 0 for v in have}
    in_cap: dict[int, int] = {v: 0 for v in need}
    for e in edges:
        c = 1 if e.faulty else k + 2
        if e.tail in out_cap:
            out_cap[e.tail] += c
        if e.head in in_cap:
            in_cap[e.head] += c
    if any(out_cap[v] < have[v] for v in have):
        return False
    if any(in_cap[v] < need[v] for v in need):
        return False
    index = {v: i for i, v in enumerate(sorted(set(have) | set(need)))}
    arcs = tuple(flow.Arc(index[e.tail], index[e.head],
                          1 if e.faulty else k + 2) for e in edges)
    supplies = [0] * len(index)
    for v, d in have.items():
        supplies[index[v]] -= d
    for v, d in need.items():
        supplies[index[v]] += d
    net = flow.FlowNetwork(len(index), arcs, tuple(supplies))
    return flow.balanced_flow(net) is not None


def link_cost(layered: LayeredInstance, d1: Configuration, d2: Configuration,
              k: int) -> Link | None:
    """Cheapest edge subset transporting d1's demand to d2, or ``None``.

    The candidate edges run from d1's support to d2's support; all their
    subsets are scanned in (cost, ids) order, so the result is
    deterministic.  ``None`` means no subset works (the link is absent).
    """
    supp1 = set(d1.support(layered))
    supp2 = set(d2.support(layered))
    edges = [e for e in layered.edges_in_layer(d1.layer)
             if e.tail in supp1 and e.head in supp2]
    if not _transport_feasible(layered, edges, d1, d2, k):
        return None
    m = len(edges)
    if m > LINK_EDGE_CAP:
        raise ConfigurationSpaceTooLarge(
            m, LINK_EDGE_CAP, f"{m} candidate edges for one link from layer "
            f"{d1.layer}, cap is {LINK_EDGE_CAP} (every edge subset is scanned)")
    # Subsets in (cost, ids) order: the first feasible one is the
    # cheapest, with ties resolved to the smallest id set.
    masks = sorted(range(1, 2 ** m),
                   key=lambda mask: (sum(edges[i].w for i in range(m) if mask >> i & 1),
                                     tuple(edges[i].id for i in range(m) if mask >> i & 1)))
    for mask in masks:
        subset = [edges[i] for i in range(m) if mask >> i & 1]
        if _transport_feasible(layered, subset, d1, d2, k):
            return Link(d1, d2, sum(e.w for e in subset),
                        frozenset(e.id for e in subset))
    return None


def solve_kftp_dag(instance: Instance,
                   cap: int = DEFAULT_CONFIG_CAP) -> Solution:
    """Optimal solution on a directed acyclic instance.

    Runs a forward dynamic program over layer configurations, expanding
    links lazily from the reached configurations only.

    Raises:
        NotADag: not a DAG.
        ConfigurationSpaceTooLarge: configuration cap exceeded.
        Infeasible: the terminals cannot be connected robustly.
    """
    if instance.s == instance.t:
        return Solution(frozenset(), 0, OPTIMAL)
    layered = layerize(instance)
    k = instance.k
    if not layered.edges:
        raise Infeasible("terminals are disconnected")
    total_configs = configuration_count(layered, k)
    if total_configs > cap:
        raise ConfigurationSpaceTooLarge(total_configs, cap)
    r = len(layered.layers)
    start = Configuration(0, (k + 1,))
    # reached: configuration -> (cost, parent, realizing layered-edge ids)
    reached: dict[Configuration, tuple[int, Configuration | None, frozenset[int]]] = {
        start: (0, None, frozenset())}
    frontier = [start]
    for i in range(r - 1):
        nxt = enumerate_configurations(layered, i + 1, k, cap)
        boundary = list(layered.edges_in_layer(i))
        new_frontier: list[Configuration] = []
        # Per-tail capacity toward layer i+1, for a cheap pre-reject.
        out_cap: dict[int, int] = {}
        heads_of: dict[int, set[int]] = {}
        for e in boundary:
            out_cap[e.tail] = out_cap.get(e.tail, 0) + (1 if e.faulty else k + 2)
            heads_of.setdefault(e.tail, set()).add(e.head)
        for d1 in sorted(frontier, key=lambda c: c.demand, reverse=True):
            base_cost = reached[d1][0]
            supp1 = d1.support(layered)
            have = {v: d for v, d in zip(layered.layers[i], d1.demand) if d > 0}
            if any(out_cap.get(v, 0) < have[v] for v in supp1):
                continue
            allowed_heads = set()
            for v in supp1:
                allowed_heads |= heads_of.get(v, set())
            for d2 in nxt:
                if any(v not in allowed_heads for v in d2.support(layered)):
                    continue
                link = link_cost(layered, d1, d2, k)
                if link is None:
                    continue
                cand = base_cost + link.cost
                old = reached.get(d2)
                if old is None or cand < old[0]:
                    if old is None:
                        new_frontier.append(d2)
                    reached[d2] = (cand, d1, link.realizing)
        frontier = [c for c in new_frontier if c in reached]
        if not frontier:
            break
    goal = Configuration(r - 1, (k + 1,))
    if goal not in reached:
        raise Infeasible("no robust route through the layered graph")
    layered_ids: set[int] = set()
    cur: Configuration | None = goal
    while cur is not None:
        cost, parent, realizing = reached[cur]
        layered_ids |= realizing
        cur = parent
    origins = {layered.edges[lid].origin for lid in layered_ids}
    cost = sum(instance.edges[eid].w for eid in origins)
    solution = Solution(frozenset(origins), cost, OPTIMAL)
    if not is_feasible(instance, solution.edges):
        raise SolverCheckFailed("dag returned an infeasible edge set")
    return solution
