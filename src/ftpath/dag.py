"""Exact solver for directed acyclic instances at any fixed budget.

The graph is first stretched into a layered graph (one layer per vertex
depth, long edges subdivided into zero-cost chains).  A *configuration*
assigns k+1 demand units to the vertices of one layer.  Edges join
consecutive layers, so carrying ``f`` units from ``u`` to ``v`` costs
``min(cheapest safe u->v edge, the f cheapest faulty u->v edges)``, and
a link between configurations costs the least sum of these pair costs
over the splits of each tail's units among its heads.  A forward dynamic
program finds the cheapest route; only its links get a realizing edge
set (:func:`link_cost`), mapped back through edge origins.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations_with_replacement, groupby

from .core import (FTPError, Infeasible, Instance, Solution, OPTIMAL,
                   SolverCheckFailed, adjacency, build_instance, is_feasible, reachable)

__all__ = ["NotADag", "ConfigurationSpaceTooLarge", "LayeredEdge",
           "LayeredInstance", "Configuration", "Link", "layerize",
           "enumerate_configurations", "link_cost", "solve_kftp_dag"]

DEFAULT_CONFIG_CAP = 10**6


class NotADag(FTPError):
    """The instance is not a directed acyclic graph.

    ``cycle`` carries a witnessing vertex sequence when a directed cycle
    exists; it is ``None`` when the instance is simply undirected.
    """

    def __init__(self, message: str, cycle: tuple[int, ...] | None = None):
        super().__init__(message)
        self.cycle = cycle


class ConfigurationSpaceTooLarge(FTPError):
    """The DAG solver's cap on layer configurations was exceeded."""

    def __init__(self, estimate: int, cap: int):
        super().__init__(f"about {estimate} configurations, cap is {cap}")
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

    @cached_property
    def _edges_by_layer(self) -> dict[int, list[LayeredEdge]]:
        by_layer: dict[int, list[LayeredEdge]] = {}
        for e in self.edges:
            by_layer.setdefault(e.layer, []).append(e)
        return by_layer

    def edges_in_layer(self, i: int) -> tuple[LayeredEdge, ...]:
        return tuple(self._edges_by_layer.get(i, ()))

    def as_instance(self) -> Instance:
        """The layered graph as a plain directed instance (same budget)."""
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


def _find_cycle(adj: list, ordered: set[int]) -> tuple[int, ...]:
    # DFS over the vertices Kahn's algorithm could not order (their heads
    # are unordered too), neighbours ascending, repeated for parallel arcs.
    heads = {u: sorted(v for v, _, _ in adj[u])
             for u in range(len(adj)) if u not in ordered and adj[u]}
    # Explicit stack: the path holds the open vertices (state 1), and
    # each keeps an iterator over its remaining neighbours.
    state: dict[int, int] = {}
    for root in heads:
        if state.get(root, 0):
            continue
        state[root] = 1
        path = [root]
        pending = [iter(heads[root])]
        while pending:
            for v in pending[-1]:
                seen = state.get(v, 0)
                if seen == 1:
                    return tuple(path[path.index(v):]) + (v,)
                if not seen:
                    state[v] = 1
                    path.append(v)
                    pending.append(iter(heads.get(v, ())))
                    break
            else:
                state[path.pop()] = 2
                pending.pop()
    raise AssertionError("no cycle found in a non-sortable graph")


def _topological_order(adj: list) -> list[int]:
    # Kahn's algorithm, smallest ready vertex first, over core.adjacency
    # lists.  Those skip self-loops: they carry no s-t connectivity and
    # never appear in minimal solutions, so they do not disqualify a DAG.
    n = len(adj)
    indeg = Counter(v for out in adj for v, _, _ in out)
    ready = [v for v in range(n) if not indeg[v]]
    heapq.heapify(ready)
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v, _, _ in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    if len(order) < n:
        raise NotADag("graph contains a directed cycle",
                      cycle=_find_cycle(adj, set(order)))
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
    adj = adjacency(instance)
    order = _topological_order(adj)
    s, t = instance.s, instance.t
    if s == t:
        return LayeredInstance(instance, ((0,),), ())
    # Longest-path depths from s in linear time.  The predecessors that s
    # reaches of a vertex on an s-t path lie on one too, so its depth is
    # the same over the relevant vertices alone.
    depth = {s: 0}
    for v in order:
        if v in depth:
            for w, _, _ in adj[v]:
                depth[w] = max(depth.get(w, 0), depth[v] + 1)
    relevant = depth.keys() & reachable(instance, t, reverse=True)
    if t not in relevant:
        # No s-t path at all; a two-layer shell with no edges.
        return LayeredInstance(instance, ((0,), (1,)), ())
    kept = [v for v in order if v in relevant]
    kept_edges = [e for e in instance.edges
                  if e.u in relevant and e.v in relevant and e.u != e.v]
    r = depth[t] + 1
    layer_members: list[list[int]] = [[] for _ in range(r)]
    vertex_of = {v: i for i, v in enumerate(kept)}
    for v in kept:
        layer_members[depth[v]].append(vertex_of[v])
    next_vertex = len(kept)
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
    if layer_members[0] != [vertex_of[s]] or layer_members[r - 1] != [vertex_of[t]]:
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
    # A sorted tuple of k+1 vertex positions (a spread) is one demand
    # vector; ascending spreads are descending demand vectors.
    return [_configuration(layered, i, spread) for spread in
            combinations_with_replacement(range(len(layered.layers[i])), k + 1)]


def _configuration(layered: LayeredInstance, i: int,
                   spread: tuple[int, ...]) -> Configuration:
    return Configuration(i, tuple(map(spread.count, range(len(layered.layers[i])))))


def _pair_rows(edges, k: int, pos: dict[int, int], forced=(), floor: float = -1
               ) -> dict[int, list[tuple[int, list[int]]]]:
    # Per tail, (head position, row) pairs: row[f] is the least weight
    # that lets the tail->head edges carry f units (f <= k+1, as far as
    # they can).  Edges in ``forced`` are paid for: a safe one carries
    # every unit, a faulty one a unit; other edges count if id > ``floor``.
    units = k + 1
    groups: dict[tuple[int, int], tuple[list[int], list[int], list[int]]] = {}
    for e in edges:
        free, safe, faulty = groups.setdefault((e.tail, e.head), ([0], [], []))
        if e.id in forced:
            free[0] = min(units, free[0] + (1 if e.faulty else units))
        elif e.id > floor:
            (faulty if e.faulty else safe).append(e.w)
    rows: dict[int, list[tuple[int, list[int]]]] = {}
    for (tail, head), ([free], safe, faulty) in groups.items():
        sums = list(accumulate(sorted(faulty)))  # sums[j]: the j+1 cheapest
        carried = range(units - free) if safe else range(min(units - free, len(sums)))
        row = [0] * (free + 1) + [min(safe + sums[j:j + 1]) for j in carried]
        rows.setdefault(tail, []).append((pos[head], row))
    return rows


def _reach(rows: dict[int, list[tuple[int, list[int]]]],
           have: list[tuple[int, int]], memo: dict) -> dict[tuple[int, ...], int]:
    # Least cost of every spread (the sorted head positions of the units)
    # that splitting each (tail, units) of ``have`` over the tail's (head
    # position, row) pairs reaches; ascending spreads are descending
    # demand vectors.  ``memo`` keeps each tail's (positions, cost) splits.
    partial: dict[tuple[int, ...], int] = {(): 0}
    for tail, units in have:
        if (tail, units) not in memo:
            splits: list[tuple[tuple[int, ...], int]] = [((), 0)]
            for p, row in rows.get(tail, []):
                splits = [(taken + (p,) * x, cost + row[x]) for taken, cost in splits
                          for x in range(min(units - len(taken), len(row) - 1) + 1)]
            memo[tail, units] = [split for split in splits if len(split[0]) == units]
        grown: dict[tuple[int, ...], int] = {}
        for spread, cost in partial.items():
            for taken, extra in memo[tail, units]:
                key = tuple(sorted(spread + taken))
                if cost + extra < grown.get(key, math.inf):
                    grown[key] = cost + extra
        partial = grown
    return partial


def link_cost(layered: LayeredInstance, d1: Configuration, d2: Configuration,
              k: int) -> Link | None:
    """Cheapest edge subset transporting d1's demand to d2, or ``None``.

    The candidate edges run from d1's support to d2's support.  The cost
    ``C*`` is the least sum of per-pair costs (``f`` units over a pair
    cost its cheapest safe edge or its ``f`` cheapest faulty edges) over
    the splits of d1's units that deliver d2.  The realizing set is the
    first candidate subset in ``(cost, sorted ids)`` order that carries
    the transport: while the chosen ids alone do not carry it at cost
    ``C*``, add the smallest larger id that a subset of cost ``C*``
    holding the chosen ids, that id and otherwise larger ids completes.
    ``None`` means no subset works (the link is absent).
    """
    supp1 = set(d1.support(layered))
    supp2 = set(d2.support(layered))
    edges = [e for e in layered.edges_in_layer(d1.layer)
             if e.tail in supp1 and e.head in supp2]
    have = [(v, d) for v, d in zip(layered.layers[d1.layer], d1.demand) if d]
    pos = {v: p for p, v in enumerate(layered.layers[d2.layer])}
    target = tuple(p for p, d in enumerate(d2.demand) for _ in range(d))
    weight = {e.id: e.w for e in edges}

    def cheapest(forced: list[int], floor: float) -> int | None:
        extra = _reach(_pair_rows(edges, k, pos, forced, floor), have, {}).get(target)
        return None if extra is None else extra + sum(weight[i] for i in forced)

    best = cheapest([], -1)
    if best is None:
        return None
    chosen: list[int] = []
    while cheapest(chosen, math.inf) != best:
        chosen.append(next(i for i in sorted(weight) if i > max(chosen, default=-1)
                           and cheapest(chosen + [i], i) == best))
    return Link(d1, d2, best, frozenset(chosen))


def solve_kftp_dag(instance: Instance, cap: int = DEFAULT_CONFIG_CAP) -> Solution:
    """Optimal solution on a directed acyclic instance.

    Runs a forward dynamic program over layer configurations, each
    split over its layer's per-pair cost table into the configurations
    it links to.  It layerizes and checks the cap first, so the first
    two errors below mean that the solver does not apply.

    Raises:
        NotADag: not a DAG.
        ConfigurationSpaceTooLarge: configuration cap exceeded.
        Infeasible: the terminals cannot be connected robustly.
    """
    layered = layerize(instance)
    k = instance.k
    # Splitting one tail's k + 1 units builds about (k + 1)(k + 2) / 2 spread
    # entries; past the default cap (or a larger given one) they refuse k.
    total_configs = configuration_count(layered, k)
    entries = (k + 1) * (k + 2) // 2
    if total_configs > cap or entries > max(cap, DEFAULT_CONFIG_CAP):
        raise ConfigurationSpaceTooLarge(total_configs if total_configs > cap else entries, cap)
    if instance.s == instance.t:
        return Solution(frozenset(), 0, OPTIMAL)
    if not layered.edges:
        raise Infeasible("terminals are disconnected")
    # best[i]: spread over layer i -> (cost, parent spread over layer i-1).
    # Tails run in descending demand order and only a strictly cheaper
    # route replaces a parent, so ties keep the first tail.
    best: list[dict[tuple[int, ...], tuple]] = [{(0,) * (k + 1): (0, ())}]
    for i in range(len(layered.layers) - 1):
        pos = {v: p for p, v in enumerate(layered.layers[i + 1])}
        rows = _pair_rows(layered.edges_in_layer(i), k, pos)
        memo: dict = {}
        reached: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
        for spread in sorted(best[i]):
            base = best[i][spread][0]
            have = [(layered.layers[i][p], len(list(units)))
                    for p, units in groupby(spread)]
            for head_spread, cost in _reach(rows, have, memo).items():
                if base + cost < reached.get(head_spread, (math.inf,))[0]:
                    reached[head_spread] = (base + cost, spread)
        best.append(reached)
    goal = (0,) * (k + 1)
    if goal not in best[-1]:
        raise Infeasible("no robust route through the layered graph")
    layered_ids: set[int] = set()
    spread = goal
    for i in range(len(best) - 1, 0, -1):
        cost, parent = best[i][spread]
        link = link_cost(layered, _configuration(layered, i - 1, parent),
                         _configuration(layered, i, spread), k)
        if link is None or link.cost != cost - best[i - 1][parent][0]:
            raise SolverCheckFailed("dag link cost disagrees with its table")
        layered_ids |= link.realizing
        spread = parent
    origins = {layered.edges[lid].origin for lid in layered_ids}
    cost = sum(instance.edges[eid].w for eid in origins)
    solution = Solution(frozenset(origins), cost, OPTIMAL)
    if not is_feasible(instance, solution.edges):
        raise SolverCheckFailed("dag returned an infeasible edge set")
    return solution
