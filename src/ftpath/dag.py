"""Exact solver for directed acyclic instances at any fixed budget.

The graph is first stretched into a layered graph (one layer per vertex
depth, long edges subdivided into zero-cost chains).  A *configuration*
assigns k+1 demand units to the vertices of one layer.  Edges join
consecutive layers, so carrying ``f`` units from ``u`` to ``v`` costs
``min(cheapest safe u->v edge, the f cheapest faulty u->v edges)``, and
a link between configurations costs the least sum of these pair costs
over the splits of each tail's units among its heads.  A forward dynamic
program finds the cheapest route with one staged transition per layer
(all configurations split at once, tail by tail); only its links get a
realizing edge set (:func:`link_cost`), mapped back through edge origins.
A link reruns one transition with each edge's weight packed above a tie
bit of its own, so the one optimum it reaches is the cheapest edge set
with the least sum of ``2^id``.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations_with_replacement, groupby

# is_feasible is not called here; perfbench's tracer wraps it.
from .core import (CapExceeded, Infeasible, Instance, NotApplicable, Solution, OPTIMAL, adjacency,
                   SolverCheckFailed, _checked_solution, build_instance, is_feasible, reachable)

__all__ = ["NotADag", "ConfigurationSpaceTooLarge", "LayeredEdge",
           "LayeredInstance", "Configuration", "Link", "layerize",
           "enumerate_configurations", "link_cost", "solve_kftp_dag"]

DEFAULT_CONFIG_CAP = 10**6


class NotADag(NotApplicable):
    """The instance is not a directed acyclic graph.

    ``cycle`` carries a witnessing vertex sequence when a directed cycle
    exists; it is ``None`` when the instance is simply undirected.
    """

    def __init__(self, message: str, cycle: tuple[int, ...] | None = None):
        super().__init__(message)
        self.cycle = cycle


class ConfigurationSpaceTooLarge(CapExceeded):
    """The DAG solver's cap on layer configurations or spread entries was exceeded."""

    def __init__(self, estimate: int, cap: int, entries: bool = False):
        counted, limit = "configurations", cap
        if entries:  # refused past the larger of ``cap`` and the default
            counted, limit = "spread entries", max(cap, DEFAULT_CONFIG_CAP)
        super().__init__(f"about {estimate} {counted}, cap is {limit}")
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
    def _edges_by_layer(self) -> dict[int, tuple[LayeredEdge, ...]]:
        by_layer = sorted(self.edges, key=lambda e: e.layer)
        return {i: tuple(edges) for i, edges in groupby(by_layer, lambda e: e.layer)}

    def edges_in_layer(self, i: int) -> tuple[LayeredEdge, ...]:
        return self._edges_by_layer.get(i, ())

    def as_instance(self) -> Instance:
        """The layered graph as a plain directed instance (same budget)."""
        count = max((max(layer) for layer in self.layers if layer), default=0) + 1
        return build_instance(True, count, self.layers[0][0], self.layers[-1][0], self.original.k,
                              [(e.tail, e.head, e.w, e.faulty) for e in self.edges])


@dataclass(frozen=True)
class Configuration:
    """Demand vector over one layer's vertices, summing to k+1."""

    layer: int
    demand: tuple[int, ...]  # aligned with LayeredInstance.layers[layer]

    def support(self, layered: LayeredInstance) -> tuple[int, ...]:
        return tuple(v for v, d in zip(layered.layers[self.layer], self.demand) if d > 0)


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
    ready = [v for v in range(n) if not indeg[v]]  # ascending, so a heap
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
    us, vs, ws, faulty = instance._u, instance._v, instance._w, instance._faulty
    kept_edges = [eid for eid, (u, v) in enumerate(zip(us, vs))
                  if u in relevant and v in relevant and u != v]
    r = depth[t] + 1
    layer_members: list[list[int]] = [[] for _ in range(r)]
    vertex_of = {v: i for i, v in enumerate(kept)}
    for v in kept:
        layer_members[depth[v]].append(vertex_of[v])
    next_vertex = len(kept)
    edges: list[LayeredEdge] = []
    for eid in kept_edges:
        i, j = depth[us[eid]], depth[vs[eid]]
        chain = [vertex_of[us[eid]]]
        for layer in range(i + 1, j):
            layer_members[layer].append(next_vertex)
            chain.append(next_vertex)
            next_vertex += 1
        chain.append(vertex_of[vs[eid]])
        for step, (a, b) in enumerate(zip(chain, chain[1:])):
            edges.append(LayeredEdge(
                id=len(edges), layer=i + step, tail=a, head=b,
                w=ws[eid] if step == 0 else 0, faulty=faulty[eid], origin=eid))
    if layer_members[0] != [vertex_of[s]] or layer_members[r - 1] != [vertex_of[t]]:
        raise SolverCheckFailed("layerize did not put s alone in the first "
                                "layer and t alone in the last")
    return LayeredInstance(instance, tuple(map(tuple, layer_members)), tuple(edges))


def configuration_count(layered: LayeredInstance, k: int) -> int:
    """Total configurations across all layers for budget ``k``."""
    return sum(math.comb(len(layer) + k, k + 1) for layer in layered.layers)


def _check_budget(layered: LayeredInstance, k: int, cap: int) -> None:
    # Splitting one tail's k + 1 units builds about (k + 1)(k + 2) / 2 spread
    # entries; past the default cap (or a larger given one) they refuse k.
    total = configuration_count(layered, k)
    entries = (k + 1) * (k + 2) // 2
    if total > cap or entries > max(cap, DEFAULT_CONFIG_CAP):
        raise ConfigurationSpaceTooLarge(total if total > cap else entries, cap, total <= cap)


def enumerate_configurations(layered: LayeredInstance, i: int, k: int,
                             cap: int = DEFAULT_CONFIG_CAP) -> list[Configuration]:
    """All demand vectors over layer ``i`` summing to k+1.

    Ordered by decreasing demand tuple, e.g. for two vertices and k=1:
    (2,0), (1,1), (0,2).  Raises :class:`ConfigurationSpaceTooLarge` past
    the budget that :func:`solve_kftp_dag` refuses.
    """
    _check_budget(layered, k, cap)
    # A sorted tuple of k+1 vertex positions (a spread) is one demand
    # vector; ascending spreads are descending demand vectors.
    width = range(len(layered.layers[i]))
    return [Configuration(i, tuple(map(spread.count, width)))
            for spread in combinations_with_replacement(width, k + 1)]


def _configuration(layered: LayeredInstance, i: int, code: int, bits: int) -> Configuration:
    # A demand code holds ``bits`` bits per vertex, the first vertex highest:
    # larger codes are larger demand vectors, and adding codes adds units.
    width, mask = len(layered.layers[i]), (1 << bits) - 1
    return Configuration(i, tuple(code >> bits * (width - 1 - p) & mask for p in range(width)))


def _pair_rows(edges, weights, k: int, pos: dict[int, int]
               ) -> dict[int, list[tuple[int, list[int]]]]:
    # Per tail position, (head position, row) pairs: row[f] is the least weight
    # that lets the tail->head edges carry f units (f <= k+1, as far as
    # they can).  ``weights`` is aligned with ``edges``.
    groups: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    for e, w in zip(edges, weights):
        safe, faulty = groups.setdefault((e.tail, e.head), ([], []))
        (faulty if e.faulty else safe).append(w)
    rows: dict[int, list[tuple[int, list[int]]]] = {}
    for (tail, head), (safe, faulty) in groups.items():
        sums = [0, *accumulate(sorted(faulty))][:k + 2]  # sums[f]: the f cheapest
        row = [min(safe + sums[f:f + 1]) for f in range(k + 2 if safe else len(sums))]
        rows.setdefault(pos[tail], []).append((pos[head], row))
    return rows


def _advance(rows: dict[int, list[tuple[int, list[int]]]], starts: dict[int, int],
             tail_width: int, head_width: int, bits: int) -> dict[int, tuple[int, int]]:
    # One staged transition from all starts (tail code -> base cost) at once.
    # A state codes its rest of tail units above the heads placed so far;
    # bucket p holds those whose first tail is p (the last: none left), and
    # in ascending p each splits tail p's units over its (head, row) pairs.
    # Equal states keep the least cost * big + big - 1 - start, the least
    # (cost, start spread), which a common future cost does not reorder.
    shift, big, mask = bits * head_width, 1 << bits * tail_width, (1 << bits) - 1
    buckets: list[dict[int, int]] = [{} for _ in range(tail_width + 1)]
    for start, base in starts.items():
        first = tail_width - 1 - (start.bit_length() - 1) // bits
        buckets[first][start << shift] = base * big + big - 1 - start
    for p in range(tail_width):
        at, splits = shift + bits * (tail_width - 1 - p), {}
        for state, value in buckets[p].items():
            units = state >> at & mask
            state -= units << at
            if units not in splits:
                made = [(0, 0, 0)]  # (units, head code, cost)
                for h, row in rows.get(p, []):
                    one = 1 << bits * (head_width - 1 - h)
                    made = [(n + x, code + x * one, cost + row[x]) for n, code, cost in made
                            for x in range(min(units - n, len(row) - 1) + 1)]
                splits[units] = [(code, cost * big) for n, code, cost in made if n == units]
            grown = buckets[tail_width - 1 - ((state >> shift).bit_length() - 1) // bits]
            for taken, extra in splits[units]:
                if state + taken not in grown or value + extra < grown[state + taken]:
                    grown[state + taken] = value + extra
    return {heads: (value // big, big - 1 - value % big) for heads, value in buckets[-1].items()}


def link_cost(layered: LayeredInstance, d1: Configuration, d2: Configuration,
              k: int) -> Link | None:
    """Cheapest edge subset transporting d1's demand to d2, or ``None``.

    The candidate edges run from d1's support to d2's support.  The cost
    ``C*`` is the least sum of per-pair costs (``f`` units over a pair
    cost its cheapest safe edge or its ``f`` cheapest faulty edges) over
    the splits of d1's units that deliver d2.  The realizing set is the
    one of cost ``C*`` with the least sum of ``2^id``: the smallest
    largest id, then the smallest next largest, and so on.  It is always
    inclusion-minimal.  ``None`` means no subset works (the link is
    absent).
    """
    supp1, supp2 = d1.support(layered), d2.support(layered)
    edges = [e for e in layered.edges_in_layer(d1.layer)
             if e.tail in supp1 and e.head in supp2]
    pos = {v: p for supp in (supp1, supp2) for p, v in enumerate(supp)}
    need1, need2 = [d for d in d1.demand if d], [d for d in d2.demand if d]
    bits = max(sum(need1), sum(need2), 1).bit_length()
    start, target = (sum(d << bits * p for p, d in enumerate(reversed(need)))
                     for need in (need1, need2))
    # Candidate j (in id order) weighs w * 2^E + 2^j.  Each edge sits in
    # one tail-head pair, so a transport's packed weight is its cost over
    # the bits of its edges, without carries, and one optimum is least.
    low = len(edges)
    rows = _pair_rows(edges, [e.w << low | 1 << j for j, e in enumerate(edges)], k, pos)
    reached = _advance(rows, {start: 0}, len(need1), len(need2), bits).get(target)
    if reached is None:
        return None
    packed = reached[0]
    return Link(d1, d2, packed >> low,
                frozenset(e.id for j, e in enumerate(edges) if packed >> j & 1))


def _route_tables(layered: LayeredInstance, k: int) -> list[dict[int, tuple[int, int]]]:
    # best[i]: demand code over layer i -> (cost, parent code over layer
    # i-1), least in cost, then first in descending demand order.
    bits = (k + 1).bit_length()
    pos = {v: p for layer in layered.layers for p, v in enumerate(layer)}
    best = [{k + 1: (0, 0)}]
    for i in range(len(layered.layers) - 1):
        edges = layered.edges_in_layer(i)
        rows = _pair_rows(edges, [e.w for e in edges], k, pos)
        best.append(_advance(rows, {code: cost for code, (cost, _) in best[i].items()},
                             len(layered.layers[i]), len(layered.layers[i + 1]), bits))
    return best


def solve_kftp_dag(instance: Instance, cap: int = DEFAULT_CONFIG_CAP) -> Solution:
    """Optimal solution on a directed acyclic instance.

    Runs a forward dynamic program over layer configurations: per layer,
    one staged transition splits all configurations' units, tail by tail,
    over the per-pair cost table, merging equal partial states, and ties
    keep the parent first in descending demand order.  It layerizes and
    checks the cap first, so the first two errors below mean that the
    solver does not apply.

    Raises:
        NotADag: not a DAG.
        ConfigurationSpaceTooLarge: configuration cap exceeded.
        Infeasible: the terminals cannot be connected robustly.
    """
    layered = layerize(instance)
    k = instance.k
    _check_budget(layered, k, cap)
    if not layered.edges and instance.s != instance.t:
        raise Infeasible("terminals are disconnected")
    best, bits = _route_tables(layered, k), (k + 1).bit_length()
    code = k + 1  # all units at t
    if code not in best[-1]:
        raise Infeasible("no robust route through the layered graph")
    layered_ids: set[int] = set()
    for i in range(len(best) - 1, 0, -1):
        cost, parent = best[i][code]
        link = link_cost(layered, _configuration(layered, i - 1, parent, bits),
                         _configuration(layered, i, code, bits), k)
        if link is None or link.cost != cost - best[i - 1][parent][0]:
            raise SolverCheckFailed("dag link cost disagrees with its table")
        layered_ids |= link.realizing
        code = parent
    origins = {layered.edges[lid].origin for lid in layered_ids}
    return _checked_solution(instance, origins, OPTIMAL, "dag")
