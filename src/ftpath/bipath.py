"""Exact polynomial solver for the single-failure case (k = 1).

Any minimal solution that survives one faulty-edge failure is a union of
two s-t routes that agree on the order of their shared vertices and
share no faulty edge.  The solver therefore gives every vertex pair a
link length, the cheaper of (a) a shortest path using safe edges only
and (b) a cheapest pair of routes carrying two flow units, finds a
shortest s-t path in the complete "link" graph over those lengths and
expands each chosen link back into concrete edges.  Link lengths are
computed on first read, so only the links leaving vertices that the
meta shortest path settles before ``t`` are ever computed.  That search
is goal-directed: A* on ``d1(v -> t)``, the distance to ``t`` over every
edge, settles only vertices whose distance plus ``d1`` to ``t`` is at
most the route's length, and reads no link into a vertex cut off from t.

Most of those reads need no flow.  The two-route cost ``c2`` of every
target of a source comes from one extra Dijkstra pass over the source's
shortest-path tree (Suurballe & Tarjan, "A quick method for finding
shortest pairs of disjoint paths", Networks 14, 1984), and here it is
the flow link's exact length.  So a safe path no longer than ``c2``
wins without a flow, and a link whose ``c2`` exceeds the slack the meta
path offers cannot relax anything.  The flow, which gives the link's
edges, runs only for a link that will relax its target.  Twice ``d1``,
the u-v distance over every edge, is a free lower bound on ``c2`` that
decides most pairs before the pass runs.  The bounds are exact, so
every answer is the one the full table gives.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import flow
# is_feasible is not called here; perfbench's tracer wraps it.
from .core import (Infeasible, Instance, NotApplicable, Solution, OPTIMAL,
                   SolverCheckFailed, _checked_solution, adjacency, is_feasible)
# safe_subgraph_distances is not called here; perfbench's tracer wraps it.
from .shortest import (INF, _shortest_tree, _two_route_costs, meta_shortest_path,
                       path_edges, safe_subgraph_distances)

__all__ = ["WrongBudget", "LinkLengths", "link_lengths", "solve_1ftp"]

SAFE_PATH = "safe-path"
TWO_ROUTE = "two-route"


class WrongBudget(NotApplicable):
    """The solver only supports the stated failure budget."""


@dataclass(frozen=True)
class LinkLengths:
    """Every pair's link length and the structure realizing it.

    The eager, public view of the table the solvers read lazily.
    ``safe_dist[u][v]``: shortest-path distance using safe edges only.
    ``pair_dist[u][v]``: weight of a min-cost flow of ``units`` units
    from u to v whose safe edges carry at most ``safe_cap`` units each
    (faulty edges one).  ``dist`` is the pointwise minimum and
    ``witness[(u, v)]``, for each finite pair, records which case won
    and the realizing edge ids.  For k=1, :func:`link_lengths` takes 2
    units, ``safe_cap`` 2 if directed and 1 if undirected (two
    edge-disjoint routes), and the flow cost as the weight;
    ``approx.approx_k`` takes k+1 units, ``safe_cap`` k and the weight
    of the flow's support.
    """

    safe_dist: list[list]
    pair_dist: list[list]
    dist: list[list]
    witness: dict[tuple[int, int], tuple[str, tuple[int, ...]]]


def _support(net: flow.FlowNetwork, result: flow.FlowResult) -> tuple[int, ...]:
    used = {net.arcs[i].origin for i, f in enumerate(result.flows) if f > 0}
    return tuple(sorted(used))


class _Links:
    """Link lengths computed on first read, see :class:`LinkLengths`.

    ``weight(net, result)`` gives the length of a pair's flow link; a
    safe path wins ties.  The safe shortest-path tree of a source, and
    its tree ``d1`` over all edges, are built when a pair from it is
    first read; a pair's flow only when a bound cannot settle the pair.

    The bound ``lb``: a flow link weighs at least ``c2``, the min cost
    of 2 unit routes from u to v, which ``shortest._two_route_costs``
    gives for every v of a source in one pass (Suurballe & Tarjan
    1984).  With 2 units the weight is the flow's cost and ``c2``, on
    the same capacities, equals it.  With ``units`` > 2 the weight is
    the support's, where no edge carries more than ``units - 1`` units
    (the safe capacity; an undirected edge is never loaded both ways):
    every u-v cut then crosses 2 or more support edges, so the support
    holds 2 edge-disjoint u-v routes (Menger) and weighs at least their
    cost, ``c2`` with every capacity 1.  Either way ``c2 >= 2 * d1``,
    which is free once ``d1`` is built, so the pass runs only for a
    source with a pair that ``2 * d1`` does not decide.  A safe distance
    of at most ``lb`` wins without a flow, and ``length`` skips the flow
    of a pair whose bound exceeds the caller's ``limit``.
    """

    def __init__(self, instance: Instance, safe_cap: int, units: int, weight):
        self.instance, self.units, self.weight = instance, units, weight
        self.net = flow.edge_network(instance, safe_cap)
        safe = [e.id for e in instance.edges if not e.faulty]
        self.safe_adj = adjacency(instance, safe)
        self.all_adj = adjacency(instance)
        self.all_radj = adjacency(instance, reverse=True) if instance.directed else self.all_adj
        # Tree edges that may carry both units of a 2-unit link.
        self.doubled = frozenset(safe) if units == 2 and safe_cap >= 2 else frozenset()
        self.trees: dict[int, tuple] = {}  # u -> (dist, via, d1, d1 via)
        self.two_route: dict[int, list] = {}  # u -> c2 row
        self.entries: dict[tuple[int, int], tuple] = {}

    def potential(self) -> list:
        """``d1(v -> t)`` of every v, a consistent potential for the links:
        each is at least ``d1(u, v)``, as safe paths and ``c2`` are."""
        return _shortest_tree(self.all_radj, self.instance.t)[0]

    def _tree(self, u: int) -> tuple:
        tree = self.trees.get(u)
        if tree is None:
            tree = self.trees[u] = (*_shortest_tree(self.safe_adj, u),
                                    *_shortest_tree(self.all_adj, u))
        return tree

    def _c2(self, u: int) -> list:
        row = self.two_route.get(u)
        if row is None:
            _, _, d1, via = self._tree(u)
            row = self.two_route[u] = _two_route_costs(
                self.all_adj, self.all_radj, d1, via, u, self.doubled)
        return row

    def _bounds(self, u: int, v: int, limit=INF) -> tuple:
        """``(safe distance, lower bound on the flow link's weight)``.

        The bound is ``2 * d1`` where that decides the pair against the
        safe distance or ``limit``, and ``c2`` otherwise.
        """
        dist, _, d1, _ = self._tree(u)
        safe_d, lb = dist[v], 2 * d1[v]
        if safe_d <= lb or lb > limit:
            return safe_d, lb
        return safe_d, self._c2(u)[v]

    def entry(self, u: int, v: int) -> tuple:
        """``(safe distance, pair distance, flow or None)`` of link u -> v.

        Raises:
            SolverCheckFailed: the flow link weighs less than ``c2``.
        """
        entry = self.entries.get((u, v))
        if entry is None:
            res, pair_d = None, 0
            if u != v:
                try:
                    res = flow.min_cost_flow(self.net, u, v, self.units)
                    pair_d = self.weight(self.net, res)
                except Infeasible:
                    pair_d = INF
                if pair_d < self._c2(u)[v]:
                    raise SolverCheckFailed(
                        f"link {u}->{v} weighs {pair_d}, below its bound")
            entry = self.entries[(u, v)] = (self._tree(u)[0][v], pair_d, res)
        return entry

    def length(self, u: int, v: int, limit=INF):
        """The link's length, or ``INF`` if a bound puts it above ``limit``."""
        safe_d, lb = self._bounds(u, v, limit)
        if safe_d <= lb:
            return safe_d
        if lb > limit:
            return INF
        _, pair_d, _ = self.entry(u, v)
        return safe_d if safe_d <= pair_d else pair_d

    def witness(self, u: int, v: int) -> tuple[str, tuple[int, ...]]:
        """Which case realizes a finite link, and its edge ids."""
        safe_d, lb = self._bounds(u, v)
        if safe_d > lb:
            _, pair_d, res = self.entry(u, v)
            if pair_d < safe_d:
                return TWO_ROUTE, _support(self.net, res)
        return SAFE_PATH, path_edges(self.instance, self.trees[u][1], u, v)


def _one_failure_links(instance: Instance) -> _Links:
    if instance.k != 1:
        raise WrongBudget(f"budget is {instance.k}, this solver requires k=1")
    # A directed safe edge may carry both units, an undirected one only
    # one, so the two routes are edge-disjoint.
    return _Links(instance, safe_cap=2 if instance.directed else 1, units=2,
                  weight=lambda net, res: res.total_cost)


def link_lengths(instance: Instance) -> LinkLengths:
    """Compute all-pairs link lengths for the single-failure solver.

    Raises:
        WrongBudget: the instance budget is not 1.
    """
    links = _one_failure_links(instance)
    n = range(instance.vertex_count)
    rows = [[links.entry(u, v) for v in n] for u in n]
    dist = [[links.length(u, v) for v in n] for u in n]
    witness = {(u, v): links.witness(u, v)
               for u in n for v in n if dist[u][v] != INF}
    return LinkLengths([[e[0] for e in row] for row in rows],
                       [[e[1] for e in row] for row in rows], dist, witness)


def solve_1ftp(instance: Instance) -> Solution:
    """Minimum-cost edge set surviving any single faulty-edge failure.

    Raises:
        WrongBudget: the instance budget is not 1.
        Infeasible: some single failure disconnects the terminals in
            every subgraph.
    """
    links = _one_failure_links(instance)
    total, seq = meta_shortest_path(instance.vertex_count, links.length,
                                    instance.s, instance.t, links.potential())
    if total == INF:
        raise Infeasible("no single-failure-tolerant route exists")
    chosen: set[int] = set()
    for u, v in zip(seq, seq[1:]):
        chosen.update(links.witness(u, v)[1])
    return _checked_solution(instance, chosen, OPTIMAL, "bipath")
