"""Exact polynomial solver for the single-failure case (k = 1).

Any minimal solution that survives one faulty-edge failure is a union of
two s-t routes that agree on the order of their shared vertices and
share no faulty edge.  The solver therefore gives every vertex pair a
link length, the cheaper of (a) a shortest path using safe edges only
and (b) a cheapest pair of routes carrying two flow units, finds a
shortest s-t path in the complete "link" graph over those lengths and
expands each chosen link back into concrete edges.  Link lengths are
computed on demand by a goal-directed meta search: A* on ``d2(v -> t)``,
the distance to ``t`` over every edge with each faulty edge's weight
doubled, settles only vertices whose distance plus ``d2`` to ``t`` is
at most the route's length, and reads no link into a vertex cut off
from t.

That search is lazy.  Settling a source reads only a lower bound on
each link, the smaller of its safe distance and its two-route cost
``c2``, which one Dijkstra pass over the source's shortest-path tree
gives for every target (Suurballe & Tarjan, "A quick method for finding
shortest pairs of disjoint paths", Networks 14, 1984) and which here is
the flow link's exact length.  A safe path no longer than ``c2`` wins
without a flow; any other link runs its flow, which gives its edges,
only when its bound reaches the top of the search's queue, and the flow
network is built for the first such flow.  The bounds are exact, so
every answer is the one the full table gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    safe path wins ties.  A source's safe shortest-path tree and its
    ``c2`` row are built when a pair from it is first read; a pair's
    flow only when ``c2`` is below its safe distance, and ``net`` with
    the first flow.  ``potential`` is ``d2(v -> t)``, which doubles
    faulty edges and lies below every link.

    The bound is ``c2``, the min cost of 2 unit routes from u to v,
    which ``shortest._two_route_costs`` gives for every v of a source in
    one pass (Suurballe & Tarjan 1984): a flow link weighs at least
    ``c2``.  With 2 units the weight is the flow's cost and ``c2``, on
    the same capacities, equals it.  With ``units`` > 2 the weight is
    the support's, where no edge carries more than ``units - 1`` units
    (the safe capacity; an undirected edge is never loaded both ways):
    every u-v cut then crosses 2 or more support edges, so the support
    holds 2 edge-disjoint u-v routes (Menger) and weighs at least their
    cost, ``c2`` with every capacity 1.  ``bound`` runs no flow, so the
    lazy meta search can put ``length`` off.  Neither reads ``limit``: a
    link entry that pops with v unsettled keys no longer than v's label,
    so its bound is within ``limit`` and there is no flow to skip.
    """

    def __init__(self, instance: Instance, safe_cap: int, units: int, weight):
        self.instance, self.units, self.weight = instance, units, weight
        self.safe_cap = safe_cap
        safe = [eid for eid, faulty in enumerate(instance._faulty) if not faulty]
        self.safe_adj = adjacency(instance, safe)
        self.all_adj = adjacency(instance)
        self.all_radj = adjacency(instance, reverse=True) if instance.directed else self.all_adj
        # Tree edges that may carry both units of a 2-unit link.
        self.doubled = frozenset(safe) if units == 2 and safe_cap >= 2 else frozenset()
        self.trees: dict[int, tuple] = {}  # u -> safe (dist, via)
        self.two_route: dict[int, list] = {}  # u -> c2 row
        self.entries: dict[tuple[int, int], tuple] = {}

    @cached_property
    def net(self) -> flow.FlowNetwork:
        """The flow network, built when ``entry`` runs the first flow."""
        return flow.edge_network(self.instance, self.safe_cap)

    def potential(self) -> list:
        """``d2(v -> t)``, the distance to t with every faulty edge's
        weight doubled: a consistent potential, as no link from u to v is
        below the metric ``d2(u, v)``.  A safe link is a path of safe
        edges, which ``d2`` does not double.  A flow link's support holds
        two u-v routes P1 and P2, as ``c2`` does, and ``c(P1) + c(P2) >=
        2 * min c(Pi) >= d2(u, v)``, for ``bipath``'s flow cost and for
        ``approx_k``'s support weight alike.  ``d2`` is at least the
        distance over all edges, and infinite exactly where that is.
        """
        faulty = self.instance._faulty
        doubled = [[(x, w << faulty[e], e) for x, w, e in row] for row in self.all_radj]
        return _shortest_tree(doubled, self.instance.t)[0]

    def _tree(self, u: int) -> tuple:
        tree = self.trees.get(u)
        if tree is None:
            tree = self.trees[u] = _shortest_tree(self.safe_adj, u)[:2]
        return tree

    def _c2(self, u: int) -> list:
        row = self.two_route.get(u)
        if row is None:
            row = self.two_route[u] = _two_route_costs(
                self.all_adj, self.all_radj, *_shortest_tree(self.all_adj, u), u,
                self.doubled)
        return row

    def entry(self, u: int, v: int) -> tuple:
        """``(pair distance, flow or None)`` of link u -> v.

        Raises:
            SolverCheckFailed: the flow link weighs less than ``c2``.
        """
        entry = self.entries.get((u, v))
        if entry is None:
            try:
                res = flow.min_cost_flow(self.net, u, v, self.units)
                pair_d = self.weight(self.net, res)
            except Infeasible:
                res, pair_d = None, INF
            if pair_d < self._c2(u)[v]:
                raise SolverCheckFailed(
                    f"link {u}->{v} weighs {pair_d}, below its bound")
            entry = self.entries[(u, v)] = (pair_d, res)
        return entry

    def bound(self, u: int, v: int, limit=INF):
        """A lower bound on the link's length: ``min(safe distance, c2)``."""
        return min(self._tree(u)[0][v], self._c2(u)[v])

    def length(self, u: int, v: int, limit=INF):
        """The link's length, with a flow only if ``c2`` is below the safe distance."""
        safe_d = self._tree(u)[0][v]
        if safe_d <= self._c2(u)[v]:
            return safe_d
        return min(safe_d, self.entry(u, v)[0])  # a tie keeps the safe path

    def witness(self, u: int, v: int) -> tuple[str, tuple[int, ...]]:
        """Which case realizes a finite link, and its edge ids."""
        dist, via = self._tree(u)
        if self.length(u, v) < dist[v]:
            return TWO_ROUTE, _support(self.net, self.entry(u, v)[1])
        return SAFE_PATH, path_edges(self.instance, via, u, v)


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
    pair_dist = [[links.entry(u, v)[0] for v in n] for u in n]
    dist = [[links.length(u, v) for v in n] for u in n]
    witness = {(u, v): links.witness(u, v)
               for u in n for v in n if dist[u][v] != INF}
    return LinkLengths([links._tree(u)[0] for u in n], pair_dist, dist, witness)


def solve_1ftp(instance: Instance) -> Solution:
    """Minimum-cost edge set surviving any single faulty-edge failure.

    Raises:
        WrongBudget: the instance budget is not 1.
        Infeasible: some single failure disconnects the terminals in
            every subgraph.
    """
    links = _one_failure_links(instance)
    total, seq = meta_shortest_path(instance.vertex_count, links.length,
                                    instance.s, instance.t, links.potential(),
                                    bound=links.bound)
    if total == INF:
        raise Infeasible("no single-failure-tolerant route exists")
    chosen: set[int] = set()
    for u, v in zip(seq, seq[1:]):
        chosen.update(links.witness(u, v)[1])
    return _checked_solution(instance, chosen, OPTIMAL, "bipath")
