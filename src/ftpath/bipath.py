"""Exact polynomial solver for the single-failure case (k = 1).

Any minimal solution that survives one faulty-edge failure is a union of
two s-t routes that agree on the order of their shared vertices and
share no faulty edge.  The solver therefore gives every vertex pair a
link length, the cheaper of (a) a shortest path using safe edges only
and (b) a cheapest pair of routes carrying two flow units, finds a
shortest s-t path in the complete "link" graph over those lengths and
expands each chosen link back into concrete edges.  Link lengths are
computed on first read, so only the links leaving vertices that the
meta shortest path settles before ``t`` are ever computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import flow
from .core import (FTPError, Infeasible, Instance, Solution, OPTIMAL,
                   SolverCheckFailed, is_feasible)
# safe_subgraph_distances is not called here; perfbench's tracer wraps it.
from .shortest import (INF, dijkstra_tree, meta_shortest_path, path_edges,
                       safe_subgraph_distances)

__all__ = ["WrongBudget", "LinkLengths", "link_lengths", "solve_1ftp"]

SAFE_PATH = "safe-path"
TWO_ROUTE = "two-route"


class WrongBudget(FTPError):
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

    ``weight(net, result)`` gives the length of a pair's flow link.  A
    pair's flow, and the safe shortest-path tree of its source, are
    computed when the pair is first read; a safe path wins ties.
    """

    def __init__(self, instance: Instance, safe_cap: int, units: int, weight):
        self.instance, self.units, self.weight = instance, units, weight
        self.net = flow.edge_network(instance, safe_cap)
        self.safe_edges = [e.id for e in instance.edges if not e.faulty]
        self.trees: dict[int, tuple[list, list]] = {}  # u -> (dist, via)
        self.entries: dict[tuple[int, int], tuple] = {}

    def entry(self, u: int, v: int) -> tuple:
        """``(safe distance, pair distance, flow or None)`` of link u -> v."""
        entry = self.entries.get((u, v))
        if entry is None:
            tree = self.trees.get(u)
            if tree is None:
                tree = self.trees[u] = dijkstra_tree(self.instance, u, self.safe_edges)
            res, pair_d = None, 0
            if u != v:
                try:
                    res = flow.min_cost_flow(self.net, u, v, self.units)
                    pair_d = self.weight(self.net, res)
                except Infeasible:
                    pair_d = INF
            entry = self.entries[(u, v)] = (tree[0][v], pair_d, res)
        return entry

    def length(self, u: int, v: int):
        safe_d, pair_d, _ = self.entry(u, v)
        return safe_d if safe_d <= pair_d else pair_d

    def witness(self, u: int, v: int) -> tuple[str, tuple[int, ...]]:
        """Which case realizes a finite link, and its edge ids."""
        safe_d, pair_d, res = self.entry(u, v)
        if safe_d <= pair_d:
            return SAFE_PATH, path_edges(self.instance, self.trees[u][1], u, v)
        return TWO_ROUTE, _support(self.net, res)


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
    if instance.s == instance.t:
        return Solution(frozenset(), 0, OPTIMAL)
    total, seq = meta_shortest_path(instance.vertex_count, links.length,
                                    instance.s, instance.t)
    if total == INF:
        raise Infeasible("no single-failure-tolerant route exists")
    chosen: set[int] = set()
    for u, v in zip(seq, seq[1:]):
        chosen.update(links.witness(u, v)[1])
    cost = sum(instance.edges[eid].w for eid in chosen)
    solution = Solution(frozenset(chosen), cost, OPTIMAL)
    if not is_feasible(instance, solution.edges):
        raise SolverCheckFailed("bipath returned an infeasible edge set")
    return solution
