"""Brute-force ground truth for small instances.

Feasibility is decided by explicitly enumerating failure scenarios and
running a graph search per scenario -- deliberately independent of the
flow-based checker in :mod:`ftpath.core`, so the two can validate each
other.  The optimum is found by enumerating candidate edge subsets in
increasing cost order and stopping at the first feasible one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .core import (DEFAULT_SCENARIO_CAP, OPTIMAL, CapExceeded, Instance,
                   ScenarioSpaceTooLarge, Solution, check_candidate,
                   enumerate_scenarios)

__all__ = ["OracleResult", "InstanceTooLargeForOracle",
           "brute_force_feasible", "brute_force_opt"]

DEFAULT_EDGE_CAP = 20


class InstanceTooLargeForOracle(CapExceeded):
    """The instance exceeds the subset-enumeration cap."""


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive-search outcome.

    ``best`` is ``None`` when the instance is infeasible.  Among all
    minimum-cost feasible subsets, ``best.edges`` is the one whose sorted
    id tuple is lexicographically smallest.  ``explored`` counts the
    candidate subsets examined.
    """

    best: Solution | None
    explored: int


def _build_adjacency(instance: Instance, ids: Iterable[int]) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(instance.vertex_count)]
    us, vs = instance._u, instance._v
    for eid in ids:
        adj[us[eid]].append((vs[eid], eid))
        if not instance.directed:
            adj[vs[eid]].append((us[eid], eid))
    return adj


def _connected(adj: list[list[tuple[int, int]]], s: int, t: int, banned) -> bool:
    # BFS from s skipping banned edge ids, early exit at t.
    if s == t:
        return True
    seen = [False] * len(adj)
    seen[s] = True
    stack = [s]
    while stack:
        u = stack.pop()
        for v, eid in adj[u]:
            if eid in banned or seen[v]:
                continue
            if v == t:
                return True
            seen[v] = True
            stack.append(v)
    return False


def brute_force_feasible(instance: Instance, candidate: Iterable[int],
                         cap: int = DEFAULT_SCENARIO_CAP) -> bool:
    """Check every failure scenario explicitly against the candidate."""
    ids = check_candidate(instance, candidate)
    if instance.s == instance.t:
        return True
    adj = _build_adjacency(instance, sorted(ids))
    for scenario in enumerate_scenarios(instance, cap):
        if not _connected(adj, instance.s, instance.t, scenario.failed):
            return False
    return True


def _feasible_maximal(instance: Instance, ids: tuple[int, ...],
                      cap: int) -> bool:
    # Survival is monotone in the failure set, so only maximal failure
    # sets inside the candidate need checking.
    faulty_in = [eid for eid in ids if instance._faulty[eid]]
    size = min(instance.k, len(faulty_in))
    if math.comb(len(faulty_in), size) > cap:
        raise ScenarioSpaceTooLarge(math.comb(len(faulty_in), size), cap)
    adj = _build_adjacency(instance, ids)
    s, t = instance.s, instance.t
    for failed in combinations(faulty_in, size):
        if not _connected(adj, s, t, failed):
            return False
    return True


def brute_force_opt(instance: Instance, *, edge_cap: int = DEFAULT_EDGE_CAP,
                    scenario_cap: int = DEFAULT_SCENARIO_CAP) -> OracleResult:
    """Exact optimum by subset enumeration in increasing cost order.

    Candidate subsets are drawn from a heap keyed by (total cost, sorted
    id tuple), so the first feasible candidate is the optimum and ties
    resolve to the lexicographically smallest edge-id set.  Infeasible
    instances are recognized upfront from the full edge set.

    Raises:
        InstanceTooLargeForOracle: more than ``edge_cap`` edges.
        ScenarioSpaceTooLarge: too many failure sets to check.
    """
    m = len(instance._u)
    if m > edge_cap:
        raise InstanceTooLargeForOracle(f"{m} edges exceed the cap of {edge_cap}")
    if instance.s == instance.t:
        return OracleResult(Solution(frozenset(), 0, OPTIMAL), explored=1)
    all_ids = tuple(range(m))
    if not _feasible_maximal(instance, all_ids, scenario_cap):
        return OracleResult(None, explored=1)

    k = instance.k
    # Edges sorted by (cost, id); subsets are generated over positions in
    # this order, each subset exactly once.
    order = sorted(range(m), key=lambda eid: (instance._w[eid], eid))
    costs = [instance._w[eid] for eid in order]

    def key(positions: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        total = sum(costs[p] for p in positions)
        return total, tuple(sorted(order[p] for p in positions))

    heap: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = [(0, (), ())]
    explored = 0
    while heap:
        total, ids, positions = heapq.heappop(heap)
        explored += 1
        # An all-faulty candidate with at most k edges can never survive
        # its own worst failure set; skip the scenario sweep for those.
        n_safe = sum(1 for eid in ids if not instance._faulty[eid])
        plausible = bool(ids) and (n_safe > 0 or len(ids) > k)
        if plausible and _feasible_maximal(instance, ids, scenario_cap):
            return OracleResult(Solution(frozenset(ids), total, OPTIMAL), explored)
        # Children: extend by the next position, or bump the last one.
        last = positions[-1] if positions else -1
        if last + 1 < m:
            child = positions + (last + 1,)
            heapq.heappush(heap, (*key(child), child))
            if positions:
                sibling = positions[:-1] + (last + 1,)
                heapq.heappush(heap, (*key(sibling), sibling))
    return OracleResult(None, explored)
