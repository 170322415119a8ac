"""Instance model, validation, failure scenarios, and the feasibility check.

An instance is a weighted multigraph (directed or undirected) with two
terminals ``s`` and ``t``, a set of *faulty* edges, and a failure budget
``k``.  A candidate edge set is feasible when ``s`` stays connected to
``t`` after the removal of any set of at most ``k`` faulty edges.  The
solvers in the sibling modules all produce :class:`Solution` values that
must pass :func:`is_feasible`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

__all__ = [
    "MAX_COST",
    "Edge",
    "Instance",
    "Scenario",
    "Solution",
    "OPTIMAL",
    "RATIO_BOUNDED",
    "HEURISTIC",
    "FTPError",
    "ValidationError",
    "DuplicateEdgeId",
    "BadEndpoint",
    "NegativeWeight",
    "OverflowRisk",
    "UnknownEdgeId",
    "BadParameters",
    "ScenarioSpaceTooLarge",
    "Infeasible",
    "SolverCheckFailed",
    "build_instance",
    "validate",
    "is_feasible",
    "enumerate_scenarios",
    "scenario_count",
]

# Edge costs and every partial sum of costs must stay below 2**63 so that
# all solver arithmetic stays in machine-friendly integer range.
MAX_COST = 2**63 - 1

DEFAULT_SCENARIO_CAP = 10**6


class FTPError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FTPError):
    """An instance, candidate set, or parameter violates its contract."""


class DuplicateEdgeId(ValidationError):
    """Edge ids must be unique and dense: edge ``i`` carries id ``i``."""


class BadEndpoint(ValidationError):
    """An edge endpoint or terminal is not a valid vertex id."""


class NegativeWeight(ValidationError):
    """Edge costs must be non-negative integers."""


class OverflowRisk(ValidationError):
    """A cost, or the sum of all costs, does not fit in 63 bits."""


class UnknownEdgeId(ValidationError):
    """A candidate set references an edge id outside the instance."""


class BadParameters(ValidationError):
    """A parameter combination is outside the supported range."""


class ScenarioSpaceTooLarge(FTPError):
    """The failure-scenario space exceeds the configured enumeration cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"scenario space has {count} members, cap is {cap}")
        self.count = count
        self.cap = cap


class Infeasible(FTPError):
    """No edge set can keep the terminals connected under every failure.

    Solvers raise this; optional attributes carry a witness when one is
    cheap to produce (a failure scenario and the cut it disconnects).
    """

    def __init__(self, message: str = "instance is infeasible", *,
                 scenario: frozenset[int] | None = None,
                 cut_side: frozenset[int] | None = None,
                 max_achievable: int | None = None):
        super().__init__(message)
        self.scenario = scenario
        self.cut_side = cut_side
        self.max_achievable = max_achievable


class SolverCheckFailed(FTPError):
    """A solver produced an answer that failed its own output check.

    This is a bug in the package, never a property of the input.
    """


# Solution status values.
OPTIMAL = "optimal"
RATIO_BOUNDED = "ratio-bounded"
HEURISTIC = "heuristic"


@dataclass(frozen=True)
class Edge:
    """One selectable edge: ``u -> v`` when directed, ``{u, v}`` otherwise."""

    id: int
    u: int
    v: int
    w: int
    faulty: bool


@dataclass(frozen=True)
class Instance:
    """A fault-tolerant connection instance.

    ``edges[i].id == i`` always holds after validation.  Instances are
    immutable and safe to share across threads.
    """

    directed: bool
    vertex_count: int
    edges: tuple[Edge, ...]
    s: int
    t: int
    k: int

    @property
    def faulty_ids(self) -> frozenset[int]:
        return frozenset(e.id for e in self.edges if e.faulty)

    def edge(self, edge_id: int) -> Edge:
        return self.edges[edge_id]

    def with_terminals(self, s: int, t: int, k: int | None = None) -> "Instance":
        """Same graph, different terminals (and optionally budget)."""
        return Instance(self.directed, self.vertex_count, self.edges,
                        s, t, self.k if k is None else k)

    def with_budget(self, k: int) -> "Instance":
        return Instance(self.directed, self.vertex_count, self.edges,
                        self.s, self.t, k)


@dataclass(frozen=True)
class Scenario:
    """A failure set: at most ``k`` faulty edge ids removed at once."""

    failed: frozenset[int]


@dataclass(frozen=True)
class Solution:
    """An edge set keeping ``s`` connected to ``t`` under every scenario.

    ``cost`` is always the sum of the weights of ``edges``.  When
    ``status`` is ``RATIO_BOUNDED``, ``ratio_bound`` gives the proven
    cost guarantee as an exact (numerator, denominator) pair.
    """

    edges: frozenset[int]
    cost: int
    status: str = OPTIMAL
    ratio_bound: tuple[int, int] | None = None


def build_instance(directed: bool, vertex_count: int, s: int, t: int, k: int,
                   edges: Iterable[tuple[int, int, int, bool]]) -> Instance:
    """Build and validate an instance from ``(u, v, w, faulty)`` tuples.

    Edge ids are assigned by position.  Raises a :class:`ValidationError`
    subclass if the result is malformed.
    """
    built = tuple(Edge(i, u, v, w, bool(f)) for i, (u, v, w, f) in enumerate(edges))
    inst = Instance(bool(directed), vertex_count, built, s, t, k)
    validate(inst)
    return inst


def validate(instance: Instance) -> None:
    """Check every structural invariant; raise on the first violation.

    Raises:
        DuplicateEdgeId: ids are not exactly ``0 .. len(edges)-1`` in order.
        BadEndpoint: an endpoint or terminal is outside ``[0, vertex_count)``.
        NegativeWeight: an edge has a negative or non-integer cost.
        OverflowRisk: a cost or the total cost does not fit in 63 bits.
        BadParameters: ``vertex_count < 1`` or ``k < 0``.
    """
    if instance.vertex_count < 1:
        raise BadParameters("vertex_count must be at least 1")
    if instance.k < 0:
        raise BadParameters(f"failure budget k={instance.k} is negative")
    for name, v in (("s", instance.s), ("t", instance.t)):
        if not isinstance(v, int) or not 0 <= v < instance.vertex_count:
            raise BadEndpoint(f"terminal {name}={v} is not a vertex id")
    total = 0
    for pos, e in enumerate(instance.edges):
        if e.id != pos:
            raise DuplicateEdgeId(
                f"edge at position {pos} has id {e.id}; ids must be 0..m-1 in order")
        for endpoint in (e.u, e.v):
            if not isinstance(endpoint, int) or not 0 <= endpoint < instance.vertex_count:
                raise BadEndpoint(f"edge {e.id} endpoint {endpoint} is not a vertex id")
        if not isinstance(e.w, int) or isinstance(e.w, bool) or e.w < 0:
            raise NegativeWeight(f"edge {e.id} has cost {e.w!r}")
        if e.w > MAX_COST:
            raise OverflowRisk(f"edge {e.id} cost {e.w} exceeds 63 bits")
        total += e.w
        if total > MAX_COST:
            raise OverflowRisk(f"running cost total overflows 63 bits at edge {e.id}")


def check_candidate(instance: Instance, candidate: Iterable[int]) -> frozenset[int]:
    """Normalize a candidate edge-id set, raising :class:`UnknownEdgeId`."""
    ids = frozenset(candidate)
    for eid in ids:
        if not isinstance(eid, int) or not 0 <= eid < len(instance.edges):
            raise UnknownEdgeId(f"candidate references unknown edge id {eid!r}")
    return ids


def is_feasible(instance: Instance, candidate: Iterable[int]) -> bool:
    """Decide feasibility of a candidate edge set in polynomial time.

    The candidate is feasible iff for every failure set ``F`` of at most
    ``k`` faulty edges, ``candidate - F`` still contains an ``s``-``t``
    path.  Equivalently (by max-flow/min-cut), the max ``s``-``t`` flow
    through the candidate with capacity 1 on faulty edges and ``k+2``
    (effectively unlimited) on safe edges is at least ``k+1``.
    """
    from . import flow

    ids = check_candidate(instance, candidate)
    if instance.s == instance.t:
        return True
    k = instance.k
    big = k + 2
    arcs = []
    for eid in sorted(ids):
        e = instance.edges[eid]
        if e.u == e.v:
            continue
        cap = 1 if e.faulty else big
        arcs.append(flow.Arc(e.u, e.v, cap, 0, e.id))
        if not instance.directed:
            arcs.append(flow.Arc(e.v, e.u, cap, 0, e.id))
    net = flow.FlowNetwork(instance.vertex_count, tuple(arcs))
    result = flow.max_flow(net, instance.s, instance.t, k + 1)
    return result.value >= k + 1


def scenario_count(instance: Instance) -> int:
    """Number of failure scenarios: sum of C(|M|, i) for i = 0..k."""
    m = len(instance.faulty_ids)
    return sum(math.comb(m, i) for i in range(min(instance.k, m) + 1))


def enumerate_scenarios(instance: Instance,
                        cap: int = DEFAULT_SCENARIO_CAP) -> Iterator[Scenario]:
    """Yield every failure scenario once, smallest sets first.

    Order is deterministic: by scenario size, then lexicographically by
    the sorted failed edge ids.  Raises :class:`ScenarioSpaceTooLarge`
    before yielding anything if the total count exceeds ``cap``.
    """
    count = scenario_count(instance)
    if count > cap:
        raise ScenarioSpaceTooLarge(count, cap)
    faulty = sorted(instance.faulty_ids)
    for size in range(min(instance.k, len(faulty)) + 1):
        for failed in combinations(faulty, size):
            yield Scenario(frozenset(failed))


def adjacency(instance: Instance, edge_ids: Iterable[int] | None = None,
              reverse: bool = False) -> list[list[tuple[int, Edge]]]:
    """Adjacency lists ``vertex -> [(neighbor, edge), ...]`` in edge-id order.

    Undirected edges appear from both endpoints.  ``reverse`` flips
    directed arcs (useful for backward searches); self-loops are kept.
    """
    ids = sorted(edge_ids) if edge_ids is not None else range(len(instance.edges))
    adj: list[list[tuple[int, Edge]]] = [[] for _ in range(instance.vertex_count)]
    for eid in ids:
        e = instance.edges[eid]
        if instance.directed:
            if reverse:
                adj[e.v].append((e.u, e))
            else:
                adj[e.u].append((e.v, e))
        else:
            adj[e.u].append((e.v, e))
            if e.u != e.v:
                adj[e.v].append((e.u, e))
    return adj


def reachable(instance: Instance, source: int,
              edge_ids: Iterable[int] | None = None,
              reverse: bool = False) -> set[int]:
    """Vertices reachable from ``source`` over the given edges (BFS)."""
    adj = adjacency(instance, edge_ids, reverse=reverse)
    seen = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        for v, _ in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen
