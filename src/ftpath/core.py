"""Instance model, validation, failure scenarios, and the feasibility check.

An instance is a weighted multigraph (directed or undirected) with two
terminals ``s`` and ``t``, a set of *faulty* edges, and a failure budget
``k``.  A candidate edge set is feasible when ``s`` stays connected to
``t`` after the removal of any set of at most ``k`` faulty edges.  Every
integral solver returns its :class:`Solution` through one constructor here,
which raises :class:`SolverCheckFailed` unless :func:`is_feasible` accepts it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations, compress, repeat
from operator import itemgetter
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
    "NotApplicable",
    "CapExceeded",
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
    "infeasibility_witness",
    "enumerate_scenarios",
    "scenario_count",
]

# Edge costs and every partial sum of costs must stay below 2**63 so that
# all solver arithmetic stays in machine-friendly integer range.
MAX_COST = 2**63 - 1

DEFAULT_SCENARIO_CAP = 10**6


class FTPError(Exception):
    """Base class for all errors raised by this package.

    Each one derives from one kind: ``ValidationError``, ``NotApplicable``,
    ``CapExceeded``, ``Infeasible`` or ``SolverCheckFailed``.
    """


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


class NotApplicable(FTPError):
    """This solver does not handle this instance; another one may."""


class CapExceeded(FTPError):
    """A size cap refused the instance before the work began."""


class ScenarioSpaceTooLarge(CapExceeded):
    """The failure-scenario space exceeds the configured enumeration cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"scenario space has {count} members, cap is {cap}")
        self.count = count
        self.cap = cap


class Infeasible(FTPError):
    """No edge set can keep the terminals connected under every failure.

    Solvers raise this.  ``max_achievable`` is set when a flow of a
    given amount does not fit and carries the true maximum.
    """

    def __init__(self, message: str = "instance is infeasible", *,
                 max_achievable: int | None = None):
        super().__init__(message)
        self.max_achievable = max_achievable


class SolverCheckFailed(FTPError):
    """A solver produced an answer that failed its own output check.

    This is a bug in the package, never a property of the input.
    """


# Solution status values.
OPTIMAL = "optimal"
RATIO_BOUNDED = "ratio-bounded"
HEURISTIC = "heuristic"  # reserved: no solver returns it yet


@dataclass(frozen=True, slots=True)
class Edge:
    """One selectable edge: ``u -> v`` when directed, ``{u, v}`` otherwise.

    Slotted, so it has no ``__dict__``: use ``dataclasses.asdict``, not ``vars``.
    """

    id: int
    u: int
    v: int
    w: int
    faulty: bool


@dataclass(frozen=True)
class Instance:
    """A fault-tolerant connection instance.

    ``edges[i].id == i`` always holds after validation.  Instances are
    immutable and safe to share across threads.  The parsers and
    :func:`build_instance` store private ``u``, ``v``, ``w`` and
    ``faulty`` columns instead of ``edges``, which is built from them on
    first read and cached; an instance made with ``edges`` derives its
    columns on first read.  Equality, hashing and ``repr`` read
    ``edges``, so both forms behave alike.
    """

    directed: bool
    vertex_count: int
    edges: tuple[Edge, ...]
    s: int
    t: int
    k: int

    def __getattr__(self, name: str):
        # Runs only for a name missing from __dict__: ``edges`` of a
        # columnar instance, or the columns of one made with ``edges``.
        # Any other name, dunders included, is missing, so that pickle
        # and copy probe an empty instance safely.
        held = self.__dict__
        if name == "edges" and "_u" in held:
            built = _edges_from(held["_u"], held["_v"], held["_w"], held["_faulty"])
            held["edges"] = built
            return built
        if name in _COLUMNS and "edges" in held:
            edges = held["edges"]
            for column, attr in zip(_COLUMNS, ("u", "v", "w", "faulty")):
                held[column] = tuple(getattr(e, attr) for e in edges)
            return held[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def faulty_ids(self) -> frozenset[int]:
        return frozenset(compress(range(len(self._faulty)), self._faulty))

    def edge(self, edge_id: int) -> Edge:
        return self.edges[edge_id]

    def with_terminals(self, s: int, t: int) -> "Instance":
        """Same graph and budget, different terminals."""
        return self._with(s=s, t=t)

    def with_budget(self, k: int) -> "Instance":
        return self._with(k=k)

    def _with(self, **changes) -> "Instance":
        # A copy of __dict__, so the edges or columns it holds are shared.
        other = object.__new__(Instance)
        other.__dict__.update(self.__dict__, **changes)
        return other


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
    """Build and validate an instance from ``(u, v, w, faulty)`` rows.

    Edge ids are assigned by position.  Raises a :class:`ValidationError`
    subclass if the result is malformed: :class:`BadParameters` for a row
    without exactly four fields, or a ``vertex_count`` or ``k`` that is
    not an int.  The rows are transposed into u, v, w and faulty columns
    for the one column builder, which the document parsers call directly
    and which checks the plain-int case whole columns at a time.
    """
    rows = edges if type(edges) in (list, tuple) else list(edges)
    if not set(map(type, rows)) <= {tuple, list}:
        rows = list(map(tuple, rows))
    if set(map(len, rows)) - {4}:
        pos = next(pos for pos, row in enumerate(rows) if len(row) != 4)
        raise BadParameters(f"edge row {pos} has {len(rows[pos])} fields, not 4")
    return _from_columns(directed, vertex_count, s, t, k,
                         *(tuple(map(itemgetter(i), rows)) for i in range(4)))


_COLUMNS = ("_u", "_v", "_w", "_faulty")
_SETTERS = tuple(Edge.__dict__[name].__set__ for name in ("id", "u", "v", "w", "faulty"))
_drain = deque(maxlen=0).extend
# The ints every built edge takes its id from, so that the edges of all
# instances share one int per id.  Grown by replacement, never in place.
_IDS: tuple[int, ...] = ()


def _from_columns(directed: bool, vertex_count: int, s: int, t: int, k: int,
                  us: Iterable, vs: Iterable, ws: Iterable, faulty: Iterable) -> Instance:
    # The one builder from columns, which have one entry per edge; the
    # edges are built only when read.
    inst = object.__new__(Instance)
    inst.__dict__.update(directed=bool(directed), vertex_count=vertex_count, s=s, t=t, k=k,
                         _u=tuple(us), _v=tuple(vs), _w=tuple(ws),
                         _faulty=tuple(map(bool, faulty)))
    _validate(inst, (inst._u, inst._v, inst._w))
    return inst


def _edges_from(us: tuple, vs: tuple, ws: tuple, faulty: tuple) -> tuple[Edge, ...]:
    # Each Edge field is set through its slot descriptor's ``__set__``,
    # one column at a time, which skips the dataclass ``__init__`` and its
    # frozen ``__setattr__`` but gives equal objects.
    global _IDS
    ids = _IDS
    if len(ids) < len(us):
        ids = _IDS = ids + tuple(range(len(ids), len(us)))
    built = list(map(object.__new__, repeat(Edge, len(us))))
    for setter, column in zip(_SETTERS, (ids, us, vs, ws, faulty)):
        _drain(map(setter, built, column))
    return tuple(built)


def validate(instance: Instance) -> None:
    """Check every structural invariant; raise on the first violation.

    Raises:
        DuplicateEdgeId: ids are not exactly ``0 .. len(edges)-1`` in order.
        BadEndpoint: an endpoint or terminal is a bool or outside ``[0, vertex_count)``.
        NegativeWeight: an edge has a negative or non-integer cost.
        OverflowRisk: a cost or the total cost does not fit in 63 bits.
        BadParameters: ``vertex_count`` or ``k`` is not an int (a bool is
            not one), ``vertex_count < 1`` or ``k < 0``.
    """
    _validate(instance, None)


def _validate(instance: Instance, columns: tuple | None) -> None:
    # ``columns`` holds the u, v and w columns of edges whose ids are
    # their positions.  If every value there is a plain int in range, the
    # edges are valid; otherwise the loop finds the first violation.
    for name, value in (("vertex_count", instance.vertex_count), ("k", instance.k)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise BadParameters(f"{name} must be an int, got {value!r}")
    if instance.vertex_count < 1:
        raise BadParameters("vertex_count must be at least 1")
    if instance.k < 0:
        raise BadParameters(f"failure budget k={instance.k} is negative")
    for name, v in (("s", instance.s), ("t", instance.t)):
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < instance.vertex_count:
            raise BadEndpoint(f"terminal {name}={v} is not a vertex id")
    if columns is not None and columns[0]:
        us, vs, ws = columns
        if (set(map(type, us)) | set(map(type, vs)) | set(map(type, ws)) == {int}
                and 0 <= min(us) and 0 <= min(vs) and 0 <= min(ws)
                and max(max(us), max(vs)) < instance.vertex_count
                and sum(ws) <= MAX_COST):
            return
    total = 0
    for pos, e in enumerate(instance.edges):
        if e.id != pos:
            raise DuplicateEdgeId(
                f"edge at position {pos} has id {e.id}; ids must be 0..m-1 in order")
        for endpoint in (e.u, e.v):
            if (isinstance(endpoint, bool) or not isinstance(endpoint, int)
                    or not 0 <= endpoint < instance.vertex_count):
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
    m = len(instance._u)
    # Plain in-range ints are accepted whole-set; otherwise the loop
    # names the first bad id.
    if set(map(type, ids)) == {int} and 0 <= min(ids) and max(ids) < m:
        return ids
    for eid in ids:
        if isinstance(eid, bool) or not isinstance(eid, int) or not 0 <= eid < m:
            raise UnknownEdgeId(f"candidate references unknown edge id {eid!r}")
    return ids


def is_feasible(instance: Instance, candidate: Iterable[int]) -> bool:
    """Decide feasibility of a candidate edge set in polynomial time.

    The candidate is feasible iff for every failure set ``F`` of at most
    ``k`` faulty edges, ``candidate - F`` still contains an ``s``-``t``
    path, that is iff :func:`infeasibility_witness` finds no failing
    scenario; it runs one max-flow computation.
    """
    return infeasibility_witness(instance, candidate) is None


def _checked_solution(instance: Instance, edges: Iterable[int], status: str,
                      solver: str, ratio_bound: tuple[int, int] | None = None) -> Solution:
    # The one way an integral solver returns its edge set, checked by an
    # ``if`` (not an assert) so that ``python -O`` keeps the check.
    ids = frozenset(edges)
    if not is_feasible(instance, ids):
        raise SolverCheckFailed(f"{solver} returned an infeasible edge set")
    return Solution(ids, sum(map(instance._w.__getitem__, ids)), status, ratio_bound)


def infeasibility_witness(instance: Instance,
                          candidate: Iterable[int]) -> frozenset[int] | None:
    """The failure scenario a candidate edge set does not survive, or ``None``.

    The scenario is a set of at most ``k`` faulty candidate edges whose
    removal leaves no ``s``-``t`` path in the candidate.  By
    max-flow/min-cut, none exists iff the max ``s``-``t`` flow through
    the candidate with capacity 1 on faulty edges and ``k+1`` on safe
    edges is at least ``k+1``.  Otherwise every minimum cut has capacity
    at most ``k``, so it crosses faulty edges only, and the edges leaving
    the residual s side are the returned scenario.

    The flow runs in ``flow._residual_flow`` on arrays built straight
    from the candidate's columns: arc ``2i`` is the i-th non-loop
    candidate edge, ``u -> v``, and arc ``2i + 1`` its residual twin,
    ``v -> u``, with capacity 0 when the instance is directed and the
    edge's own otherwise, so one pair carries an undirected edge either
    way within one capacity budget.  Every maximum flow leaves the same
    residual s side, the smallest source side of a minimum cut, and a
    cut's capacity is the same here as in any network that models an
    undirected edge by two opposite arcs or gives safe edges more than
    ``k``; so the scenario does not depend on those choices.
    """
    from . import flow

    ids = check_candidate(instance, candidate)
    s, t, k = instance.s, instance.t, instance.k
    if s == t:
        return None
    us, vs, faulty = instance._u, instance._v, instance._faulty
    edges = [eid for eid in ids if us[eid] != vs[eid]]
    tails, heads = [us[eid] for eid in edges], [vs[eid] for eid in edges]
    caps = [1 if faulty[eid] else k + 1 for eid in edges]
    count = 2 * len(edges)
    head, tail, cap = [0] * count, [0] * count, [0] * count
    head[::2] = tail[1::2] = heads
    head[1::2] = tail[::2] = tails
    cap[::2] = caps
    if not instance.directed:
        cap[1::2] = caps
    out: list[list[int]] = [[] for _ in range(instance.vertex_count)]
    for a, u in enumerate(tail):
        out[u].append(a)
    side = flow._residual_flow(out, head, cap, s, t, k + 1)[1]
    if side is None:
        return None
    inside = set(side)
    if instance.directed:
        return frozenset(eid for eid, u, v in zip(edges, tails, heads)
                         if u in inside and v not in inside)
    return frozenset(eid for eid, u, v in zip(edges, tails, heads)
                     if (u in inside) != (v in inside))


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
              reverse: bool = False) -> list[list[tuple[int, int, int]]]:
    """Neighbour lists ``vertex -> [(neighbour, weight, edge id), ...]``.

    Lists follow edge-id order and skip self-loops.  An undirected edge
    appears from both ends; ``reverse`` flips directed arcs (for backward
    searches).
    """
    edges, directed = instance.edges, instance.directed
    ids = range(len(edges)) if edge_ids is None else sorted(edge_ids)
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(instance.vertex_count)]
    for eid in ids:
        e = edges[eid]
        u, v = (e.v, e.u) if reverse and directed else (e.u, e.v)
        if u != v:
            adj[u].append((v, e.w, eid))
            if not directed:
                adj[v].append((u, e.w, eid))
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
        for v, _, _ in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen
