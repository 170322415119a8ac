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
from functools import cached_property
from itertools import combinations, compress, repeat
from operator import attrgetter, itemgetter
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

    Instances are immutable and safe to share across threads.  Their one
    stored form is four private columns, ``_u``, ``_v``, ``_w`` and
    ``_faulty`` (as bools), which every solver reads; edge ``i`` has id
    ``i``.  The parsers and :func:`build_instance` store only the
    columns, and ``edges`` is built from them on first read and cached.
    An instance made with ``edges`` derives its columns at construction
    and raises :class:`DuplicateEdgeId` unless ``edges[i].id == i``.
    Equality, hashing and ``repr`` read ``edges``, so both forms behave
    alike.
    """

    directed: bool
    vertex_count: int
    edges: tuple[Edge, ...]
    s: int
    t: int
    k: int

    def __post_init__(self):
        edges = self.edges
        for pos, e in enumerate(edges):
            if e.id != pos:
                raise DuplicateEdgeId(
                    f"edge at position {pos} has id {e.id}; ids must be 0..m-1 in order")
        us, vs, ws, faulty = (tuple(map(attrgetter(name), edges))
                              for name in ("u", "v", "w", "faulty"))
        self.__dict__.update(_u=us, _v=vs, _w=ws, _faulty=tuple(map(bool, faulty)))

    @property
    def faulty_ids(self) -> frozenset[int]:
        return frozenset(compress(range(len(self._faulty)), self._faulty))

    def edge(self, edge_id: int) -> Edge:
        """Edge ``edge_id``, built from the columns (``-1`` is the last)."""
        i = range(len(self._u))[edge_id]
        return Edge(i, self._u[i], self._v[i], self._w[i], self._faulty[i])

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


# Set after the decorator, so that ``edges`` stays a field without a
# default.  A non-data descriptor: the ``edges`` that an instance made
# with edges holds in its ``__dict__`` wins over it.
Instance.edges = cached_property(lambda self: _edges_from(self._u, self._v, self._w,
                                                          self._faulty))
Instance.edges.__set_name__(Instance, "edges")


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
    validate(inst)
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

    Reads the columns only, so it builds no :class:`Edge`.  Edge ids are
    positions by construction (see :class:`Instance`).

    Raises:
        BadEndpoint: an endpoint or terminal is a bool or outside ``[0, vertex_count)``.
        NegativeWeight: an edge has a negative or non-integer cost.
        OverflowRisk: a cost or the total cost does not fit in 63 bits.
        BadParameters: ``vertex_count`` or ``k`` is not an int (a bool is
            not one), ``vertex_count < 1`` or ``k < 0``.
    """
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
    # If every value is a plain int in range, the edges are valid;
    # otherwise the loop finds the first violation.
    us, vs, ws = instance._u, instance._v, instance._w
    if us and (set(map(type, us)) | set(map(type, vs)) | set(map(type, ws)) == {int}
               and 0 <= min(us) and 0 <= min(vs) and 0 <= min(ws)
               and max(max(us), max(vs)) < instance.vertex_count
               and sum(ws) <= MAX_COST):
        return
    total = 0
    for eid, (u, v, w) in enumerate(zip(us, vs, ws)):
        for endpoint in (u, v):
            if (isinstance(endpoint, bool) or not isinstance(endpoint, int)
                    or not 0 <= endpoint < instance.vertex_count):
                raise BadEndpoint(f"edge {eid} endpoint {endpoint} is not a vertex id")
        if not isinstance(w, int) or isinstance(w, bool) or w < 0:
            raise NegativeWeight(f"edge {eid} has cost {w!r}")
        if w > MAX_COST:
            raise OverflowRisk(f"edge {eid} cost {w} exceeds 63 bits")
        total += w
        if total > MAX_COST:
            raise OverflowRisk(f"running cost total overflows 63 bits at edge {eid}")


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

    The flow runs in ``flow._residual_flow`` on the arrays that
    ``flow._residual_arrays`` builds from the candidate's columns, sized
    by the candidate C: an instance of more than ``2|C| + 2`` vertices
    numbers only the ones C touches, and ``s`` and ``t``.  Each edge
    ``u -> v`` is an arc with a twin ``v -> u`` of capacity 0 when the
    instance is directed and the edge's own otherwise, so one pair
    carries an undirected edge either way within one capacity budget.
    Every maximum flow leaves the same residual s side, the smallest
    source side of a minimum cut, and a cut's capacity is the same here
    as in any network that models an undirected edge by two opposite
    arcs or gives safe edges more than ``k``; so the scenario depends on
    none of these choices, the numbering included.
    """
    return _witness(instance, candidate)[0]


def _witness(instance: Instance, candidate: Iterable[int]) -> tuple:
    # The scenario and the residual s side of the flow that found it, in
    # the instance's vertex ids, or ``(None, None)`` when the candidate is
    # feasible.  The side is the smallest min-cut source side, which is
    # the set of vertices ``s`` reaches over the candidate less the
    # scenario.
    from . import flow

    ids = check_candidate(instance, candidate)
    s, t, k = instance.s, instance.t, instance.k
    us, vs, faulty = instance._u, instance._v, instance._faulty
    tails, heads = [us[eid] for eid in ids], [vs[eid] for eid in ids]
    n, names = instance.vertex_count, None
    # Up to 2|C| + 2 vertices the arrays are no longer than the candidate's
    # own, so only a larger instance numbers the vertices C touches.
    if n > 2 * len(ids) + 2:
        names = list({s, t, *tails, *heads})
        number = dict(zip(names, range(len(names))))
        tails, heads = list(map(number.__getitem__, tails)), list(map(number.__getitem__, heads))
        n, s, t = len(names), number[s], number[t]
    caps = [1 if faulty[eid] else k + 1 for eid in ids]
    out, head, cap = flow._residual_arrays(n, tails, heads, caps,
                                           None if instance.directed else caps)
    side = flow._residual_flow(out, head, cap, s, t, k + 1)[1]
    if side is None:
        return None, None
    inside = set(side)
    if instance.directed:
        scenario = frozenset(eid for eid, u, v in zip(ids, tails, heads)
                             if u in inside and v not in inside)
    else:
        scenario = frozenset(eid for eid, u, v in zip(ids, tails, heads)
                             if (u in inside) != (v in inside))
    return scenario, side if names is None else list(map(names.__getitem__, side))


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
    us, vs, ws, directed = instance._u, instance._v, instance._w, instance.directed
    if reverse and directed:
        us, vs = vs, us
    ids = range(len(us)) if edge_ids is None else sorted(edge_ids)
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(instance.vertex_count)]
    for eid in ids:
        u, v = us[eid], vs[eid]
        if u != v:
            adj[u].append((v, ws[eid], eid))
            if not directed:
                adj[v].append((u, ws[eid], eid))
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
