"""Exact max-flow / min-cut and integral min-cost flow primitives.

Networks are tiny in this package (flow amounts never exceed the failure
budget plus one), so the implementations favor exactness and determinism
over asymptotics: shortest augmenting paths for max-flow, successive
shortest paths for min-cost flow.  Max-flow is exact on integer and
``Fraction`` capacities; min-cost flow is integral and deterministic,
returning the lexicographically smallest optimal per-arc flow vector.
One residual search, ``_residual_flow``, serves both :func:`max_flow`
and the feasibility check in ``core``, which hands it flat arrays built
straight from an instance's columns, with no :class:`FlowNetwork`.  Its
last breadth-first search drains its queue exactly over the residual s
side, which gives the min cut.  ``_augment`` pushes min-cost flow's
paths.

Min-cost flow searches are Dijkstra searches on reduced costs (Johnson
potentials; Edmonds & Karp 1972, Tomizawa 1971).  A network memoizes,
per flow amount, its packed arc weights and the first shortest-path tree
of every source queried, so the pair queries that the link-graph
solvers make from one source run that first search once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import NamedTuple

from .core import Infeasible, Instance

__all__ = ["Arc", "FlowNetwork", "FlowResult", "edge_network", "max_flow",
           "min_cost_flow", "balanced_flow"]


class Arc(NamedTuple):
    """A directed arc.  ``capacity=None`` means unlimited.

    ``origin`` optionally records the instance edge id this arc models,
    so flow supports can be mapped back to selectable edges.
    """

    tail: int
    head: int
    capacity: int | None
    cost: int = 0
    origin: int | None = None


class _Plan(NamedTuple):
    # min_cost_flow state for one network and one amount.
    caps: list[int]
    packed: list[int]
    adj: list[list[tuple[int, int, bool]]]
    trees: dict[int, tuple[list, list]]  # source -> first (dist, parent)


@dataclass(frozen=True)
class FlowNetwork:
    """A capacitated network, optionally with vertex imbalances.

    ``supplies[v] < 0`` means ``v`` must send out ``-supplies[v]`` units,
    ``supplies[v] > 0`` that it must absorb that many; the vector must
    sum to zero.  Plain s-t queries leave ``supplies`` as ``None``.
    """

    vertex_count: int
    arcs: tuple[Arc, ...]
    supplies: tuple[int, ...] | None = None

    @cached_property
    def _plans(self) -> dict[int, _Plan]:
        # Not a dataclass field, so equality and hashing ignore it.
        return {}


@dataclass(frozen=True)
class FlowResult:
    value: int
    flows: tuple[int, ...]
    total_cost: int | None = None
    min_cut: tuple[int, ...] | None = None


def edge_network(instance: Instance, safe_cap: int,
                 edge_ids=None) -> FlowNetwork:
    """The network of an instance's edges, or of the ``edge_ids`` only.

    Faulty edges get capacity 1 and safe edges ``safe_cap``; every arc
    keeps its edge's cost and id (``origin``).  Self-loops are skipped
    and an undirected edge becomes two opposite arcs of the same
    capacity: a minimum-cost flow never loads both (cancelling them is
    at least as cheap and lexicographically smaller), and a minimum cut
    never crosses both, so one edge stays one capacity budget.
    """
    us, vs, ws, faulty = instance._u, instance._v, instance._w, instance._faulty
    ids = range(len(us)) if edge_ids is None else sorted(edge_ids)
    arcs = []
    for eid in ids:
        u, v = us[eid], vs[eid]
        if u == v:
            continue
        cap = 1 if faulty[eid] else safe_cap
        arcs.append(Arc(u, v, cap, ws[eid], eid))
        if not instance.directed:
            arcs.append(Arc(v, u, cap, ws[eid], eid))
    return FlowNetwork(instance.vertex_count, tuple(arcs))


def _check_capacities(arcs) -> None:
    for i, a in enumerate(arcs):
        if a.capacity is not None and a.capacity < 0:
            raise ValueError(f"arc {i} has negative capacity")


def _adjacency(net: FlowNetwork) -> list[list[tuple[int, int, bool]]]:
    # (arc index, other end, is_forward) per vertex, in arc-index order
    # for determinism
    adj: list[list[tuple[int, int, bool]]] = [[] for _ in range(net.vertex_count)]
    for i, a in enumerate(net.arcs):
        if a.tail == a.head:
            continue
        adj[a.tail].append((i, a.head, True))
        adj[a.head].append((i, a.tail, False))
    return adj


def _augment(arcs, caps, flows, parent, s: int, t: int, push) -> tuple:
    """Push along the ``(arc, is_forward)`` parents from ``s`` to ``t``.

    ``push`` drops to the least residual capacity on the path; returns
    the units pushed and the path's steps, from ``t`` back.
    """
    path, v = [], t
    while v != s:
        idx, fwd = step = parent[v]
        path.append(step)
        room = caps[idx] - flows[idx] if fwd else flows[idx]
        if room < push:
            push = room
        v = arcs[idx].tail if fwd else arcs[idx].head
    for idx, fwd in path:
        flows[idx] += push if fwd else -push
    return push, path


def _residual_flow(out: list[list[int]], head: list[int], cap: list, s: int,
                   t: int, cap_at) -> tuple:
    """Shortest augmenting paths on flat residual arrays, up to ``cap_at``.

    Arc ``2i`` is arc i and arc ``2i + 1`` its residual twin, so
    ``a ^ 1`` is the twin of ``a`` and ``head[a ^ 1]`` its tail.
    ``out[v]`` lists the arc ids leaving ``v`` and ``cap`` holds each
    arc's residual capacity, which the search updates in place: each
    augmentation pushes the path's bottleneck, or the units still
    missing if fewer.  Returns the flow value and, when it is below
    ``cap_at``, the residual s side that the last search drained, as a
    list of vertices; otherwise ``None`` in its place.
    """
    value = 0
    while value < cap_at:
        parent = [-1] * len(out)
        parent[s] = -2
        reached = [s]
        for u in reached:
            for a in out[u]:
                v = head[a]
                if parent[v] == -1 and cap[a]:
                    parent[v] = a
                    reached.append(v)
            if parent[t] != -1:
                break
        else:
            return value, reached
        push, v, path = cap_at - value, t, []
        while v != s:
            a = parent[v]
            path.append(a)
            if cap[a] < push:
                push = cap[a]
            v = head[a ^ 1]
        for a in path:
            cap[a] -= push
            cap[a ^ 1] += push
        value += push
    return value, None


def max_flow(net: FlowNetwork, s: int, t: int, cap_at: int) -> FlowResult:
    """Maximum s-t flow, never pushing more than ``cap_at`` units.

    Returns ``min(true max flow, cap_at)``.  When the returned value is
    below ``cap_at`` the flow is maximum and ``min_cut`` lists the
    saturated forward arcs of a minimum cut (whose capacities sum to the
    flow value); otherwise ``min_cut`` is ``None``.

    Capacities and ``cap_at`` may be ``Fraction``s: the result is exact,
    and shortest augmenting paths (Edmonds & Karp 1972) terminate
    whatever the capacities.
    """
    if s == t:
        raise ValueError("max_flow requires distinct terminals")
    if cap_at < 0:
        raise ValueError("cap_at must be non-negative")
    arcs = net.arcs
    _check_capacities(arcs)
    out: list[list[int]] = [[] for _ in range(net.vertex_count)]
    head, cap = [], []
    for i, a in enumerate(arcs):
        if a.tail != a.head:
            out[a.tail].append(2 * i)
            out[a.head].append(2 * i + 1)
        head += (a.head, a.tail)
        # Unlimited arcs can never carry more than cap_at units here.
        cap += (cap_at if a.capacity is None else a.capacity, 0)
    value, side = _residual_flow(out, head, cap, s, t, cap_at)
    min_cut = None
    if side is not None:
        side = set(side)
        min_cut = tuple(i for i, a in enumerate(arcs)
                        if a.tail in side and a.head not in side)
    return FlowResult(value=value, flows=tuple(cap[1::2]), min_cut=min_cut)


def _plan(net: FlowNetwork, amount: int) -> _Plan:
    plans = net._plans
    plan = plans.get(amount)
    if plan is not None:
        return plan
    arcs = net.arcs
    # Checked before anything is memoized: a bad network never gets a
    # plan, so every call on it raises again.
    _check_capacities(arcs)
    for i, a in enumerate(arcs):
        if a.cost < 0:
            raise ValueError(f"arc {i} has negative cost")
    m = len(arcs)
    base = amount + 2
    big_w = base ** (m + 2)
    packed = [a.cost * big_w + base ** (m - i) for i, a in enumerate(arcs)]
    caps = [amount if a.capacity is None else a.capacity for a in arcs]
    plan = plans[amount] = _Plan(caps, packed, _adjacency(net), {})
    return plan


def _dijkstra(plan: _Plan, flows: list[int], pot: list[int], s: int,
              t: int | None = None) -> tuple[list, list, list[bool]]:
    """Shortest residual paths from ``s`` on reduced costs.

    The reduced cost of a residual arc ``u -> v`` is its packed weight
    (negated when it cancels flow) plus ``pot[u] - pot[v]``, which the
    caller keeps non-negative.  Stops once ``t`` is settled; returns the
    distances, the ``(arc, is_forward)`` parents and the settled flags.
    """
    caps, packed, adj = plan.caps, plan.packed, plan.adj
    n = len(adj)
    dist: list[int | None] = [None] * n
    parent: list[tuple[int, bool] | None] = [None] * n
    done = [False] * n
    dist[s] = 0
    heap = [(0, s)]
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == t:
            break
        du = d + pot[u]
        for idx, v, fwd in adj[u]:
            if done[v]:
                continue
            if fwd:
                if flows[idx] >= caps[idx]:
                    continue
                nd = du + packed[idx] - pot[v]
            else:
                if not flows[idx]:
                    continue
                nd = du - packed[idx] - pot[v]
            dv = dist[v]
            if dv is None or nd < dv:
                dist[v] = nd
                parent[v] = (idx, fwd)
                heappush(heap, (nd, v))
    return dist, parent, done


def min_cost_flow(net: FlowNetwork, s: int, t: int, amount: int) -> FlowResult:
    """Integral s-t flow of exactly ``amount`` units of minimum total cost.

    Among all minimum-cost flows, returns the one whose per-arc flow
    vector is lexicographically smallest by arc index.  The flow is the
    unique minimum for the packed arc weights ``cost * W + B**(m - i)``
    with ``B = amount + 2`` and ``W = B**(m + 2)``: the huge primary
    weight ``W`` keeps the true objective dominant, and since no arc of
    an optimal flow carries ``B`` or more units, the per-arc powers of
    ``B`` compare flow vectors exactly like a lexicographic comparison.
    That optimum being unique, any exact method finds the same flow.

    The method is successive shortest paths; each augmentation pushes
    the path's bottleneck, its least residual capacity or the units still
    missing if fewer.  Packed weights are positive, so every search is a
    Dijkstra search on reduced costs kept non-negative by potentials.
    The packed weights, the residual adjacency and the first search from
    each source, which is the same for every target, are memoized on
    ``net`` per ``amount``; a target that first tree does not reach is
    infeasible without another search.

    Raises:
        Infeasible: fewer than ``amount`` units fit; ``max_achievable``
            carries the true maximum.
    """
    if s == t:
        raise ValueError("min_cost_flow requires distinct terminals")
    if amount < 0:
        raise ValueError("amount must be non-negative")
    arcs = net.arcs
    plan = _plan(net, amount)
    flows = [0] * len(arcs)
    if amount == 0:
        return FlowResult(value=0, flows=tuple(flows), total_cost=0)
    tree = plan.trees.get(s)
    if tree is None:
        dist, parent, _ = _dijkstra(plan, flows, [0] * net.vertex_count, s)
        tree = plan.trees[s] = (dist, parent)
    dist, parent = tree
    pot = [0 if d is None else d for d in dist]
    caps = plan.caps
    total = pushed = 0
    done = None  # None while dist is the first tree
    while True:
        if dist[t] is None:
            raise Infeasible(
                f"only {pushed} of {amount} flow units fit",
                max_achievable=pushed)
        push, path = _augment(arcs, caps, flows, parent, s, t, amount - pushed)
        total += push * sum(arcs[idx].cost if fwd else -arcs[idx].cost
                            for idx, fwd in path)
        pushed += push
        if pushed == amount:
            break
        if done is not None:
            # The search stopped at t: vertices it did not settle are at
            # least dist[t] away, so capping at dist[t] keeps every
            # reduced cost non-negative.
            reach = dist[t]
            pot = [p + (d if ok else reach)
                   for p, d, ok in zip(pot, dist, done)]
        dist, parent, done = _dijkstra(plan, flows, pot, s, t)
    return FlowResult(value=amount, flows=tuple(flows), total_cost=total)


def balanced_flow(net: FlowNetwork) -> FlowResult | None:
    """Integral flow meeting the network's vertex imbalances, or ``None``.

    Reduces to max-flow through a super source and sink.  The returned
    flow vector covers only the original arcs.
    """
    if net.supplies is None:
        raise ValueError("network carries no supplies vector")
    if sum(net.supplies) != 0:
        raise ValueError("supplies must sum to zero")
    need = sum(b for b in net.supplies if b > 0)
    if need == 0:
        return FlowResult(value=0, flows=(0,) * len(net.arcs))
    n = net.vertex_count
    super_s, super_t = n, n + 1
    arcs = list(net.arcs)
    for v, b in enumerate(net.supplies):
        if b < 0:
            arcs.append(Arc(super_s, v, -b))
        elif b > 0:
            arcs.append(Arc(v, super_t, b))
    big = FlowNetwork(n + 2, tuple(arcs))
    result = max_flow(big, super_s, super_t, need)
    if result.value < need:
        return None
    return FlowResult(value=need, flows=result.flows[:len(net.arcs)])
