"""Exact max-flow / min-cut and integral min-cost flow primitives.

Networks are tiny in this package (flow amounts never exceed the failure
budget plus one), so the implementations favor exactness and determinism
over asymptotics: shortest augmenting paths for max-flow, successive
shortest paths for min-cost flow.  Max-flow is exact on integer and
``Fraction`` capacities; min-cost flow is integral and deterministic,
returning the lexicographically smallest optimal per-arc flow vector.
Both run on one residual layout, the flat arrays of
``_residual_arrays``, where arc ``2i`` is arc i and ``2i + 1`` its twin.
One residual search, ``_residual_flow``, serves :func:`max_flow` and the
feasibility check in ``core``, which builds the arrays from an
instance's columns; its last search drains exactly the residual s side,
which gives the min cut.  At ``s = t`` both return the amount asked for
along the empty path, with every arc's flow 0.

Min-cost flow searches are Dijkstra searches on reduced costs (Johnson
potentials; Edmonds & Karp 1972, Tomizawa 1971).  A network memoizes,
per flow amount, its residual arrays, packed arc weights and the first
shortest-path tree of every source queried, so the pair queries that the
link-graph solvers make from one source run that first search once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from operator import mul
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
    # min_cost_flow state for one network and one amount: the residual
    # arrays with the capacity template that every call copies, each
    # residual arc's packed weight (negated on twins) and the arc costs.
    out: list[list[int]]
    head: list[int]
    cap: list[int]
    weight: list[int]
    costs: tuple[int, ...]
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


def _residual_arrays(n: int, tails: list, heads: list, caps: list,
                     twin_caps: list | None = None) -> tuple[list, list, list]:
    """The residual arrays ``(out, head, cap)`` of arcs ``tails[i] -> heads[i]``.

    Arc ``2i`` is arc i, of capacity ``caps[i]``, and arc ``2i + 1`` its
    twin ``heads[i] -> tails[i]``, of capacity ``twin_caps[i]``, or 0
    without ``twin_caps``; so ``a ^ 1`` is the twin of ``a`` and
    ``head[a ^ 1]`` its tail.  ``out[v]`` lists the arc ids leaving
    ``v`` in id order.  A loop's arcs sit there too: they lead back to a
    vertex that a search has already reached.

    Raises:
        ValueError: a capacity in ``caps`` is negative.
    """
    if min(caps, default=0) < 0:
        first = next(i for i, c in enumerate(caps) if c < 0)
        raise ValueError(f"arc {first} has negative capacity")
    count = 2 * len(caps)
    head, tail, cap = [0] * count, [0] * count, [0] * count
    head[::2] = tail[1::2] = heads
    head[1::2] = tail[::2] = tails
    cap[::2] = caps
    if twin_caps is not None:
        cap[1::2] = twin_caps
    out: list[list[int]] = [[] for _ in range(n)]
    for a, u in enumerate(tail):
        out[u].append(a)
    return out, head, cap


def _push_path(head: list[int], cap: list, parent: list, s: int, t: int, push):
    # Pushes ``push`` units, or the bottleneck if fewer, along the parent
    # arcs from s to t, twins included; returns the units pushed.
    path, v = [], t
    while v != s:
        a = parent[v]
        path.append(a)
        if cap[a] < push:
            push = cap[a]
        v = head[a ^ 1]
    for a in path:
        cap[a] -= push
        cap[a ^ 1] += push
    return push


def _residual_flow(out: list[list[int]], head: list[int], cap: list, s: int,
                   t: int, cap_at) -> tuple:
    """Shortest augmenting paths on residual arrays, up to ``cap_at``.

    ``(out, head, cap)`` are as :func:`_residual_arrays` builds them, and
    the search updates ``cap`` in place: each augmentation pushes the
    path's bottleneck, or the units still missing if fewer.  Returns the
    flow value and, when it is below ``cap_at``, the residual s side
    that the last search drained, as a list of vertices; otherwise
    ``None`` in its place.
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
        value += _push_path(head, cap, parent, s, t, cap_at - value)
    return value, None


def max_flow(net: FlowNetwork, s: int, t: int, cap_at: int) -> FlowResult:
    """Maximum s-t flow, never pushing more than ``cap_at`` units.

    Returns ``min(true max flow, cap_at)``.  When the returned value is
    below ``cap_at`` the flow is maximum and ``min_cut`` lists the
    saturated forward arcs of a minimum cut (whose capacities sum to the
    flow value); otherwise ``min_cut`` is ``None``.

    Capacities and ``cap_at`` may be ``Fraction``s: the result is exact,
    and shortest augmenting paths (Edmonds & Karp 1972) terminate
    whatever the capacities.  At ``s = t`` it returns ``cap_at`` with
    every arc's flow 0 and ``min_cut`` ``None``.
    """
    if cap_at < 0:
        raise ValueError("cap_at must be non-negative")
    arcs = net.arcs
    # Unlimited arcs can never carry more than cap_at units here.
    out, head, cap = _residual_arrays(
        net.vertex_count, [a.tail for a in arcs], [a.head for a in arcs],
        [cap_at if a.capacity is None else a.capacity for a in arcs])
    value, side = _residual_flow(out, head, cap, s, t, cap_at)
    min_cut = None
    if side is not None:
        side = set(side)
        min_cut = tuple(i for i, a in enumerate(arcs)
                        if a.tail in side and a.head not in side)
    return FlowResult(value=value, flows=tuple(cap[1::2]), min_cut=min_cut)


def _plan(net: FlowNetwork, amount: int) -> _Plan:
    plan = net._plans.get(amount)
    if plan is None:
        arcs = net.arcs
        # Checked before anything is memoized: a bad network never gets
        # a plan, so every call on it raises again.
        out, head, cap = _residual_arrays(
            net.vertex_count, [a.tail for a in arcs], [a.head for a in arcs],
            [amount if a.capacity is None else a.capacity for a in arcs])
        costs = tuple(a.cost for a in arcs)
        for i, c in enumerate(costs):
            if c < 0:
                raise ValueError(f"arc {i} has negative cost")
        m, base = len(arcs), amount + 2
        big_w = base ** (m + 2)
        packed = [c * big_w + base ** (m - i) for i, c in enumerate(costs)]
        weight = [x for w in packed for x in (w, -w)]
        plan = net._plans[amount] = _Plan(out, head, cap, weight, costs, {})
    return plan


def _dijkstra(plan: _Plan, cap: list[int], pot: list[int], s: int,
              t: int | None = None) -> tuple[list, list, list[bool]]:
    """Shortest residual paths from ``s`` on reduced costs.

    An arc ``a`` of ``plan`` is residual while ``cap[a]`` is nonzero;
    its reduced cost from ``u`` to ``v`` is its packed weight plus
    ``pot[u] - pot[v]``, which the caller keeps non-negative.  Stops
    once ``t`` is settled; returns the distances, the parent arc ids and
    the settled flags.
    """
    out, head, weight = plan.out, plan.head, plan.weight
    n = len(out)
    dist: list[int | None] = [None] * n
    parent = [-1] * n
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
        for a in out[u]:
            v = head[a]
            if done[v] or not cap[a]:
                continue
            nd = du + weight[a] - pot[v]
            dv = dist[v]
            if dv is None or nd < dv:
                dist[v] = nd
                parent[v] = a
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
    The residual arrays, the packed weights and the first search from
    each source, which is the same for every target, are memoized on
    ``net`` per ``amount``; each call augments a copy of the memoized
    capacities, and a target that first tree does not reach is
    infeasible without another search.  At ``s = t`` the whole amount
    takes the empty path: every arc carries 0, at ``total_cost`` 0.

    Raises:
        Infeasible: fewer than ``amount`` units fit; ``max_achievable``
            carries the true maximum.
    """
    if amount < 0:
        raise ValueError("amount must be non-negative")
    arcs = net.arcs
    plan = _plan(net, amount)
    if amount == 0:
        return FlowResult(value=0, flows=(0,) * len(arcs), total_cost=0)
    tree = plan.trees.get(s)
    if tree is None:
        dist, parent, _ = _dijkstra(plan, plan.cap, [0] * net.vertex_count, s)
        tree = plan.trees[s] = (dist, parent)
    dist, parent = tree
    pot = [0 if d is None else d for d in dist]
    cap = plan.cap[:]
    pushed = 0
    done = None  # None while dist is the first tree
    while True:
        if dist[t] is None:
            raise Infeasible(
                f"only {pushed} of {amount} flow units fit",
                max_achievable=pushed)
        pushed += _push_path(plan.head, cap, parent, s, t, amount - pushed)
        if pushed == amount:
            break
        if done is not None:
            # The search stopped at t: vertices it did not settle are at
            # least dist[t] away, so capping at dist[t] keeps every
            # reduced cost non-negative.
            reach = dist[t]
            pot = [p + (d if ok else reach)
                   for p, d, ok in zip(pot, dist, done)]
        dist, parent, done = _dijkstra(plan, cap, pot, s, t)
    flows = cap[1::2]
    return FlowResult(value=amount, flows=tuple(flows),
                      total_cost=sum(map(mul, plan.costs, flows)))


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
