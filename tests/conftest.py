"""Shared generators and independent brute-force oracles for the tests.

Everything here is deliberately naive: plain enumeration, no reuse of
the package's flow machinery, so that agreement between these helpers
and the production code is meaningful evidence.
"""

from __future__ import annotations

import random
from itertools import combinations

from ftpath.core import Instance, build_instance


def random_instance(rng: random.Random, *, n_max: int = 7, m_max: int = 12,
                    directed: bool | None = None, k: int | None = None,
                    max_w: int = 10, faulty_prob: float = 0.55,
                    ensure_backbone: bool = False) -> Instance:
    """A random multigraph instance with terminals 0 and n-1."""
    n = rng.randint(2, n_max)
    m = rng.randint(1, m_max)
    if directed is None:
        directed = rng.random() < 0.5
    if k is None:
        k = rng.randint(0, 2)
    edges = []
    if ensure_backbone:
        # A random s-t path so most instances are feasible at k=0.
        mids = list(range(1, n - 1))
        rng.shuffle(mids)
        spine = [0] + mids[:rng.randint(0, len(mids))] + [n - 1]
        for a, b in zip(spine, spine[1:]):
            edges.append((a, b, rng.randint(0, max_w), rng.random() < faulty_prob))
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v and rng.random() < 0.9:
            continue  # keep self-loops rare
        edges.append((u, v, rng.randint(0, max_w), rng.random() < faulty_prob))
    return build_instance(directed, n, 0, n - 1, k, edges[:max(m, len(edges))])


def random_dag_instance(rng: random.Random, *, n_max: int = 7, m_max: int = 10,
                        k: int | None = None, max_w: int = 10,
                        faulty_prob: float = 0.55) -> Instance:
    """A random DAG instance; edges only go forward in vertex order."""
    n = rng.randint(2, n_max)
    m = rng.randint(1, m_max)
    if k is None:
        k = rng.randint(1, 2)
    edges = []
    for _ in range(m):
        u = rng.randrange(n - 1)
        v = rng.randrange(u + 1, n)
        edges.append((u, v, rng.randint(0, max_w), rng.random() < faulty_prob))
    return build_instance(True, n, 0, n - 1, k, edges)


def random_srp_instance(rng: random.Random, *, leaves: int = 8,
                        k: int = 2, max_w: int = 10,
                        faulty_prob: float = 0.55) -> Instance:
    """A random series-parallel instance built by explicit composition."""
    edges: list[tuple[int, int, int, bool]] = []
    state = {"next": 2}

    def grow(u: int, v: int, budget: int) -> None:
        if budget == 1:
            edges.append((u, v, rng.randint(0, max_w), rng.random() < faulty_prob))
            return
        left = rng.randint(1, budget - 1)
        if rng.random() < 0.5:
            mid = state["next"]
            state["next"] += 1
            grow(u, mid, left)
            grow(mid, v, budget - left)
        else:
            grow(u, v, left)
            grow(u, v, budget - left)

    grow(0, 1, leaves)
    return build_instance(False, state["next"], 0, 1, k, edges)


# ---------------------------------------------------------------------------
# Independent oracles (pure enumeration, no package flow code)


def simple_paths(instance: Instance, source: int, target: int) -> list[tuple[int, ...]]:
    """All simple paths as edge-id tuples (vertices never repeat)."""
    out: list[tuple[int, ...]] = []
    adj: dict[int, list[tuple[int, int]]] = {}
    for e in instance.edges:
        if e.u == e.v:
            continue
        adj.setdefault(e.u, []).append((e.v, e.id))
        if not instance.directed:
            adj.setdefault(e.v, []).append((e.u, e.id))

    def walk(u: int, visited: set[int], trail: list[int]) -> None:
        if u == target:
            out.append(tuple(trail))
            return
        for v, eid in adj.get(u, ()):
            if v not in visited:
                visited.add(v)
                trail.append(eid)
                walk(v, visited, trail)
                trail.pop()
                visited.remove(v)

    if source == target:
        return [()]
    walk(source, {source}, [])
    return out


def has_path(instance: Instance, edge_ids) -> bool:
    """Whether the given edges alone contain a simple s-t path."""
    allowed = frozenset(edge_ids)
    return any(allowed.issuperset(p)
               for p in simple_paths(instance, instance.s, instance.t))


def survives_every_failure(instance: Instance, candidate) -> bool:
    """Feasibility by enumerating every failure of at most k faulty edges."""
    ids = frozenset(candidate)
    faulty = sorted(e for e in ids if instance.edges[e].faulty)
    return all(has_path(instance, ids.difference(failed))
               for size in range(min(instance.k, len(faulty)) + 1)
               for failed in combinations(faulty, size))


def cheapest_disjoint_pair(instance: Instance, u: int, v: int):
    """Min total cost over unordered pairs of edge-disjoint u-v paths."""
    paths = simple_paths(instance, u, v)
    best = None
    for i, p1 in enumerate(paths):
        set1 = set(p1)
        for p2 in paths[i:]:
            if set1 & set(p2):
                continue
            cost = sum(instance.edges[e].w for e in p1 + p2)
            if best is None or cost < best:
                best = cost
    return best


def min_cut_by_bipartition(vertex_count: int, arcs, s: int, t: int, inf_cap: int) -> int:
    """Min s-t cut over every vertex bipartition (arcs = (u, v, cap))."""
    others = [x for x in range(vertex_count) if x not in (s, t)]
    best = None
    for mask in range(2 ** len(others)):
        side = {s} | {v for i, v in enumerate(others) if mask >> i & 1}
        cap = 0
        for u, v, c in arcs:
            if u in side and v not in side:
                cap += inf_cap if c is None else c
        if best is None or cap < best:
            best = cap
    return best


def exhaustive_min_cost_flow(vertex_count: int, arcs, s: int, t: int, amount: int):
    """Cheapest way to send `amount` units, by trying every path multiset.

    Returns ``(cost, flow_vector)`` minimizing cost then the flow vector
    lexicographically, or ``None`` if the amount does not fit.  Arcs are
    ``(u, v, cap, cost)``; exponential, for tiny networks only.
    """
    adj: dict[int, list[int]] = {}
    for i, (u, v, c, w) in enumerate(arcs):
        if u != v:
            adj.setdefault(u, []).append(i)

    paths: list[tuple[int, ...]] = []

    def walk(u: int, visited: set[int], trail: list[int]) -> None:
        if u == t:
            paths.append(tuple(trail))
            return
        for i in adj.get(u, ()):
            _, v, c, _ = arcs[i]
            if c != 0 and v not in visited:
                visited.add(v)
                trail.append(i)
                walk(v, visited, trail)
                trail.pop()
                visited.remove(v)

    walk(s, {s}, [])
    best: tuple[int, tuple[int, ...]] | None = None

    def choose(remaining: int, start: int, flows: list[int], cost: int) -> None:
        nonlocal best
        if remaining == 0:
            vec = tuple(flows)
            if best is None or (cost, vec) < best:
                best = (cost, vec)
            return
        for pi in range(start, len(paths)):
            path = paths[pi]
            ok = all(arcs[i][2] is None or flows[i] < arcs[i][2] for i in path)
            if not ok:
                continue
            for i in path:
                flows[i] += 1
            choose(remaining - 1, pi, flows,
                   cost + sum(arcs[i][3] for i in path))
            for i in path:
                flows[i] -= 1

    choose(amount, 0, [0] * len(arcs), 0)
    return best


def minimalize(instance: Instance, candidate, feasible) -> frozenset[int]:
    """Greedily drop edges (largest id first) while staying feasible."""
    current = set(candidate)
    for eid in sorted(current, reverse=True):
        trimmed = current - {eid}
        if feasible(instance, trimmed):
            current = trimmed
    return frozenset(current)
