"""Seeded instance corpora for the four benchmark workloads.

Each workload is a fixed list of slots.  A slot fixes the shape of one
instance (size, direction, budget), for ``dag`` and ``frac`` a band of a
size measure that the solver's work grows with, and whether the instance
must be feasible; the seed only chooses the random edges.  So every seed
gives the same mix of shapes and exactly one infeasible instance in ten,
and the spread between seeds comes from the edges, not from a changing mix.

Candidates are redrawn until the slot's band and feasibility hold;
feasibility is decided with ``ftpath.is_feasible`` on the full edge set.
The size measures are computed here, from the input alone, so that a
solver change cannot change the corpus.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

INFEASIBLE_EVERY = 10
MAX_DRAWS = 2000
MAX_W = 20


@dataclass(frozen=True)
class Workload:
    name: str
    count: int
    argv: tuple[str, ...]
    slot: Callable[[int], dict]
    draw: Callable[..., object]
    # Optional size measure of an instance and the band each slot needs.
    size: Callable[[object], int] | None = None
    band: Callable[[int], tuple[int, int]] | None = None


def _split_faulty(rng: random.Random, m: int) -> list[bool]:
    flags = [True] * (m // 2) + [False] * (m - m // 2)
    rng.shuffle(flags)
    return flags


def _has_cycle(n: int, arcs) -> bool:
    indegree = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        out[u].append(v)
        indegree[v] += 1
    ready = [v for v in range(n) if indegree[v] == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for v in out[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    return seen < n


def _draw_multigraph(ftpath, rng: random.Random, n: int, m: int,
                     directed: bool, k: int):
    while True:
        pairs = []
        for _ in range(m):
            u = rng.randrange(n)
            v = rng.randrange(n - 1)
            pairs.append((u, v + (v >= u)))
        # A directed DAG would be dispatched to the DAG solver instead.
        if not directed or _has_cycle(n, pairs):
            break
    faulty = _split_faulty(rng, m)
    edges = [(u, v, rng.randint(1, MAX_W), f) for (u, v), f in zip(pairs, faulty)]
    return ftpath.build_instance(directed, n, 0, n - 1, k, edges)


def _draw_dag(ftpath, rng: random.Random, n: int, k: int):
    # A path through every vertex keeps all of them on some s-t path;
    # the other arcs join random pairs forward.
    m = 3 * n
    arcs = [(u, u + 1) for u in range(n - 1)]
    while len(arcs) < m:
        u = rng.randrange(n - 1)
        arcs.append((u, rng.randrange(u + 1, n)))
    faulty = _split_faulty(rng, m)
    edges = [(u, v, rng.randint(1, MAX_W), f) for (u, v), f in zip(arcs, faulty)]
    return ftpath.build_instance(True, n, 0, n - 1, k, edges)


def _draw_srp(ftpath, rng: random.Random, leaves: int, k: int):
    # Random two-terminal series/parallel composition, built with an
    # explicit stack so that deep compositions need no recursion.
    edges = []
    next_vertex = 2
    stack = [(0, 1, leaves)]
    while stack:
        u, v, budget = stack.pop()
        if budget == 1:
            edges.append((u, v, rng.randint(1, MAX_W)))
            continue
        left = rng.randint(1, budget - 1)
        if rng.random() < 0.5:
            mid = next_vertex
            next_vertex += 1
            stack.append((mid, v, budget - left))
            stack.append((u, mid, left))
        else:
            stack.append((u, v, budget - left))
            stack.append((u, v, left))
    faulty = _split_faulty(rng, len(edges))
    return ftpath.build_instance(False, next_vertex, 0, 1, k,
                                 [(u, v, w, f) for (u, v, w), f in zip(edges, faulty)])


def _dag_configurations(instance) -> int:
    """Demand configurations of the layered DAG, counted from the input.

    Layer ``i`` holds vertex ``i`` plus one chain vertex per s-t edge
    spanning over it; a layer of width ``w`` has C(w+k, k+1)
    configurations.  The DAG solver's work grows with this count.
    """
    n, k = instance.vertex_count, instance.k
    forward, backward = {instance.s}, {instance.t}
    for u in range(n):
        if u in forward:
            forward.update(e.v for e in instance.edges if e.u == u)
    for v in reversed(range(n)):
        if v in backward:
            backward.update(e.u for e in instance.edges if e.v == v)
    live = forward & backward
    spans = [(e.u, e.v) for e in instance.edges if e.u in live and e.v in live]
    return sum(math.comb(1 + sum(1 for u, v in spans if u < i < v) + k, k + 1)
               for i in live)


def _lp_rows(instance) -> int:
    """Rows of the cut LP of the fractional relaxation, counted from the input.

    One row per inclusion-minimal s-t cut, plus one per faulty edge of a
    cut with more than k faulty edges.  The simplex time grows steeply
    with this count.
    """
    n, s, t, k = instance.vertex_count, instance.s, instance.t, instance.k
    others = [v for v in range(n) if v not in (s, t)]
    cuts = set()
    for mask in range(2 ** len(others)):
        side = {s} | {v for i, v in enumerate(others) if mask >> i & 1}
        cuts.add(frozenset(e.id for e in instance.edges
                           if e.u != e.v and (e.u in side) != (e.v in side)))
    minimal = [c for c in cuts if not any(o < c for o in cuts)]
    rows = 0
    for cut in minimal:
        faulty = sum(1 for eid in cut if instance.edges[eid].faulty)
        rows += 1 + faulty if faulty > k else 1
    return rows


# Size bands of each slot in ten; the tenth is the infeasible one and
# takes the widest band.  The median falls in the second band and the
# 90th percentile in the middle of the last.
_DAG_BANDS = (((100, 180),) * 2 + ((200, 240),) * 3 + ((260, 340),) * 2
              + ((360, 400),) * 2 + ((100, 400),))

# (vertices, LP-row band) per slot, as above; each band holds one vertex
# count, and the median falls in the middle of the second band.
_FRAC_SLOTS = (((5, (1, 10)),) * 2 + ((5, (13, 15)),) * 4 + ((6, (19, 26)),)
               + ((6, (28, 32)),) * 2 + ((5, (1, 32)),))


def _general_slot(i: int) -> dict:
    directed, k = ((False, 1), (True, 1), (False, 2), (True, 2))[i % 4]
    n = 14 + (i // 4) % 3
    return {"n": n, "m": 3 * n, "directed": directed, "k": k}


WORKLOADS = {
    "general": Workload(
        "general", 80, (), _general_slot, _draw_multigraph),
    "dag": Workload(
        "dag", 120, (), lambda i: {"n": 9 + i % 2, "k": 2}, _draw_dag,
        _dag_configurations, lambda i: _DAG_BANDS[i % 10]),
    "srp": Workload(
        "srp", 20, (), lambda i: {"leaves": 2000 + 500 * (i % 5), "k": 3},
        _draw_srp),
    "frac": Workload(
        "frac", 200, ("--algorithm", "frac"),
        lambda i: {"n": _FRAC_SLOTS[i % 10][0], "m": 12, "directed": False, "k": 2},
        _draw_multigraph, _lp_rows, lambda i: _FRAC_SLOTS[i % 10][1]),
}


def must_be_feasible(i: int) -> bool:
    return i % INFEASIBLE_EVERY != INFEASIBLE_EVERY - 1


def generate(ftpath, workload: Workload, seed: int, count: int | None = None) -> list:
    """The workload's instances for ``seed``, each validated for its slot."""
    rng = random.Random(f"{workload.name}:{seed}")
    instances = []
    for i in range(workload.count if count is None else count):
        params = workload.slot(i)
        want = must_be_feasible(i)
        lo, hi = workload.band(i) if workload.band else (0, 0)
        for _ in range(MAX_DRAWS):
            instance = workload.draw(ftpath, rng, **params)
            if workload.size and not lo <= workload.size(instance) <= hi:
                continue
            if ftpath.is_feasible(instance, range(len(instance.edges))) == want:
                break
        else:
            raise RuntimeError(f"{workload.name} slot {i}: no instance with "
                               f"feasible={want} in {MAX_DRAWS} draws")
        instances.append(instance)
    return instances


def write(cli, instances, directory: str) -> list[str]:
    """Write the native documents; return their paths in slot order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, instance in enumerate(instances):
        path = os.path.join(directory, f"{i:04d}.ftp")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(cli.serialize_instance(instance))
        paths.append(path)
    return paths
