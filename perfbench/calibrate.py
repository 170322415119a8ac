"""A fixed pure-Python kernel that measures how fast the host runs right now.

The host's speed changes from one operation to the next: five
back-to-back passes over one corpus took from 2.6 to 3.6 s, with CPU time
equal to wall time.  The benchmark runs :func:`probe` between operations
and scales each operation's time by ``REFERENCE_S / kernel time`` around
it, which reports times in seconds at a fixed host speed.

The kernel uses none of ftpath, so a change to ftpath cannot move it.
It does what ftpath's hot loops do: Dijkstra with ``heapq``, breadth-first
search over dicts, sets and a deque, and Gauss-Jordan elimination over
``Fraction``, about half the time each.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from collections import deque
from fractions import Fraction

# Median kernel time at the host speed the reported seconds refer to,
# measured on a 2-core x86-64 host with CPython 3.11.7.
REFERENCE_S = 0.001

_rng = random.Random(0)
_N = 40
_GRAPH: list[list[tuple[int, int]]] = [[] for _ in range(_N)]
for _ in range(4 * _N):
    _GRAPH[_rng.randrange(_N)].append((_rng.randrange(_N), _rng.randint(1, 9)))
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(6)]
           for _ in range(5)]


def kernel() -> tuple[int, list[list[Fraction]]]:
    total = 0
    for s in range(0, _N, 8):
        dist = {s: 0}
        heap = [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in _GRAPH[u]:
                if d + w < dist.get(v, 1 << 60):
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        seen = {s}
        queue = deque([s])
        while queue:
            for v, _ in _GRAPH[queue.popleft()]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        total += sum(dist.values()) + len(seen)
    rows = [row[:] for row in _MATRIX]
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(len(rows)):
            if r != c and rows[r][c]:
                factor = rows[r][c] / rows[c][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    return total, rows


def probe() -> float:
    """Seconds taken by one kernel run."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


def probe_median(runs: int) -> float:
    return statistics.median(probe() for _ in range(runs))
