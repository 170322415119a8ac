"""Series-parallel recognition and the linear-time table solver.

A two-terminal series-parallel graph is built from single edges by
series composition (gluing one graph's sink to the next one's source)
and parallel composition (identifying both terminal pairs).  On such
graphs the problem decomposes: a bottom-up pass over the decomposition
tree produces, at every node, optimal solutions for *all* budgets
``0..k`` at once.

The reduction writes the tree as flat post-order arrays: leaves are the
nodes ``0..m-1`` (the edge ids), merged nodes follow in creation order,
and a child reference is ``index * 2 + flip``.  Parsed expressions and
given trees become the same arrays.  The table is one loop over them and
reads no flips: a series combine is symmetric, and a parallel node keeps
its children in creation order.  Edge sets are nested pairs, flattened
once at the root, so each combine costs O(k^2) regardless of subtree
size.  The ``Leaf``/``Series``/``Parallel`` dataclasses are built, in one
bottom-up pass, only for callers that ask for a tree.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

from .core import (FTPError, Infeasible, Instance, Solution, OPTIMAL,
                   SolverCheckFailed, is_feasible)

__all__ = ["NotSeriesParallel", "TreeMismatch", "Leaf", "Series", "Parallel",
           "DecompositionNode", "SolutionTable", "decompose_srp",
           "parse_decomposition", "format_decomposition", "solve_ftp_srp",
           "solve_srp"]


class NotSeriesParallel(FTPError):
    """The graph does not reduce to a single s-t edge.

    ``remainder`` holds the irreducible multigraph as a tuple of
    ``(u, v, original_edge_ids)`` entries.
    """

    def __init__(self, message: str, remainder: tuple = ()):
        super().__init__(message)
        self.remainder = remainder


class TreeMismatch(FTPError):
    """A supplied decomposition tree does not describe the instance."""


@dataclass(frozen=True)
class Leaf:
    edge: int
    u: int
    v: int


@dataclass(frozen=True)
class Series:
    left: "DecompositionNode"
    right: "DecompositionNode"
    u: int
    v: int


@dataclass(frozen=True)
class Parallel:
    left: "DecompositionNode"
    right: "DecompositionNode"
    u: int
    v: int


DecompositionNode = Union[Leaf, Series, Parallel]


def tree_leaves(node: DecompositionNode) -> Iterator[Leaf]:
    """All leaves, left to right, without recursion."""
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Leaf):
            yield cur
        else:
            stack.append(cur.right)
            stack.append(cur.left)


# ---------------------------------------------------------------------------
# Recognition

_LEAF, _SERIES, _PARALLEL = 0, 1, 2


class _Flat(NamedTuple):
    """A decomposition as post-order arrays (see the module docstring).

    ``flip`` is 1 when the root node's own orientation runs ``t`` to ``s``.
    """

    kind: list[int]
    left: list[int]
    right: list[int]
    flip: int


def _reduce(instance: Instance) -> _Flat:
    """The reduction behind :func:`decompose_srp`, as flat arrays."""
    if instance.directed:
        raise ValueError("series-parallel decomposition requires an undirected instance")
    s, t, n = instance.s, instance.t, instance.vertex_count
    if s == t:
        raise NotSeriesParallel("terminals coincide", ())
    if not instance.edges:
        raise NotSeriesParallel("graph has no edges", ())
    m = len(instance.edges)
    kind, left, right = [_LEAF] * m, [0] * m, [0] * m
    nu = [e.u for e in instance.edges]
    nv = [e.v for e in instance.edges]
    # Live non-loop nodes by pair key min*n+max and by endpoint.
    by_pair: dict[int, set[int]] = {}
    incident: list[set[int]] = [set() for _ in range(n)]
    for i, (u, v) in enumerate(zip(nu, nv)):
        if u != v:
            by_pair.setdefault(u * n + v if u < v else v * n + u, set()).add(i)
            incident[u].add(i)
            incident[v].add(i)
    pair_heap = [p for p, group in by_pair.items() if len(group) >= 2]
    heapq.heapify(pair_heap)
    # Every contractible vertex has an entry (the list is ascending, so
    # already a heap); stale entries are skipped.
    vert_heap = [x for x in range(n) if len(incident[x]) == 2 and x != s and x != t]

    while True:
        while pair_heap:
            p = heapq.heappop(pair_heap)
            if len(by_pair[p]) < 2:
                continue
            # Merged nodes take the largest keys, so the group drains in
            # sorted order: merge the two smallest, append the result.
            a, b = divmod(p, n)
            queue = sorted(by_pair[p])
            for j in range(0, 2 * len(queue) - 2, 2):
                c1, c2 = queue[j], queue[j + 1]
                queue.append(len(kind))
                kind.append(_PARALLEL)
                left.append(c1 * 2 + (nu[c1] != a))
                right.append(c2 * 2 + (nu[c2] != a))
                nu.append(a)
                nv.append(b)
            by_pair[p] = {queue[-1]}
            for x in (a, b):
                incident[x].difference_update(queue)
                incident[x].add(queue[-1])
                if len(incident[x]) == 2 and x != s and x != t:
                    heapq.heappush(vert_heap, x)
        while vert_heap:
            x = heapq.heappop(vert_heap)
            if len(incident[x]) == 2:
                break
        else:
            break
        # No later node joins x, so its two pairs need no update; the
        # cleared set turns its stale heap entries away.
        c1, c2 = sorted(incident[x])
        incident[x].clear()
        a = nv[c1] if nu[c1] == x else nu[c1]
        b = nv[c2] if nu[c2] == x else nu[c2]
        node = len(kind)
        kind.append(_SERIES)
        left.append(c1 * 2 + (nu[c1] == x))
        right.append(c2 * 2 + (nu[c2] != x))
        nu.append(a)
        nv.append(b)
        # a != b: two nodes joining x to one vertex would have merged.
        # The sizes at a and b do not change, so neither needs a push.
        incident[a].discard(c1)
        incident[a].add(node)
        incident[b].discard(c2)
        incident[b].add(node)
        p = a * n + b if a < b else b * n + a
        group = by_pair.setdefault(p, set())
        group.add(node)
        if len(group) >= 2:
            heapq.heappush(pair_heap, p)

    if len(kind) != 2 * m - 1:
        raise NotSeriesParallel(
            f"reduction stuck with {2 * m - len(kind)} edges left",
            _remainder(m, left, right, nu, nv))
    u, v = nu[-1], nv[-1]
    if {u, v} != {s, t}:
        raise NotSeriesParallel(
            f"graph reduces to a single {u}-{v} edge, not to the terminals",
            _remainder(m, left, right, nu, nv))
    return _Flat(kind, left, right, int(u != s))


def _remainder(m: int, left: list[int], right: list[int], nu: list[int],
               nv: list[int]) -> tuple:
    # The nodes no merge consumed, in creation order, with their leaves.
    consumed = bytearray(len(nu))
    for i in range(m, len(nu)):
        consumed[left[i] >> 1] = consumed[right[i] >> 1] = 1
    out = []
    for i in range(len(nu)):
        if consumed[i]:
            continue
        leaves, stack = [], [i]
        while stack:
            j = stack.pop()
            if j < m:
                leaves.append(j)
            else:
                stack += (left[j] >> 1, right[j] >> 1)
        out.append((nu[i], nv[i], tuple(sorted(leaves))))
    return tuple(out)


def decompose_srp(instance: Instance) -> DecompositionNode:
    """Reduce the graph to a two-terminal decomposition tree.

    Parallel merges are exhausted before each series contraction; both
    pick the smallest available vertices/entries, so the tree shape is
    deterministic.  Only undirected instances are supported.

    Raises:
        NotSeriesParallel: the reduction gets stuck; the exception
            carries the irreducible remainder.
    """
    kind, left, right, flip = _reduce(instance)
    # Top-down, a node is flipped when its parent's use of it is.
    flips = bytearray(len(kind))
    flips[-1] = flip
    for i in range(len(kind) - 1, len(instance.edges) - 1, -1):
        flips[left[i] >> 1] = flips[i] ^ (left[i] & 1)
        flips[right[i] >> 1] = flips[i] ^ (right[i] & 1)
    root = _build(instance, kind, left, right, flips)
    if (root.u, root.v) != (instance.s, instance.t):
        raise SolverCheckFailed(
            f"decomposition root joins {root.u}-{root.v}, not {instance.s}-{instance.t}")
    return root


def _build(instance: Instance, kind: list[int], left: list[int], right: list[int],
           flips: bytearray) -> DecompositionNode:
    # Bottom-up dataclasses; a flipped leaf runs v-u, a flipped series
    # node swaps its children.
    built: list = [Leaf(e.id, e.v, e.u) if flips[e.id] else Leaf(e.id, e.u, e.v)
                   for e in instance.edges]
    for i in range(len(built), len(kind)):
        first, second = built[left[i] >> 1], built[right[i] >> 1]
        if kind[i] == _PARALLEL:
            built.append(Parallel(first, second, first.u, first.v))
        else:
            if flips[i]:
                first, second = second, first
            built.append(Series(first, second, first.u, second.v))
    return built[-1]


# ---------------------------------------------------------------------------
# Explicit decompositions: e<id>, S(x,y), P(x,y)

_TOKEN = re.compile(r"\s*(e\d+|S\(|P\(|\)|,)\s*")


def parse_decomposition(text: str, instance: Instance) -> DecompositionNode:
    """Parse a nested decomposition expression and orient it.

    Grammar: ``expr := e<id> | S(expr,expr) | P(expr,expr)``.  The parsed
    tree is validated against the instance (every edge exactly once,
    compositions consistent, root terminals s and t).

    Raises:
        TreeMismatch: syntax error or the tree does not fit the instance.
    """
    pos = 0
    tokens = []
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            raise TreeMismatch(f"bad decomposition syntax at offset {pos}")
        tokens.append(match.group(1))
        pos = match.end()

    # Post-order arrays as in the reduction, with unflipped children.
    # Open compositions are [kind, left-or-None] frames, so expressions
    # may nest arbitrarily deep without recursion.
    m = len(instance.edges)
    kind, left, right = [_LEAF] * m, [0] * m, [0] * m
    leaf_ids: list[int] = []
    frames: list[list] = []
    done: int | None = None
    expect_value = True
    for tok in tokens:
        if expect_value:
            if tok.startswith("e"):
                value = int(tok[1:])
                leaf_ids.append(value)
            elif tok in ("S(", "P("):
                frames.append([_SERIES if tok == "S(" else _PARALLEL, None])
                continue
            else:
                raise TreeMismatch(f"unexpected token {tok!r}")
        elif tok == ",":
            if not frames or frames[-1][1] is not None or done is None:
                raise TreeMismatch("unexpected ','")
            frames[-1][1] = done
            done = None
            expect_value = True
            continue
        elif tok == ")":
            if not frames or frames[-1][1] is None or done is None:
                raise TreeMismatch("unexpected ')'")
            node_kind, first = frames.pop()
            kind.append(node_kind)
            left.append(first * 2)
            right.append(done * 2)
            value = len(kind) - 1
        else:
            raise TreeMismatch(f"unexpected token {tok!r}")
        done = value
        expect_value = False
    if frames or done is None or expect_value:
        raise TreeMismatch("unterminated decomposition expression")
    for eid in leaf_ids:
        if eid >= m:
            raise TreeMismatch(f"leaf references unknown edge e{eid}")
    if sorted(leaf_ids) != list(range(m)):
        raise TreeMismatch("tree leaves do not partition the edge set")

    # Bottom-up, the (u, v) each node can join; top-down, the smallest
    # series midpoint that meets the node's ends.
    ends = [{(e.u, e.v), (e.v, e.u)} if e.u != e.v else set() for e in instance.edges]
    for i in range(m, len(kind)):
        lc, rc = ends[left[i] >> 1], ends[right[i] >> 1]
        if kind[i] == _SERIES:
            ends.append({(a, d) for a, b in lc for c, d in rc if b == c and a != d})
        else:
            ends.append(lc & rc)
    goal: list = [None] * len(kind)
    goal[-1] = (instance.s, instance.t)
    if goal[-1] not in ends[-1]:
        raise TreeMismatch("decomposition does not compose to the terminals")
    for i in range(len(kind) - 1, m - 1, -1):
        a, d = goal[i]
        l, r = left[i] >> 1, right[i] >> 1
        if kind[i] == _PARALLEL:
            goal[l] = goal[r] = goal[i]
        else:
            mid = min(b for x, b in ends[l] if x == a and (b, d) in ends[r])
            goal[l], goal[r] = (a, mid), (mid, d)
    flips = bytearray(len(kind))
    for e in instance.edges:
        flips[e.id] = goal[e.id] != (e.u, e.v)
    return _build(instance, kind, left, right, flips)


def format_decomposition(node: DecompositionNode) -> str:
    """Inverse of :func:`parse_decomposition` (modulo whitespace)."""
    parts: list[str] = []
    stack: list = [(node, False)]
    while stack:
        item, emitted = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        if isinstance(item, Leaf):
            parts.append(f"e{item.edge}")
        else:
            parts.append("S(" if isinstance(item, Series) else "P(")
            stack.append((")", False))
            stack.append((item.right, False))
            stack.append((",", False))
            stack.append((item.left, False))
    return "".join(parts)


# ---------------------------------------------------------------------------
# Table solver


@dataclass(frozen=True)
class SolutionTable:
    """Optimal solutions for every budget ``0..k``; ``None`` = infeasible.

    ``entries[i]`` is ``(edge_ids, cost)`` for budget ``i`` or ``None``.
    Costs are non-decreasing in the budget, and once an entry is
    infeasible all larger budgets are too.
    """

    entries: tuple[tuple[frozenset[int], int] | None, ...]

    def cost(self, budget: int) -> int | None:
        entry = self.entries[budget]
        return None if entry is None else entry[1]

    def solution(self, budget: int) -> Solution:
        entry = self.entries[budget]
        if entry is None:
            raise Infeasible(f"no solution survives {budget} failures")
        return Solution(entry[0], entry[1], OPTIMAL)


def _flatten_tree(instance: Instance, tree: DecompositionNode) -> _Flat:
    # The tree's post-order as flat arrays, checking every node on the way.
    edges = instance.edges
    m = len(edges)
    kind, left, right = [_LEAF] * m, [0] * m, [0] * m
    seen = bytearray(m)
    done: list[int] = []
    stack: list = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Leaf):
            if not 0 <= node.edge < m or seen[node.edge]:
                raise TreeMismatch("tree leaves do not partition the edge set")
            e = edges[node.edge]
            if {node.u, node.v} != {e.u, e.v}:
                raise TreeMismatch(f"leaf e{e.id} joins {node.u}-{node.v}, "
                                   f"but the edge joins {e.u}-{e.v}")
            seen[e.id] = 1
            done.append(e.id * 2 + (node.u != e.u))
        elif not expanded:
            stack += ((node, True), (node.right, False), (node.left, False))
        else:
            a, b = node.left, node.right
            if isinstance(node, Series):
                fits = a.v == b.u and (node.u, node.v) == (a.u, b.v)
            else:
                fits = (a.u, a.v) == (b.u, b.v) == (node.u, node.v)
            if not fits:
                raise TreeMismatch(f"{type(node).__name__} node {node.u}-{node.v} "
                                   "does not fit its children")
            right.append(done.pop())
            left.append(done.pop())
            kind.append(_SERIES if isinstance(node, Series) else _PARALLEL)
            done.append((len(kind) - 1) * 2)
    if not all(seen):
        raise TreeMismatch("tree leaves do not partition the edge set")
    if {tree.u, tree.v} != {instance.s, instance.t}:
        raise TreeMismatch("root terminals differ from the instance terminals")
    return _Flat(kind, left, right, int((done[0] & 1) ^ (tree.u != instance.s)))


_INF = float("inf")


def _table(instance: Instance, flat: _Flat) -> SolutionTable:
    # Entry j of a node is budget j-1; entry 0 is the empty choice (cost
    # 0) a parallel side may take, so a parallel node is the min-plus
    # convolution of its children (first split wins ties) and a series
    # node their sum.  _INF marks an infeasible entry.
    width = instance.k + 2
    costs: list = []
    sets: list = []
    for e in instance.edges:
        costs.append([0, e.w] + [_INF if e.faulty else e.w] * (width - 2))
        sets.append([None] + [e.id] * (width - 1))
    kind, left, right = flat.kind, flat.left, flat.right
    budgets = range(1, width)
    for i in range(len(costs), len(kind)):
        a, b = left[i] >> 1, right[i] >> 1
        ca, cb, sa, sb = costs[a], costs[b], sets[a], sets[b]
        costs[a] = costs[b] = sets[a] = sets[b] = None
        if kind[i] == _SERIES:
            costs.append([x + y for x, y in zip(ca, cb)])
            sets.append([None] + [(sa[j], sb[j]) for j in budgets])
            continue
        cost, chosen = [0], [None]
        for j in budgets:
            best, split = _INF, 0
            for x in range(j + 1):
                if ca[x] + cb[j - x] < best:
                    best, split = ca[x] + cb[j - x], x
            cost.append(best)
            chosen.append((sa[split], sb[j - split]))
        costs.append(cost)
        sets.append(chosen)
    cost, chosen = costs[-1], sets[-1]
    return SolutionTable(tuple(None if cost[j] == _INF
                               else (_edge_set(chosen[j]), cost[j]) for j in budgets))


def _edge_set(nested: object) -> frozenset[int]:
    ids, stack = [], [nested]
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            stack += item
        elif item is not None:
            ids.append(item)
    return frozenset(ids)


def solve_ftp_srp(instance: Instance, tree: DecompositionNode) -> SolutionTable:
    """Run the bottom-up table pass over a decomposition tree.

    Raises:
        TreeMismatch: the tree does not describe the instance.
    """
    return _table(instance, _flatten_tree(instance, tree))


def solve_srp(instance: Instance, tree: DecompositionNode | None = None) -> Solution:
    """Solve at the full budget over ``tree``, else over the reduction (which
    raises :class:`NotSeriesParallel` when the graph does not reduce)."""
    flat = _reduce(instance) if tree is None else _flatten_tree(instance, tree)
    solution = _table(instance, flat).solution(instance.k)
    if not is_feasible(instance, solution.edges):
        raise SolverCheckFailed("srp returned an infeasible edge set")
    return solution
