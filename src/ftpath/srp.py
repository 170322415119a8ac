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
given trees become the same arrays.  The table is one loop over them that
reads no flips and keeps cost rows only, plus each parallel node's
splits, so a combine costs O(k^2); one top-down walk rebuilds the edge
set of a budget.  The ``Leaf``/``Series``/``Parallel`` dataclasses are
built only for callers that ask for a tree.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from operator import add
from typing import NamedTuple, Union

from .core import (BadParameters, Infeasible, Instance, NotApplicable, Solution,
                   OPTIMAL, SolverCheckFailed, ValidationError, _checked_solution)

__all__ = ["NotSeriesParallel", "TreeMismatch", "Leaf", "Series", "Parallel",
           "DecompositionNode", "SolutionTable", "decompose_srp",
           "parse_decomposition", "format_decomposition", "solve_ftp_srp",
           "solve_srp"]


class NotSeriesParallel(NotApplicable):
    """The graph does not reduce to a single s-t edge.

    ``remainder`` holds the irreducible multigraph as a tuple of
    ``(u, v, original_edge_ids)`` entries.
    """

    def __init__(self, message: str, remainder: tuple = ()):
        super().__init__(message)
        self.remainder = remainder


class TreeMismatch(ValidationError):
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
        raise NotSeriesParallel(
            "series-parallel decomposition requires an undirected instance")
    s, t, n = instance.s, instance.t, instance.vertex_count
    if s == t:
        raise NotSeriesParallel("terminals coincide", ())
    nu, nv = list(instance._u), list(instance._v)
    m = len(nu)
    if not m:
        raise NotSeriesParallel("graph has no edges", ())
    kind, left, right = [_LEAF] * m, [0] * m, [0] * m
    # The live node of each vertex pair (key min*n+max) and the edge
    # groups that share a pair.  A loop carries no s-t flow and stays an
    # unmerged leaf.
    by_pair: dict[int, int] = {}
    groups: dict[int, list[int]] = {}
    loops = 0
    for i, (u, v) in enumerate(zip(nu, nv)):
        if u != v:
            p = u * n + v if u < v else v * n + u
            if p in by_pair:
                groups.setdefault(p, [by_pair[p]]).append(i)
            by_pair[p] = i
        else:
            loops += 1
    if loops == m:
        raise NotSeriesParallel("graph has only self-loops", ())
    # Parallel edges merge first, smallest pair first.  Merged nodes take
    # the largest keys, so a group drains in sorted order: merge the two
    # smallest, append the result.
    for p in sorted(groups):
        a, b = divmod(p, n)
        queue = groups[p]
        for j in range(0, 2 * len(queue) - 2, 2):
            c1, c2 = queue[j], queue[j + 1]
            queue.append(len(kind))
            kind.append(_PARALLEL)
            left.append(c1 * 2 + (nu[c1] != a))
            right.append(c2 * 2 + (nu[c2] != a))
            nu.append(a)
            nv.append(b)
        by_pair[p] = queue[-1]
    # The live nodes at each vertex, read only by size and as a sorted pair.
    incident: list[set[int]] = [set() for _ in range(n)]
    for node in by_pair.values():
        incident[nu[node]].add(node)
        incident[nv[node]].add(node)
    # Then the smallest contractible vertex, again and again; stale heap
    # entries are skipped.  A series node that meets a live node of its
    # pair merges with it at once, so no pair holds two live nodes.
    vert_heap = [x for x in range(n) if len(incident[x]) == 2 and x != s and x != t]
    while vert_heap:
        x = heapq.heappop(vert_heap)
        if len(incident[x]) != 2:
            continue
        # No later node joins x, so its two pairs need no update; the
        # cleared set turns its stale heap entries away.
        c1, c2 = incident[x]
        if c1 > c2:
            c1, c2 = c2, c1
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
        p = a * n + b if a < b else b * n + a
        other = by_pair.get(p)
        if other is not None:
            low = p // n
            kind.append(_PARALLEL)
            left.append(other * 2 + (nu[other] != low))
            right.append(node * 2 + (a != low))
            nu.append(low)
            nv.append(p - low * n)
        by_pair[p] = top = len(kind) - 1
        at_a, at_b = incident[a], incident[b]
        at_a.discard(c1)
        at_a.add(top)
        at_b.discard(c2)
        at_b.add(top)
        # Only a merge changes the sizes at a and b.
        if other is not None:
            at_a.discard(other)
            at_b.discard(other)
            if len(at_a) == 2 and a != s and a != t:
                heapq.heappush(vert_heap, a)
            if len(at_b) == 2 and b != s and b != t:
                heapq.heappush(vert_heap, b)

    u, v = nu[-1], nv[-1]
    left_over = 2 * m - loops - len(kind)
    if left_over != 1 or {u, v} != {s, t}:
        raise NotSeriesParallel(
            f"reduction stuck with {left_over} edges left" if left_over != 1
            else f"graph reduces to a single {u}-{v} edge, not to the terminals",
            _remainder(m, left, right, nu, nv))
    return _Flat(kind, left, right, int(u != s))


def _remainder(m: int, left: list[int], right: list[int], nu: list[int],
               nv: list[int]) -> tuple:
    # The nodes no merge consumed, in creation order, with their leaves;
    # self-loops are left out.
    consumed = bytearray(len(nu))
    for i in range(m, len(nu)):
        consumed[left[i] >> 1] = consumed[right[i] >> 1] = 1
    out = []
    for i in range(len(nu)):
        if consumed[i] or nu[i] == nv[i]:
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
    deterministic.

    Raises:
        NotSeriesParallel: the instance is directed (with an empty
            remainder), or the reduction gets stuck; the exception
            carries the irreducible remainder.  A self-loop, which no
            tree node can hold, is refused with itself as the remainder.
    """
    kind, left, right, flip = _reduce(instance)
    for eid, (u, v) in enumerate(zip(instance._u, instance._v)):
        if u == v:
            raise NotSeriesParallel(f"edge e{eid} is a self-loop at vertex {u}",
                                    ((u, v, (eid,)),))
    # Top-down, a node is flipped when its parent's use of it is.
    flips = bytearray(len(kind))
    flips[-1] = flip
    for i in range(len(kind) - 1, len(instance._u) - 1, -1):
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
    built: list = [Leaf(eid, v, u) if flip else Leaf(eid, u, v)
                   for eid, (u, v, flip) in enumerate(zip(instance._u, instance._v, flips))]
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
    # may nest arbitrarily deep without recursion.  ``done`` is the last
    # finished value, or None while a value is expected.
    us, vs = instance._u, instance._v
    m = len(us)
    kind, left, right = [_LEAF] * m, [0] * m, [0] * m
    leaf_ids: list[int] = []
    frames: list[list] = []
    done: int | None = None
    for tok in tokens:
        if done is None and tok[0] == "e":
            done = int(tok[1:])
            leaf_ids.append(done)
        elif done is None and tok in ("S(", "P("):
            frames.append([_SERIES if tok == "S(" else _PARALLEL, None])
        elif done is not None and tok == "," and frames and frames[-1][1] is None:
            frames[-1][1], done = done, None
        elif done is not None and tok == ")" and frames and frames[-1][1] is not None:
            node_kind, first = frames.pop()
            kind.append(node_kind)
            left.append(first * 2)
            right.append(done * 2)
            done = len(kind) - 1
        else:
            raise TreeMismatch(f"unexpected {tok!r}" if done is not None and tok in ",)"
                               else f"unexpected token {tok!r}")
    if frames or done is None:
        raise TreeMismatch("unterminated decomposition expression")
    for eid in leaf_ids:
        if eid >= m:
            raise TreeMismatch(f"leaf references unknown edge e{eid}")
    if sorted(leaf_ids) != list(range(m)):
        raise TreeMismatch("tree leaves do not partition the edge set")
    for eid, (u, v) in enumerate(zip(us, vs)):
        if u == v:
            raise TreeMismatch(f"leaf e{eid} is a self-loop at vertex {u}")

    # Bottom-up, the (u, v) each node can join; top-down, the smallest
    # series midpoint that meets the node's ends.
    ends = [{(u, v), (v, u)} for u, v in zip(us, vs)]
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
    for eid, (u, v) in enumerate(zip(us, vs)):
        flips[eid] = goal[eid] != (u, v)
    return _build(instance, kind, left, right, flips)


def format_decomposition(node: DecompositionNode) -> str:
    """Inverse of :func:`parse_decomposition` (modulo whitespace)."""
    parts: list[str] = []
    stack: list = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Leaf):
            parts.append(f"e{item.edge}")
        else:
            parts.append("S(" if isinstance(item, Series) else "P(")
            stack += (")", item.right, ",", item.left)
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
    us, vs = instance._u, instance._v
    m = len(us)
    kind, left, right = [_LEAF] * m, [0] * m, [0] * m
    seen = bytearray(m)
    done: list[int] = []
    stack: list = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Leaf):
            eid = node.edge
            if not 0 <= eid < m or seen[eid]:
                raise TreeMismatch("tree leaves do not partition the edge set")
            u, v = us[eid], vs[eid]
            if u == v:
                raise TreeMismatch(f"leaf e{eid} is a self-loop at vertex {u}")
            if {node.u, node.v} != {u, v}:
                raise TreeMismatch(f"leaf e{eid} joins {node.u}-{node.v}, "
                                   f"but the edge joins {u}-{v}")
            seen[eid] = 1
            done.append(eid * 2 + (node.u != u))
        elif not expanded:
            stack += ((node, True), (node.right, False), (node.left, False))
        else:
            a, b = node.left, node.right
            if isinstance(node, Series):
                fits = a.v == b.u and (node.u, node.v) == (a.u, b.v) and a.u != b.v
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


def _costs(instance: Instance, flat: _Flat) -> tuple[list, list]:
    # Entry j of a node is budget j-1; entry 0 is the empty choice (cost
    # 0) a parallel side may take, so a parallel node is the min-plus
    # convolution of its children and a series node their sum; _INF marks
    # an infeasible entry.  Returns the root's costs and each parallel
    # node's splits: per entry, the first left-child entry that attains it.
    # Leaves of one weight and kind share a row, as no row is changed; a
    # faulty leaf's key is ~w.  A node with f faulty leaves costs the same
    # at every budget from f on, so rows stop at budget min(k, |M|).
    keys = [~w if f else w for w, f in zip(instance._w, instance._faulty)]
    width = min(instance.k, sum(key < 0 for key in keys)) + 2
    rows = {key: [0, ~key] + [_INF] * (width - 2) if key < 0 else [0] + [key] * (width - 1)
            for key in set(keys)}
    costs: list = list(map(rows.__getitem__, keys))
    kind, left, right = flat.kind, flat.left, flat.right
    splits: list = [None] * len(kind)
    # Per budget j, the entry pairs (y, j-y) with y >= 1, tried after (0, j).
    budgets = [(j, tuple(zip(range(1, j + 1), range(j - 1, -1, -1)))) for j in range(1, width)]
    for i in range(len(costs), len(kind)):
        a, b = left[i] >> 1, right[i] >> 1
        ca, cb = costs[a], costs[b]
        costs[a] = costs[b] = None
        if kind[i] == _SERIES:
            costs.append(list(map(add, ca, cb)))
            continue
        cost, split = [0], [0]
        for j, pairs in budgets:
            best, x = cb[j], 0
            for y, z in pairs:
                c = ca[y] + cb[z]
                if c < best:
                    best, x = c, y
            cost.append(best)
            split.append(x)
        costs.append(cost)
        splits[i] = split
    return costs[-1], splits


def _entry(instance: Instance, flat: _Flat, cost: list, splits: list, j: int,
           solver: str) -> Solution | None:
    # The root's entry j, its edge set found top-down: a series node
    # passes its entry to both children, a parallel node splits it.  The
    # set is checked at its budget j - 1 and against the table's cost.
    if cost[j] == _INF:
        return None
    m, left, right = len(instance._u), flat.left, flat.right
    ids = []
    stack = [(len(flat.kind) - 1, j)]
    while stack:
        i, b = stack.pop()
        if i < m:
            ids.append(i)
            continue
        split = splits[i]
        x, y = (b, b) if split is None else (split[b], b - split[b])
        if x:
            stack.append((left[i] >> 1, x))
        if y:
            stack.append((right[i] >> 1, y))
    solution = _checked_solution(instance.with_budget(j - 1), ids, OPTIMAL, solver)
    if solution.cost != cost[j]:
        raise SolverCheckFailed(f"srp edge set weighs {solution.cost}, its table entry {cost[j]}")
    return solution


# The most entries, one per budget 0..k, that a SolutionTable may hold.
_TABLE_LIMIT = 10**6


def _table(instance: Instance, flat: _Flat) -> SolutionTable:
    if instance.k >= _TABLE_LIMIT:
        raise BadParameters(f"a table for budget k={instance.k} needs {instance.k + 1} "
                            f"entries, above the bound of {_TABLE_LIMIT}")
    # Each entry is checked at its own budget; budgets past the last repeat it.
    cost, splits = _costs(instance, flat)
    solutions = [_entry(instance, flat, cost, splits, j, f"srp at budget {j - 1}")
                 for j in range(1, len(cost))]
    entries = [None if s is None else (s.edges, s.cost) for s in solutions]
    return SolutionTable(tuple(entries + entries[-1:] * (instance.k + 2 - len(cost))))


def solve_ftp_srp(instance: Instance, tree: DecompositionNode) -> SolutionTable:
    """Run the bottom-up table pass over a decomposition tree.

    Raises:
        TreeMismatch: the tree does not describe the instance.
        BadParameters: the table of budgets ``0..k`` would hold more
            than a million entries; ``solve_srp`` answers such a budget.
    """
    return _table(instance, _flatten_tree(instance, tree))


def solve_srp(instance: Instance, tree: DecompositionNode | None = None) -> Solution:
    """Solve at the full budget over ``tree``, else over the reduction (which
    leaves self-loops out, answers an undirected ``s == t`` with the empty set
    and raises :class:`NotSeriesParallel` when the graph does not reduce)."""
    if tree is None and instance.s == instance.t and not instance.directed:
        return _checked_solution(instance, (), OPTIMAL, "srp")
    flat = _reduce(instance) if tree is None else _flatten_tree(instance, tree)
    cost, splits = _costs(instance, flat)
    solution = _entry(instance, flat, cost, splits, len(cost) - 1, "srp")
    if solution is None:
        raise Infeasible(f"no solution survives {instance.k} failures")
    return solution
