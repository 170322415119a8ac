"""Series-parallel recognition and the linear-time table solver.

A two-terminal series-parallel graph is built from single edges by
series composition (gluing one graph's sink to the next one's source)
and parallel composition (identifying both terminal pairs).  On such
graphs the problem decomposes: a bottom-up pass over the decomposition
tree produces, at every node, optimal solutions for *all* budgets
``0..k`` at once.  Edge sets are held in a persistent union structure so
each combine step costs O(1) regardless of subtree size.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from typing import Iterator, Union

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


def decompose_srp(instance: Instance) -> DecompositionNode:
    """Reduce the graph to a two-terminal decomposition tree.

    Parallel merges are exhausted before each series contraction; both
    pick the smallest available vertices/entries, so the tree shape is
    deterministic.  Only undirected instances are supported.

    Raises:
        NotSeriesParallel: the reduction gets stuck; the exception
            carries the irreducible remainder.
    """
    if instance.directed:
        raise ValueError("series-parallel decomposition requires an undirected instance")
    if instance.s == instance.t:
        raise NotSeriesParallel("terminals coincide", ())
    if not instance.edges:
        raise NotSeriesParallel("graph has no edges", ())

    # Work entries: key -> (u, v, worktree).  Worktrees are nested tuples
    # ('leaf', eid) / ('S', a, b) / ('P', a, b) / ('flip', a), flips kept
    # lazy so reduction stays near-linear.
    entries: dict[int, tuple[int, int, object]] = {}
    by_pair: dict[frozenset, set[int]] = {}
    incident: dict[int, set[int]] = {}
    next_key = 0
    for e in instance.edges:
        entries[next_key] = (e.u, e.v, ("leaf", e.id))
        if e.u != e.v:
            by_pair.setdefault(frozenset((e.u, e.v)), set()).add(next_key)
            incident.setdefault(e.u, set()).add(next_key)
            incident.setdefault(e.v, set()).add(next_key)
        next_key += 1

    def oriented(key: int, a: int, b: int) -> object:
        u, v, tree = entries[key]
        if (u, v) == (a, b):
            return tree
        return ("flip", tree)

    pair_heap = [tuple(sorted(p)) for p, ks in by_pair.items() if len(ks) >= 2]
    heapq.heapify(pair_heap)
    vert_heap = [v for v, ks in incident.items()
                 if len(ks) == 2 and v not in (instance.s, instance.t)]
    heapq.heapify(vert_heap)

    def add_entry(a: int, b: int, tree: object) -> None:
        nonlocal next_key
        entries[next_key] = (a, b, tree)
        if a != b:
            pair = frozenset((a, b))
            group = by_pair.setdefault(pair, set())
            group.add(next_key)
            incident.setdefault(a, set()).add(next_key)
            incident.setdefault(b, set()).add(next_key)
            if len(group) >= 2:
                heapq.heappush(pair_heap, tuple(sorted(pair)))
            for x in (a, b):
                if len(incident[x]) == 2 and x not in (instance.s, instance.t):
                    heapq.heappush(vert_heap, x)
        next_key += 1

    def drop_entry(key: int) -> None:
        u, v, _ = entries.pop(key)
        if u != v:
            by_pair[frozenset((u, v))].discard(key)
            incident[u].discard(key)
            incident[v].discard(key)
            for x in (u, v):
                if len(incident[x]) == 2 and x not in (instance.s, instance.t):
                    heapq.heappush(vert_heap, x)

    while True:
        progressed = False
        while pair_heap:
            pa, pb = heapq.heappop(pair_heap)
            group = by_pair.get(frozenset((pa, pb)), set())
            while len(group) >= 2:
                k1, k2 = sorted(group)[:2]
                t1 = oriented(k1, pa, pb)
                t2 = oriented(k2, pa, pb)
                drop_entry(k1)
                drop_entry(k2)
                add_entry(pa, pb, ("P", t1, t2))
                group = by_pair.get(frozenset((pa, pb)), set())
                progressed = True
        while vert_heap:
            # Heap entries can be stale; contract the first live one.
            x = heapq.heappop(vert_heap)
            ks = incident.get(x, set())
            if len(ks) != 2 or x in (instance.s, instance.t):
                continue
            k1, k2 = sorted(ks)
            a = next(p for p in entries[k1][:2] if p != x)
            b = next(p for p in entries[k2][:2] if p != x)
            t1 = oriented(k1, a, x)
            t2 = oriented(k2, x, b)
            drop_entry(k1)
            drop_entry(k2)
            add_entry(a, b, ("S", t1, t2))
            progressed = True
            break
        if not progressed:
            break

    if len(entries) != 1:
        raise NotSeriesParallel(
            "reduction stuck with {} edges left".format(len(entries)),
            _remainder(instance, entries))
    (u, v, tree), = entries.values()
    if {u, v} != {instance.s, instance.t}:
        raise NotSeriesParallel(
            f"graph reduces to a single {u}-{v} edge, not to the terminals",
            _remainder(instance, entries))
    if (u, v) != (instance.s, instance.t):
        tree = ("flip", tree)
    return _materialize(instance, tree, instance.s, instance.t)


def _remainder(instance: Instance, entries: dict) -> tuple:
    out = []
    for key in sorted(entries):
        u, v, tree = entries[key]
        leaves = tuple(sorted(_work_leaf_ids(tree)))
        out.append((u, v, leaves))
    return tuple(out)


def _work_leaf_ids(tree: object) -> list[int]:
    ids, stack = [], [tree]
    while stack:
        node = stack.pop()
        kind = node[0]
        if kind == "leaf":
            ids.append(node[1])
        elif kind == "flip":
            stack.append(node[1])
        else:
            stack.append(node[1])
            stack.append(node[2])
    return ids


def _materialize(instance: Instance, tree: object, s: int, t: int) -> DecompositionNode:
    # Resolve lazy flips and assign terminal pairs, without recursion.
    # Post-order over (node, flipped); children of a flipped series swap.
    def resolved(node: object, flipped: bool) -> tuple:
        while node[0] == "flip":
            node = node[1]
            flipped = not flipped
        return node, flipped

    root = resolved(tree, False)
    order: list[tuple] = []
    stack = [root]
    while stack:
        node, flipped = stack.pop()
        order.append((node, flipped))
        if node[0] != "leaf":
            stack.append(resolved(node[1], flipped))
            stack.append(resolved(node[2], flipped))
    built: dict[tuple[int, bool], DecompositionNode] = {}
    for node, flipped in reversed(order):
        key = (id(node), flipped)
        if node[0] == "leaf":
            e = instance.edges[node[1]]
            u, v = (e.v, e.u) if flipped else (e.u, e.v)
            built[key] = Leaf(node[1], u, v)
            continue
        first, second = (node[2], node[1]) if (node[0] == "S" and flipped) else (node[1], node[2])
        ln, lf = resolved(first, flipped)
        rn, rf = resolved(second, flipped)
        left = built[(id(ln), lf)]
        right = built[(id(rn), rf)]
        if node[0] == "S":
            built[key] = Series(left, right, left.u, right.v)
        else:
            built[key] = Parallel(left, right, left.u, left.v)
    result = built[(id(root[0]), root[1])]
    if (result.u, result.v) != (s, t):
        raise SolverCheckFailed(
            f"decomposition root joins {result.u}-{result.v}, not {s}-{t}")
    return result


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
        m = _TOKEN.match(text, pos)
        if not m:
            raise TreeMismatch(f"bad decomposition syntax at offset {pos}")
        tokens.append(m.group(1))
        pos = m.end()

    # Stack of open compositions, each [kind, left-or-None]; expressions
    # may nest arbitrarily deep, so no recursion.
    frames: list[list] = []
    done: object | None = None
    expect_value = True
    for tok in tokens:
        if expect_value:
            if tok.startswith("e"):
                value: object = ("leaf", int(tok[1:]))
            elif tok in ("S(", "P("):
                frames.append([tok[0], None])
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
            kind, left = frames.pop()
            value = (kind, left, done)
        else:
            raise TreeMismatch(f"unexpected token {tok!r}")
        done = value
        expect_value = False
    if frames or done is None or expect_value:
        raise TreeMismatch("unterminated decomposition expression")
    return _orient_work_tree(done, instance)


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


def _orient_work_tree(work: object, instance: Instance) -> DecompositionNode:
    # Bottom-up candidate terminal pairs, then a top-down assignment.
    m = len(instance.edges)
    seen: list[int] = []
    post: list = []
    stack = [work]
    while stack:
        node = stack.pop()
        post.append(node)
        if node[0] != "leaf":
            stack.append(node[1])
            stack.append(node[2])
    candidates: dict[int, set[tuple[int, int]]] = {}
    for node in reversed(post):
        if node[0] == "leaf":
            eid = node[1]
            if not 0 <= eid < m:
                raise TreeMismatch(f"leaf references unknown edge e{eid}")
            seen.append(eid)
            e = instance.edges[eid]
            cands = set()
            if e.u != e.v:
                cands = {(e.u, e.v), (e.v, e.u)}
            candidates[id(node)] = cands
        else:
            lc = candidates[id(node[1])]
            rc = candidates[id(node[2])]
            cands = set()
            for a, b in lc:
                for c, d in rc:
                    if node[0] == "S" and b == c and a != d:
                        cands.add((a, d))
                    elif node[0] == "P" and (a, b) == (c, d):
                        cands.add((a, b))
            candidates[id(node)] = cands
    if sorted(seen) != list(range(m)):
        raise TreeMismatch("tree leaves do not partition the edge set")
    target = (instance.s, instance.t)
    if target not in candidates[id(work)]:
        raise TreeMismatch("decomposition does not compose to the terminals")

    def assign(node: object, want: tuple[int, int]) -> DecompositionNode:
        frames: list = [(node, want, False)]
        done: dict[tuple[int, tuple[int, int]], DecompositionNode] = {}
        while frames:
            cur, goal, expanded = frames.pop()
            key = (id(cur), goal)
            if key in done:
                continue
            if cur[0] == "leaf":
                done[key] = Leaf(cur[1], *goal)
                continue
            a, d = goal
            if cur[0] == "P":
                lg = rg = goal
            else:
                mids = sorted(b for (x, b) in candidates[id(cur[1])]
                              if x == a and (b, d) in candidates[id(cur[2])])
                if not mids:
                    raise TreeMismatch("series composition cannot meet its terminals")
                lg, rg = (a, mids[0]), (mids[0], d)
            if expanded:
                if cur[0] == "S":
                    done[key] = Series(done[(id(cur[1]), lg)], done[(id(cur[2]), rg)], a, d)
                else:
                    done[key] = Parallel(done[(id(cur[1]), lg)], done[(id(cur[2]), rg)], a, d)
            else:
                frames.append((cur, goal, True))
                frames.append((cur[2], rg, False))
                frames.append((cur[1], lg, False))
        return done[(id(node), want)]

    return assign(work, target)


# ---------------------------------------------------------------------------
# Table solver


class _PSet:
    """Persistent edge set: O(1) union, flattened only on demand."""

    __slots__ = ("eid", "left", "right")

    def __init__(self, eid=None, left=None, right=None):
        self.eid = eid
        self.left = left
        self.right = right


_EMPTY = _PSet()


def _union(a: _PSet, b: _PSet) -> _PSet:
    if a is _EMPTY:
        return b
    if b is _EMPTY:
        return a
    return _PSet(left=a, right=b)


def _flatten(pset: _PSet) -> frozenset[int]:
    out: list[int] = []
    stack = [pset]
    while stack:
        node = stack.pop()
        if node is _EMPTY or node is None:
            continue
        if node.eid is not None:
            out.append(node.eid)
        stack.append(node.left)
        stack.append(node.right)
    return frozenset(out)


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


def solve_ftp_srp(instance: Instance, tree: DecompositionNode) -> SolutionTable:
    """Run the bottom-up table pass over a decomposition tree.

    Raises:
        TreeMismatch: the tree does not describe the instance.
    """
    leaf_ids = [leaf.edge for leaf in tree_leaves(tree)]
    if sorted(leaf_ids) != list(range(len(instance.edges))):
        raise TreeMismatch("tree leaves do not partition the edge set")
    if {tree.u, tree.v} != {instance.s, instance.t}:
        raise TreeMismatch("root terminals differ from the instance terminals")
    k = instance.k
    width = k + 1

    # Iterative post-order; per node a pair (costs, sets) of length k+1,
    # entry None meaning infeasible at that budget.
    results: dict[int, tuple[list, list]] = {}
    stack: list[tuple[DecompositionNode, bool]] = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Leaf):
            e = instance.edges[node.edge]
            base = _PSet(eid=node.edge)
            if e.faulty:
                costs = [e.w] + [None] * (width - 1)
                sets = [base] + [None] * (width - 1)
            else:
                costs = [e.w] * width
                sets = [base] * width
            results[id(node)] = (costs, sets)
            continue
        if not expanded:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
            continue
        c1, s1 = results.pop(id(node.left))
        c2, s2 = results.pop(id(node.right))
        costs: list = [None] * width
        sets: list = [None] * width
        if isinstance(node, Series):
            for i in range(width):
                if c1[i] is not None and c2[i] is not None:
                    costs[i] = c1[i] + c2[i]
                    sets[i] = _union(s1[i], s2[i])
        else:
            m1 = max(i for i in range(width) if c1[i] is not None)
            m2 = max(i for i in range(width) if c2[i] is not None)
            for i in range(width):
                if i > m1 + m2 + 1:
                    continue
                best_cost, best_j = None, None
                for j in range(-1, i + 1):
                    w1 = 0 if j == -1 else c1[j]
                    jr = i - j - 1
                    w2 = 0 if jr == -1 else c2[jr]
                    if w1 is None or w2 is None:
                        continue
                    if best_cost is None or w1 + w2 < best_cost:
                        best_cost, best_j = w1 + w2, j
                costs[i] = best_cost
                left_set = _EMPTY if best_j == -1 else s1[best_j]
                right_set = _EMPTY if i - best_j - 1 == -1 else s2[i - best_j - 1]
                sets[i] = _union(left_set, right_set)
        results[id(node)] = (costs, sets)
    costs, sets = results[id(tree)]
    entries = tuple(None if costs[i] is None else (_flatten(sets[i]), costs[i])
                    for i in range(width))
    return SolutionTable(entries)


def solve_srp(instance: Instance,
              tree: DecompositionNode | None = None) -> Solution:
    """Decompose (unless a tree is given) and solve at the full budget."""
    if tree is None:
        tree = decompose_srp(instance)
    solution = solve_ftp_srp(instance, tree).solution(instance.k)
    if not is_feasible(instance, solution.edges):
        raise SolverCheckFailed("srp returned an infeasible edge set")
    return solution
