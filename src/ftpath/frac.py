"""Exact fractional relaxation and integrality-gap instrumentation.

The relaxation replaces edge purchases with capacities ``x`` in [0, 1]
and asks that after any failure of at most k faulty edges a full unit of
s-t flow still fits.  Desk-scale instances are solved exactly: the
per-scenario flow conditions collapse, cut by cut, into ``sum of x over
the cut minus its k largest faulty values >= 1``.  An inclusion-minimal
cut C with f faulty edges gets its comb(f, min(f, k)) scenario rows
``x(C - S) >= 1``, one per set S of min(f, k) faulty edges (at f <= k,
the plain row of its safe edges), when they are at most 2(1 + f), and
otherwise the threshold block of Bertsimas & Sim (Oper. Res. 52, 2004):
1 + f rows and 1 + f variables.  So the swap never grows the dual
tableau.  A plain or scenario row whose edges contain another's is
implied by it and dropped.  Every row is ``>=`` and every cost at least
0, so ``simplex.solve_lp`` solves the LP through its dual from the slack
basis, with no phase 1, and returns the lexicographically smallest
optimal point.  Edge variables come first and both encodings cut out
the same set of ``x``, so that point's ``x`` does not depend on the
encoding.  The answer is then checked.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from operator import mul

from . import flow, oracle, simplex
# is_feasible is not called here; perfbench's tracer wraps it.
from .core import (BadParameters, CapExceeded, Infeasible, Instance,
                   SolverCheckFailed, build_instance, is_feasible)

__all__ = ["TooLargeForExactLP", "CapacityVector", "GapReport", "solve_frac",
           "gap_family", "rounding_vector", "gap_report",
           "fractional_max_flow", "enumerate_cut_edge_sets"]

# Entries of the dense tableau of the LP's dual, each at least a pointer.
# The largest LP of the tests, random_001 of `ftp gen --kind random --seed 8
# --n 8 --edges 21 --k 2`, has about 133,000; those of the benchmark a few hundred.
TABLEAU_CAP = 1_000_000
MAX_CUT_ENUMERATION = 2**18


class TooLargeForExactLP(CapExceeded):
    """The cut enumeration or the exact LP would exceed its size cap."""


@dataclass(frozen=True)
class CapacityVector:
    """A fractional solution: exact per-edge capacities and their cost."""

    x: tuple[Fraction, ...]
    value: Fraction


@dataclass(frozen=True)
class GapReport:
    """Integral versus fractional optimum on one instance."""

    integral_opt: int
    fractional_opt: Fraction
    ratio: Fraction


def enumerate_cut_edge_sets(instance: Instance) -> list[tuple[int, ...]]:
    """Inclusion-minimal s-t cut edge sets, deduplicated, sorted.

    Every s-side S is enumerated, so this is exponential in the vertex
    count; callers cap sizes first.  The edges leaving S form a minimal
    cut exactly when each has its tail reachable from s inside S and its
    head reaching t outside S (Ford & Fulkerson, 1962); with s = t, only
    the empty set does.  Each minimal cut leaves the side s reaches without it.
    """
    s, t = instance.s, instance.t
    # Bit i of a mask is vertex order[i]: the other vertices, then s, then t.
    order = [v for v in range(instance.vertex_count) if v not in (s, t)] + [s] + [t] * (t != s)
    bit = {v: 1 << i for i, v in enumerate(order)}
    # An undirected edge is two opposite arcs; loops never cross.
    arcs = [(bit[a], bit[b], eid) for eid, (u, v) in enumerate(zip(instance._u, instance._v))
            for a, b in ((u, v), (v, u))[:2 - instance.directed]]
    out, into = dict.fromkeys(bit.values(), 0), dict.fromkeys(bit.values(), 0)
    for a, b, _ in arcs:
        out[a] |= b
        into[b] |= a
    s_bit, t_bit, full = bit[s], bit[t] if t != s else 0, (1 << len(order)) - 1
    cuts: set[tuple[int, ...]] = set()
    for side in range(s_bit, 2 * s_bit):  # s and any set of the lower bits
        rest = full ^ side
        from_s, to_t = _closure(s_bit, side, out), _closure(t_bit, rest, into)
        if all(a & from_s and b & to_t for a, b, _ in arcs if a & side and b & rest):
            cuts.add(tuple(eid for a, b, eid in arcs if a & side and b & rest))
    return sorted(cuts)


def _closure(seed: int, allowed: int, neighbours: dict[int, int]) -> int:
    # The vertices of ``allowed`` that ``seed`` reaches inside it, as a mask.
    reach = frontier = seed
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= neighbours[low]
            frontier ^= low
        frontier = step & allowed & ~reach
        reach |= frontier
    return reach


def solve_frac(instance: Instance) -> CapacityVector:
    """Exact optimum of the fractional relaxation.

    ``x`` is the lexicographically smallest optimal vector by edge id.

    Raises:
        Infeasible: even buying every edge is infeasible, which an empty
            scenario row shows.
        TooLargeForExactLP: the cut enumeration or LP would be too big.
    """
    m = len(instance._w)
    if instance.s == instance.t:
        return CapacityVector((Fraction(0),) * m, Fraction(0))
    # Are there more than MAX_CUT_ENUMERATION s-sides, 2**(n - 2)?  Compared
    # by exponent, and before anything allocates per-vertex lists, so a
    # huge vertex count is refused at once.
    if instance.vertex_count - 2 > MAX_CUT_ENUMERATION.bit_length() - 1:
        raise TooLargeForExactLP(
            f"{instance.vertex_count} vertices give too many cuts to enumerate")
    cuts = enumerate_cut_edge_sets(instance)
    k = instance.k
    faulty = instance.faulty_ids
    masks: set[int] = set()  # plain and scenario rows, as edge bitmasks
    blocks: list[tuple[tuple[int, ...], list[int]]] = []
    for cut in cuts:
        cut_faulty = [eid for eid in cut if eid in faulty]
        f, fail = len(cut_faulty), min(len(cut_faulty), k)
        if comb(f, fail) <= 2 * (1 + f):
            # One row x(C - S) >= 1 per set S of min(f, k) faulty edges.
            whole = sum(1 << eid for eid in cut)
            masks.update(whole - sum(1 << eid for eid in failed)
                         for failed in combinations(cut_faulty, fail))
        else:
            blocks.append((cut, cut_faulty))
    # The empty row: a minimal cut of at most k edges, all faulty, or the
    # empty cut of disconnected terminals.
    if 0 in masks:
        raise Infeasible("instance is infeasible even with every edge bought")
    kept: list[int] = []
    for mask in sorted(masks, key=lambda mask: (mask.bit_count(), mask)):
        if all(mask & low != low for low in kept):
            kept.append(mask)

    # The cap is checked on this LP before the simplex runs.  Each block
    # adds a threshold and one overshoot per faulty edge, each with its
    # row.  The simplex works on the dual, one tableau row per variable,
    # with a column per row, a slack column per variable and the rhs last.
    extra = len(blocks) + sum(len(cut_faulty) for _, cut_faulty in blocks)
    num_vars = m + extra
    columns = len(kept) + extra + num_vars + 1
    if num_vars * columns > TABLEAU_CAP:
        raise TooLargeForExactLP(
            f"LP tableau of {num_vars} rows x {columns} columns exceeds "
            f"the cap of {TABLEAU_CAP} entries")

    rows: list[tuple[dict[int, int], int]] = [
        (dict.fromkeys((eid for eid in range(m) if mask >> eid & 1), 1), 1) for mask in kept]
    next_var = m
    for cut, cut_faulty in blocks:
        # sum(x over cut) - (k largest faulty x) >= 1, linearized with
        # a threshold theta and overshoot variables z >= x - theta.
        theta, zs = next_var, range(next_var + 1, next_var + 1 + len(cut_faulty))
        next_var = zs.stop
        rows.append(({**dict.fromkeys(cut, 1), theta: -k, **dict.fromkeys(zs, -1)}, 1))
        rows += (({z: 1, theta: 1, eid: -1}, 0) for z, eid in zip(zs, cut_faulty))

    x, value = simplex.solve_lp(list(instance._w), rows, num_vars)
    _check_solution(instance, rows, x, value)
    return CapacityVector(tuple(x[:m]), value)


def _check_solution(instance: Instance, rows, x: list[Fraction], value: Fraction) -> None:
    """Raise ``SolverCheckFailed`` unless ``x`` is a feasible point of cost
    ``value`` with every edge capacity in [0, 1].

    So ``value`` is at least the optimum; no dual is checked, so nothing
    here proves that no feasible point costs less.  The lexicographically
    smallest optimum never puts an edge above 1: lowering such a capacity
    to 1 keeps every scenario cut at 1 or more.
    """
    scale = lcm(*(v.denominator for v in x))
    scaled = [v.numerator * (scale // v.denominator) for v in x]
    if any(v < 0 for v in scaled) or any(
            sum(a * scaled[j] for j, a in coeffs.items()) < b * scale for coeffs, b in rows):
        raise SolverCheckFailed("frac LP solution violates a cut row")
    cost = sum(map(mul, instance._w, scaled))
    if cost != value * scale:
        raise SolverCheckFailed(
            f"frac LP value {value} differs from the cost {Fraction(cost, scale)} of its x")
    if any(v > scale for v in scaled[:len(instance._w)]):
        raise SolverCheckFailed("frac LP solution puts an edge above capacity 1")


def gap_family(D: int, k: int) -> Instance:
    """The worst-case family: D parallel faulty unit edges, budget k.

    Its integral optimum is k+1 while the fractional optimum is
    D/(D-k), so the ratio approaches k+1 as D grows.

    Raises:
        BadParameters: ``D < k+1`` (the family would be infeasible).
    """
    if k < 0 or D < k + 1:
        raise BadParameters(f"need D >= k+1, got D={D}, k={k}")
    return build_instance(False, 2, 0, 1, k, [(0, 1, 1, True)] * D)


def rounding_vector(x: CapacityVector, instance: Instance) -> tuple[Fraction, ...]:
    """Scale a fractional solution so every cut carries k+1 capacity.

    Safe edges are scaled by k+1 outright; faulty edges are scaled but
    clipped at one.  The result dominates an integral (k+1)-unit flow,
    which is how the k+1 bound on the integrality gap arises.
    """
    k = instance.k
    scale = Fraction(k + 1)
    out = []
    for e in instance.edges:
        xe = x.x[e.id]
        ye = scale * xe
        if e.faulty:
            ye = min(Fraction(1), ye)
        out.append(ye)
    return tuple(out)


def fractional_max_flow(instance: Instance, capacities, banned=frozenset()) -> Fraction:
    """Exact max s-t flow under rational edge capacities, ``banned`` edges failed.

    Used to verify fractional solutions scenario by scenario.
    """
    if instance.s == instance.t:
        raise ValueError("terminals must differ")
    ids = [e.id for e in instance.edges
           if e.id not in banned and Fraction(capacities[e.id]) > 0]
    arcs = tuple(a._replace(capacity=Fraction(capacities[a.origin]))
                 for a in flow.edge_network(instance, 1, ids).arcs)
    total = sum(a.capacity for a in arcs)
    net = flow.FlowNetwork(instance.vertex_count, arcs)
    return Fraction(flow.max_flow(net, instance.s, instance.t, total).value)


def gap_report(D: int, k: int) -> GapReport:
    """Exact integral and fractional optima for the worst-case family."""
    instance = gap_family(D, k)
    frac = solve_frac(instance)
    integral = oracle.brute_force_opt(instance, edge_cap=max(oracle.DEFAULT_EDGE_CAP, D))
    if integral.best is None:
        raise SolverCheckFailed(
            f"oracle found no feasible subset of gap_family({D}, {k})")
    ratio = Fraction(integral.best.cost) / frac.value
    return GapReport(integral.best.cost, frac.value, ratio)
