"""Spans around calls into ftpath's layers, recorded from outside the package.

A :class:`Tracer` replaces a function where its callers look it up (a
module attribute such as ``flow.min_cost_flow``, or a name a module
imported, such as ``dag.is_feasible``) with a wrapper that records one
span per call: name, parent span, start and end.  Every site of one
function shares one span name.  Spans stay in flat in-memory arrays
until :meth:`Tracer.aggregate` and :meth:`Tracer.write` run at the end;
self time is a span's duration minus the durations of its direct
children.  Entering the ``with`` block installs the wrappers, leaving it
puts every original back; one tracer may be entered many times and keeps
adding to the same spans.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Callable

# (span name, [(module, attribute), ...]) for every wrapped function.
# Names are ``<defining module>.<function>``; sites are where callers
# look the function up.
SITES = (
    ("cli.main", [("cli", "main")]),
    ("cli.parse_instance", [("cli", "parse_instance")]),
    ("cli.serialize_solution", [("cli", "serialize_solution")]),
    ("core.is_feasible", [("core", "is_feasible"), ("bipath", "is_feasible"),
                          ("approx", "is_feasible"), ("dag", "is_feasible"),
                          ("frac", "is_feasible")]),
    ("flow.max_flow", [("flow", "max_flow")]),
    ("flow.min_cost_flow", [("flow", "min_cost_flow")]),
    ("flow.balanced_flow", [("flow", "balanced_flow")]),
    ("shortest.safe_subgraph_distances",
     [("bipath", "safe_subgraph_distances"), ("approx", "safe_subgraph_distances")]),
    ("shortest.meta_shortest_path",
     [("bipath", "meta_shortest_path"), ("approx", "meta_shortest_path")]),
    ("bipath.solve_1ftp", [("bipath", "solve_1ftp")]),
    ("bipath.link_lengths", [("bipath", "link_lengths")]),
    ("approx.approx_k", [("approx", "approx_k")]),
    ("dag.solve_kftp_dag", [("dag", "solve_kftp_dag")]),
    ("dag.layerize", [("dag", "layerize")]),
    ("dag.enumerate_configurations", [("dag", "enumerate_configurations")]),
    ("dag.link_cost", [("dag", "link_cost")]),
    ("srp.solve_srp", [("srp", "solve_srp")]),
    ("srp.decompose_srp", [("srp", "decompose_srp")]),
    ("srp.solve_ftp_srp", [("srp", "solve_ftp_srp")]),
    ("frac.solve_frac", [("frac", "solve_frac")]),
    ("frac.enumerate_cut_edge_sets", [("frac", "enumerate_cut_edge_sets")]),
    ("simplex.solve_lp", [("simplex", "solve_lp")]),
)

SPAN_NAMES = tuple(name for name, _ in SITES)


def _count_infeasible(tracer, args, kwargs, result, error):
    if isinstance(error, tracer.modules["core"].Infeasible):
        tracer.counters["flow.min_cost_flow.infeasible"] += 1


def _count_none(tracer, args, kwargs, result, error):
    if error is None and result is None:
        tracer.counters["flow.balanced_flow.none"] += 1


def _count_links(tracer, args, kwargs, result, error):
    if error is None and result is not None:
        tracer.counters["dag.link_cost.links"] += 1


def _count_rejected(tracer, args, kwargs, result, error):
    if isinstance(error, tracer.modules["srp"].NotSeriesParallel):
        tracer.counters["srp.decompose_srp.rejected"] += 1


def _count_cuts(tracer, args, kwargs, result, error):
    if error is None:
        tracer.counters["frac.cuts"] += len(result)


def _count_lp(tracer, args, kwargs, result, error):
    # solve_lp(objective, rows, num_vars)
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    tracer.counters["simplex.lp_rows"] += len(rows)
    tracer.counters["simplex.lp_vars"] += args[2] if len(args) > 2 else kwargs["num_vars"]


# Counters kept per call, by span name: hook(tracer, args, kwargs, result, error).
HOOKS: dict[str, Callable] = {
    "flow.min_cost_flow": _count_infeasible,
    "flow.balanced_flow": _count_none,
    "dag.link_cost": _count_links,
    "srp.decompose_srp": _count_rejected,
    "frac.enumerate_cut_edge_sets": _count_cuts,
    "simplex.solve_lp": _count_lp,
}

# Counters reported per operation; "dag.link_cost.links" feeds a ratio.
COUNTERS = ("flow.min_cost_flow.infeasible", "flow.balanced_flow.none",
            "srp.decompose_srp.rejected", "frac.cuts", "simplex.lp_rows",
            "simplex.lp_vars")


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.missing = []
        try:
            for name_id, (name, sites) in enumerate(SITES):
                wrappers: dict[int, Callable] = {}
                for module_name, attribute in sites:
                    module = self.modules[module_name]
                    original = getattr(module, attribute, None)
                    if original is None:
                        self.missing.append(f"{module_name}.{attribute}")
                        continue
                    wrapper = wrappers.get(id(original))
                    if wrapper is None:
                        wrapper = self._wrap(name_id, original, HOOKS.get(name))
                        wrappers[id(original)] = wrapper
                    self._saved.append((module, attribute, original))
                    setattr(module, attribute, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)

    def _wrap(self, name_id: int, fn: Callable, hook: Callable | None) -> Callable:
        names, parents = self._name, self._parent
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()
                if hook is not None:
                    hook(self, args, kwargs, result, error)

        traced.__wrapped__ = fn
        return traced

    # -- results ------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._name)

    def aggregate(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        calls = [0] * len(SITES)
        inclusive = [0.0] * len(SITES)
        children = [0.0] * len(self._name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        for i in range(len(names)):
            duration = ends[i] - starts[i]
            calls[names[i]] += 1
            inclusive[names[i]] += duration
            if parents[i] >= 0:
                children[parents[i]] += duration
        own = [0.0] * len(SITES)
        for i in range(len(names)):
            own[names[i]] += ends[i] - starts[i] - children[i]
        return {name: (calls[i], inclusive[i], own[i])
                for i, name in enumerate(SPAN_NAMES)}

    def write(self, path: str, limit: int) -> None:
        """Write the first ``limit`` spans as tab-separated lines."""
        count = min(limit, len(self._name))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\tname\tstart_s\tend_s\n")
            origin = self._start[0] if count else 0.0
            for i in range(count):
                handle.write(f"{i}\t{self._parent[i]}\t{SPAN_NAMES[self._name[i]]}\t"
                             f"{self._start[i] - origin:.9f}\t"
                             f"{self._end[i] - origin:.9f}\n")
