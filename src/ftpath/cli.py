"""Command-line front end: solve, check, gap, bench, gen.

Instances travel as line-oriented text documents (one edge per line) or
a DIMACS-like edge list with a faulty column.  Output documents are
deterministic: the same input and flags produce byte-identical stdout.
Wall-clock times go only to the append-only run log (FTP_LOG_DIR).

Exit codes: 0 success, 1 nothing to do, 2 infeasible instance,
3 parse/validation error, 4 a size cap was exceeded, 5 internal error
(a solver failed its own output check, or any other unexpected
exception).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
from fractions import Fraction

from . import approx, bipath, dag, frac, oracle, srp
from .core import (FTPError, Infeasible, Instance, ScenarioSpaceTooLarge,
                   Solution, ValidationError, build_instance, is_feasible)
from .shortest import shortest_path_solution

__all__ = ["main", "parse_instance", "serialize_instance", "parse_solution",
           "serialize_solution", "ParseError"]

EXIT_OK = 0
EXIT_EMPTY = 1
EXIT_INFEASIBLE = 2
EXIT_INVALID = 3
EXIT_CAPS = 4
EXIT_INTERNAL = 5

ALGORITHMS = ("auto", "bipath", "dag", "srp", "approx-k", "approx-k1",
              "oracle", "frac")

_CAP_ERRORS = (ScenarioSpaceTooLarge, dag.ConfigurationSpaceTooLarge,
               frac.TooLargeForExactLP, oracle.InstanceTooLargeForOracle)


class ParseError(FTPError):
    """A document is malformed."""


# ---------------------------------------------------------------------------
# Instance documents

INSTANCE_HEADER = "ftp-instance v1"


def serialize_instance(instance: Instance) -> str:
    lines = [INSTANCE_HEADER,
             f"directed: {'true' if instance.directed else 'false'}",
             f"vertices: {instance.vertex_count}",
             f"s: {instance.s}",
             f"t: {instance.t}",
             f"k: {instance.k}"]
    for e in instance.edges:
        flag = "faulty" if e.faulty else "safe"
        lines.append(f"edge {e.id} {e.u} {e.v} {e.w} {flag}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Instance:
    """Parse the native document; unknown or repeated fields are errors."""
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    if not lines or lines[0] != INSTANCE_HEADER:
        raise ParseError(f"missing '{INSTANCE_HEADER}' header")
    fields: dict[str, str] = {}
    edges: list[tuple[int, int, int, bool]] = []
    expected_id = 0
    for line in lines[1:]:
        if line.startswith("edge "):
            parts = line.split()
            if len(parts) != 6:
                raise ParseError(f"bad edge line: {line!r}")
            _, eid, u, v, w, flag = parts
            if flag not in ("faulty", "safe"):
                raise ParseError(f"edge flag must be 'faulty' or 'safe': {line!r}")
            try:
                eid, u, v, w = int(eid), int(u), int(v), int(w)
            except ValueError as exc:
                raise ParseError(f"bad edge numbers: {line!r}") from exc
            if eid != expected_id:
                raise ParseError(f"edge ids must be dense and ordered; got {eid}, "
                                 f"expected {expected_id}")
            expected_id += 1
            edges.append((u, v, w, flag == "faulty"))
            continue
        if ":" not in line:
            raise ParseError(f"unrecognized line: {line!r}")
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key not in ("directed", "vertices", "s", "t", "k"):
            raise ParseError(f"unknown field {key!r}")
        if key in fields:
            raise ParseError(f"field {key!r} given twice")
        fields[key] = value
    missing = {"directed", "vertices", "s", "t", "k"} - set(fields)
    if missing:
        raise ParseError(f"missing fields: {', '.join(sorted(missing))}")
    if fields["directed"] not in ("true", "false"):
        raise ParseError("field 'directed' must be true or false")
    try:
        return build_instance(fields["directed"] == "true", int(fields["vertices"]),
                              int(fields["s"]), int(fields["t"]), int(fields["k"]),
                              edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_dimacs(text: str) -> Instance:
    """DIMACS-like dialect: p/n/a lines, 1-indexed vertices, faulty column."""
    directed = None
    vertices = edge_count = k = None
    s = t = None
    edges: list[tuple[int, int, int, bool]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if parts[0] == "p":
                if len(parts) != 6 or parts[1] != "ftp":
                    raise ParseError(f"bad problem line: {line!r}")
                vertices, edge_count, d_flag, k = (int(parts[2]), int(parts[3]),
                                                   parts[4], int(parts[5]))
                if d_flag not in ("0", "1"):
                    raise ParseError("directed flag must be 0 or 1")
                directed = d_flag == "1"
            elif parts[0] == "n":
                if len(parts) != 3 or parts[1] not in ("s", "t"):
                    raise ParseError(f"bad terminal line: {line!r}")
                if parts[1] == "s":
                    s = int(parts[2]) - 1
                else:
                    t = int(parts[2]) - 1
            elif parts[0] == "a":
                if len(parts) != 5:
                    raise ParseError(f"bad arc line: {line!r}")
                u, v, w, f = (int(parts[1]) - 1, int(parts[2]) - 1,
                              int(parts[3]), parts[4])
                if f not in ("0", "1"):
                    raise ParseError("faulty column must be 0 or 1")
                edges.append((u, v, w, f == "1"))
            else:
                raise ParseError(f"unrecognized line: {line!r}")
        except ValueError as exc:
            raise ParseError(f"bad number in line: {line!r}") from exc
    if directed is None or s is None or t is None:
        raise ParseError("missing p/n lines")
    if edge_count != len(edges):
        raise ParseError(f"problem line promises {edge_count} edges, got {len(edges)}")
    return build_instance(directed, vertices, s, t, k, edges)


def load_instance(path: str, fmt: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_dimacs(text) if fmt == "dimacs" else parse_instance(text)


# ---------------------------------------------------------------------------
# Solution documents

SOLUTION_HEADER = "ftp-solution v1"


def serialize_solution(solution: Solution, algorithm: str) -> str:
    lines = [SOLUTION_HEADER,
             f"algorithm: {algorithm}",
             f"status: {solution.status}",
             f"cost: {solution.cost}",
             "edges: " + " ".join(str(e) for e in sorted(solution.edges))]
    if solution.ratio_bound is not None:
        lines.append(f"ratio-bound: {solution.ratio_bound[0]}/{solution.ratio_bound[1]}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> frozenset[int]:
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    if not lines or lines[0] != SOLUTION_HEADER:
        raise ParseError(f"missing '{SOLUTION_HEADER}' header")
    edges = None
    for line in lines[1:]:
        key, _, value = line.partition(":")
        key = key.strip()
        if key not in ("algorithm", "status", "cost", "edges", "ratio-bound"):
            raise ParseError(f"unknown field {key!r}")
        if key == "edges":
            if edges is not None:
                raise ParseError("field 'edges' given twice")
            value = value.strip()
            try:
                edges = frozenset(int(x) for x in value.split()) if value else frozenset()
            except ValueError as exc:
                raise ParseError(f"bad edge list: {value!r}") from exc
    if edges is None:
        raise ParseError("solution document has no 'edges' field")
    return edges


# ---------------------------------------------------------------------------
# Run log

def _digest(instance: Instance) -> str:
    return hashlib.sha256(serialize_instance(instance).encode()).hexdigest()


def _log_record(record: dict) -> None:
    log_dir = os.environ.get("FTP_LOG_DIR")
    if not log_dir:
        return
    os.makedirs(log_dir, exist_ok=True)
    path = os.path.join(log_dir, "runs.jsonl")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def _record(instance: Instance, algorithm: str, solution: Solution,
            elapsed: float) -> dict:
    from . import __version__
    return {
        "instance_digest": _digest(instance),
        "solver": algorithm,
        "edges": sorted(solution.edges),
        "cost": solution.cost,
        "status": solution.status,
        "wall_time_s": round(elapsed, 6),
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# Solvers

def _auto_algorithm(instance: Instance, cap_configs: int) -> str:
    if instance.k == 0:
        return "shortest"
    if instance.k == 1:
        return "bipath"
    if instance.directed:
        try:
            layered = dag.layerize(instance)
            if dag.configuration_count(layered, instance.k) <= cap_configs:
                return "dag"
        except dag.NotADag:
            pass
    else:
        try:
            srp.decompose_srp(instance)
            return "srp"
        except srp.NotSeriesParallel:
            pass
    return "approx-k"


def _run_solver(instance: Instance, algorithm: str, cap_scenarios: int,
                cap_configs: int) -> Solution:
    if algorithm == "shortest":
        return shortest_path_solution(instance)
    if algorithm == "bipath":
        return bipath.solve_1ftp(instance)
    if algorithm == "dag":
        return dag.solve_kftp_dag(instance, cap_configs)
    if algorithm == "srp":
        return srp.solve_srp(instance)
    if algorithm == "approx-k":
        return approx.approx_k(instance)
    if algorithm == "approx-k1":
        return approx.approx_kplus1(instance)
    if algorithm == "oracle":
        result = oracle.brute_force_opt(instance, scenario_cap=cap_scenarios)
        if result.best is None:
            raise Infeasible("exhaustive search found no feasible subset")
        return result.best
    raise ValueError(f"unknown algorithm {algorithm!r}")


def cmd_solve(args) -> int:
    instance = load_instance(args.path, args.format)
    algorithm = args.algorithm
    if algorithm == "auto":
        algorithm = _auto_algorithm(instance, args.cap_configs)
    if algorithm == "frac":
        started = time.perf_counter()
        vector = frac.solve_frac(instance)
        elapsed = time.perf_counter() - started
        lines = ["ftp-fractional v1", "algorithm: frac", f"value: {vector.value}"]
        for e in instance.edges:
            lines.append(f"x {e.id} {vector.x[e.id]}")
        sys.stdout.write("\n".join(lines) + "\n")
        _log_record({"instance_digest": _digest(instance), "solver": "frac",
                     "value": str(vector.value),
                     "wall_time_s": round(elapsed, 6)})
        return EXIT_OK
    started = time.perf_counter()
    solution = _run_solver(instance, algorithm, args.cap_scenarios, args.cap_configs)
    elapsed = time.perf_counter() - started
    sys.stdout.write(serialize_solution(solution, algorithm))
    _log_record(_record(instance, algorithm, solution, elapsed))
    return EXIT_OK


def cmd_check(args) -> int:
    instance = load_instance(args.path, args.format)
    try:
        with open(args.solution, "r", encoding="utf-8") as handle:
            candidate = parse_solution(handle.read())
    except OSError as exc:
        raise ParseError(f"cannot read {args.solution}: {exc}") from exc
    if is_feasible(instance, candidate):
        sys.stdout.write("feasible\n")
        return EXIT_OK
    scenario, side = _infeasibility_witness(instance, candidate)
    sys.stdout.write("infeasible\n")
    sys.stdout.write("witness-scenario: " + " ".join(str(e) for e in sorted(scenario)) + "\n")
    sys.stdout.write("witness-cut-side: " + " ".join(str(v) for v in sorted(side)) + "\n")
    return EXIT_OK


def _infeasibility_witness(instance: Instance, candidate) -> tuple[frozenset[int], frozenset[int]]:
    """A failure set of size <= k whose removal disconnects the candidate."""
    from . import flow
    from .core import check_candidate, reachable

    ids = check_candidate(instance, candidate)
    k = instance.k
    arcs = []
    for eid in sorted(ids):
        e = instance.edges[eid]
        if e.u == e.v:
            continue
        cap = 1 if e.faulty else k + 2
        arcs.append(flow.Arc(e.u, e.v, cap, 0, e.id))
        if not instance.directed:
            arcs.append(flow.Arc(e.v, e.u, cap, 0, e.id))
    net = flow.FlowNetwork(instance.vertex_count, tuple(arcs))
    result = flow.max_flow(net, instance.s, instance.t, k + 1)
    assert result.value <= k and result.min_cut is not None
    scenario = frozenset(net.arcs[i].origin for i in result.min_cut)
    surviving = ids - scenario
    side = frozenset(reachable(instance, instance.s, surviving))
    return scenario, side


def cmd_gap(args) -> int:
    report = frac.gap_report(args.D, args.k)
    lines = ["ftp-gap-report v1",
             f"d: {args.D}",
             f"k: {args.k}",
             f"integral: {report.integral_opt}",
             f"fractional: {report.fractional_opt}",
             f"ratio: {report.ratio}"]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Benchmark harness

def _bench_solvers(instance: Instance) -> list[str]:
    names = ["oracle"]
    if instance.k == 0:
        names.append("shortest")
    if instance.k == 1:
        names.append("bipath")
    if instance.directed:
        names.append("dag")
    else:
        names.append("srp")
    names.append("approx-k1")
    if instance.k >= 1:
        names.append("approx-k")
    names.append("frac")
    return names


def cmd_bench(args) -> int:
    try:
        files = sorted(f for f in os.listdir(args.corpus_dir)
                       if not f.startswith("."))
    except OSError as exc:
        sys.stderr.write(f"cannot read corpus directory: {exc}\n")
        return EXIT_INVALID
    files = [f for f in files if os.path.isfile(os.path.join(args.corpus_dir, f))]
    if not files:
        sys.stderr.write("no instances\n")
        return EXIT_EMPTY
    log_dir = os.environ.get("FTP_LOG_DIR")
    log_path = (os.path.join(log_dir, "runs.jsonl") if log_dir
                else args.out + ".runs.jsonl")
    if log_dir:
        os.makedirs(log_dir, exist_ok=True)

    def append_log(record: dict) -> None:
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    rows = []
    any_success = False
    for name in files:
        path = os.path.join(args.corpus_dir, name)
        try:
            instance = load_instance(path, args.format)
        except (ParseError, ValidationError) as exc:
            rows.append((name, "-", f"PARSE-ERROR({exc})", "", "", ""))
            continue
        oracle_cost = None
        for algorithm in _bench_solvers(instance):
            started = time.perf_counter()
            try:
                if algorithm == "frac":
                    vector = frac.solve_frac(instance)
                    elapsed = time.perf_counter() - started
                    rows.append((name, algorithm, "ok", str(vector.value),
                                 _ratio_str(vector.value, oracle_cost),
                                 f"{elapsed:.4f}"))
                    any_success = True
                    continue
                solution = _run_solver(instance, algorithm,
                                       args.cap_scenarios, args.cap_configs)
                elapsed = time.perf_counter() - started
                if algorithm == "oracle":
                    oracle_cost = solution.cost
                rows.append((name, algorithm, solution.status, str(solution.cost),
                             _ratio_str(solution.cost, oracle_cost),
                             f"{elapsed:.4f}"))
                append_log(_record(instance, algorithm, solution, elapsed))
                any_success = True
            except _CAP_ERRORS as exc:
                rows.append((name, algorithm, f"SKIPPED(caps: {exc})", "", "", ""))
            except Infeasible:
                rows.append((name, algorithm, "INFEASIBLE", "", "", ""))
            except (dag.NotADag, srp.NotSeriesParallel, bipath.WrongBudget):
                rows.append((name, algorithm, "NOT-APPLICABLE", "", "", ""))
    header = ("instance", "solver", "status", "cost", "ratio-vs-oracle", "time-s")

    def render(columns: int) -> str:
        widths = [max(len(str(row[i])) for row in rows + [header])
                  for i in range(columns)]
        lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header[:columns]))]
        for row in rows:
            lines.append("  ".join(str(c).ljust(widths[i])
                                   for i, c in enumerate(row[:columns])))
        return "\n".join(lines) + "\n"

    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(render(6))
    # Stdout stays byte-identical across reruns, so no timing column.
    sys.stdout.write(render(5))
    return EXIT_OK if any_success else EXIT_EMPTY


def _ratio_str(cost, oracle_cost) -> str:
    if oracle_cost in (None, 0):
        return "-"
    return f"{Fraction(cost) / Fraction(oracle_cost)}"


# ---------------------------------------------------------------------------
# Instance generator

def _gen_instance(kind: str, rng: random.Random, args) -> Instance:
    n = args.n
    if kind == "gap":
        return frac.gap_family(args.gap_d, args.k)
    if kind == "srp":
        return _gen_srp(rng, args.edges, args.k, args.faulty_prob, args.max_w)
    directed = kind == "dag"
    edges = []
    for _ in range(args.edges):
        if directed:
            u = rng.randrange(n - 1)
            v = rng.randrange(u + 1, n)
        else:
            u = rng.randrange(n)
            v = rng.randrange(n)
            while v == u:
                v = rng.randrange(n)
        edges.append((u, v, rng.randint(0, args.max_w),
                      rng.random() < args.faulty_prob))
    return build_instance(directed, n, 0, n - 1, args.k, edges)


def _gen_srp(rng: random.Random, leaves: int, k: int, faulty_prob: float,
             max_w: int) -> Instance:
    # Random series/parallel composition over `leaves` edges.
    edges: list[tuple[int, int, int, bool]] = []
    next_vertex = 2

    def grow(u: int, v: int, budget: int) -> None:
        nonlocal next_vertex
        if budget == 1:
            edges.append((u, v, rng.randint(0, max_w), rng.random() < faulty_prob))
            return
        left = rng.randint(1, budget - 1)
        if rng.random() < 0.5:
            mid = next_vertex
            next_vertex += 1
            grow(u, mid, left)
            grow(mid, v, budget - left)
        else:
            grow(u, v, left)
            grow(u, v, budget - left)

    grow(0, 1, leaves)
    return build_instance(False, next_vertex, 0, 1, k, edges)


def cmd_gen(args) -> int:
    if args.n < 2:
        raise ParseError("gen needs --n of at least 2")
    os.makedirs(args.out, exist_ok=True)
    rng = random.Random(args.seed)
    written = 0
    for i in range(args.count):
        instance = _gen_instance(args.kind, rng, args)
        name = f"{args.kind}_{i:03d}.ftp"
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as handle:
            handle.write(serialize_instance(instance))
        written += 1
    sys.stdout.write(f"wrote {written} instances to {args.out}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftp",
        description="Solvers for minimum-cost s-t connection under "
                    "bounded faulty-edge failures.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("native", "dimacs"), default="native")
    common.add_argument("--cap-scenarios", type=int, default=10**6)
    common.add_argument("--cap-configs", type=int, default=10**6)

    p_solve = sub.add_parser("solve", parents=[common], help="solve one instance")
    p_solve.add_argument("path")
    p_solve.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", parents=[common],
                             help="verify a solution document")
    p_check.add_argument("path")
    p_check.add_argument("solution")
    p_check.set_defaults(func=cmd_check)

    p_gap = sub.add_parser("gap", help="integrality gap on the parallel family")
    p_gap.add_argument("D", type=int)
    p_gap.add_argument("k", type=int)
    p_gap.set_defaults(func=cmd_gap)

    p_bench = sub.add_parser("bench", parents=[common],
                             help="run every applicable solver over a corpus")
    p_bench.add_argument("corpus_dir")
    p_bench.add_argument("out")
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("gen", help="generate instance corpora")
    p_gen.add_argument("--kind", choices=("random", "dag", "srp", "gap"),
                       default="random")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--count", type=int, default=10)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--n", type=int, default=6)
    p_gen.add_argument("--edges", type=int, default=10)
    p_gen.add_argument("--k", type=int, default=1)
    p_gen.add_argument("--faulty-prob", type=float, default=0.5)
    p_gen.add_argument("--max-w", type=int, default=10)
    p_gen.add_argument("--gap-d", type=int, default=4)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Infeasible as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except _CAP_ERRORS as exc:
        sys.stderr.write(f"caps exceeded: {exc}\n")
        return EXIT_CAPS
    except (ParseError, ValidationError, bipath.WrongBudget, dag.NotADag,
            srp.NotSeriesParallel, srp.TreeMismatch, approx.NotFeasible,
            ValueError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID
    except Exception as exc:
        sys.stderr.write(f"internal error: {exc!r}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
