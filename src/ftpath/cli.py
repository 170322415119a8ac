"""Command-line front end: solve, check, gap, bench, gen.

Instances travel as line-oriented text documents (one edge per line) or
a DIMACS-like edge list with a faulty column.  Output documents are
deterministic: the same input and flags produce byte-identical stdout.
Wall-clock times go only to the append-only run log (FTP_LOG_DIR).

Exit codes: 0 success, 1 nothing to do, 2 infeasible instance (``Infeasible``),
3 usage error, any ``ValidationError`` (a parse error, or a file that cannot be
read or written, the run log included) or ``NotApplicable`` (the chosen solver
does not handle the instance), 4 any ``CapExceeded`` (a size cap refused the
instance), 5 internal error (a solver failed its own output check, or any other
unexpected exception).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from . import __version__, approx, bipath, dag, frac, oracle, srp
from .core import (DEFAULT_SCENARIO_CAP, CapExceeded, Infeasible, Instance,
                   NotApplicable, Solution, ValidationError, _from_columns, _witness,
                   build_instance)
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


class ParseError(ValidationError):
    """A document is malformed."""


# ---------------------------------------------------------------------------
# Instance documents

INSTANCE_HEADER = "ftp-instance v1"
_EDGE_CHUNK = 4096


def serialize_instance(instance: Instance) -> str:
    lines = [INSTANCE_HEADER,
             f"directed: {'true' if instance.directed else 'false'}",
             f"vertices: {instance.vertex_count}",
             f"s: {instance.s}",
             f"t: {instance.t}",
             f"k: {instance.k}"]
    columns = zip(instance._u, instance._v, instance._w, instance._faulty)
    for eid, (u, v, w, faulty) in enumerate(columns):
        lines.append(f"edge {eid} {u} {v} {w} {'faulty' if faulty else 'safe'}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Instance:
    """Parse the native document; unknown or repeated fields are errors."""
    fields: dict[str, str] = {}
    edges: tuple[list, list, list, list] = ([], [], [], [])
    block: list[str] = []
    header = False
    for line in text.splitlines():
        # Unindented edge lines wait in a block, parsed before the next
        # line that could raise and at the end, so errors keep their order.
        if header and line.startswith("edge "):
            block.append(line)
            continue
        line = line.strip()
        if not line or line[0] == "#":
            continue
        if block:
            _parse_edges(block, edges)
            block.clear()
        if not header:
            if line != INSTANCE_HEADER:
                raise ParseError(f"expected '{INSTANCE_HEADER}' header first, "
                                 f"got {line!r}")
            header = True
            continue
        if line.startswith("edge "):
            _parse_edges([line], edges)
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
    _parse_edges(block, edges)
    if not header:
        raise ParseError(f"missing '{INSTANCE_HEADER}' header")
    missing = {"directed", "vertices", "s", "t", "k"} - set(fields)
    if missing:
        raise ParseError(f"missing fields: {', '.join(sorted(missing))}")
    if fields["directed"] not in ("true", "false"):
        raise ParseError("field 'directed' must be true or false")
    try:
        return _from_columns(fields["directed"] == "true", int(fields["vertices"]),
                             int(fields["s"]), int(fields["t"]), int(fields["k"]),
                             *edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _parse_edges(lines: list[str], columns: tuple[list, list, list, list]) -> None:
    """Extend the u, v, w and faulty columns by lines that each begin ``edge ``."""
    # A chunk at a time when every line has six words, ``edge``, four ints
    # and a flag.  Each line's first word is ``edge``, which is neither an
    # int nor a flag, so the checks hold only when each line starts a new
    # six.  Chunks bound the words held at once.
    us = columns[0]
    for start in range(0, len(lines), _EDGE_CHUNK):
        chunk = lines[start:start + _EDGE_CHUNK]
        words = " ".join(chunk).split()
        first = len(us)
        if (len(words) == 6 * len(chunk) and words[::6].count("edge") == len(chunk)
                and set(words[5::6]) <= {"faulty", "safe"}):
            try:
                ids, u, v, w = (list(map(int, words[i::6])) for i in range(1, 5))
            except ValueError:
                pass
            else:
                if ids == list(range(first, first + len(chunk))):
                    for column, part in zip(columns, (u, v, w, map("faulty".__eq__, words[5::6]))):
                        column.extend(part)
                    continue
        # Otherwise line by line, which raises at the first bad one.
        for line in chunk:
            line = line.strip()
            if not line.startswith("edge "):
                raise ParseError(f"unrecognized line: {line!r}")
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
            if eid != len(us):
                raise ParseError(f"edge ids must be dense and ordered; got {eid}, "
                                 f"expected {len(us)}")
            for column, value in zip(columns, (u, v, w, flag == "faulty")):
                column.append(value)


def parse_dimacs(text: str) -> Instance:
    """DIMACS-like dialect: p/n/a lines, 1-indexed vertices, faulty column."""
    directed = None
    vertices = edge_count = k = None
    terminals: dict[str, int] = {}
    edges: tuple[list, list, list, list] = ([], [], [], [])
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if parts[0] == "p":
                if len(parts) != 6 or parts[1] != "ftp":
                    raise ParseError(f"bad problem line: {line!r}")
                if directed is not None:
                    raise ParseError(f"repeated problem line: {line!r}")
                vertices, edge_count, d_flag, k = (int(parts[2]), int(parts[3]),
                                                   parts[4], int(parts[5]))
                if d_flag not in ("0", "1"):
                    raise ParseError("directed flag must be 0 or 1")
                directed = d_flag == "1"
            elif parts[0] == "n":
                if len(parts) != 3 or parts[1] not in ("s", "t"):
                    raise ParseError(f"bad terminal line: {line!r}")
                if parts[1] in terminals:
                    raise ParseError(f"repeated terminal line: {line!r}")
                terminals[parts[1]] = int(parts[2]) - 1
            elif parts[0] == "a":
                if len(parts) != 5:
                    raise ParseError(f"bad arc line: {line!r}")
                u, v, w, f = (int(parts[1]) - 1, int(parts[2]) - 1,
                              int(parts[3]), parts[4])
                if f not in ("0", "1"):
                    raise ParseError("faulty column must be 0 or 1")
                for column, value in zip(edges, (u, v, w, f == "1")):
                    column.append(value)
            else:
                raise ParseError(f"unrecognized line: {line!r}")
        except ValueError as exc:
            raise ParseError(f"bad number in line: {line!r}") from exc
    if directed is None or len(terminals) < 2:
        raise ParseError("missing p/n lines")
    if edge_count != len(edges[0]):
        raise ParseError(f"problem line promises {edge_count} edges, got {len(edges[0])}")
    return _from_columns(directed, vertices, terminals["s"], terminals["t"], k, *edges)


@contextmanager
def _file_errors(action: str, path: str):
    """Report an OSError while ``action``-ing ``path`` as a ParseError (exit 3)."""
    try:
        yield
    except OSError as exc:
        raise ParseError(f"cannot {action} {path}: {exc}") from exc


def load_instance(path: str, fmt: str) -> Instance:
    with _file_errors("read", path), open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
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
    if not lines:
        raise ParseError(f"missing '{SOLUTION_HEADER}' header")
    if lines[0] != SOLUTION_HEADER:
        raise ParseError(f"expected '{SOLUTION_HEADER}' header first, got {lines[0]!r}")
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

def _log_record(instance: Instance, solver: str, elapsed: float, fields: dict,
                default: str | None = None) -> None:
    """Append a record to ``$FTP_LOG_DIR/runs.jsonl``, else to ``default``, if any."""
    log_dir = os.environ.get("FTP_LOG_DIR")
    path = os.path.join(log_dir, "runs.jsonl") if log_dir else default
    if path is None:
        return
    digest = hashlib.sha256(serialize_instance(instance).encode()).hexdigest()
    record = {"instance_digest": digest, "solver": solver,
              "wall_time_s": round(elapsed, 6), **fields}
    with _file_errors("write", path):
        if log_dir:
            os.makedirs(log_dir, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _record_fields(result: Solution | frac.CapacityVector) -> dict:
    if isinstance(result, frac.CapacityVector):
        return {"value": str(result.value)}
    return {"edges": sorted(result.edges), "cost": result.cost,
            "status": result.status, "version": __version__}


# ---------------------------------------------------------------------------
# Solvers

def _oracle(instance: Instance, args) -> Solution:
    result = oracle.brute_force_opt(instance, scenario_cap=args.cap_scenarios)
    if result.best is None:
        raise Infeasible("exhaustive search found no feasible subset")
    return result.best


# Name -> (call, whether ``bench`` runs it on an instance), in ``bench``
# order.  A call looks its solver up in the module when it runs, so a
# wrapper or patch set on the module attribute sees every call.
_SOLVERS = {
    "oracle": (_oracle, lambda inst: True),
    "shortest": (lambda inst, args: shortest_path_solution(inst),
                 lambda inst: inst.k == 0),
    "bipath": (lambda inst, args: bipath.solve_1ftp(inst), lambda inst: inst.k == 1),
    "dag": (lambda inst, args: dag.solve_kftp_dag(inst, args.cap_configs),
            lambda inst: inst.directed),
    "srp": (lambda inst, args: srp.solve_srp(inst), lambda inst: not inst.directed),
    "approx-k1": (lambda inst, args: approx.approx_kplus1(inst), lambda inst: True),
    "approx-k": (lambda inst, args: approx.approx_k(inst), lambda inst: inst.k >= 1),
    "frac": (lambda inst, args: frac.solve_frac(inst), lambda inst: True),
}


def _run_solver(instance: Instance, algorithm: str,
                args) -> tuple[str, Solution | frac.CapacityVector]:
    """Run ``algorithm`` under the caps in ``args``; return the solver run and its result.

    ``auto`` runs ``shortest`` at k = 0 and ``bipath`` at k = 1.  Above
    that it runs ``dag`` (directed) or ``srp`` (undirected), and
    ``approx-k`` where that solver raises ``NotApplicable`` or
    ``CapExceeded``.
    """
    if algorithm == "auto":
        if instance.k <= 1:
            algorithm = "bipath" if instance.k else "shortest"
        else:
            exact = "dag" if instance.directed else "srp"
            try:
                return exact, _SOLVERS[exact][0](instance, args)
            except (NotApplicable, CapExceeded):
                algorithm = "approx-k"
    return algorithm, _SOLVERS[algorithm][0](instance, args)


def cmd_solve(args) -> int:
    instance = load_instance(args.path, args.format)
    started = time.perf_counter()
    algorithm, result = _run_solver(instance, args.algorithm, args)
    elapsed = time.perf_counter() - started
    if algorithm == "frac":
        lines = ["ftp-fractional v1", "algorithm: frac", f"value: {result.value}"]
        lines += [f"x {eid} {value}" for eid, value in enumerate(result.x)]
        out = "\n".join(lines) + "\n"
    else:
        out = serialize_solution(result, algorithm)
    # Logged first, so a failed log write leaves stdout empty.
    _log_record(instance, algorithm, elapsed, _record_fields(result))
    sys.stdout.write(out)
    return EXIT_OK


def cmd_check(args) -> int:
    instance = load_instance(args.path, args.format)
    with (_file_errors("read", args.solution),
          open(args.solution, "r", encoding="utf-8") as handle):
        candidate = parse_solution(handle.read())
    scenario, side = _witness(instance, candidate)
    if scenario is None:
        sys.stdout.write("feasible\n")
        return EXIT_OK
    sys.stdout.write("infeasible\n")
    sys.stdout.write("witness-scenario: " + " ".join(str(e) for e in sorted(scenario)) + "\n")
    sys.stdout.write("witness-cut-side: " + " ".join(str(v) for v in sorted(side)) + "\n")
    return EXIT_OK


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
    rows = []
    any_success = False
    for name in files:
        path = os.path.join(args.corpus_dir, name)
        try:
            instance = load_instance(path, args.format)
        except ValidationError as exc:
            rows.append((name, "-", f"PARSE-ERROR({exc})", "", "", ""))
            continue
        oracle_cost = None
        for algorithm, (_, applies) in _SOLVERS.items():
            if not applies(instance):
                continue
            started = time.perf_counter()
            try:
                _, result = _run_solver(instance, algorithm, args)
                elapsed = time.perf_counter() - started
                status, cost = (("ok", result.value) if algorithm == "frac"
                                else (result.status, result.cost))
                if algorithm == "oracle":
                    oracle_cost = cost
                rows.append((name, algorithm, status, str(cost),
                             _ratio_str(cost, oracle_cost), f"{elapsed:.4f}"))
                _log_record(instance, algorithm, elapsed, _record_fields(result),
                            default=args.out + ".runs.jsonl")
                any_success = True
            except CapExceeded as exc:
                rows.append((name, algorithm, f"SKIPPED(caps: {exc})", "", "", ""))
            except Infeasible:
                rows.append((name, algorithm, "INFEASIBLE", "", "", ""))
            except NotApplicable:
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

    with _file_errors("write", args.out), open(args.out, "w", encoding="utf-8") as handle:
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
    # Random series/parallel composition over `leaves` edges.  A task
    # (u, v, edge budget) pushes its second part first, so the parts are
    # grown depth-first and left to right, as recursion would.
    edges: list[tuple[int, int, int, bool]] = []
    next_vertex = 2
    tasks = [(0, 1, leaves)]
    while tasks:
        u, v, budget = tasks.pop()
        if budget == 1:
            edges.append((u, v, rng.randint(0, max_w), rng.random() < faulty_prob))
            continue
        left = rng.randint(1, budget - 1)
        if rng.random() < 0.5:
            mid = next_vertex
            next_vertex += 1
            tasks += ((mid, v, budget - left), (u, mid, left))
        else:
            tasks += ((u, v, budget - left), (u, v, left))
    return build_instance(False, next_vertex, 0, 1, k, edges)


def cmd_gen(args) -> int:
    if args.kind in ("random", "dag") and args.n < 2:
        raise ParseError(f"gen --kind {args.kind} needs --n of at least 2")
    if args.kind == "srp" and args.edges < 1:
        raise ParseError("gen --kind srp needs --edges of at least 1")
    for name in ("count", "edges", "k", "max_w"):
        if getattr(args, name) < 0:
            raise ParseError(f"gen --{name.replace('_', '-')} must be at least 0")
    if not 0 <= args.faulty_prob <= 1:
        raise ParseError("gen --faulty-prob must be between 0 and 1")
    rng = random.Random(args.seed)
    written = 0
    with _file_errors("write", args.out):
        os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        instance = _gen_instance(args.kind, rng, args)
        path = os.path.join(args.out, f"{args.kind}_{i:03d}.ftp")
        with _file_errors("write", path), open(path, "w", encoding="utf-8") as handle:
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
    common.add_argument("--cap-scenarios", type=int, default=DEFAULT_SCENARIO_CAP)
    common.add_argument("--cap-configs", type=int, default=dag.DEFAULT_CONFIG_CAP)

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


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        # Built once per process: building costs about 15 parses.
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, and 2 means infeasible here.
        if exc.code == 2:
            return EXIT_INVALID
        raise
    try:
        for name in ("cap_scenarios", "cap_configs"):
            if getattr(args, name, 0) < 0:
                raise ParseError(f"--{name.replace('_', '-')} must be at least 0")
        return args.func(args)
    except Infeasible as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except CapExceeded as exc:
        sys.stderr.write(f"caps exceeded: {exc}\n")
        return EXIT_CAPS
    except (ValidationError, NotApplicable) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID
    except Exception as exc:
        sys.stderr.write(f"internal error: {exc!r}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
