"""A standing identity corpus: digests of every CLI answer on small documents.

    PYTHONPATH=src python3 tests/identity_corpus.py [--check]

Without ``--check`` this regenerates the corpus and rewrites
``identity_corpus.json`` beside it; with ``--check`` it prints the
entries whose digests differ.  ``tests/test_identity.py`` runs the same
comparison in tier-1.

The documents are seeded ``ftp gen`` output (random, dag, srp and gap at
k = 0..3) plus small hand-made edge shapes.  For each document the corpus
runs ``solve`` under every algorithm with both caps at the default, at 2
and at 0; ``check`` on each distinct solution and on that solution less
each of its edges; and it records the ``gen`` bytes, the ``bench`` table
of each k = 2 corpus and a few ``gap`` reports.  Each entry is the sha256
of the exit code, stdout and stderr.

A few larger documents have the shape of the benchmark's ``general``
workload (n = 14..16, m = 3n, weights 0..3, k = 1 and 2, directed and
undirected), where the link-graph solvers' bounds decide most pairs.
They run only under ``auto``, ``bipath`` and ``approx-k`` at the default
caps, plus the same ``check`` runs; the other algorithms are exponential
at that size.

A few DAGs have the shape of the benchmark's ``dag`` workload (n = 9..10,
m = 3n, a path through every vertex, weights 0..3 so that routes tie,
k = 2).  They run under ``auto`` and ``dag`` at the default caps, plus the
same ``check`` runs.

Re-record only the entries a declared behaviour change touches, and list
them with the reason; a difference nobody can explain is a fault, not a
reason to re-record.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

from ftpath import cli
from ftpath.core import build_instance

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "identity_corpus.json")

# (kind, extra gen options); each runs at k = 0..3 with two documents.
GEN = [
    ("random", ["--n", "5", "--edges", "7", "--seed", "11"]),
    ("random", ["--n", "4", "--edges", "6", "--max-w", "2", "--seed", "12"]),
    ("dag", ["--n", "5", "--edges", "7", "--seed", "13"]),
    ("srp", ["--edges", "7", "--seed", "14"]),
    ("srp", ["--edges", "6", "--max-w", "1", "--seed", "15"]),
    ("gap", ["--gap-d", "3", "--seed", "16"]),
    ("random", ["--n", "6", "--edges", "9", "--faulty-prob", "0.25", "--seed", "17"]),
    ("dag", ["--n", "5", "--edges", "9", "--faulty-prob", "0.25", "--seed", "18"]),
    ("srp", ["--edges", "10", "--faulty-prob", "0.25", "--seed", "19"]),
    ("srp", ["--edges", "9", "--faulty-prob", "0.8", "--max-w", "0", "--seed", "20"]),
]

SHAPES = {
    "cyclic-s=t": (True, 2, 0, 0, 2, [(0, 1, 1, True), (1, 0, 1, True)]),
    "acyclic-s=t": (True, 2, 0, 0, 2, [(0, 1, 1, True)]),
    "undirected-s=t": (False, 2, 0, 0, 2, [(0, 1, 1, True)]),
    "disconnected-dag": (True, 3, 0, 2, 2, [(0, 1, 1, False)]),
    "small-dag": (True, 3, 0, 2, 2, [(0, 1, 1, True), (0, 1, 2, True), (0, 1, 3, True),
                                     (1, 2, 4, False), (0, 2, 9, True)]),
    "k4": (False, 4, 0, 3, 2, [(u, v, 1, False) for u in range(4)
                               for v in range(u + 1, 4)]),
    "directed-cycle": (True, 3, 0, 2, 2, [(0, 1, 1, False), (1, 2, 1, False),
                                          (2, 0, 1, False)]),
    "parallel-arcs": (True, 3, 0, 2, 2, [(0, 1, 1, True)] * 4 + [(1, 2, 1, False)]),
    "self-loop": (False, 3, 0, 2, 1, [(0, 0, 1, True), (0, 1, 2, True), (1, 2, 0, False),
                                      (0, 2, 5, True), (1, 1, 0, False)]),
}

# (directed, k, seed) of each general-shaped document.
GENERAL = [(directed, k, seed) for directed in (False, True) for k in (1, 2)
           for seed in range(4)]
GENERAL_ALGORITHMS = ("auto", "bipath", "approx-k")

# Seeds of the dag-shaped documents.
DAGS = range(8)
DAG_ALGORITHMS = ("auto", "dag")

CAPS = ("1000000", "2", "0")
GAPS = [("2", "1"), ("3", "2"), ("4", "1"), ("5", "3")]


def _run(argv: list[str], directory: str) -> tuple[str, str]:
    """Run ``ftp`` in process; the digest of its answer and its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stdout = out.getvalue().replace(directory, "<dir>")
    stderr = err.getvalue().replace(directory, "<dir>")
    blob = f"{code}\n{len(stdout)}\n{stdout}{stderr}".encode()
    return hashlib.sha256(blob).hexdigest(), stdout


def _general_instance(directed: bool, k: int, seed: int):
    rng = random.Random(seed * 4 + directed * 2 + k)
    n = rng.randint(14, 16)
    edges = [(rng.randrange(n), rng.randrange(n), rng.randint(0, 3), rng.random() < 0.5)
             for _ in range(3 * n)]
    return build_instance(directed, n, 0, n - 1, k, edges)


def _dag_instance(seed: int):
    rng = random.Random(1000 + seed)
    n = rng.randint(9, 10)
    arcs = [(u, u + 1) for u in range(n - 1)]
    while len(arcs) < 3 * n:
        u = rng.randrange(n - 1)
        arcs.append((u, rng.randrange(u + 1, n)))
    edges = [(u, v, rng.randint(0, 3), rng.random() < 0.5) for u, v in arcs]
    return build_instance(True, n, 0, n - 1, 2, edges)


def _documents(directory: str, digests: dict) -> list[tuple[str, str, tuple, tuple]]:
    # (label, path, algorithms, caps) per document.  The gen runs write
    # the seeded documents; their bytes are entries too.
    full = (cli.ALGORITHMS, CAPS)
    docs = []
    for number, (kind, options) in enumerate(GEN):
        for k in range(4):
            out = os.path.join(directory, f"gen{number}-k{k}")
            argv = ["gen", "--kind", kind, "--count", "2", "--k", str(k),
                    "--out", out, *options]
            digests[" ".join(argv).replace(directory, "<dir>")] = _run(argv, directory)[0]
            for name in sorted(os.listdir(out)):
                path = os.path.join(out, name)
                with open(path, "rb") as handle:
                    data = handle.read()
                label = f"gen{number}-k{k}/{name}"
                digests[f"bytes {label}"] = hashlib.sha256(data).hexdigest()
                docs.append((label, path, *full))
            if k == 2:
                # The out file holds times; stdout and the exit code do not.
                argv = ["bench", out, os.path.join(directory, f"bench{number}.txt")]
                digests[f"bench gen{number}-k2"] = _run(argv, directory)[0]
    for label, (directed, n, s, t, k, edges) in SHAPES.items():
        path = os.path.join(directory, f"{label}.ftp")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(cli.serialize_instance(build_instance(directed, n, s, t, k, edges)))
        docs.append((label, path, *full))
    for directed, k, seed in GENERAL:
        label = f"general-{'directed' if directed else 'undirected'}-k{k}-{seed}"
        path = os.path.join(directory, f"{label}.ftp")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(cli.serialize_instance(_general_instance(directed, k, seed)))
        docs.append((label, path, GENERAL_ALGORITHMS, CAPS[:1]))
    for seed in DAGS:
        label = f"dag-k2-{seed}"
        path = os.path.join(directory, f"{label}.ftp")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(cli.serialize_instance(_dag_instance(seed)))
        docs.append((label, path, DAG_ALGORITHMS, CAPS[:1]))
    return docs


def record() -> dict[str, str]:
    """Regenerate the corpus and return every entry's digest."""
    digests: dict[str, str] = {}
    saved = os.environ.pop("FTP_LOG_DIR", None)
    try:
        with tempfile.TemporaryDirectory() as directory:
            for label, path, algorithms, caps in _documents(directory, digests):
                solutions = set()
                for algorithm in algorithms:
                    for cap in caps:
                        argv = ["solve", path, "--algorithm", algorithm,
                                "--cap-scenarios", cap, "--cap-configs", cap]
                        digest, stdout = _run(argv, directory)
                        digests[f"solve {label} {algorithm} caps={cap}"] = digest
                        if stdout.startswith(cli.SOLUTION_HEADER):
                            solutions.add(cli.parse_solution(stdout))
                candidates = set(solutions)
                for edges in solutions:
                    candidates.update(edges - {e} for e in edges)
                solution_path = os.path.join(directory, "candidate.ftps")
                for edges in sorted(candidates, key=sorted):
                    with open(solution_path, "w", encoding="utf-8") as handle:
                        handle.write(f"{cli.SOLUTION_HEADER}\nedges: "
                                     + " ".join(map(str, sorted(edges))) + "\n")
                    name = " ".join(map(str, sorted(edges)))
                    digests[f"check {label} [{name}]"] = _run(
                        ["check", path, solution_path], directory)[0]
            for d, k in GAPS:
                digests[f"gap {d} {k}"] = _run(["gap", d, k], directory)[0]
    finally:
        if saved is not None:
            os.environ["FTP_LOG_DIR"] = saved
    return digests


def load() -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def differences(recorded: dict[str, str], current: dict[str, str]) -> list[str]:
    """Entries missing, new or changed, in sorted order."""
    return sorted(key for key in recorded.keys() | current.keys()
                  if recorded.get(key) != current.get(key))


def main(argv: list[str]) -> int:
    current = record()
    if argv == ["--check"]:
        changed = differences(load(), current)
        for key in changed:
            print(key)
        return 1 if changed else 0
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(current, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(current)} entries in {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
