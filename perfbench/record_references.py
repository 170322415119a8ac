"""Record the reference answers that the benchmark compares against.

    python3 perfbench/record_references.py [WORKLOAD ...]

For the named workloads (default: all) and every seed in ``SEEDS`` this
solves each corpus document once, checks the answer with the
seed-independent rules, and writes its cost (or fractional value, or
"infeasible") and stdout digest to ``references.json``.  Run it only on a commit whose answers are
trusted: the benchmark fails any later answer that differs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run as bench

SEEDS = range(0, 30)


def record(workload_name: str, seed: int) -> list[list[str]]:
    workload = bench.corpus.WORKLOADS[workload_name]
    directory = os.path.join(bench.WORK, f"references-{workload_name}-{seed}")
    try:
        _, _, modules, instances, paths = bench.set_up(workload, seed, None, directory)
        fractional = "frac" in workload.argv
        entries = []
        for instance, path in zip(instances, paths):
            code, stdout, _ = bench.solve(modules["cli"], ["solve", path, *workload.argv])
            verdict = bench.checks.check(modules, instance, fractional, code, stdout, None)
            if verdict.failure is not None:
                raise RuntimeError(f"{workload_name} seed {seed} {path}: {verdict.failure}")
            entries.append([verdict.outcome, verdict.digest])
        return entries
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main(names: list[str]) -> int:
    references = bench.checks.load_references()
    for name in names or bench.corpus.WORKLOADS:
        references[name] = {str(seed): record(name, seed) for seed in SEEDS}
    references = dict(sorted(references.items()))
    # One line per seed keeps the file readable and its diffs small.
    blocks = []
    for name, seeds in references.items():
        rows = [f'"{seed}": {json.dumps(entries)}' for seed, entries in seeds.items()]
        blocks.append(f'"{name}": {{\n' + ",\n".join(rows) + "\n}")
    with open(bench.checks.REFERENCES, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
