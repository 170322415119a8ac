"""Benchmark of ``ftp solve`` on four seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload general --seed 1 --seconds 25 --trace 0

Every operation is ``ftpath.cli.main(["solve", <document>, ...])`` in
this process, with stdout captured.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a traced run.  The
last stdout line is one JSON object; the line before it records the
environment and the instance mix.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import checks  # noqa: E402
import corpus  # noqa: E402
import tracer  # noqa: E402

SETUP_REPEATS = 3
MIN_SAMPLES = 100
SPAN_FILE_LIMIT = 200_000
MODULES = ("cli", "core", "flow", "shortest", "bipath", "approx", "dag",
           "srp", "frac", "simplex")


def import_ftpath() -> dict:
    """Import ftpath afresh from this checkout; return its modules by name."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "ftpath" or m.startswith("ftpath.")]:
        del sys.modules[name]
    importlib.import_module("ftpath")
    modules = {name: importlib.import_module(f"ftpath.{name}") for name in MODULES}
    origin = os.path.dirname(os.path.abspath(modules["cli"].__file__))
    if origin != os.path.join(SRC, "ftpath"):
        raise ImportError(f"ftpath was imported from {origin}, not from {SRC}")
    return modules


def set_up(workload: corpus.Workload, seed: int, count: int | None,
           directory: str):
    """Import ftpath, generate, validate and write the corpus.

    Returns the time taken, unscaled and scaled to the reference host
    speed by calibration probes just before and after, then the modules,
    instances and document paths.
    """
    before = calibrate.probe_median(9)
    started = time.perf_counter()
    modules = import_ftpath()
    ftpath = sys.modules["ftpath"]
    instances = corpus.generate(ftpath, workload, seed, count)
    paths = corpus.write(modules["cli"], instances, directory)
    elapsed = time.perf_counter() - started
    scale = 2 * calibrate.REFERENCE_S / (before + calibrate.probe_median(9))
    return elapsed, elapsed * scale, modules, instances, paths


def solve(cli, argv: list[str]):
    """One operation: (exit code or exception, stdout, seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            code = exc
        elapsed = time.perf_counter() - started
    return code, out.getvalue(), elapsed


class Measurement:
    """Passes over the corpus: op times and every distinct answer per document.

    Construction solves the first document once, untimed, to warm up.
    Each operation's time is scaled to the reference host speed by the
    mean of the calibration probes run just before and just after it.
    """

    def __init__(self, cli, argvs: list[list[str]]):
        self.cli = cli
        self.argvs = argvs
        self.answers = [Counter() for _ in argvs]
        self.plain: list[float] = []
        self.traced: list[float] = []
        self.unscaled: list[float] = []
        solve(cli, argvs[0])
        self.last_probe = calibrate.probe_median(9)

    def run_pass(self, traced: bool) -> None:
        times = self.traced if traced else self.plain
        for argv, answers in zip(self.argvs, self.answers):
            code, stdout, elapsed = solve(self.cli, argv)
            probe = calibrate.probe()
            times.append(elapsed * 2 * calibrate.REFERENCE_S / (self.last_probe + probe))
            self.last_probe = probe
            if not traced:
                self.unscaled.append(elapsed)
            answers[(code if isinstance(code, int) else repr(code), stdout)] += 1


def measure(meas: Measurement, seconds: float, trace: tracer.Tracer | None,
            min_samples: int) -> int:
    """Run whole passes for about ``seconds``; return the number of passes.

    Without a tracer every pass is plain.  With one, passes alternate
    plain and traced, so that both sides see the same documents.  A new
    pass starts while it is expected to end within half a pass of the
    time limit, or while fewer than ``min_samples`` plain samples exist.
    """
    passes = 0
    started = time.perf_counter()
    while True:
        if trace is not None and passes % 2 == 1:
            with trace:
                meas.run_pass(traced=True)
        else:
            meas.run_pass(traced=False)
        passes += 1
        spent = time.perf_counter() - started
        if trace is not None and passes < 2:
            continue
        if spent + spent / passes / 2 >= seconds and len(meas.plain) >= min_samples:
            return passes


def judge(modules, workload, seed, instances, meas: Measurement, references):
    """Check every distinct answer; return failed ops, changed documents, mix."""
    fractional = "frac" in workload.argv
    seed_refs = references.get(workload.name, {}).get(str(seed))
    failed, changed = 0, 0
    failures: list[str] = []
    mix: Counter = Counter()
    for i, (instance, answers) in enumerate(zip(instances, meas.answers)):
        reference = seed_refs[i] if seed_refs and i < len(seed_refs) else None
        for (code, stdout), count in answers.items():
            verdict = checks.check(modules, instance, fractional, code, stdout,
                                   reference)
            if verdict.failure is not None:
                failed += count
                failures.append(f"document {i}: {verdict.failure}")
            changed += verdict.stdout_changed
        mix[_kind(*next(iter(answers)))] += 1
    return failed, changed, failures, mix


def _kind(code, stdout: str) -> str:
    """The algorithm an answer names, "infeasible", or "error"."""
    if code == 2:
        return checks.INFEASIBLE
    for line in stdout.splitlines():
        if line.startswith("algorithm: "):
            return line.partition(": ")[2]
    return "error"


def quantiles(times: list[float]) -> tuple[float, float]:
    if len(times) < 2:
        return times[0], times[0]
    return statistics.median(times), statistics.quantiles(times, n=10)[8]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(times: list[float], setup_s: float) -> dict:
    p50, p90 = quantiles(times)
    return {
        "solve_s.p50": _metric(p50, "s"),
        "solve_s.p90": _metric(p90, "s"),
        "solves_per_s": _metric(len(times) / sum(times), "1/s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(trace: tracer.Tracer, ops: int, overhead: float, failed: int,
              attempted: int, changed: int) -> dict:
    metrics = {}
    totals = trace.aggregate()
    for name, (calls, inclusive, own) in totals.items():
        metrics[f"{name}.calls"] = _metric(calls / ops, "calls/op")
        metrics[f"{name}.s"] = _metric(inclusive / ops, "s/op")
        metrics[f"{name}.self_s"] = _metric(own / ops, "s/op")
    for name in tracer.COUNTERS:
        metrics[name] = _metric(trace.counters[name] / ops, "count/op")
    link_calls = totals["dag.link_cost"][0]
    metrics["dag.link_cost.useful_ratio"] = _metric(
        trace.counters["dag.link_cost.links"] / link_calls if link_calls else 0.0,
        "ratio")
    metrics["cli.stdout_changed"] = _metric(changed, "count")
    metrics["failed_frac"] = _metric(failed / attempted, "ratio")
    metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        count: int | None = None, references=None, work=WORK):
    """Set up, measure and check one workload; return (result, info)."""
    workload = corpus.WORKLOADS[workload_name]
    log_dir_was_set = os.environ.pop("FTP_LOG_DIR", None) is not None
    directory = os.path.join(work, f"corpus-{workload_name}-{seed}-{os.getpid()}")
    setups, unscaled_setups = [], []
    try:
        for _ in range(SETUP_REPEATS):
            elapsed, scaled, modules, instances, paths = set_up(workload, seed, count,
                                                                directory)
            unscaled_setups.append(elapsed)
            setups.append(scaled)
        meas = Measurement(modules["cli"],
                           [["solve", path, *workload.argv] for path in paths])
        spans = tracer.Tracer(modules) if trace else None
        # A full corpus gets enough samples for a 90th percentile.
        passes = measure(meas, seconds, spans, MIN_SAMPLES if count is None else 0)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if references is None:
        references = checks.load_references()
    failed, changed, failures, mix = judge(modules, workload, seed, instances,
                                           meas, references)
    plain, traced = meas.plain, meas.traced
    attempted = len(plain) + len(traced)
    info = {
        "workload": workload_name, "seed": seed, "trace": int(trace),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "ftp_log_dir_unset": "FTP_LOG_DIR" not in os.environ,
        "ftp_log_dir_was_set": log_dir_was_set,
        "documents": len(instances), "passes": passes,
        "samples": len(plain), "traced_samples": len(traced),
        "unscaled_solve_s": quantiles(meas.unscaled),
        "unscaled_setup_runs_s": unscaled_setups,
        "instance_mix": dict(sorted(mix.items())),
        "infeasible_share": mix[checks.INFEASIBLE] / len(instances),
        "references": bool(references.get(workload_name, {}).get(str(seed))),
        "setup_runs_s": setups, "failures": failures[:20],
    }
    if trace:
        info["spans"] = spans.span_count
        info["missing_sites"] = spans.missing
        os.makedirs(work, exist_ok=True)
        info["span_file"] = os.path.join(work, f"spans-{workload_name}-{seed}.tsv")
        spans.write(info["span_file"], SPAN_FILE_LIMIT)
        overhead = (sum(traced) / len(traced)) / (sum(plain) / len(plain))
        metrics = per_layer(spans, len(traced), overhead, failed, attempted, changed)
    else:
        metrics = end_to_end(plain, statistics.median(setups))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ftpath", "__init__.py")):
        sys.stderr.write(f"no ftpath sources under {SRC}; run from a checkout\n")
        return 2
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
