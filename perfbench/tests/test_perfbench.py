"""Tests of the benchmark itself, on corpora of a few documents.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

SEED = 1
TINY = {"general": 4, "dag": 4, "srp": 2, "frac": 10}


def tiny_run(workload, trace, tmp_path, references=None):
    return bench.run(workload, SEED, 0.01, trace, count=TINY[workload],
                     references=references, work=str(tmp_path))


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted(workload, trace, tmp_path):
    result, info = tiny_run(workload, trace, tmp_path)
    names = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= TINY[workload]
    assert info["ftp_log_dir_unset"]


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.corpus.WORKLOADS)


def test_recorded_references_hold_and_a_corrupted_one_fails(tmp_path):
    references = bench.checks.load_references()
    assert references["frac"][str(SEED)], "no reference for the default seed"
    result, info = tiny_run("frac", True, tmp_path, references)
    assert info["references"] and result["failed"] == 0
    assert result["metrics"]["failed_frac"]["value"] == 0
    corrupted = copy.deepcopy(references)
    corrupted["frac"][str(SEED)][0][0] = "12345/7"
    result, _ = tiny_run("frac", True, tmp_path, corrupted)
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["failed_frac"]["value"] > 0


def test_changed_stdout_with_equal_answer_is_counted_not_failed(tmp_path):
    references = copy.deepcopy(bench.checks.load_references())
    references["general"][str(SEED)][0][1] = "0" * 16
    result, _ = tiny_run("general", True, tmp_path, references)
    assert result["failed"] == 0
    assert result["metrics"]["cli.stdout_changed"]["value"] == 1


def _sites(modules):
    return {(m, a): getattr(modules[m], a)
            for _, sites in tracer.SITES for m, a in sites}


def test_tracer_restores_every_site_even_after_an_error():
    modules = bench.import_ftpath()
    before = _sites(modules)
    spans = tracer.Tracer(modules)
    with pytest.raises(RuntimeError):
        with spans:
            assert all(getattr(modules[m], a) is not f for (m, a), f in before.items())
            raise RuntimeError("leave the block early")
    after = _sites(modules)
    assert all(after[key] is before[key] for key in before)
    assert spans.missing == []


def test_self_time_excludes_children():
    modules = bench.import_ftpath()
    spans = tracer.Tracer(modules)
    with spans:
        instance = modules["core"].build_instance(
            False, 3, 0, 2, 1, [(0, 1, 1, True), (1, 2, 1, False), (0, 2, 5, True)])
        modules["bipath"].solve_1ftp(instance)
    totals = spans.aggregate()
    calls, inclusive, own = totals["bipath.solve_1ftp"]
    assert calls == 1 and 0 < own < inclusive
    children = sum(totals[name][1] for name in ("bipath.link_lengths", "core.is_feasible",
                                                "shortest.meta_shortest_path"))
    assert own == pytest.approx(inclusive - children)


@pytest.mark.parametrize("workload", ["general", "dag"])
def test_call_counts_repeat_exactly(workload, tmp_path):
    first, _ = tiny_run(workload, True, tmp_path)
    second, _ = tiny_run(workload, True, tmp_path)
    calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert calls == {k: second["metrics"][k]["value"] for k in calls}
    assert calls["cli.main.calls"] == 1
