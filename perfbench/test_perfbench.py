"""Self-test of the benchmark harness, at a tiny size.

Checks that every named metric is emitted with its unit, that a wrong
expected output is counted as a failed operation, that one wrong epoch is
counted once, and that the logical counts of a traced run repeat exactly
for one seed.
"""
from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402 - the harness lives beside this file

WORKLOADS = sorted(bench.TINY)
EXACT_COUNTS = [
    "oracle.enumerate_dc.states",
    "oracle.enumerate_sc.states",
    "sync.events_per_round",
    "runtime.threads_started",
    "store.apply_diff.cells",
]


def _run(workload: str, trace: bool, wrong: bool = False) -> dict:
    return bench.run(workload, 7, 0.01, trace, bench.TINY[workload], wrong=wrong)


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_output_counts_as_failure(workload):
    result = _run(workload, False, wrong=True)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


@pytest.mark.parametrize("workload", ["stencil_small", "sparse_wide"])
def test_one_wrong_epoch_counts_once(workload):
    # Corrupt the reduction variable on determ's side once; the workload
    # must restart from the reference state instead of failing every
    # later epoch.
    cls = bench.import_determ().WORKLOADS[workload]
    tally = bench.Tally()
    w = bench.build(cls, 7, bench.TINY[workload], False)
    bench.warm_up(w, tally)
    root = w.rt.root()
    root.write(w.acc_name, root.read(w.acc_name) + 1)
    bench.timed_epochs(w, tally, 4)
    w.close()
    assert (tally.attempted, tally.failed) == (5, 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_logical_counts_repeat_for_one_seed(workload):
    first, second = (_run(workload, True)["metrics"] for _ in range(2))
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
