"""Smoke test of the end-to-end benchmark at toy sizes.

Runs every workload's untraced pass and one traced pass at ``SMOKE`` sizes
and checks that what the benchmark prints is what ``BENCHMARK.json``
promises: every named metric present, finite and unit-tagged, the names
well-formed, and the metric and workload lists of the two in agreement.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import re

import pytest

import compare
import run
from layers import PER_LAYER
from workloads import SMOKE, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(os.path.dirname(__file__), "..", "..", "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


@pytest.fixture(autouse=True)
def in_scratch_directory(tmp_path, monkeypatch):
    """The benchmark writes under its working directory; keep the repo clean."""
    monkeypatch.chdir(tmp_path)


def check_metrics(result, units):
    assert result["correct"], result["vacuity"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    for name, entry in result["metrics"].items():
        assert NAME.match(name), name
        assert entry["unit"] == units[name]
        if entry["value"] is not None:
            assert math.isfinite(entry["value"]), name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_pass_reports_the_gated_metrics(workload):
    result = asyncio.run(run.run_untraced(workload, 7, SMOKE, SMOKE.seconds))
    check_metrics(result, {name: unit for name, (unit, _, _) in run.END_TO_END.items()})
    printed = json.loads(run.contract_line(result))
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    # The line the driver reads: exactly the gated metrics, each a number.
    assert set(printed["metrics"]) == {metric["name"] for metric in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in printed["metrics"].values())
    for metric in run.STREAM_ONLY:
        applies = workload == "stream_mixed"
        assert (result["metrics"][metric]["value"] is not None) == applies


def test_traced_pass_reports_every_layer_metric(tmp_path):
    result = asyncio.run(run.run_traced("rank_sweep", 7, SMOKE, str(tmp_path)))
    check_metrics(result, PER_LAYER)
    printed = json.loads(run.contract_line(result))
    assert set(printed["metrics"]) == {metric["name"] for metric in SPEC["per_layer"]}
    assert printed["metrics"]["geometry.klevel_ms"]["value"] > 0
    with open(tmp_path / "trace.json") as handle:
        trace = json.load(handle)
    assert {"id", "parent", "op", "name", "start", "end"} <= set(trace["spans"][0])


def test_benchmark_json_names_what_the_run_measures():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for metric in SPEC["end_to_end"]:
        unit, better, bound = run.END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"], metric["bound"]) == (unit, better, bound)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert SPEC["paths"] == ["benchmarks/e2e"]


def test_compare_marks_regressions_and_wide_spreads(tmp_path):
    def results(p50, spread):
        cell = {"value": p50, "unit": "ms", "iqr": p50 * spread, "samples": 5}
        workload = {"failed_share": 0.0, "metrics": {"latency_p50_ms": cell}}
        return {"traced": False, "workloads": {"adhoc_cold": workload}}

    def status(a, b):
        for name, record in (("a.json", a), ("b.json", b)):
            (tmp_path / name).write_text(json.dumps(record))
        return compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")])

    assert status(results(100.0, 0.02), results(104.0, 0.02)) == 0
    assert status(results(100.0, 0.02), results(130.0, 0.02)) == 1  # regressed
    assert status(results(100.0, 0.02), results(101.0, 0.40)) == 1  # unresolved
