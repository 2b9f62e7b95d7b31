"""The committed perf trajectory (``benchmarks/trajectory.jsonl``) stays readable.

One JSON line per PR: every line parses, names its commit (only the newest
line may leave it ``null``), parent and claim, and carries ``[q1, median,
q3]`` for both sides plus the pairs won for every workload and gated metric
that ``BENCHMARK.json`` declares.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STREAM_ONLY = ("update_apply_p50_ms", "restart_s")


def test_every_line_parses_and_covers_every_workload_and_gated_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = sorted(workload["name"] for workload in declared["workloads"])
    metrics = [metric["name"] for metric in declared["end_to_end"]]
    prs = []
    lines = (ROOT / "benchmarks" / "trajectory.jsonl").read_text().splitlines()
    for position, line in enumerate(lines):
        entry = json.loads(line)
        prs.append(entry["pr"])
        # Only the newest line may predate its own commit.
        newest = position == len(lines) - 1
        assert isinstance(entry["commit"], str) or (newest and entry["commit"] is None)
        assert isinstance(entry["parent_commit"], str)
        assert {"workload", "metric", "expected", "met"} <= set(entry["claim"])
        assert sorted(entry["metrics"]) == workloads
        for workload, table in entry["metrics"].items():
            extra = STREAM_ONLY if workload == "stream_mixed" else ()
            assert sorted(table) == sorted(metrics + list(extra)), workload
            for name, row in table.items():
                for side in ("parent", "change"):
                    q1, median, q3 = row[side]
                    assert median is not None, (entry["pr"], workload, name)
                    assert q1 is None or q1 <= median <= q3, (entry["pr"], workload, name)
                assert row["pairs_won"] is None or 0 <= row["pairs_won"] <= 10
    assert len(prs) >= 2 and prs == sorted(set(prs))
