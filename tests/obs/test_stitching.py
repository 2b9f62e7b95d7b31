"""Cross-layer span trees: the sharded batch and the monitor."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import capture, disable_tracing
from repro.parallel import ShardedEngine
from repro.streaming.monitor import ContinuousMonitor
from repro.workloads.scenarios import multi_query_fleet


@pytest.fixture(autouse=True)
def _tracing_off():
    disable_tracing()
    yield
    disable_tracing()


@pytest.fixture(scope="module")
def fleet():
    return multi_query_fleet(num_vehicles=24, num_queries=4, seed=11)


class TestShardedSpans:
    def test_one_tree_over_the_plan_spans(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        with ShardedEngine(mod, num_shards=2, backend="process") as engine:
            engine.warm_up()
            with capture() as recorder:
                engine.answer_batch(query_ids, lo, hi)
        assert len(recorder) == 1
        root = recorder.latest()
        assert root.name == "sharded.answer_batch"
        (group,) = root.children
        assert group.name == "pool.answer_group"
        assert group.attrs["queries"] == len(query_ids)
        assert sorted(group.attrs) == [
            "band_bounded", "band_refined", "band_rows", "band_scalar", "queries"
        ]
        assert group.find("engine.prepare_batch") is not None
        for span in root.walk():
            assert span.duration is not None
            assert sum(child.duration for child in span.children) <= span.duration

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_every_label_builds_the_same_in_process_tree(self, fleet, backend):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()

        def names(label):
            with ShardedEngine(mod, num_shards=2, backend=label) as engine:
                with capture() as recorder:
                    engine.answer_batch(query_ids, lo, hi, variant="always")
            root = recorder.latest()
            assert root.attrs == {"queries": len(query_ids), "variant": "always"}
            return [span.name for span in root.walk()]

        tree = names(backend)
        assert tree == names("serial")
        # No dispatch, worker or per-slice span: one batch root over the plan.
        assert [name for name in tree if name.startswith("shard")] == [
            "sharded.answer_batch"
        ]


class TestMonitorSpans:
    def test_apply_produces_one_tree_and_metrics(self, fleet):
        mod, query_ids = fleet
        monitor = ContinuousMonitor(mod, registry=MetricsRegistry())
        monitor.register(query_ids[0], sliding=5.0)
        with capture() as recorder:
            report = monitor.apply()
        root = recorder.latest()
        assert root.name == "monitor.apply"
        assert root.find("monitor.upsert") is not None
        assert root.find("monitor.evaluate") is not None
        assert root.attrs["affected"] == len(report.affected_queries)
        snapshot = monitor.registry.snapshot()
        assert snapshot["repro_monitor_batches_total"]["value"] == 1.0
        assert snapshot["repro_monitor_apply_seconds"]["count"] == 1
        assert snapshot["repro_monitor_evaluations_total"]["value"] >= 1.0
