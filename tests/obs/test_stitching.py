"""Cross-layer span trees: worker stitching and monitor instrumentation."""

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


class TestProcessBackendStitching:
    def test_single_stitched_tree_with_consistent_durations(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        with ShardedEngine(
            mod, num_shards=2, backend="process", mp_start_method="spawn"
        ) as engine:
            engine.warm_up()
            with capture() as recorder:
                engine.answer_batch(query_ids, lo, hi)
            assert len(recorder) == 1, "expected exactly one stitched root"
            root = recorder.latest()
            assert root.name == "sharded.answer_batch"
            dispatch = root.find("sharded.dispatch")
            assert dispatch is not None
            assert dispatch.attrs["backend"] == "process"
            workers = [
                span for span in root.walk() if span.name == "shard.worker"
            ]
            assert workers, "worker spans did not cross the process boundary"
            for worker in workers:
                assert worker.find("shard.evaluate") is not None
            # Children fit inside their parent: one after another
            # everywhere except under the dispatch span, whose workers
            # run side by side.
            for span in root.walk():
                assert span.duration is not None
                spent = [child.duration for child in span.children]
                total = max(spent, default=0.0) if span is dispatch else sum(spent)
                assert total <= span.duration, span.name

    def test_thread_backend_adopts_local_spans(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        with ShardedEngine(mod, num_shards=2, backend="thread") as engine:
            with capture() as recorder:
                engine.answer_batch(query_ids, lo, hi)
            root = recorder.latest()
            assert root.find("shard.local") is not None
            assert root.find("shard.worker") is None


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
