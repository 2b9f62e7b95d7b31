"""Determinism and reporting of the service traffic driver."""

import pytest

from repro.service import QueryRequest
from repro.workloads.replay import (
    ReplayReport,
    replay_sync,
    service_workload,
)


class TestScheduleGeneration:
    def test_same_seed_same_schedule(self):
        first = service_workload(num_vehicles=20, num_queries=4, ticks=6, seed=7)
        second = service_workload(num_vehicles=20, num_queries=4, ticks=6, seed=7)
        assert first.ticks == second.ticks
        assert first.query_ids == second.query_ids

    def test_different_seed_different_schedule(self):
        first = service_workload(num_vehicles=20, num_queries=4, ticks=6, seed=7)
        second = service_workload(num_vehicles=20, num_queries=4, ticks=6, seed=8)
        assert first.ticks != second.ticks

    def test_every_tick_has_requests_over_monitored_ids(self):
        workload = service_workload(num_vehicles=20, num_queries=4, ticks=6)
        monitored = set(workload.query_ids)
        assert len(workload.ticks) == 6
        for tick in workload.ticks:
            assert len(tick) >= 1
            for request in tick:
                assert isinstance(request, QueryRequest)
                assert request.query_id in monitored
                assert request.t_end > request.t_start

    def test_windows_advance_and_repeat(self):
        workload = service_workload(
            num_vehicles=20, num_queries=4, ticks=8, ticks_per_window_step=4
        )
        windows = [tick[0].group_key[:2] for tick in workload.ticks]
        assert windows[0] == windows[3]      # repeated within a step
        assert windows[0] != windows[4]      # advanced across steps
        assert workload.unique_fingerprints < workload.request_count

    def test_validation(self):
        with pytest.raises(ValueError, match="tick"):
            service_workload(ticks=0)
        with pytest.raises(ValueError, match="requests_per_tick"):
            service_workload(requests_per_tick=0.0)


class TestReplay:
    def test_replay_sync_serves_the_whole_schedule(self):
        workload = service_workload(
            num_vehicles=16, num_queries=4, ticks=4, requests_per_tick=3.0
        )
        report = replay_sync(workload=workload)
        assert isinstance(report, ReplayReport)
        assert report.served == workload.request_count
        assert report.rejected == 0
        assert report.wall_seconds > 0
        assert report.requests_per_second > 0
        assert 0.0 <= report.cache_hit_ratio <= 1.0
        assert report.coalescing_factor >= 1.0
        assert len(report.latency_seconds()) == report.served
        assert report.latency_percentile(95) >= report.latency_percentile(5)
        assert report.p99_latency >= report.p95_latency > 0.0
        assert report.p95_latency == report.latency_percentile(95)
        assert report.p99_latency == report.latency_percentile(99)
        counts = report.backend_counts()
        assert sum(counts.values()) == report.served

    def test_replay_respects_service_options(self):
        workload = service_workload(
            num_vehicles=16, num_queries=4, ticks=3, requests_per_tick=2.0
        )
        report = replay_sync(service_options={"max_batch": 1}, workload=workload)
        engine_served = [r for r in report.responses if not r.from_cache]
        assert engine_served
        assert {r.backend for r in engine_served} == {"single"}
        assert all(r.batch_size == 1 for r in engine_served)
        assert report.coalescing_factor == 1.0
