"""Service-level observability: stats snapshots, metrics, and explain."""

import asyncio
import dataclasses

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import capture, disable_tracing, enabled
from repro.query_language import PlannedStatement
from repro.service import QueryService
from repro.workloads.scenarios import multi_query_fleet


@pytest.fixture(scope="module")
def fleet():
    return multi_query_fleet(num_vehicles=24, num_queries=4, seed=7)


def run(coro):
    return asyncio.run(coro)


def serve_some(service_options=None, repeats=1):
    async def _run():
        mod, query_ids = multi_query_fleet(num_vehicles=24, num_queries=4, seed=7)
        lo, hi = mod.common_time_span()
        async with QueryService(mod, **(service_options or {})) as service:
            for _ in range(repeats):
                await service.submit_all(
                    [PlannedStatement(query_id, lo, hi) for query_id in query_ids]
                )
            return service, service.stats(), service.metrics_snapshot()

    return run(_run())


class TestStatsSnapshot:
    def test_stats_is_immutable(self):
        _service, stats, _snapshot = serve_some()
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.submitted = 0

    def test_stats_values(self):
        _service, stats, _snapshot = serve_some()
        assert stats.submitted == 4
        assert stats.evaluated + stats.cache_hits == 4
        assert stats.rejected == 0
        assert stats.batches >= 1

    def test_the_constant_backend_label_is_gone(self):
        # Every engine-served response reads "single": the stats field and
        # the per-backend counter it mirrored were removed.
        _service, stats, snapshot = serve_some()
        assert not hasattr(stats, "backend_counts")
        assert not any(
            name.startswith("repro_service_backend_requests_total")
            for name in snapshot
        )

    def test_reset_zeroes_stats_and_metrics(self):
        async def _run():
            mod, query_ids = multi_query_fleet(
                num_vehicles=24, num_queries=4, seed=7
            )
            lo, hi = mod.common_time_span()
            async with QueryService(mod) as service:
                await service.submit(PlannedStatement(query_ids[0], lo, hi))
                service.reset()
                return service.stats(), service.metrics_snapshot()

        stats, snapshot = run(_run())
        assert stats.submitted == 0
        assert stats.max_queue_depth == 0
        assert snapshot["repro_service_requests_total"]["value"] == 0.0


class TestMetricsSurface:
    def test_snapshot_covers_the_whole_stack(self):
        _service, _stats, snapshot = serve_some(repeats=2)
        assert snapshot["repro_service_requests_total"]["value"] == 8.0
        assert snapshot["repro_service_cache_hits_total"]["value"] == 4.0
        assert "repro_service_queue_depth" in snapshot
        assert snapshot["repro_service_latency_seconds"]["count"] == 8
        assert snapshot["repro_service_coalesce_width"]["count"] >= 1
        # The pooled engine shares the service registry.
        assert any(key.startswith("repro_engine_") for key in snapshot)
        # Result-cache counters live in the same registry.
        assert snapshot["repro_service_result_cache_hits_total"]["value"] == 4.0

    def test_shared_registry_can_be_injected(self):
        registry = MetricsRegistry()

        async def _run():
            mod, query_ids = multi_query_fleet(
                num_vehicles=24, num_queries=4, seed=7
            )
            lo, hi = mod.common_time_span()
            async with QueryService(mod, registry=registry) as service:
                await service.submit(PlannedStatement(query_ids[0], lo, hi))
                return service.registry

        assert run(_run()) is registry
        assert registry.get("repro_service_requests_total").value == 1.0

    def test_prometheus_rendering(self):
        async def _run():
            mod, query_ids = multi_query_fleet(
                num_vehicles=24, num_queries=4, seed=7
            )
            lo, hi = mod.common_time_span()
            async with QueryService(mod) as service:
                await service.submit(PlannedStatement(query_ids[0], lo, hi))
                return service.metrics_prometheus()

        text = run(_run())
        assert "# TYPE repro_service_requests_total counter" in text
        assert "repro_service_requests_total 1.0" in text
        assert 'repro_service_latency_seconds_bucket{le="+Inf"} 1' in text


class TestExplain:
    def test_explain_returns_span_tree_and_exact_answer(self):
        async def _run():
            mod, query_ids = multi_query_fleet(
                num_vehicles=24, num_queries=4, seed=7
            )
            lo, hi = mod.common_time_span()
            async with QueryService(mod) as service:
                request = PlannedStatement(query_ids[0], lo, hi)
                explained = await service.explain(request)
                served = await service.submit(request)
                cached = await service.explain(request)
                return explained, served, cached

        explained, served, cached = run(_run())
        assert explained.response.answer == served.answer
        assert explained.span.name == "service.explain"
        assert explained.span.attrs["backend"] == "single"
        assert explained.span.find("pool.answer_group") is not None
        assert explained.span.find("engine.prepare_batch") is not None
        rendered = explained.render()
        assert "service.explain" in rendered
        assert "ms" in rendered
        # The first explain primed the cache; the second is served from it.
        assert cached.span.attrs["backend"] == "cache"
        assert cached.response.answer == served.answer

    def test_explain_runs_the_evaluator_a_traced_submit_runs(self):
        def tree(span):
            return [(node.name, node.attrs) for node in span.walk()]

        async def _run():
            for explain in (True, False):
                mod, query_ids = multi_query_fleet(
                    num_vehicles=24, num_queries=4, seed=7
                )
                lo, hi = mod.common_time_span()
                request = PlannedStatement(query_ids[1], lo, hi)
                async with QueryService(mod) as service:
                    if explain:
                        explained = await service.explain(request)
                        continue
                    with capture() as recorder:
                        submitted = await service.submit(request)
                    traced = recorder.spans()
            return explained, submitted, traced

        explained, submitted, traced = run(_run())
        assert explained.response.answer == submitted.answer
        assert explained.response.backend == submitted.backend == "single"
        (group,) = [span for span in traced if span.name == "service.group"]
        assert tree(explained.span.find("service.group")) == tree(group)
        pool_span = group.find("pool.answer_group")
        assert pool_span is not None
        assert tree(explained.span.find("pool.answer_group")) == tree(pool_span)

    def test_explain_does_not_disturb_service_stats(self):
        async def _run():
            mod, query_ids = multi_query_fleet(
                num_vehicles=24, num_queries=4, seed=7
            )
            lo, hi = mod.common_time_span()
            async with QueryService(mod) as service:
                await service.explain(PlannedStatement(query_ids[0], lo, hi))
                return service.stats()

        stats = run(_run())
        assert stats.submitted == 0
        assert stats.evaluated == 0

    def test_concurrent_explains_each_return_their_own_tree(self):
        """Overlapping explains on executor threads never swap or lose roots.

        Every round fires one explain per query id at once (a fresh window
        each round, so none is a cache hit); each must come back with its
        own ``service.explain`` root, and tracing must be off afterwards.
        """
        disable_tracing()

        async def _run():
            mod, query_ids = multi_query_fleet(
                num_vehicles=40, num_queries=8, seed=7
            )
            lo, hi = mod.common_time_span()
            rounds = []
            async with QueryService(mod) as service:
                for step in range(6):
                    window = (lo + step, hi - step)
                    requests = [PlannedStatement(query_id, *window) for query_id in query_ids]
                    explained = await asyncio.gather(
                        *(service.explain(request) for request in requests)
                    )
                    rounds.append((requests, explained))
            return rounds

        for requests, explained in run(_run()):
            for request, result in zip(requests, explained):
                assert result.span.name == "service.explain"
                assert result.span.attrs["query"] == request.query_id
                assert result.response.request is request
                group = result.span.find("service.group")
                assert group is not None and group.attrs["queries"] == 1
        assert not enabled()

    def test_an_explain_inside_a_capture_reaches_its_recorder(self):
        disable_tracing()

        async def _run():
            mod, query_ids = multi_query_fleet(
                num_vehicles=24, num_queries=4, seed=7
            )
            lo, hi = mod.common_time_span()
            async with QueryService(mod) as service:
                with capture() as recorder:
                    explained = await service.explain(
                        PlannedStatement(query_ids[0], lo, hi)
                    )
                    assert enabled()
                return explained, recorder

        explained, recorder = run(_run())
        assert explained.span in recorder.spans()
        assert not enabled()

