"""Oracle tests: the bulk kernels equal their scalar counterparts exactly.

The columnar bulk kernels (``corridor_probe_bulk``, ``segment_boxes_bulk``,
``band_intervals_batch``) are only allowed to *batch* work, never to change
a value.  These tests pin them, result for result, against the retained
scalar paths — on fresh stores, on every scenario shape, and after a stream
of trajectory updates has been applied.  The engine's corridor-filtered
answers are pinned against the unfiltered definition
(:func:`~repro.streaming.reference_answer`, every stored candidate).
"""

import numpy as np
import pytest

from repro.core.pruning import band_intervals, band_intervals_batch
from repro.core.queries import QueryContext
from repro.engine import QueryEngine
from repro.engine.filtering import corridor_probe_bulk, filter_candidates
from repro.reference.boxes import IndexEntry, segment_boxes
from repro.reference.corridor import TrajectoryArrays, conservative_corridor_radius
from repro.streaming import ContinuousMonitor, reference_answer
from repro.trajectories.columnar import segment_boxes_bulk
from repro.trajectories.mod import MovingObjectsDatabase
from repro.workloads.scenarios import multi_query_fleet, sharded_fleet, streaming_fleet

from ..conftest import box_entries


def scalar_corridors(mod, query_ids, t_lo, t_hi, widths):
    """The pre-columnar scalar filtering path, one query at a time."""
    arrays = TrajectoryArrays()
    return np.array(
        [
            conservative_corridor_radius(mod, query_id, t_lo, t_hi, width, arrays)
            for query_id, width in zip(query_ids, widths)
        ]
    )


def scalar_entries(mod, max_extent=None):
    entries = []
    for trajectory in mod:
        entries.extend(segment_boxes(trajectory, max_extent=max_extent))
    return entries


@pytest.fixture(scope="module")
def fleet():
    return multi_query_fleet(num_vehicles=40, num_queries=6)


class TestCorridorProbeBulk:
    def test_matches_scalar_on_fleet(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        widths = [mod.default_band_width(query_id) for query_id in query_ids]
        bulk = corridor_probe_bulk(mod, query_ids, lo, hi, widths)
        assert np.array_equal(bulk, scalar_corridors(mod, query_ids, lo, hi, widths))

    def test_matches_scalar_on_subwindows(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        span = hi - lo
        for window in [(lo, lo + span / 3), (lo + span / 4, hi), (lo, hi)]:
            widths = [mod.default_band_width(query_id) for query_id in query_ids]
            bulk = corridor_probe_bulk(mod, query_ids, *window, widths)
            assert np.array_equal(
                bulk, scalar_corridors(mod, query_ids, *window, widths)
            )

    def test_infinite_when_no_candidate_covers_window(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        bulk = corridor_probe_bulk(mod, query_ids[:2], hi + 5, hi + 10, [1.0, 1.0])
        assert np.all(np.isinf(bulk))

    def test_matches_scalar_after_streaming_updates(self):
        scenario = streaming_fleet(num_vehicles=16, num_queries=3, num_batches=2)
        mod = scenario.mod
        monitor = ContinuousMonitor(mod)
        for object_id in mod.object_ids:
            monitor.track(
                object_id,
                max_speed=scenario.max_speed,
                minimum_radius=scenario.uncertainty_radius,
            )
        for batch in scenario.batches:
            for object_id, reports in batch.items():
                monitor.ingest(object_id, reports)
            monitor.apply()
            lo, hi = mod.common_time_span()
            widths = [
                mod.default_band_width(query_id) for query_id in scenario.query_ids
            ]
            bulk = corridor_probe_bulk(mod, scenario.query_ids, lo, hi, widths)
            assert np.array_equal(
                bulk, scalar_corridors(mod, scenario.query_ids, lo, hi, widths)
            )

    def test_misaligned_band_widths_rejected(self, fleet):
        mod, query_ids = fleet
        with pytest.raises(ValueError):
            corridor_probe_bulk(mod, query_ids, 0.0, 1.0, [1.0])


class TestSegmentBoxesBulkOnWorkloads:
    @pytest.mark.parametrize("max_extent", [None, 2.0])
    def test_matches_scalar_on_fleet(self, fleet, max_extent):
        mod, _ = fleet
        bulk = box_entries(segment_boxes_bulk(mod.columnar().pack(), max_extent=max_extent))
        scalar = scalar_entries(mod, max_extent=max_extent)
        assert len(bulk) == len(scalar)
        for left, right in zip(bulk, scalar):
            assert left.object_id == right.object_id
            assert left.box == right.box

    def test_matches_scalar_after_streaming_updates(self):
        scenario = streaming_fleet(num_vehicles=10, num_queries=2, num_batches=2)
        mod = scenario.mod
        monitor = ContinuousMonitor(mod)
        for object_id in mod.object_ids:
            monitor.track(
                object_id,
                max_speed=scenario.max_speed,
                minimum_radius=scenario.uncertainty_radius,
            )
        for batch in scenario.batches:
            for object_id, reports in batch.items():
                monitor.ingest(object_id, reports)
            monitor.apply()
            bulk = box_entries(segment_boxes_bulk(mod.columnar().pack()))
            scalar = scalar_entries(mod)
            assert [entry.box for entry in bulk] == [entry.box for entry in scalar]


class TestBandIntervalsBatch:
    def test_matches_per_function_calls(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        context = QueryContext.from_mod(mod, query_ids[0], lo, hi)
        functions = list(context.functions.values())
        batched = band_intervals_batch(
            functions, context.envelope, context.band_width, lo, hi
        )
        for function, intervals in zip(functions, batched):
            assert intervals == band_intervals(
                function, context.envelope, context.band_width, lo, hi
            )

    def test_zero_width_window(self, fleet):
        mod, query_ids = fleet
        lo, _ = mod.common_time_span()
        context = QueryContext.from_mod(mod, query_ids[0], lo, lo)
        functions = list(context.functions.values())
        batched = band_intervals_batch(
            functions, context.envelope, context.band_width, lo, lo
        )
        for function, intervals in zip(functions, batched):
            assert intervals == band_intervals(
                function, context.envelope, context.band_width, lo, lo
            )

    def test_empty_batch(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        context = QueryContext.from_mod(mod, query_ids[0], lo, hi)
        assert band_intervals_batch([], context.envelope, 1.0, lo, hi) == []

    def test_invalid_inputs_rejected(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        context = QueryContext.from_mod(mod, query_ids[0], lo, hi)
        with pytest.raises(ValueError):
            band_intervals_batch([], context.envelope, -1.0, lo, hi)
        with pytest.raises(ValueError):
            band_intervals_batch([], context.envelope, 1.0, hi, lo)


class TestEngineUsesBulkKernels:
    """The engine's bulk-kernel path must not change a single answer."""

    @pytest.mark.parametrize("scenario", ["multi_query", "sharded", "streaming"])
    def test_filtered_candidates_match_scalar_corridor(self, fleet, scenario):
        if scenario == "multi_query":
            mod, query_ids = fleet
        elif scenario == "sharded":
            mod, query_ids = sharded_fleet(num_districts=3, vehicles_per_district=6)
        else:
            streamed = streaming_fleet(num_vehicles=16, num_queries=3, num_batches=2)
            mod, query_ids = streamed.mod, streamed.query_ids
        lo, hi = mod.common_time_span()
        engine = QueryEngine(mod)
        arrays = TrajectoryArrays()
        for query_id in query_ids:
            width = mod.default_band_width(query_id)
            corridor = conservative_corridor_radius(mod, query_id, lo, hi, width, arrays)
            expected, _ = filter_candidates(
                mod, engine.index, query_id, lo, hi, width, corridor=corridor
            )
            assert engine.candidate_ids(query_id, lo, hi) == expected

    def test_batch_answers_match_per_query_prepares(self, fleet):
        mod, query_ids = fleet
        lo, hi = mod.common_time_span()
        batch_engine = QueryEngine(mod)
        single_engine = QueryEngine(mod)
        batch = batch_engine.prepare_batch(query_ids, lo, hi)
        for prepared in batch:
            single = single_engine.prepare(prepared.query_id, lo, hi)
            assert prepared.context.uq31_all_sometime() == (
                single.context.uq31_all_sometime()
            )
            assert prepared.corridor_radius == single.corridor_radius

    @pytest.mark.parametrize("variant,fraction", [("sometime", 0.0), ("always", 0.0), ("fraction", 0.3)])
    def test_filtered_answers_equal_the_unfiltered_definition(self, variant, fraction):
        mod, query_ids = sharded_fleet(num_districts=3, vehicles_per_district=6)
        lo, hi = mod.common_time_span()
        engine = QueryEngine(mod)
        for query_id in query_ids:
            assert len(engine.candidate_ids(query_id, lo, hi)) < len(mod) - 1
            assert engine.answer(query_id, lo, hi, variant, fraction) == reference_answer(
                mod, query_id, lo, hi, variant, fraction
            )


def rewrite(mod, object_ids):
    """Replace some stored trajectories by shifted copies (a full change each)."""
    for object_id in object_ids:
        old = mod.get(object_id)
        mod.replace_trajectory(
            type(old)(
                object_id,
                [(s.x + 0.5, s.y, s.t) for s in old.samples],
                old.radius,
                old.pdf,
            )
        )


class TestRTreePathNeverMaterializesEntries:
    """The box table is loaded, patched and probed from box arrays alone.

    Turning ~47k columnar rows into ``IndexEntry`` objects used to cost
    more than packing them; a path that quietly went back to per-box
    objects would erase the array-packed table's build time.
    """

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []
        original = IndexEntry.__init__
        monkeypatch.setattr(
            IndexEntry,
            "__init__",
            lambda self, *args: calls.append(args) or original(self, *args),
        )
        return calls

    def test_build_index(self, spy):
        mod, _ = multi_query_fleet(num_vehicles=40, num_queries=6)
        assert len(mod.build_index("rtree")) > 0
        assert not spy
        box_entries(segment_boxes_bulk(mod.columnar().pack()))
        assert spy, "the spy must see a materialization"

    def test_engine_refresh_patch_and_bulk(self, spy):
        mod, query_ids = multi_query_fleet(num_vehicles=40, num_queries=6)
        lo, hi = mod.common_time_span()
        engine = QueryEngine(mod)
        ids = list(mod.object_ids)
        for changed in (ids[:1], ids[:36]):  # patched in place, bulk-reloaded
            rewrite(mod, changed)
            for query_id in query_ids[:2]:
                assert engine.answer(query_id, lo, hi) == reference_answer(mod, query_id, lo, hi)
        assert not spy

    def test_sharded_engine_warm_up(self, spy):
        from repro.parallel import ShardedEngine

        mod, query_ids = sharded_fleet(num_districts=3, vehicles_per_district=6)
        lo, hi = mod.common_time_span()
        with ShardedEngine(mod, 3, backend="thread") as engine:
            engine.warm_up()
            engine.answer_batch(query_ids, lo, hi)
        assert not spy


class TestRefreshObservability:
    """``engine.refresh`` says what it did to the index, and how long loads take."""

    @staticmethod
    def refresh_span(engine, query_id, window):
        from repro.obs.tracing import capture

        with capture() as recorder:
            engine.prepare(query_id, *window)
        (span,) = [s for s in recorder.spans() if s.name == "engine.refresh"]
        return span

    def test_span_names_the_index_action(self):
        mod, query_ids = multi_query_fleet(num_vehicles=40, num_queries=6)
        window = mod.common_time_span()
        engine = QueryEngine(mod)
        ids = list(mod.object_ids)
        # The segment subdivision the store's index was loaded with, and
        # keeps through every patch.
        x_min, y_min, x_max, y_max = mod.columnar().pack().spatial_bounds()
        extent = max(x_max - x_min, y_max - y_min) / 32.0

        rewrite(mod, ids[:1])
        span = self.refresh_span(engine, query_ids[0], window)
        assert span.attrs["index"] == "patch"
        assert span.attrs["entries"] == len(engine.index)

        rewrite(mod, ids[:30])  # more boxes than the spare block holds
        assert self.refresh_span(engine, query_ids[0], window).attrs["index"] == "compact"

        rewrite(mod, ids[:36])  # most of the store: still one patch
        span = self.refresh_span(engine, query_ids[0], window)
        assert span.attrs["index"] == "compact"
        assert span.attrs["entries"] == len(engine.index) == len(
            mod.build_index("rtree", max_box_extent=extent)
        )

    def test_an_empty_store_index_is_reloaded_once_it_fills(self):
        source, query_ids = multi_query_fleet(num_vehicles=40, num_queries=6)
        mod = MovingObjectsDatabase()
        engine = QueryEngine(mod)
        assert len(engine.index) == 0
        mod.upsert_many(list(source))
        span = self.refresh_span(engine, query_ids[0], mod.common_time_span())
        assert span.attrs["index"] == "bulk"
        assert span.attrs["entries"] == len(engine.index) == len(mod.build_index())
        assert engine.registry.snapshot()["repro_engine_index_build_seconds"]["count"] == 2
        # Emptied by a patch, then refilled: reloaded again, not patched.
        for object_id in list(mod.object_ids):
            mod.remove(object_id)
        engine.refresh()
        assert len(engine.index) == 0
        mod.upsert_many(list(source))
        span = self.refresh_span(engine, query_ids[0], mod.common_time_span())
        assert span.attrs["index"] == "bulk"
        assert engine.answer(query_ids[0], *mod.common_time_span()) == reference_answer(
            mod, query_ids[0], *mod.common_time_span()
        )

    def test_index_build_histogram_counts_bulk_loads(self):
        mod, query_ids = multi_query_fleet(num_vehicles=40, num_queries=6)
        window = mod.common_time_span()
        engine = QueryEngine(mod)

        def builds():
            return engine.registry.snapshot()["repro_engine_index_build_seconds"]["count"]

        assert builds() == 1  # the constructor's load
        ids = list(mod.object_ids)
        rewrite(mod, ids[:1])
        engine.prepare(query_ids[0], *window)
        assert builds() == 1  # a patch is not a load
        rewrite(mod, ids[:36])
        engine.prepare(query_ids[0], *window)
        assert builds() == 1  # nor is a patch of most of the store
