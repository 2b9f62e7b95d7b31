"""QueryService durable-tier wiring: warm restart, checkpoints, lifecycle."""

import asyncio
import shutil

import pytest

from repro.persistence import restore, scan_wal, snapshots_path, wal_path
from repro.query_language import PlannedStatement
from repro.service import QueryService
from repro.workloads.scenarios import multi_query_fleet


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture
def fleet():
    return multi_query_fleet(num_vehicles=16, num_queries=3)


class TestWarmRestart:
    def test_service_answers_survive_a_restart(self, tmp_path, fleet):
        mod, monitored = fleet
        lo, hi = mod.common_time_span()

        async def first_life():
            async with QueryService(mod, data_dir=tmp_path) as service:
                return [
                    (await service.submit(PlannedStatement(q, lo, hi))).answer for q in monitored
                ]

        async def second_life():
            async with QueryService(data_dir=tmp_path) as service:
                assert service.restore_result is not None
                assert service.mod.revision == mod.revision
                return [
                    (await service.submit(PlannedStatement(q, lo, hi))).answer for q in monitored
                ]

        before = run(first_life())
        after = run(second_life())
        assert before == after

    def test_numpy_scalar_samples_survive_a_crash(self, tmp_path):
        # The through traffic of the city fleet carries NumPy scalars in its
        # samples.  Logged as they were, such a frame passed its checksum
        # and then failed the restricted unpickler on restart, which dropped
        # it and every later frame as a torn tail.
        mod, _ = multi_query_fleet(num_vehicles=24, num_queries=3)
        numpy_backed = next(
            trajectory
            for trajectory in mod
            if any(type(sample.x) is not float for sample in trajectory.samples)
        )
        plain = next(trajectory for trajectory in mod if trajectory is not numpy_backed)
        live, crashed = tmp_path / "live", tmp_path / "crashed"

        async def first_life():
            async with QueryService(mod, data_dir=live) as service:
                service.mod.upsert(numpy_backed)
                service.mod.upsert(plain)
                service.persistence.flush()
                # What a crash leaves behind: the log, no closing checkpoint.
                shutil.copytree(live, crashed)

        async def second_life():
            async with QueryService(data_dir=crashed) as service:
                assert service.restore_result.replayed_frames == 2
                restored = service.mod
                assert restored.revision == mod.revision
                for trajectory in (numpy_backed, plain):
                    object_id = trajectory.object_id
                    assert restored.object_revision(object_id) == mod.object_revision(
                        object_id
                    )
                    assert restored.get(object_id).samples == trajectory.samples

        run(first_life())
        run(second_life())

    def test_stop_checkpoints_so_restart_replays_nothing(self, tmp_path, fleet):
        mod, _ = fleet

        async def life():
            async with QueryService(mod, data_dir=tmp_path):
                mod.replace_trajectory(mod.get(mod.object_ids[0]))

        run(life())
        assert scan_wal(wal_path(tmp_path)).frames == ()
        result = restore(tmp_path)
        assert result.replayed_frames == 0
        assert result.mod.revision == mod.revision

    def test_mutations_while_serving_are_logged_synchronously(
        self, tmp_path, fleet
    ):
        mod, monitored = fleet
        lo, hi = mod.common_time_span()

        async def life():
            async with QueryService(mod, data_dir=tmp_path) as service:
                await service.submit(PlannedStatement(monitored[0], lo, hi))
                mod.replace_trajectory(mod.get(mod.object_ids[0]))
                # Logged before the mutating call returned — visible in the
                # WAL right now, well before any checkpoint.
                service.persistence.flush()
                scan = scan_wal(wal_path(tmp_path))
                assert scan.last_revision == mod.revision
                await service.submit(PlannedStatement(monitored[0], lo, hi))

        run(life())

    def test_requires_mod_or_data_dir(self):
        with pytest.raises(ValueError, match="data_dir"):
            QueryService()

    def test_no_data_dir_means_no_durable_tier(self, fleet):
        mod, _ = fleet
        service = QueryService(mod)
        assert service.persistence is None and service.restore_result is None


class TestCheckpoints:
    def test_background_checkpoint_truncates_the_wal(self, tmp_path, fleet):
        mod, _ = fleet

        async def life():
            async with QueryService(
                mod, data_dir=tmp_path, snapshot_interval=0.05
            ) as service:
                mod.replace_trajectory(mod.get(mod.object_ids[0]))
                for _ in range(100):
                    await asyncio.sleep(0.02)
                    if service.persistence.wal.frame_count == 0:
                        break
                assert service.persistence.wal.frame_count == 0
                assert service.persistence.snapshotter.latest().revision == (
                    mod.revision
                )

        run(life())

    def test_manual_checkpoint_and_metrics(self, tmp_path, fleet):
        mod, _ = fleet

        async def life():
            async with QueryService(mod, data_dir=tmp_path) as service:
                mod.replace_trajectory(mod.get(mod.object_ids[0]))
                info = await service.checkpoint()
                assert info.revision == mod.revision
                snapshot = service.metrics_snapshot()
                assert (
                    snapshot["repro_persistence_wal_appends_total"]["value"] >= 1
                )
                assert (
                    snapshot["repro_persistence_snapshots_total"]["value"] >= 1
                )
                assert (
                    snapshot["repro_persistence_checkpoints_total"]["value"] >= 1
                )

        run(life())

    def test_checkpoint_without_data_dir_raises(self, fleet):
        mod, _ = fleet

        async def life():
            async with QueryService(mod) as service:
                with pytest.raises(Exception, match="durable tier"):
                    await service.checkpoint()

        run(life())

    def test_snapshot_retention_is_forwarded(self, tmp_path, fleet):
        mod, _ = fleet

        async def life():
            async with QueryService(
                mod, data_dir=tmp_path, snapshot_retain=1
            ) as service:
                for _ in range(3):
                    mod.replace_trajectory(mod.get(mod.object_ids[0]))
                    await service.checkpoint()

        run(life())
        listed = [
            entry
            for entry in snapshots_path(tmp_path).iterdir()
            if entry.name.startswith("snapshot-")
        ]
        assert len(listed) == 1


class TestLifecycle:
    def test_stop_start_reattaches_the_durable_tier(self, tmp_path, fleet):
        mod, _ = fleet

        async def life():
            service = QueryService(mod, data_dir=tmp_path)
            await service.start()
            await service.stop()
            assert service.persistence.closed
            await service.start()
            assert not service.persistence.closed
            mod.replace_trajectory(mod.get(mod.object_ids[0]))
            await service.stop()

        run(life())
        assert restore(tmp_path).mod.revision == mod.revision

    def test_invalid_snapshot_interval_rejected(self, tmp_path, fleet):
        mod, _ = fleet
        with pytest.raises(ValueError, match="snapshot_interval"):
            QueryService(mod, data_dir=tmp_path, snapshot_interval=0.0)
