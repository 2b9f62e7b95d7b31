"""Tests for trajectory persistence (CSV and JSON round-trips)."""

import numpy as np
import pytest

from repro.trajectories.io import load_csv, load_json, save_csv, save_json
from repro.trajectories.mod import MovingObjectsDatabase
from repro.trajectories.trajectory import UncertainTrajectory
from repro.uncertainty.gaussian import TruncatedGaussianPDF
from repro.workloads.random_waypoint import RandomWaypointConfig, generate_trajectories

from ..conftest import straight_trajectory


@pytest.fixture
def mixed_mod() -> MovingObjectsDatabase:
    gaussian_trajectory = UncertainTrajectory(
        "g", [(0.0, 0.0, 0.0), (5.0, 5.0, 30.0), (10.0, 0.0, 60.0)],
        radius=1.0,
        pdf=TruncatedGaussianPDF(1.0, sigma=0.4),
    )
    return MovingObjectsDatabase(
        [
            straight_trajectory("a", (0.0, 1.0), (30.0, 1.0), radius=0.5),
            straight_trajectory("b", (0.0, -1.0), (30.0, -1.0), radius=0.75),
            gaussian_trajectory,
        ]
    )


def assert_same_geometry(original: MovingObjectsDatabase, loaded: MovingObjectsDatabase):
    assert sorted(map(str, loaded.object_ids)) == sorted(map(str, original.object_ids))
    for trajectory in original:
        restored = loaded.get(str(trajectory.object_id)) if str(trajectory.object_id) in loaded else loaded.get(trajectory.object_id)
        assert restored.radius == pytest.approx(trajectory.radius)
        for t in np.linspace(trajectory.start_time, trajectory.end_time, 7):
            assert restored.position_at(float(t)).distance_to(
                trajectory.position_at(float(t))
            ) == pytest.approx(0.0, abs=1e-9)


class TestCSVRoundTrip:
    def test_round_trip_preserves_geometry(self, mixed_mod, tmp_path):
        path = tmp_path / "mod.csv"
        rows = save_csv(mixed_mod, path)
        assert rows == sum(len(t.samples) for t in mixed_mod)
        loaded, report = load_csv(path)
        assert report.trajectories == 3
        assert report.samples == rows
        assert_same_geometry(mixed_mod, loaded)

    def test_round_trip_preserves_pdf_family(self, mixed_mod, tmp_path):
        path = tmp_path / "mod.csv"
        save_csv(mixed_mod, path)
        loaded, _ = load_csv(path)
        assert isinstance(loaded.get("g").pdf, TruncatedGaussianPDF)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("object_id,x,y\n1,2,3\n")
        with pytest.raises(ValueError):
            load_csv(path)

    def test_single_sample_objects_are_skipped_with_warning(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(
            "object_id,x,y,t,radius,pdf\n"
            "solo,1.0,2.0,3.0,0.5,uniform\n"
            "ok,0.0,0.0,0.0,0.5,uniform\n"
            "ok,1.0,1.0,10.0,0.5,uniform\n"
        )
        loaded, report = load_csv(path)
        assert "ok" in loaded and "solo" not in loaded
        assert any("solo" in warning for warning in report.warnings)

    def test_unknown_pdf_family_rejected(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text(
            "object_id,x,y,t,radius,pdf\n"
            "x,0.0,0.0,0.0,0.5,exotic\n"
            "x,1.0,1.0,10.0,0.5,exotic\n"
        )
        with pytest.raises(ValueError):
            load_csv(path)


class TestJSONRoundTrip:
    def test_round_trip_preserves_geometry_and_metadata(self, mixed_mod, tmp_path):
        path = tmp_path / "mod.json"
        count = save_json(mixed_mod, path)
        assert count == 3
        loaded, report = load_json(path)
        assert report.trajectories == 3
        assert_same_geometry(mixed_mod, loaded)
        gaussian = loaded.get("g")
        assert isinstance(gaussian.pdf, TruncatedGaussianPDF)
        assert gaussian.pdf.sigma == pytest.approx(0.4)

    def test_json_preserves_object_id_types(self, tmp_path):
        mod = MovingObjectsDatabase(
            generate_trajectories(RandomWaypointConfig(num_objects=3, seed=2))
        )
        path = tmp_path / "ids.json"
        save_json(mod, path)
        loaded, _ = load_json(path)
        assert set(loaded.object_ids) == {0, 1, 2}

    def test_foreign_document_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_json(path)

    def test_workload_round_trip_preserves_query_answers(self, tmp_path):
        from repro.core.queries import QueryContext

        mod = MovingObjectsDatabase(
            generate_trajectories(RandomWaypointConfig(num_objects=15, seed=9))
        )
        path = tmp_path / "workload.json"
        save_json(mod, path)
        loaded, _ = load_json(path)
        original_answer = QueryContext.from_mod(mod, 0, 0.0, 60.0).uq31_all_sometime()
        restored_answer = QueryContext.from_mod(loaded, 0, 0.0, 60.0).uq31_all_sometime()
        assert set(original_answer) == set(restored_answer)
