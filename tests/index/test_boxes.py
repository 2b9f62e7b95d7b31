"""The reference (x, y, t) boxes and the scalar segment-box loop."""

import pytest

from repro.reference.boxes import Box3D, IndexEntry, segment_boxes
from repro.trajectories.trajectory import Trajectory

from ..conftest import straight_trajectory


class TestBox3D:
    def test_malformed_box_rejected(self):
        with pytest.raises(ValueError):
            Box3D(1.0, 0.0, 0.0, 0.0, 1.0, 1.0)

    def test_intersects(self):
        a = Box3D(0, 0, 0, 2, 2, 2)
        b = Box3D(1, 1, 1, 3, 3, 3)
        c = Box3D(5, 5, 5, 6, 6, 6)
        assert a.intersects(b) and b.intersects(a)
        assert not a.intersects(c)

    def test_touching_boxes_intersect(self):
        a = Box3D(0, 0, 0, 1, 1, 1)
        b = Box3D(1, 0, 0, 2, 1, 1)
        assert a.intersects(b)

    def test_expanded(self):
        box = Box3D(0, 0, 0, 1, 1, 1).expanded(0.5, 0.25)
        assert box == Box3D(-0.5, -0.5, -0.25, 1.5, 1.5, 1.25)
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 1, 1, 1).expanded(-1.0)


class TestSegmentBoxes:
    def test_one_entry_per_segment(self):
        trajectory = Trajectory("a", [(0, 0, 0.0), (5, 0, 5.0), (5, 5, 10.0)])
        entries = segment_boxes(trajectory, spatial_margin=0.0)
        assert len(entries) == 2
        assert all(isinstance(entry, IndexEntry) for entry in entries)
        assert entries[0].box.t_min == 0.0 and entries[0].box.t_max == 5.0

    def test_uncertain_trajectory_uses_radius_as_default_margin(self):
        trajectory = straight_trajectory("a", (0.0, 0.0), (10.0, 0.0), radius=0.5)
        entries = segment_boxes(trajectory)
        box = entries[0].box
        assert box.x_min == pytest.approx(-0.5)
        assert box.y_max == pytest.approx(0.5)

    def test_explicit_margin_overrides_default(self):
        trajectory = straight_trajectory("a", (0.0, 0.0), (10.0, 0.0), radius=0.5)
        entries = segment_boxes(trajectory, spatial_margin=2.0)
        assert entries[0].box.x_min == pytest.approx(-2.0)
