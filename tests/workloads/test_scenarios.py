"""Tests for the example-scenario generators."""

import pytest

from repro.workloads.scenarios import (
    convoy_with_stragglers,
    delivery_fleet,
    multi_query_fleet,
    ride_hailing_snapshot,
)


class TestDeliveryFleet:
    def test_sizes_and_ids(self):
        mod = delivery_fleet(num_vans=6, num_stops=3)
        assert len(mod) == 6
        assert "van-0" in mod and "van-5" in mod

    def test_vans_start_and_end_at_depot(self):
        mod = delivery_fleet(num_vans=3, num_stops=2, region_size_miles=20.0)
        depot = (10.0, 10.0)
        for van in mod:
            assert van.position_at(van.start_time).as_tuple() == pytest.approx(depot)
            assert van.position_at(van.end_time).as_tuple() == pytest.approx(depot)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            delivery_fleet(num_vans=0)
        with pytest.raises(ValueError):
            delivery_fleet(num_stops=0)


class TestConvoy:
    def test_composition(self):
        mod = convoy_with_stragglers(convoy_size=4, straggler_count=3)
        ids = mod.object_ids
        assert sum(1 for i in ids if str(i).startswith("convoy-")) == 4
        assert sum(1 for i in ids if str(i).startswith("straggler-")) == 3

    def test_convoy_members_stay_close(self):
        mod = convoy_with_stragglers(convoy_size=3, straggler_count=0, spacing_miles=0.5)
        lead = mod.get("convoy-0")
        for other_id in ("convoy-1", "convoy-2"):
            other = mod.get(other_id)
            for t in (0.0, 30.0, 60.0):
                assert lead.position_at(t).distance_to(other.position_at(t)) <= 1.1

    def test_validation(self):
        with pytest.raises(ValueError):
            convoy_with_stragglers(convoy_size=0)


class TestRideHailing:
    def test_sizes_and_span(self):
        mod = ride_hailing_snapshot(num_drivers=8, horizon_minutes=20.0)
        assert len(mod) == 8
        assert mod.common_time_span() == (0.0, 20.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ride_hailing_snapshot(num_drivers=0)


class TestMultiQueryFleet:
    def test_sizes_ids_and_queries(self):
        mod, query_ids = multi_query_fleet(num_vehicles=24, num_queries=4)
        assert len(mod) == 24
        assert len(query_ids) == 4
        assert len(set(query_ids)) == 4
        for query_id in query_ids:
            assert query_id in mod
        assert mod.common_time_span() == (0.0, 90.0)

    def test_deterministic_for_a_seed(self):
        first_mod, first_ids = multi_query_fleet(num_vehicles=12, num_queries=3, seed=5)
        second_mod, second_ids = multi_query_fleet(num_vehicles=12, num_queries=3, seed=5)
        assert first_ids == second_ids
        for object_id in first_mod.object_ids:
            first_traj = first_mod.get(object_id)
            second_traj = second_mod.get(object_id)
            assert first_traj.position_at(45.0).is_close(second_traj.position_at(45.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            multi_query_fleet(num_vehicles=1)
        with pytest.raises(ValueError):
            multi_query_fleet(num_vehicles=10, num_queries=0)
        with pytest.raises(ValueError):
            multi_query_fleet(num_vehicles=10, num_queries=11)
        with pytest.raises(ValueError):
            multi_query_fleet(num_depots=0)
