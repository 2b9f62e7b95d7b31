"""Synthetic workload generators: the paper's random-waypoint model plus example scenarios."""

from .random_waypoint import (
    MAX_SPEED_MILES_PER_MINUTE,
    MIN_SPEED_MILES_PER_MINUTE,
    RandomWaypointConfig,
    generate_mod,
    generate_trajectories,
)
from .scenarios import (
    StreamingFleetScenario,
    convoy_with_stragglers,
    delivery_fleet,
    multi_query_fleet,
    ride_hailing_snapshot,
    sharded_fleet,
    streaming_fleet,
)

__all__ = [
    "MAX_SPEED_MILES_PER_MINUTE",
    "MIN_SPEED_MILES_PER_MINUTE",
    "RandomWaypointConfig",
    "StreamingFleetScenario",
    "convoy_with_stragglers",
    "delivery_fleet",
    "generate_mod",
    "generate_trajectories",
    "multi_query_fleet",
    "ride_hailing_snapshot",
    "sharded_fleet",
    "streaming_fleet",
]
