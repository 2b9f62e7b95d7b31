"""Scenario generators used by the example applications.

The paper motivates the query machinery with fleet-style Location Based
Services (FedEx/UPS-style fleets requesting shortest-travel-time
trajectories, Section 2.1).  These generators build small, structured worlds
on top of the same trajectory model so the examples exercise the public API
on recognizable situations rather than pure noise:

* :func:`delivery_fleet` — vans leaving a depot, visiting a few stops, and
  returning, with GPS-style uncertainty;
* :func:`convoy_with_stragglers` — a tight convoy plus stragglers, useful to
  show rank-k (Category 2) queries doing something interesting;
* :func:`multi_query_fleet` — a city-scale mixed fleet plus a set of
  dispatcher-monitored vehicle ids, the input shape of the batched
  :class:`~repro.engine.QueryEngine`;
* :func:`streaming_fleet` — a fleet with historical motion plus *scripted
  future update batches*, the input shape of the streaming
  :class:`~repro.streaming.ContinuousMonitor`;
* :func:`sharded_fleet` — a metro area of spatially separated districts
  (plus a little through traffic): many monitored vehicles with small,
  disjoint candidate sets, the batch shape
  :class:`~repro.parallel.ShardedEngine` answers as one plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..trajectories.mod import MovingObjectsDatabase
from ..trajectories.trajectory import TrajectorySample, UncertainTrajectory
from ..trajectories.updates import LocationUpdate
from ..uncertainty.uniform import UniformDiskPDF


def delivery_fleet(
    num_vans: int = 12,
    num_stops: int = 4,
    region_size_miles: float = 20.0,
    shift_minutes: float = 120.0,
    uncertainty_radius: float = 0.3,
    seed: int = 11,
) -> MovingObjectsDatabase:
    """A depot-based delivery fleet.

    Every van starts at the depot in the region center, visits ``num_stops``
    random stops, and returns to the depot; stop-to-stop legs take equal
    time.  Van ids are strings ``"van-<k>"``.
    """
    if num_vans < 1 or num_stops < 1:
        raise ValueError("need at least one van and one stop")
    rng = np.random.default_rng(seed)
    depot = (region_size_miles / 2.0, region_size_miles / 2.0)
    pdf = UniformDiskPDF(uncertainty_radius)
    leg_count = num_stops + 1
    leg_minutes = shift_minutes / leg_count

    trajectories: List[UncertainTrajectory] = []
    for van in range(num_vans):
        waypoints = [depot]
        for _ in range(num_stops):
            waypoints.append(
                (
                    rng.uniform(0.0, region_size_miles),
                    rng.uniform(0.0, region_size_miles),
                )
            )
        waypoints.append(depot)
        samples = [
            TrajectorySample(x, y, index * leg_minutes)
            for index, (x, y) in enumerate(waypoints)
        ]
        trajectories.append(
            UncertainTrajectory(f"van-{van}", samples, uncertainty_radius, pdf)
        )
    return MovingObjectsDatabase(trajectories)


def convoy_with_stragglers(
    convoy_size: int = 5,
    straggler_count: int = 6,
    spacing_miles: float = 0.6,
    leg_miles: float = 25.0,
    duration_minutes: float = 60.0,
    uncertainty_radius: float = 0.25,
    seed: int = 17,
) -> MovingObjectsDatabase:
    """A convoy driving east in tight formation, plus wandering stragglers.

    The convoy members stay within a fraction of a mile of each other, so for
    a query vehicle inside the convoy *several* neighbors have non-zero NN
    probability at all times — the situation Category 2/4 (rank-k) queries
    are designed for.  Ids are ``"convoy-<k>"`` and ``"straggler-<k>"``.
    """
    if convoy_size < 1:
        raise ValueError("need at least one convoy member")
    rng = np.random.default_rng(seed)
    pdf = UniformDiskPDF(uncertainty_radius)
    trajectories: List[UncertainTrajectory] = []

    for member in range(convoy_size):
        offset = (member - (convoy_size - 1) / 2.0) * spacing_miles
        start = (0.0, 10.0 + offset)
        end = (leg_miles, 10.0 + offset)
        samples = [
            TrajectorySample(start[0], start[1], 0.0),
            TrajectorySample(end[0], end[1], duration_minutes),
        ]
        trajectories.append(
            UncertainTrajectory(f"convoy-{member}", samples, uncertainty_radius, pdf)
        )

    for straggler in range(straggler_count):
        start = (rng.uniform(0.0, leg_miles), rng.uniform(0.0, 20.0))
        heading = rng.uniform(0.0, 2.0 * math.pi)
        distance = rng.uniform(5.0, leg_miles)
        end = (
            start[0] + distance * math.cos(heading),
            start[1] + distance * math.sin(heading),
        )
        samples = [
            TrajectorySample(start[0], start[1], 0.0),
            TrajectorySample(end[0], end[1], duration_minutes),
        ]
        trajectories.append(
            UncertainTrajectory(
                f"straggler-{straggler}", samples, uncertainty_radius, pdf
            )
        )
    return MovingObjectsDatabase(trajectories)


def multi_query_fleet(
    num_vehicles: int = 60,
    num_queries: int = 8,
    num_depots: int = 3,
    region_size_miles: float = 25.0,
    shift_minutes: float = 90.0,
    uncertainty_radius: float = 0.3,
    seed: int = 29,
) -> Tuple[MovingObjectsDatabase, List[object]]:
    """A mixed city fleet plus the vehicle ids a dispatcher monitors.

    The world mixes two populations sharing one shift window:

    * two thirds of the vehicles are *depot vans*: each is attached to one of
      ``num_depots`` depots, drives out to two jobs, and returns — so vans of
      the same depot genuinely interact (several plausible nearest
      neighbors);
    * the rest is *through traffic* crossing the region on straight legs.

    Every ``num_vehicles / num_queries``-th vehicle is monitored, which is
    exactly the batched-workload shape the :class:`~repro.engine.QueryEngine`
    serves: many concurrent continuous queries against one MOD.

    Returns:
        ``(mod, query_ids)`` — ids are ``"veh-<k>"`` strings.
    """
    if num_vehicles < 2:
        raise ValueError("need at least two vehicles")
    if not 1 <= num_queries <= num_vehicles:
        raise ValueError("need between 1 and num_vehicles query vehicles")
    if num_depots < 1:
        raise ValueError("need at least one depot")
    rng = np.random.default_rng(seed)
    pdf = UniformDiskPDF(uncertainty_radius)
    depots = [
        (
            rng.uniform(region_size_miles * 0.25, region_size_miles * 0.75),
            rng.uniform(region_size_miles * 0.25, region_size_miles * 0.75),
        )
        for _ in range(num_depots)
    ]
    van_count = (2 * num_vehicles) // 3

    trajectories: List[UncertainTrajectory] = []
    for vehicle in range(num_vehicles):
        if vehicle < van_count:
            depot = depots[vehicle % num_depots]
            jobs = [
                (
                    min(region_size_miles, max(0.0, depot[0] + rng.normal(0.0, region_size_miles / 6.0))),
                    min(region_size_miles, max(0.0, depot[1] + rng.normal(0.0, region_size_miles / 6.0))),
                )
                for _ in range(2)
            ]
            waypoints = [depot, *jobs, depot]
        else:
            edge_in = rng.uniform(0.0, region_size_miles, 2)
            edge_out = rng.uniform(0.0, region_size_miles, 2)
            mid = rng.uniform(region_size_miles * 0.2, region_size_miles * 0.8, 2)
            waypoints = [
                (edge_in[0], edge_in[1]),
                (mid[0], mid[1]),
                (edge_out[0], edge_out[1]),
            ]
        leg_minutes = shift_minutes / (len(waypoints) - 1)
        samples = [
            TrajectorySample(x, y, index * leg_minutes)
            for index, (x, y) in enumerate(waypoints)
        ]
        trajectories.append(
            UncertainTrajectory(f"veh-{vehicle}", samples, uncertainty_radius, pdf)
        )

    stride = num_vehicles // num_queries
    query_ids: List[object] = [
        f"veh-{vehicle}" for vehicle in range(0, stride * num_queries, stride)
    ]
    return MovingObjectsDatabase(trajectories), query_ids


@dataclass(frozen=True)
class StreamingFleetScenario:
    """A live-fleet world: historical MOD plus scripted future update batches.

    Attributes:
        mod: the fleet's historical trajectories (the monitor's seed state).
        query_ids: the dispatcher-monitored vehicle ids.
        batches: scripted update batches, oldest first; each maps object id
            to its time-ordered :class:`LocationUpdate` reports.  Every
            vehicle's reports in one batch end at the same time, so the
            fleet's common time span advances batch by batch.
        max_speed: speed bound to open the location feeds with.
        uncertainty_radius: the fleet's shared radius; the report cadence is
            chosen so the between-report ellipse bounds never exceed it
            (open feeds with this as ``minimum_radius`` and the radius stays
            exactly uniform, keeping the 4r band stable across batches).
    """

    mod: MovingObjectsDatabase
    query_ids: List[object]
    batches: List[Dict[object, List[LocationUpdate]]]
    max_speed: float
    uncertainty_radius: float


def streaming_fleet(
    num_vehicles: int = 50,
    num_queries: int = 4,
    horizon_minutes: float = 30.0,
    num_batches: int = 5,
    batch_minutes: float = 3.0,
    reports_per_batch: int = 3,
    region_size_miles: float = 25.0,
    uncertainty_radius: float = 0.3,
    seed: int = 31,
) -> StreamingFleetScenario:
    """A fleet with history and a scripted stream of position reports.

    Vehicles random-walk the region with bounded speed; the historical part
    covers ``[0, horizon_minutes]`` and each scripted batch extends every
    vehicle by ``batch_minutes`` with ``reports_per_batch`` reports.  The
    speed bound is derived from the report cadence so the Pfoser/Jensen
    ellipse bound stays below ``uncertainty_radius`` — replaying the stream
    through location feeds keeps every radius at exactly that value.
    """
    if num_vehicles < 2:
        raise ValueError("need at least two vehicles")
    if not 1 <= num_queries <= num_vehicles:
        raise ValueError("need between 1 and num_vehicles query vehicles")
    if num_batches < 1 or reports_per_batch < 1:
        raise ValueError("need at least one batch and one report per batch")
    if batch_minutes <= 0 or horizon_minutes <= 0:
        raise ValueError("batch and horizon durations must be positive")
    rng = np.random.default_rng(seed)
    pdf = UniformDiskPDF(uncertainty_radius)
    report_gap = batch_minutes / reports_per_batch
    # Worst-case circular ellipse bound between reports is max_speed·Δt/2;
    # capping it at the fleet radius keeps streamed radii from growing.
    max_speed = 2.0 * uncertainty_radius / report_gap
    cruise_speed = 0.6 * max_speed

    positions = rng.uniform(0.0, region_size_miles, size=(num_vehicles, 2))
    headings = rng.uniform(0.0, 2.0 * math.pi, size=num_vehicles)

    def advance(vehicle: int, dt: float) -> Tuple[float, float]:
        """Move one vehicle for ``dt`` minutes, reflecting at the borders."""
        headings[vehicle] += rng.normal(0.0, 0.4)
        x = positions[vehicle][0] + cruise_speed * dt * math.cos(headings[vehicle])
        y = positions[vehicle][1] + cruise_speed * dt * math.sin(headings[vehicle])
        if not 0.0 <= x <= region_size_miles:
            headings[vehicle] = math.pi - headings[vehicle]
            x = min(region_size_miles, max(0.0, x))
        if not 0.0 <= y <= region_size_miles:
            headings[vehicle] = -headings[vehicle]
            y = min(region_size_miles, max(0.0, y))
        positions[vehicle] = (x, y)
        return (float(x), float(y))

    # Historical trajectories over [0, horizon]: waypoints at the report gap.
    history_steps = max(1, int(round(horizon_minutes / report_gap)))
    step = horizon_minutes / history_steps
    trajectories: List[UncertainTrajectory] = []
    for vehicle in range(num_vehicles):
        samples = [
            TrajectorySample(
                float(positions[vehicle][0]), float(positions[vehicle][1]), 0.0
            )
        ]
        for index in range(1, history_steps + 1):
            x, y = advance(vehicle, step)
            samples.append(TrajectorySample(x, y, index * step))
        trajectories.append(
            UncertainTrajectory(
                f"veh-{vehicle}", samples, uncertainty_radius, pdf
            )
        )

    # Scripted future batches, every vehicle reporting at the shared cadence.
    batches: List[Dict[object, List[LocationUpdate]]] = []
    for batch in range(num_batches):
        batch_start = horizon_minutes + batch * batch_minutes
        reports: Dict[object, List[LocationUpdate]] = {}
        for vehicle in range(num_vehicles):
            stream = []
            for index in range(1, reports_per_batch + 1):
                x, y = advance(vehicle, report_gap)
                stream.append(LocationUpdate(x, y, batch_start + index * report_gap))
            reports[f"veh-{vehicle}"] = stream
        batches.append(reports)

    stride = num_vehicles // num_queries
    query_ids: List[object] = [
        f"veh-{vehicle}" for vehicle in range(0, stride * num_queries, stride)
    ]
    return StreamingFleetScenario(
        mod=MovingObjectsDatabase(trajectories),
        query_ids=query_ids,
        batches=batches,
        max_speed=max_speed,
        uncertainty_radius=uncertainty_radius,
    )


def sharded_fleet(
    num_districts: int = 4,
    vehicles_per_district: int = 30,
    queries_per_district: int = 2,
    through_vehicles: int = 4,
    region_size_miles: float = 60.0,
    district_size_miles: float = 12.0,
    shift_minutes: float = 60.0,
    waypoints_per_vehicle: int = 4,
    uncertainty_radius: float = 0.2,
    seed: int = 37,
) -> Tuple[MovingObjectsDatabase, List[object]]:
    """A metro area of distinct districts: a wide batch of local queries.

    ``num_districts`` compact districts are laid out on a square grid across
    a much larger region; each district's vehicles random-waypoint *within*
    their district only, so the fleet's spatial footprint decomposes into
    well-separated clusters and each monitored vehicle's corridor keeps
    only its own district — a batch of many cheap, independent queries,
    the batch shape the sharded engine answers as one plan.  A few
    ``through_vehicles`` cross the whole region, so some corridors do reach
    into several districts.

    Ids are ``"d<district>-veh-<k>"`` and ``"through-<k>"``; the monitored
    query ids are spread evenly over the districts.

    Returns:
        ``(mod, query_ids)``.
    """
    if num_districts < 1 or vehicles_per_district < 2:
        raise ValueError("need at least one district with two vehicles")
    if not 1 <= queries_per_district <= vehicles_per_district:
        raise ValueError("queries_per_district must fit in a district's fleet")
    if district_size_miles <= 0 or region_size_miles < district_size_miles:
        raise ValueError("districts must fit inside the region")
    if waypoints_per_vehicle < 2:
        raise ValueError("need at least two waypoints per vehicle")
    rng = np.random.default_rng(seed)
    pdf = UniformDiskPDF(uncertainty_radius)
    grid = max(1, math.ceil(math.sqrt(num_districts)))
    cell = region_size_miles / grid
    leg_minutes = shift_minutes / (waypoints_per_vehicle - 1)

    trajectories: List[UncertainTrajectory] = []
    query_ids: List[object] = []
    for district in range(num_districts):
        row, col = divmod(district, grid)
        # District anchored in its grid cell with margin so neighboring
        # districts stay spatially separated.
        x_lo = col * cell + (cell - district_size_miles) / 2.0
        y_lo = row * cell + (cell - district_size_miles) / 2.0
        for vehicle in range(vehicles_per_district):
            waypoints = [
                (
                    x_lo + rng.uniform(0.0, district_size_miles),
                    y_lo + rng.uniform(0.0, district_size_miles),
                )
                for _ in range(waypoints_per_vehicle)
            ]
            samples = [
                TrajectorySample(x, y, index * leg_minutes)
                for index, (x, y) in enumerate(waypoints)
            ]
            trajectories.append(
                UncertainTrajectory(
                    f"d{district}-veh-{vehicle}", samples, uncertainty_radius, pdf
                )
            )
        stride = vehicles_per_district // queries_per_district
        query_ids.extend(
            f"d{district}-veh-{vehicle}"
            for vehicle in range(0, stride * queries_per_district, stride)
        )

    for through in range(through_vehicles):
        edge_in = rng.uniform(0.0, region_size_miles, 2)
        edge_out = rng.uniform(0.0, region_size_miles, 2)
        samples = [
            TrajectorySample(float(edge_in[0]), float(edge_in[1]), 0.0),
            TrajectorySample(float(edge_out[0]), float(edge_out[1]), shift_minutes),
        ]
        trajectories.append(
            UncertainTrajectory(
                f"through-{through}", samples, uncertainty_radius, pdf
            )
        )
    return MovingObjectsDatabase(trajectories), query_ids


def ride_hailing_snapshot(
    num_drivers: int = 25,
    region_size_miles: float = 15.0,
    horizon_minutes: float = 20.0,
    uncertainty_radius: float = 0.2,
    seed: Optional[int] = 23,
) -> MovingObjectsDatabase:
    """Idle/en-route ride-hailing drivers cruising a downtown grid.

    Drivers follow two-leg trajectories (cruise, then reposition); the rider
    to be matched is modelled by the caller as the query trajectory.  Ids are
    ``"driver-<k>"``.
    """
    if num_drivers < 1:
        raise ValueError("need at least one driver")
    rng = np.random.default_rng(seed)
    pdf = UniformDiskPDF(uncertainty_radius)
    half = horizon_minutes / 2.0
    trajectories: List[UncertainTrajectory] = []
    for driver in range(num_drivers):
        points = rng.uniform(0.0, region_size_miles, size=(3, 2))
        samples = [
            TrajectorySample(points[0][0], points[0][1], 0.0),
            TrajectorySample(points[1][0], points[1][1], half),
            TrajectorySample(points[2][0], points[2][1], horizon_minutes),
        ]
        trajectories.append(
            UncertainTrajectory(f"driver-{driver}", samples, uncertainty_radius, pdf)
        )
    return MovingObjectsDatabase(trajectories)
