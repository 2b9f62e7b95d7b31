"""Trajectory model: crisp/uncertain trajectories, difference trajectories, the MOD."""

from .difference import difference_distance_function, difference_distance_functions
from .io import LoadReport, load_csv, load_json, save_csv, save_json
from .columnar import ColumnarPack, ColumnarStore, SegmentBoxArrays, segment_boxes_bulk
from .mod import ChangeRecord, MovingObjectsDatabase
from .trajectory import Trajectory, TrajectorySample, UncertainTrajectory
from .updates import (
    LocationUpdate,
    VelocityUpdate,
    dead_reckoning_positions,
    ellipse_uncertainty_bound,
    max_ellipse_uncertainty,
    trajectory_from_dead_reckoning,
    trajectory_from_updates,
)

__all__ = [
    "ChangeRecord",
    "ColumnarPack",
    "ColumnarStore",
    "SegmentBoxArrays",
    "segment_boxes_bulk",
    "LoadReport",
    "LocationUpdate",
    "MovingObjectsDatabase",
    "VelocityUpdate",
    "dead_reckoning_positions",
    "ellipse_uncertainty_bound",
    "max_ellipse_uncertainty",
    "trajectory_from_dead_reckoning",
    "trajectory_from_updates",
    "load_csv",
    "load_json",
    "save_csv",
    "save_json",
    "Trajectory",
    "TrajectorySample",
    "UncertainTrajectory",
    "difference_distance_function",
    "difference_distance_functions",
]
