"""Geometric primitives: points, disks, circle operations, segments, envelopes."""

from .circle_ops import circle_intersection_area
from .disk import Disk
from .point import ORIGIN, Point2D, Vector2D, ZERO_VECTOR
from .segment import SpaceTimeSegment, euclidean_speed

__all__ = [
    "ORIGIN",
    "ZERO_VECTOR",
    "Disk",
    "Point2D",
    "SpaceTimeSegment",
    "Vector2D",
    "circle_intersection_area",
    "euclidean_speed",
]
