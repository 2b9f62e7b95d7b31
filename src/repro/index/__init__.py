"""Spatio-temporal index substrates: segment boxes, uniform grid, STR R-tree."""

from .boxes import Box3D, IndexEntry, segment_boxes, trajectory_box
from .grid import GridIndex
from .rtree import STRRTree

__all__ = [
    "Box3D",
    "GridIndex",
    "IndexEntry",
    "STRRTree",
    "segment_boxes",
    "trajectory_box",
]
