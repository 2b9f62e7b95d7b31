"""Spatio-temporal index substrates: segment boxes and the segment box table."""

from .boxes import Box3D, IndexEntry, segment_boxes, trajectory_box
from .table import SegmentBoxTable

__all__ = [
    "Box3D",
    "IndexEntry",
    "SegmentBoxTable",
    "segment_boxes",
    "trajectory_box",
]
