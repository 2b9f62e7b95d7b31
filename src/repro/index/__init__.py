"""The spatio-temporal index substrate: the segment box table."""

from .table import SegmentBoxTable

__all__ = ["SegmentBoxTable"]
