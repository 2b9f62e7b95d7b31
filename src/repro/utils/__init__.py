"""Shared utilities: validation helpers."""

from .validation import (
    envelope_matches_pointwise_minimum,
    envelopes_equal_pointwise,
    intervals_are_disjoint,
    total_interval_length,
)

__all__ = [
    "envelope_matches_pointwise_minimum",
    "envelopes_equal_pointwise",
    "intervals_are_disjoint",
    "total_interval_length",
]
