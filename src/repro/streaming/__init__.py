"""Streaming continuous monitoring: live updates in, answer deltas out.

The subsystem converts the batch-rebuild pipeline into delta semantics: a
:class:`ContinuousMonitor` keeps UQ-style standing queries registered while
per-object update feeds (:mod:`repro.streaming.ingest`) extend trajectories;
each applied batch incrementally maintains the MOD and its index, finds the
affected queries by corridor intersection, and emits typed answer deltas
(:mod:`repro.streaming.events`) to subscribers.
"""

from .events import (
    Answer,
    AnswerDelta,
    IntervalChanged,
    NeighborAppeared,
    NeighborDropped,
    answers_equal,
    diff_answers,
    replay_deltas,
)
from .ingest import DeadReckoningFeed, LocationFeed, StreamIngestor
from .monitor import (
    BatchReport,
    ContinuousMonitor,
    StandingQuery,
    reference_answer,
)

__all__ = [
    "Answer",
    "AnswerDelta",
    "BatchReport",
    "ContinuousMonitor",
    "DeadReckoningFeed",
    "IntervalChanged",
    "LocationFeed",
    "NeighborAppeared",
    "NeighborDropped",
    "StandingQuery",
    "StreamIngestor",
    "answers_equal",
    "diff_answers",
    "reference_answer",
    "replay_deltas",
]
