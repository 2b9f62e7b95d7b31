"""The four categories of continuous probabilistic NN queries (Section 4).

All queries operate on a prepared :class:`QueryContext`, which bundles the
difference distance functions, the level-1 lower envelope, the pruning band
width, and (lazily) the level envelopes and the IPAC-NN tree.  The context is
the "after O(N log N) pre-processing" object the complexity claims of
Section 4 refer to; every predicate below is then linear (Category 1) or
O(kN)/O((N/K)²) (Categories 2–4) on top of it.

The naive baselines of the Figure 12 experiment live in
:mod:`repro.reference.naive`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.envelope.bulk import FunctionPack
from ..geometry.envelope.divide_conquer import lower_envelope
from ..geometry.envelope.hyperbola import DistanceFunction
from ..geometry.envelope.klevel import LevelEnvelopes, k_level_envelopes
from ..geometry.envelope.pieces import Envelope
from .answer import IPACTree
from .ipacnn import read_ipac_tree
from .pruning import BandColumns, PruningStatistics, band_intervals_batch, band_intervals_many
from .tolerances import FULL_WINDOW_SLACK

#: The variants of the UQ3x (and UQ4x) answers, in paper order.
VARIANTS = ("sometime", "always", "fraction")


class CandidateFunctions(Mapping):
    """Read-only ``object id -> DistanceFunction`` view of a context's pack:
    iteration and ``len`` read its ids, a lookup makes one function, and
    the id -> row map both ``in`` and lookups use is built by the first."""

    def __init__(self, pack: FunctionPack):
        self.pack = pack
        self._rows: Optional[Dict[object, int]] = None

    def _row_map(self) -> Dict[object, int]:
        if self._rows is None:
            self._rows = {object_id: row for row, object_id in enumerate(self.pack.ids)}
        return self._rows

    def __getitem__(self, object_id: object) -> DistanceFunction:
        return self.pack.function(self._row_map()[object_id])

    def __iter__(self) -> Iterator[object]:
        return iter(self.pack.ids)

    def __len__(self) -> int:
        return len(self.pack.ids)

    def __contains__(self, object_id: object) -> bool:
        return object_id in self._row_map()


@dataclass
class QueryContext:
    """Pre-processed state for continuous probabilistic NN queries.

    Its :class:`FunctionPack` of candidates is what the envelope, the band
    pass and the level sweep read; only rows read as objects are made.

    Attributes:
        query_id: identifier of the query trajectory.
        t_start: query window start.
        t_end: query window end.
        band_width: pruning band width (``4r`` in the paper's model).
        functions: difference distance functions, keyed by object id (a
            :class:`CandidateFunctions` view; a plain mapping is packed).
        envelope: the level-1 lower envelope.
    """

    query_id: object
    t_start: float
    t_end: float
    band_width: float
    functions: Mapping
    envelope: Envelope
    _levels: Optional[LevelEnvelopes] = None
    _levels_depth: int = 0
    _tree: Optional[IPACTree] = None
    # Set by the band pass: the survivors' pack rows, and ``_spans`` then
    # holds exactly their intervals (before it, those of candidates asked for).
    _survivor_rows: Optional[np.ndarray] = None
    _spans: Dict[object, Tuple[Tuple[float, float], ...]] = field(default_factory=dict)
    _answers: Dict[Tuple[str, float], Dict[object, Tuple]] = field(default_factory=dict)
    # Read off the level stack, so a deeper stack starts both over.
    _rank_answers: Dict[Tuple[int, str, float], List[object]] = field(default_factory=dict)
    _rank_durations: Dict[int, Dict[object, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.functions, CandidateFunctions):
            self.functions = CandidateFunctions(FunctionPack(list(self.functions.values())))
        #: The candidates' functions as columns, in candidate order.
        self.pack: FunctionPack = self.functions.pack

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    @staticmethod
    def build(
        functions: Sequence[DistanceFunction],
        query_id: object,
        t_start: float,
        t_end: float,
        band_width: float,
    ) -> "QueryContext":
        """Build a context: O(N log N) envelope construction plus bookkeeping."""
        if not functions:
            raise ValueError("no candidate function: does any candidate cover the window?")
        if t_end < t_start:
            raise ValueError(f"empty query window [{t_start}, {t_end}]")
        if band_width < 0:
            raise ValueError("band width must be non-negative")
        pack = FunctionPack.of(functions)
        if len(set(pack.ids)) != len(pack):
            raise ValueError("distance functions must have unique object ids")
        envelope = lower_envelope(pack, t_start, t_end)
        return QueryContext(
            query_id=query_id,
            t_start=t_start,
            t_end=t_end,
            band_width=band_width,
            functions=CandidateFunctions(pack),
            envelope=envelope,
        )

    @staticmethod
    def from_mod(
        mod,
        query_id: object,
        t_start: float,
        t_end: float,
        band_width: Optional[float] = None,
        candidate_ids: Optional[Sequence[object]] = None,
    ) -> "QueryContext":
        """Build a context from a MOD, optionally restricted to pre-filtered candidates.

        This is the seam the batched :class:`repro.engine.QueryEngine` uses:
        an index probe produces ``candidate_ids`` and the expensive difference
        function + envelope construction only runs over that subset.

        Args:
            mod: a :class:`repro.trajectories.mod.MovingObjectsDatabase`.
            query_id: id of the query trajectory (must be stored).
            t_start: query window start.
            t_end: query window end.
            band_width: pruning band width; defaults to the MOD's
                ``default_band_width`` (the paper's ``4r``).
            candidate_ids: restrict to these objects, e.g. the output of an
                index corridor probe; defaults to every other stored object.
        """
        if band_width is None:
            band_width = mod.default_band_width(query_id)
        functions = mod.distance_pack(
            query_id, t_start, t_end, candidate_ids=candidate_ids
        )
        return QueryContext.build(functions, query_id, t_start, t_end, band_width)

    # ------------------------------------------------------------------
    # Shared lazily-computed artefacts.
    # ------------------------------------------------------------------

    @property
    def duration(self) -> float:
        """Length of the query window."""
        return self.t_end - self.t_start

    def function_of(self, object_id: object) -> DistanceFunction:
        """Distance function of a candidate.

        Raises:
            KeyError: for the query's own id or an unknown id.
        """
        self._check_candidate(object_id)
        return self.functions[object_id]

    def _check_candidate(self, object_id: object) -> None:
        if object_id == self.query_id:
            raise KeyError("the query trajectory is not a candidate of its own query")
        if object_id not in self.functions:
            raise KeyError(f"unknown candidate {object_id!r}")

    def _surviving_rows(self) -> np.ndarray:
        """Pack rows of the candidates that survive the 4r-band pruning.

        One :func:`band_intervals_many` pass, unless the engine's pass over
        a batch's contexts handed its columns over, serves band pruning, the
        UQ1x predicates and the UQ3x answer shapes.
        """
        if self._survivor_rows is None:
            self.adopt_band(band_intervals_many([
                (self.pack, self.envelope, self.band_width, self.t_start, self.t_end)
            ])[0])
        assert self._survivor_rows is not None
        return self._survivor_rows

    def adopt_band(self, band: BandColumns) -> None:
        """Keep the survivors of a band pass over the pack, in pack order,
        and their intervals, one tuple each that every answer shares."""
        offsets = band.offsets
        rows = np.flatnonzero(offsets[1:] > offsets[:-1])
        spans = list(zip(band.starts.tolist(), band.ends.tolist()))
        self._spans = {
            self.pack.ids[row]: tuple(spans[start:stop])
            for row, start, stop in zip(
                rows.tolist(), offsets[rows].tolist(), offsets[rows + 1].tolist()
            )
        }
        self._survivor_rows = rows

    def _intervals_of(self, object_id: object) -> Tuple[Tuple[float, float], ...]:
        """Inside-band intervals of one candidate: ``()`` when it does not
        survive.

        A one-off Category-1 predicate on a fresh context computes (and
        caches) just that candidate's intervals; the band pass over every
        candidate runs when a UQ3x/pruning flow asks for it.
        """
        self._check_candidate(object_id)
        if self._survivor_rows is None and object_id not in self._spans:
            self._spans[object_id] = tuple(band_intervals_batch(
                [self.functions[object_id]],
                self.envelope,
                self.band_width,
                self.t_start,
                self.t_end,
            )[0])
        return self._spans.get(object_id, ())

    def survivors(self) -> List[DistanceFunction]:
        """Candidates that survive the 4r-band pruning (made once each)."""
        return [self.pack.function(row) for row in self._surviving_rows().tolist()]

    def survivor_intervals(self) -> Dict[object, Tuple[Tuple[float, float], ...]]:
        """Each survivor's non-zero-probability intervals, in survivor order."""
        return dict(self._survivor_spans())

    def _survivor_spans(self) -> Dict[object, Tuple[Tuple[float, float], ...]]:
        self._surviving_rows()
        return self._spans

    def _covered_durations(self) -> Dict[object, float]:
        """Each survivor's total inside-band time, in survivor order."""
        return {
            object_id: sum(end - start for start, end in spans)
            for object_id, spans in self._survivor_spans().items()
        }

    def answer(self, variant: str, fraction: float = 0.0) -> Dict[object, Tuple]:
        """The UQ3x ``variant`` members, each mapped to its non-zero intervals.

        Memoized per ``(variant, fraction)``, as a built context never
        changes, and shared: :func:`~repro.engine.answers.answer_of` copies.
        """
        answer = self._answers.get((variant, fraction))
        if answer is None:
            if variant not in VARIANTS:
                raise ValueError(f"unknown variant {variant!r} (expected {VARIANTS})")
            members = (
                self.uq31_all_sometime() if variant == "sometime"
                else self.uq32_all_always() if variant == "always"
                else self.uq33_all_at_least(fraction)
            )
            answer = {member: self._spans[member] for member in members}
            self._answers[variant, fraction] = answer
        return answer

    def rank_answer(self, rank: int, variant: str, fraction: float = 0.0) -> List[object]:
        """The UQ41/42/43 ``variant`` ids within the top ``rank``, memoized
        like :meth:`answer` (per level stack); ``QueryEngine.rank_answer`` copies."""
        members = self._rank_answers.get((rank, variant, fraction))
        if members is None:
            members = (
                self.uq41_all_rank_sometime(rank) if variant == "sometime"
                else self.uq42_all_rank_always(rank) if variant == "always"
                else self.uq43_all_rank_at_least(rank, fraction)
            )
            self._rank_answers[rank, variant, fraction] = members
        return members

    def pruning_statistics(self) -> PruningStatistics:
        """Pruning statistics of the band (the Figure 13 quantity)."""
        return PruningStatistics(len(self.pack), len(self._surviving_rows()))

    def level_envelopes(self, max_level: int) -> LevelEnvelopes:
        """Level envelopes 1..max_level over the surviving candidates."""
        if max_level < 1:
            raise ValueError("levels are 1-based")
        if self._levels is None or self._levels_depth < max_level:
            rows = self._surviving_rows()
            self._levels = k_level_envelopes(
                self.pack.take(rows if rows.size else range(len(self.pack))),
                self.t_start,
                self.t_end,
                max_levels=max_level,
            )
            self._levels_depth = max_level
            self._rank_answers, self._rank_durations = {}, {}
        return self._levels

    def ipac_tree(self, max_levels: Optional[int] = None) -> IPACTree:
        """The IPAC-NN tree read off the level envelopes (cached for unbounded depth)."""
        if max_levels is not None:
            return read_ipac_tree(self, max_levels)
        if self._tree is None:
            self._tree = read_ipac_tree(self, None)
        return self._tree

    # ------------------------------------------------------------------
    # Category 1: single trajectory, non-zero NN probability.
    # ------------------------------------------------------------------

    def uq11_sometime(self, object_id: object) -> bool:
        """UQ11(∃t): non-zero NN probability at some time during the window."""
        return bool(self._intervals_of(object_id))

    def uq12_always(self, object_id: object) -> bool:
        """UQ12(∀t): non-zero NN probability throughout the window."""
        covered = sum(end - start for start, end in self._intervals_of(object_id))
        return covered >= self.duration - FULL_WINDOW_SLACK

    def uq13_fraction(self, object_id: object) -> float:
        """Fraction of the window with non-zero NN probability (UQ13 support)."""
        if self.duration <= 0:
            return 1.0 if self.uq11_sometime(object_id) else 0.0
        covered = sum(end - start for start, end in self._intervals_of(object_id))
        return min(1.0, covered / self.duration)

    def uq13_at_least(self, object_id: object, fraction: float) -> bool:
        """UQ13(X%): non-zero NN probability at least ``fraction`` of the window."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        return self.uq13_fraction(object_id) >= fraction - FULL_WINDOW_SLACK

    def nonzero_probability_intervals(
        self, object_id: object
    ) -> List[Tuple[float, float]]:
        """The exact sub-intervals with non-zero NN probability for one candidate."""
        return list(self._intervals_of(object_id))

    # ------------------------------------------------------------------
    # Category 2: single trajectory, rank-k.
    # ------------------------------------------------------------------

    def uq21_rank_sometime(self, object_id: object, k: int) -> bool:
        """UQ21: labelled on some IPAC-NN node at level ≤ k (some time in the window)."""
        return self._rank_duration(object_id, k) > 0.0

    def uq22_rank_always(self, object_id: object, k: int) -> bool:
        """UQ22: among the top-k labels throughout the window."""
        return (
            self._rank_duration(object_id, k)
            >= self.duration - FULL_WINDOW_SLACK * max(1.0, self.duration)
        )

    def uq23_rank_fraction(self, object_id: object, k: int) -> float:
        """Fraction of the window during which the object ranks within the top k."""
        if self.duration <= 0:
            return 1.0 if self.uq21_rank_sometime(object_id, k) else 0.0
        return min(1.0, self._rank_duration(object_id, k) / self.duration)

    def uq23_rank_at_least(self, object_id: object, k: int, fraction: float) -> bool:
        """UQ23: ranked within the top k at least ``fraction`` of the window."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        return self.uq23_rank_fraction(object_id, k) >= fraction - FULL_WINDOW_SLACK

    def _rank_duration(self, object_id: object, k: int) -> float:
        """Total time the object owns one of the level-1..k envelopes."""
        if k < 1:
            raise ValueError("rank k must be at least 1")
        self._check_candidate(object_id)
        levels = self.level_envelopes(k)
        durations = self._rank_durations.get(k)
        if durations is None:
            durations = self._rank_durations[k] = rank_durations(levels, k)
        return durations.get(object_id, 0.0)

    # ------------------------------------------------------------------
    # Category 3: whole MOD, non-zero NN probability.
    # ------------------------------------------------------------------

    def uq31_all_sometime(self) -> List[object]:
        """UQ31: every trajectory with non-zero NN probability at some time."""
        return list(self._survivor_spans())

    def uq32_all_always(self) -> List[object]:
        """UQ32: every trajectory with non-zero NN probability throughout the window."""
        threshold = self.duration - FULL_WINDOW_SLACK
        return [
            object_id
            for object_id, covered in self._covered_durations().items()
            if covered >= threshold
        ]

    def uq33_all_at_least(self, fraction: float) -> List[object]:
        """UQ33: trajectories with non-zero NN probability at least ``fraction`` of the window."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        duration = self.duration
        if duration <= 0:
            return self.uq31_all_sometime()
        threshold = fraction - FULL_WINDOW_SLACK
        return [
            object_id
            for object_id, covered in self._covered_durations().items()
            if covered / duration >= threshold
        ]

    # ------------------------------------------------------------------
    # Category 4: whole MOD, rank-k.
    # ------------------------------------------------------------------

    def uq41_all_rank_sometime(self, k: int) -> List[object]:
        """Category 4 (∃t): trajectories ranked within the top k at some time."""
        if k < 1:
            raise ValueError("rank k must be at least 1")
        levels = self.level_envelopes(k)
        seen: List[object] = []
        for level_index in range(1, min(k, len(levels)) + 1):
            for object_id in levels.level(level_index).distinct_owner_ids:
                if object_id not in seen:
                    seen.append(object_id)
        return seen

    def uq42_all_rank_always(self, k: int) -> List[object]:
        """Category 4 (∀t): trajectories ranked within the top k throughout the window."""
        return [
            object_id
            for object_id in self.uq41_all_rank_sometime(k)
            if self.uq22_rank_always(object_id, k)
        ]

    def uq43_all_rank_at_least(self, k: int, fraction: float) -> List[object]:
        """Category 4 (X%): trajectories ranked within the top k at least a fraction of the window."""
        return [
            object_id
            for object_id in self.uq41_all_rank_sometime(k)
            if self.uq23_rank_at_least(object_id, k, fraction)
        ]

    # ------------------------------------------------------------------
    # Fixed-time variants (Section 4, closing remark).
    # ------------------------------------------------------------------

    def candidates_at(self, t: float) -> List[object]:
        """Trajectories with non-zero NN probability at the fixed time ``t``."""
        self._check_time(t)
        threshold = self.envelope.value(t) + self.band_width
        return [
            function.object_id
            for function in self.pack
            if function.value(t) <= threshold + 1e-12
        ]

    def ranking_at(self, t: float, k: int) -> List[object]:
        """Top-k ranking (by envelope level ownership) at the fixed time ``t``."""
        self._check_time(t)
        levels = self.level_envelopes(k)
        return levels.owners_at(t)[:k]

    def _check_time(self, t: float) -> None:
        if not self.t_start - 1e-9 <= t <= self.t_end + 1e-9:
            raise ValueError(
                f"time {t} outside query window [{self.t_start}, {self.t_end}]"
            )


def rank_durations(levels: LevelEnvelopes, k: int) -> Dict[object, float]:
    """Each owner's time on levels ``1..k``, in one pass over the pieces:
    ``==`` one ``Envelope.total_duration_of`` per level and owner, added in
    level order (the same floats, in the same order)."""
    totals: Dict[object, float] = {}
    for level_index in range(1, min(k, len(levels)) + 1):
        spans: Dict[object, List[float]] = {}
        for piece in levels.level(level_index).pieces:
            spans.setdefault(piece.object_id, []).append(piece.duration)
        for object_id, durations in spans.items():
            totals[object_id] = totals.get(object_id, 0.0) + sum(durations)
    return totals
