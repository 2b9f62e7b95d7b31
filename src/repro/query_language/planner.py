"""Compiling parsed UQ statements into set-oriented batched plans.

The naive interpreter evaluates each
:class:`~repro.query_language.ast.ContinuousNNQueryAST` alone against the
scalar :class:`~repro.core.continuous.ContinuousProbabilisticNNQuery`
façade — no index reuse, no context cache, no bulk kernels.  This module
is the compiler that makes the batched stack reachable from parsed text:

1. **Resolve** — each statement's query (and target) literal is matched
   against the MOD's actual ids once, up front;
2. **Fuse** — statements sharing ``(t_start, t_end, band width)`` are
   folded into one :class:`PlanGroup`, served by a single
   :meth:`~repro.engine.QueryEngine.prepare_batch` call (one corridor
   bulk probe, one envelope pass per distinct query id, shared LRU
   cache);
3. **Execute** — :meth:`QueryPlan.execute` runs the groups against a
   reusable engine and re-interleaves per-statement answers into
   submission order.

Every group's candidates are filtered through the store's R-tree, the
engine's one candidate filter.  Planned answers are byte-identical to the
naive interpreter's: corridor filtering is provably answer-preserving (see
:mod:`repro.engine.filtering`), and both paths canonicalize answer
ordering by ``str`` of the object id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..engine.answers import answer_of
from ..engine.engine import QueryEngine
from ..trajectories.mod import MovingObjectsDatabase
from .ast import ContinuousNNQueryAST, Quantifier
from .plans import (
    AnswerNode,
    BandIntervalsNode,
    MergeNode,
    PrepareNode,
    render_plan,
)

#: Quantifier -> UQ3x variant of the shared answer dispatch.
VARIANT_OF_QUANTIFIER: Dict[Quantifier, str] = {
    Quantifier.EXISTS: "sometime",
    Quantifier.FORALL: "always",
    Quantifier.FRACTION: "fraction",
}

BandWidths = Union[None, float, Sequence[Optional[float]]]


def resolve_object_id(mod: MovingObjectsDatabase, requested: object) -> object:
    """Match a parsed literal against the MOD's actual object ids.

    Query text cannot distinguish ``"7"`` from ``7``; try the literal
    first and fall back to the obvious string/int coercions before
    giving up.
    """
    if requested in mod:
        return requested
    if isinstance(requested, str):
        try:
            numeric: Optional[int] = int(requested)
        except ValueError:
            numeric = None
        if numeric is not None and numeric in mod:
            return numeric
    if isinstance(requested, (int, float)) and str(requested) in mod:
        return str(requested)
    raise KeyError(f"query references unknown object {requested!r}")


@dataclass(frozen=True)
class PlannedStatement:
    """One resolved statement inside a fused group."""

    position: int
    ast: ContinuousNNQueryAST
    query_object: object
    variant: str
    fraction: float
    rank: Optional[int]
    target: Optional[object]


@dataclass(frozen=True)
class PlanGroup:
    """Statements fused into one batched preparation."""

    t_start: float
    t_end: float
    band_width: Optional[float]
    statements: Tuple[PlannedStatement, ...]

    @property
    def width(self) -> int:
        """Statements in the group."""
        return len(self.statements)


@dataclass
class PlanExecution:
    """Outcome of executing one compiled plan."""

    #: Per-statement answer id lists, submission order, canonically
    #: sorted by ``str``.
    answers: List[List[object]]


@dataclass(frozen=True)
class QueryPlan:
    """A compiled, executable batch of UQ statements."""

    root: MergeNode
    groups: Tuple[PlanGroup, ...]

    @property
    def statement_count(self) -> int:
        """Total statements across every group."""
        return sum(group.width for group in self.groups)

    def explain(self) -> str:
        """The plan tree as indented text."""
        return render_plan(self.root)

    def execute(self, engine: QueryEngine) -> PlanExecution:
        """Run every group and interleave answers into submission order.

        Args:
            engine: the reusable engine every group runs on (its context
                cache persists across executions).
        """
        by_position: Dict[int, List[object]] = {}
        for group in self.groups:
            self._execute_group(group, engine, by_position)
        answers = [by_position[position] for position in sorted(by_position)]
        return PlanExecution(answers=answers)

    def _execute_group(
        self,
        group: PlanGroup,
        engine: QueryEngine,
        by_position: Dict[int, List[object]],
    ) -> None:
        """One batched preparation, then every statement's answer from it."""
        unique_ids = list(
            dict.fromkeys(statement.query_object for statement in group.statements)
        )
        batch = engine.prepare_batch(
            unique_ids, group.t_start, group.t_end, band_width=group.band_width
        )
        contexts = batch.contexts
        for statement in group.statements:
            context = contexts[statement.query_object]
            if statement.rank is None:
                ids = list(
                    answer_of(context, statement.variant, statement.fraction)
                )
            else:
                ids = engine.rank_answer(
                    context, statement.rank, statement.variant, statement.fraction
                )
            ids = sorted(ids, key=str)
            by_position[statement.position] = _restrict(ids, statement)


def _restrict(ids: List[object], statement: PlannedStatement) -> List[object]:
    """Apply the Category-1/2 target restriction to an answer set."""
    if statement.target is None:
        return ids
    return [object_id for object_id in ids if object_id == statement.target]


def compile_queries(
    asts: Sequence[ContinuousNNQueryAST],
    mod: MovingObjectsDatabase,
    *,
    band_width: BandWidths = None,
) -> QueryPlan:
    """Lower parsed statements into a fused :class:`QueryPlan`.

    Args:
        asts: the parsed statements, in submission order.
        mod: the moving objects database they run against.
        band_width: pruning-band override — a single value for every
            statement, or a per-statement sequence (``None`` entries use
            the 4r default).  Statements only fuse when their overrides
            match, since a batched preparation shares one band width.
    """
    widths = _normalize_band_widths(band_width, len(asts))

    resolved: List[PlannedStatement] = []
    for position, ast in enumerate(asts):
        target = (
            resolve_object_id(mod, ast.target_object)
            if ast.target_object is not None
            else None
        )
        resolved.append(
            PlannedStatement(
                position=position,
                ast=ast,
                query_object=resolve_object_id(mod, ast.predicate.query_object),
                variant=VARIANT_OF_QUANTIFIER[ast.quantifier],
                fraction=(
                    ast.min_fraction if ast.min_fraction is not None else 0.0
                ),
                rank=ast.predicate.max_rank,
                target=target,
            )
        )

    fused: Dict[
        Tuple[float, float, Optional[float]], List[PlannedStatement]
    ] = {}
    for statement, width in zip(resolved, widths):
        key = (statement.ast.window.t_start, statement.ast.window.t_end, width)
        fused.setdefault(key, []).append(statement)

    groups: List[PlanGroup] = []
    nodes: List[PrepareNode] = []
    for (t_start, t_end, width), members in fused.items():
        groups.append(
            PlanGroup(
                t_start=t_start,
                t_end=t_end,
                band_width=width,
                statements=tuple(members),
            )
        )
        answers = tuple(
            AnswerNode(
                position=s.position,
                ast=s.ast,
                query_object=s.query_object,
                variant=s.variant if s.rank is None else None,
                fraction=s.fraction,
                rank=s.rank,
                target=s.target,
            )
            for s in members
        )
        nodes.append(
            PrepareNode(
                t_start=t_start,
                t_end=t_end,
                child=BandIntervalsNode(band_width=width, answers=answers),
            )
        )
    return QueryPlan(root=MergeNode(groups=tuple(nodes)), groups=tuple(groups))


def _normalize_band_widths(
    band_width: BandWidths, count: int
) -> List[Optional[float]]:
    """Expand the override argument into one entry per statement."""
    if band_width is None or isinstance(band_width, (int, float)):
        return [band_width] * count
    widths = list(band_width)
    if len(widths) != count:
        raise ValueError(
            f"band_width sequence has {len(widths)} entries "
            f"for {count} statements"
        )
    return widths
