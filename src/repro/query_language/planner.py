"""Query plans: the one grouping rule and the one evaluator.

Every query the library serves is a :class:`PlannedStatement`, and every
caller runs its statements as a :class:`QueryPlan`: the query language's
compiled text, the service pool's coalesced batches, the monitor's
standing queries, and the sharded engine's batches.

1. **Resolve** — (parsed text only, :func:`compile_queries`) each
   statement's query and target literals are matched against the MOD's ids;
2. **Fuse** — :func:`plan_statements` folds statements sharing
   ``(t_start, t_end, band width)`` into one :class:`PlanGroup`, served by
   a single :meth:`~repro.engine.QueryEngine.prepare_batch` call;
3. **Execute** — :meth:`QueryPlan.execute` prepares every group on a
   reusable engine and returns each statement's context in submission
   order; :meth:`PlanExecution.answer` reads an answer off its context, so
   a caller pays only for the answers it reads.

Planned answers are byte-identical to the naive interpreter's: corridor
filtering is provably answer-preserving (see :mod:`repro.engine.filtering`),
and both paths canonicalize answer ordering by ``str`` of the object id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.queries import QueryContext
from ..engine.answers import Answer, answer_of
from ..engine.engine import QueryEngine
from ..trajectories.mod import MovingObjectsDatabase
from .ast import ContinuousNNQueryAST, Quantifier, query_category

#: Quantifier -> UQ3x variant of the shared answer dispatch.
VARIANT_OF_QUANTIFIER: Dict[Quantifier, str] = {
    Quantifier.EXISTS: "sometime",
    Quantifier.FORALL: "always",
    Quantifier.FRACTION: "fraction",
}

BandWidths = Union[None, float, Sequence[Optional[float]]]

#: A statement's answer: the UQ3x member -> intervals map, or the UQ4x ids.
StatementAnswer = Union[Answer, List[object]]


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


@dataclass(slots=True)
class PlannedStatement:
    """One query of a plan.

    Attributes:
        query_object: the query trajectory id.
        t_start, t_end: the window.
        band_width: pruning-band override; the store's 4r default when
            ``None``.
        variant: UQ3x variant (``sometime``/``always``/``fraction``); for a
            rank statement, the quantifier of its UQ4x form.
        fraction: minimum window fraction (``fraction`` variant only).
        rank: ``RANK_NN`` bound ``k``, ``None`` for probability statements.
        target: Category-1/2 target id, ``None`` for the open Category-3/4
            forms.
        ast: the parsed statement this one was compiled from, if any.
    """

    query_object: object
    t_start: float
    t_end: float
    band_width: Optional[float] = None
    variant: str = "sometime"
    fraction: float = 0.0
    rank: Optional[int] = None
    target: Optional[object] = None
    ast: Optional[ContinuousNNQueryAST] = field(
        default=None, repr=False, compare=False
    )

    @property
    def category(self) -> int:
        """The paper's query category (1-4) of this statement."""
        return query_category(
            ranked=self.rank is not None, targeted=self.target is not None
        )


@dataclass(slots=True)
class PlanGroup:
    """Statements fused into one batched preparation."""

    t_start: float
    t_end: float
    band_width: Optional[float]
    statements: Tuple[PlannedStatement, ...]
    #: Each statement's index in the plan's submission order.
    positions: Tuple[int, ...]

    @property
    def width(self) -> int:
        """Statements in the group."""
        return len(self.statements)


@dataclass(slots=True)
class PlanExecution:
    """Each statement's prepared context, in submission order.

    Answers are read off the contexts on demand: a caller that finds a
    context unchanged (the monitor) skips extracting it.
    """

    statements: Tuple[PlannedStatement, ...]
    contexts: Tuple[QueryContext, ...]
    engine: QueryEngine = field(repr=False)

    def answer(self, position: int) -> StatementAnswer:
        """Statement ``position``'s answer, restricted to its target.

        The UQ3x :data:`~repro.engine.answers.Answer` (member -> non-zero
        intervals) of a probability statement, the UQ4x member ids of a
        rank statement.
        """
        statement, context = self.statements[position], self.contexts[position]
        if statement.rank is None:
            answer = answer_of(context, statement.variant, statement.fraction)
        else:
            answer = self.engine.rank_answer(
                context, statement.rank, statement.variant, statement.fraction
            )
        if statement.target is None:
            return answer
        kept = [member for member in answer if member == statement.target]
        return {member: answer[member] for member in kept} if isinstance(answer, dict) else kept

    @property
    def answers(self) -> List[StatementAnswer]:
        """Every statement's answer, in submission order (extracted per call)."""
        return [self.answer(position) for position in range(len(self.statements))]


@dataclass(slots=True)
class QueryPlan:
    """A fused, executable batch of statements."""

    #: Every statement, in submission order.
    statements: Tuple[PlannedStatement, ...]
    groups: Tuple[PlanGroup, ...]

    @property
    def statement_count(self) -> int:
        """Total statements across every group."""
        return len(self.statements)

    def explain(self) -> str:
        """The plan's four stages as indented text.

        ``Merge`` (submission order), one ``Prepare`` per group (its
        window), its ``BandIntervals`` (band width, distinct contexts) and
        one ``Answer`` per statement — in the visual grammar of
        :func:`repro.obs.tracing.render_tree`, so ``QueryExecutor.explain`` output
        reads uniformly when the span tree is appended below it.
        """
        lines = [_line(0, "Merge", statements=self.statement_count, groups=len(self.groups))]
        for group in self.groups:
            band = "default(4r)" if group.band_width is None else group.band_width
            lines += [
                _line(1, "Prepare", window=f"[{group.t_start:g}, {group.t_end:g}]",
                      statements=group.width),
                _line(2, "BandIntervals", band=band,
                      contexts=len({s.query_object for s in group.statements})),
                *(_line(3, "Answer", **_shown(s)) for s in group.statements),
            ]
        return "\n".join(lines)

    def execute(self, engine: QueryEngine) -> PlanExecution:
        """One ``prepare_batch`` per group over its distinct query ids.

        Args:
            engine: the reusable engine every group runs on (its context
                cache persists across executions).
        """
        contexts: List[Optional[QueryContext]] = [None] * self.statement_count
        for group in self.groups:
            prepared = engine.prepare_batch(
                list(dict.fromkeys(s.query_object for s in group.statements)),
                group.t_start,
                group.t_end,
                band_width=group.band_width,
            ).contexts
            for position, statement in zip(group.positions, group.statements):
                contexts[position] = prepared[statement.query_object]
        return PlanExecution(self.statements, tuple(contexts), engine)


def _shown(statement: PlannedStatement) -> Dict[str, object]:
    """The decisions :meth:`QueryPlan.explain` prints for one statement."""
    shown: Dict[str, object] = {"query": statement.query_object}
    if statement.rank is not None:
        shown["rank"] = statement.rank
    shown["variant"] = statement.variant
    if statement.variant == "fraction":
        shown["fraction"] = statement.fraction
    if statement.target is not None:
        shown["target"] = statement.target
    shown["category"] = statement.category
    return shown


def _line(depth: int, label: str, **shown: object) -> str:
    inner = " ".join(f"{key}={value}" for key, value in shown.items())
    return f"{'  ' * depth}{label:<20s}  [{inner}]"


def plan_statements(statements: Sequence[PlannedStatement]) -> QueryPlan:
    """Fuse statements into a plan.

    The one grouping rule: statements with the same ``(t_start, t_end,
    band width)`` share a preparation, since a batched preparation shares
    one window and one band width.  Groups appear in the order of their
    first statement.
    """
    statements = tuple(statements)
    fused: Dict[Tuple[float, float, Optional[float]], List[int]] = {}
    for position, statement in enumerate(statements):
        key = (statement.t_start, statement.t_end, statement.band_width)
        fused.setdefault(key, []).append(position)
    return QueryPlan(
        statements=statements,
        groups=tuple(
            PlanGroup(
                t_start=t_start,
                t_end=t_end,
                band_width=width,
                statements=tuple(statements[position] for position in positions),
                positions=tuple(positions),
            )
            for (t_start, t_end, width), positions in fused.items()
        ),
    )


def compile_queries(
    asts: Sequence[ContinuousNNQueryAST],
    mod: MovingObjectsDatabase,
    *,
    band_width: BandWidths = None,
) -> QueryPlan:
    """Resolve parsed statements against the MOD, then :func:`plan_statements`.

    Args:
        asts: the parsed statements, in submission order.
        mod: the moving objects database they run against.
        band_width: pruning-band override — a single value for every
            statement, or a per-statement sequence (``None`` entries use
            the 4r default).  Statements only fuse when their overrides
            match.
    """
    widths = _normalize_band_widths(band_width, len(asts))
    return plan_statements([
        PlannedStatement(
            query_object=resolve_object_id(mod, ast.predicate.query_object),
            t_start=ast.window.t_start,
            t_end=ast.window.t_end,
            band_width=width,
            variant=VARIANT_OF_QUANTIFIER[ast.quantifier],
            fraction=ast.min_fraction if ast.min_fraction is not None else 0.0,
            rank=ast.predicate.max_rank,
            target=(
                resolve_object_id(mod, ast.target_object)
                if ast.target_object is not None
                else None
            ),
            ast=ast,
        )
        for ast, width in zip(asts, widths)
    ])


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
