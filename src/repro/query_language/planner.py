"""Query plans: the one grouping rule and the one evaluator.

Every query the library serves is a :class:`PlannedStatement`, and every
caller runs its statements as a :class:`QueryPlan`: the query language's
compiled text, the service's drained request batches, the monitor's
standing queries, and the sharded engine's batches.

1. **Resolve** — (parsed text only, :func:`compile_queries`) each
   statement's query and target literals are matched against the MOD's ids;
2. **Fuse** — :func:`plan_statements` folds statements sharing their
   :attr:`~PlannedStatement.group_key` ``(t_start, t_end, band width)``
   into one :class:`PlanGroup`, served by
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
from ..engine.answers import VARIANTS, Answer, answer_of
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


@dataclass(frozen=True, slots=True)
class PlannedStatement:
    """One query: the input of every plan and the service's request.

    Frozen and hashable, so the statement itself keys the service's result
    cache (together with the store revision); ``ast`` takes no part in
    equality or hashing.  The hash is made once, at construction.

    Attributes:
        query_id: the query trajectory id.
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

    query_id: object
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
    _hash: int = field(init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        return self._hash

    def __post_init__(self) -> None:
        if self.t_end < self.t_start:
            raise ValueError(f"empty query window [{self.t_start}, {self.t_end}]")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r} (expected {VARIANTS})")
        if self.variant == "fraction":
            if not 0.0 <= self.fraction <= 1.0:
                raise ValueError("fraction must lie in [0, 1]")
        elif self.fraction != 0.0:
            raise ValueError("fraction is only meaningful for the 'fraction' variant")
        if self.band_width is not None and self.band_width <= 0.0:
            raise ValueError("band_width must be positive")
        if self.rank is not None and self.rank < 1:
            raise ValueError("rank must be at least 1")
        object.__setattr__(self, "_hash", hash((
            self.query_id, self.t_start, self.t_end, self.band_width, self.variant,
            self.fraction, self.rank, self.target)))

    @property
    def group_key(self) -> Tuple[float, float, Optional[float]]:
        """The one grouping rule: ``(t_start, t_end, band_width)``."""
        return (self.t_start, self.t_end, self.band_width)

    @property
    def category(self) -> int:
        """The paper's query category (1-4) of this statement."""
        return query_category(
            ranked=self.rank is not None, targeted=self.target is not None
        )

    @property
    def fingerprint(self) -> "PlannedStatement":
        """The statement itself; kept only for the frozen end-to-end bench."""
        return self

    @property
    def query_object(self) -> object:
        """:attr:`query_id`; kept only for the frozen end-to-end bench."""
        return self.query_id


@dataclass(slots=True)
class PlanGroup:
    """Statements fused into one batched preparation."""

    t_start: float
    t_end: float
    band_width: Optional[float]
    statements: Tuple[PlannedStatement, ...]
    #: Each statement's index in the plan's submission order.
    positions: Tuple[int, ...]
    #: The distinct query ids, in order: the group's one ``prepare_batch``.
    query_ids: Tuple[object, ...]

    @property
    def width(self) -> int:
        """Statements in the group."""
        return len(self.statements)

    def plan(self) -> "QueryPlan":
        """The group as a plan of its own, its statements numbered from 0."""
        return QueryPlan(self.statements, (PlanGroup(
            self.t_start, self.t_end, self.band_width, self.statements,
            tuple(range(self.width)), self.query_ids,
        ),))


@dataclass(slots=True)
class PlanExecution:
    """Each statement's prepared context, in submission order.

    Answers are read off the contexts on demand: a caller that finds a
    context unchanged (the monitor) skips extracting it.
    """

    statements: Tuple[PlannedStatement, ...]
    contexts: Tuple[QueryContext, ...]
    engine: QueryEngine = field(repr=False)
    #: The revision the engine synced to for the last group (``None`` for
    #: no statement): a one-group plan, as the service runs, is wholly at it.
    revision: Optional[int] = None

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
                _line(2, "BandIntervals", band=band, contexts=len(group.query_ids)),
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
        revision: Optional[int] = None
        for group in self.groups:
            batch = engine.prepare_batch(
                group.query_ids, group.t_start, group.t_end, band_width=group.band_width
            )
            revision, prepared = batch.revision, batch.contexts
            for position, statement in zip(group.positions, group.statements):
                contexts[position] = prepared[statement.query_id]
        return PlanExecution(self.statements, tuple(contexts), engine, revision)


def _shown(statement: PlannedStatement) -> Dict[str, object]:
    """The decisions :meth:`QueryPlan.explain` prints for one statement."""
    shown: Dict[str, object] = {"query": statement.query_id}
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

    The one grouping rule: statements with the same
    :attr:`~PlannedStatement.group_key` ``(t_start, t_end, band width)``
    share a preparation, whatever their variants, ranks and targets, since
    a batched preparation shares one window and one band width.  Groups
    appear in the order of their first statement.
    """
    statements = tuple(statements)
    fused: Dict[Tuple[float, float, Optional[float]], List[int]] = {}
    for position, statement in enumerate(statements):
        fused.setdefault(statement.group_key, []).append(position)
    return QueryPlan(
        statements=statements,
        groups=tuple(
            PlanGroup(
                t_start=t_start,
                t_end=t_end,
                band_width=width,
                statements=tuple(statements[position] for position in positions),
                positions=tuple(positions),
                query_ids=tuple(dict.fromkeys(statements[p].query_id for p in positions)),
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
            query_id=resolve_object_id(mod, ast.predicate.query_object),
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
