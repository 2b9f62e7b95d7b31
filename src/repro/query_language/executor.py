"""Executing parsed MOD queries through the batch compiler.

The executor maps each AST shape onto the corresponding Section-4 category
of the paper's UQ operators:

* Category 3/4 (no target restriction) return the list of qualifying
  object ids;
* Category 1/2 (``AND T = ...``) return the same list restricted to the
  target — i.e. an empty list means "no", a singleton means "yes" — plus a
  boolean convenience flag on the result object.

Execution routes through the :mod:`~repro.query_language.planner`: text
is parsed, lowered into a fused :class:`~repro.query_language.planner.QueryPlan`,
and run against the *reusable* :class:`~repro.engine.QueryEngine` a
:class:`QueryExecutor` holds for its MOD, so a dashboard re-issuing the
same text through one executor hits the engine's
:class:`~repro.engine.cache.ContextCache` instead of rebuilding envelopes.

:func:`execute_query_naive` pins the original per-query interpreter — one
:meth:`~repro.core.queries.QueryContext.from_mod` per statement — as the
equivalence oracle: planned answers must stay byte-identical to it (both
paths canonicalize answer order by ``str``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..core.queries import QueryContext
from ..engine.cache import CacheInfo
from ..engine.engine import QueryEngine
from ..obs.metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from ..obs.tracing import Span, capture, render_tree, trace_span
from ..trajectories.mod import MovingObjectsDatabase
from .ast import ContinuousNNQueryAST, Quantifier
from .parser import parse_query
from .planner import BandWidths, QueryPlan, StatementAnswer, compile_queries, resolve_object_id

Statement = Union[str, ContinuousNNQueryAST]


@dataclass(frozen=True, slots=True)
class QueryResult:
    """Outcome of executing one query."""

    ast: ContinuousNNQueryAST
    object_ids: List[object]

    @property
    def holds(self) -> bool:
        """For targeted (Category 1/2) queries: did the target qualify?"""
        return bool(self.object_ids)


class QueryExecutor:
    """A reusable query-language session over one MOD.

    Owns the one :class:`~repro.engine.QueryEngine` every compiled plan
    executes against, so repeated executions share the store's index and
    the engine's context cache.

    Args:
        mod: the moving objects database to serve.
        registry: the :class:`~repro.obs.MetricsRegistry` planner and
            engine metrics land in (``repro_planner_*`` /
            ``repro_engine_*``); a private registry when ``None``.
    """

    def __init__(
        self,
        mod: MovingObjectsDatabase,
        *,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.mod = mod
        self.registry = registry if registry is not None else MetricsRegistry()
        self._engine = QueryEngine(mod, registry=self.registry)
        self._m_compilations = self.registry.counter(
            "repro_planner_compilations_total", "Plans compiled"
        )
        self._m_statements = self.registry.counter(
            "repro_planner_statements_total", "Statements planned"
        )
        self._m_group_width = self.registry.histogram(
            "repro_planner_group_width",
            buckets=DEFAULT_SIZE_BUCKETS,
            help="Statements fused per prepared group",
        )
        self._m_execute = self.registry.histogram(
            "repro_planner_execute_seconds", help="Plan execution wall time"
        )

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def engine(self) -> QueryEngine:
        """The reusable engine plans execute against."""
        return self._engine

    def cache_info(self) -> CacheInfo:
        """Hit/miss counters of the engine's context cache."""
        return self._engine.cache_info()

    # ------------------------------------------------------------------
    # Compilation and execution.
    # ------------------------------------------------------------------

    def compile(
        self,
        statements: Union[Statement, Sequence[Statement]],
        band_width: BandWidths = None,
    ) -> QueryPlan:
        """Parse (where needed) and lower statements into a fused plan."""
        asts = [_parse(statement) for statement in _as_batch(statements)]
        plan = compile_queries(asts, self.mod, band_width=band_width)
        self._m_compilations.inc()
        self._m_statements.inc(plan.statement_count)
        for group in plan.groups:
            self._m_group_width.observe(group.width)
        return plan

    def execute(
        self,
        statement: Statement,
        band_width: Optional[float] = None,
    ) -> QueryResult:
        """Compile and run one statement (engine caches persist across calls)."""
        return self.execute_many([statement], band_width=band_width)[0]

    def execute_many(
        self,
        statements: Sequence[Statement],
        band_width: BandWidths = None,
    ) -> List[QueryResult]:
        """Compile and run a batch; results come back in submission order."""
        plan = self.compile(statements, band_width=band_width)
        started = time.perf_counter()
        answers, _ = self._run(plan)
        self._m_execute.observe(time.perf_counter() - started)
        return [
            QueryResult(statement.ast, sorted(answer, key=str))
            for statement, answer in zip(plan.statements, answers)
        ]

    def _run(self, plan: QueryPlan) -> Tuple[List[StatementAnswer], Span]:
        """Execute a plan and read every answer, under ``planner.execute``.

        Returns the answers and that span (the no-op span when tracing is
        off).
        """
        with trace_span(
            "planner.execute",
            statements=plan.statement_count,
            groups=len(plan.groups),
        ) as span:
            return plan.execute(self._engine).answers, span

    def explain(
        self,
        statements: Union[Statement, Sequence[Statement]],
        band_width: BandWidths = None,
        *,
        execute: bool = False,
    ) -> str:
        """Render the compiled plan, optionally with the span tree.

        With ``execute=True`` the plan is run under a tracing capture and
        the span tree of that run (its own ``planner.execute`` root, not
        whatever other threads record meanwhile) is appended below the
        plan, so one string shows both the *decisions* (plan stages) and
        the *observed costs* (span timings).
        """
        plan = self.compile(statements, band_width=band_width)
        rendered = plan.explain()
        if not execute:
            return rendered
        with capture():
            _, root = self._run(plan)
        return f"{rendered}\n\n{render_tree(root)}"


def _parse(statement: Statement) -> ContinuousNNQueryAST:
    return (
        statement
        if isinstance(statement, ContinuousNNQueryAST)
        else parse_query(statement)
    )


def _as_batch(
    statements: Union[Statement, Sequence[Statement]]
) -> Sequence[Statement]:
    if isinstance(statements, (str, ContinuousNNQueryAST)):
        return [statements]
    return statements


def execute_query_naive(
    text_or_ast: Statement,
    mod: MovingObjectsDatabase,
    band_width: Optional[float] = None,
) -> QueryResult:
    """The pinned per-query interpreter, kept as the planner's oracle.

    Evaluates one AST alone on its own
    :meth:`~repro.core.queries.QueryContext.from_mod` context — no index,
    no cache, no fusion.  Answer ordering is canonicalized by ``str`` so
    planned results can be compared byte-for-byte.
    """
    ast = _parse(text_or_ast)
    context = QueryContext.from_mod(
        mod,
        resolve_object_id(mod, ast.predicate.query_object),
        ast.window.t_start,
        ast.window.t_end,
        band_width=band_width,
    )

    rank = ast.predicate.max_rank
    if rank is None:
        if ast.quantifier is Quantifier.EXISTS:
            candidates = context.uq31_all_sometime()
        elif ast.quantifier is Quantifier.FORALL:
            candidates = context.uq32_all_always()
        else:
            candidates = context.uq33_all_at_least(ast.min_fraction)
    else:
        if ast.quantifier is Quantifier.EXISTS:
            candidates = context.uq41_all_rank_sometime(rank)
        elif ast.quantifier is Quantifier.FORALL:
            candidates = context.uq42_all_rank_always(rank)
        else:
            candidates = context.uq43_all_rank_at_least(rank, ast.min_fraction)

    candidates = sorted(candidates, key=str)
    if ast.target_object is not None:
        target = resolve_object_id(mod, ast.target_object)
        candidates = [oid for oid in candidates if oid == target]
    return QueryResult(ast, candidates)
