"""A small SQL-style front-end for the Section-4 query variants.

Text is tokenized (:mod:`~repro.query_language.tokens`), parsed into a
:class:`ContinuousNNQueryAST` (:mod:`~repro.query_language.parser`), and
compiled by the :mod:`~repro.query_language.planner` into fused plans
over the batched engine — see
``docs/query-planner.md``.  :func:`execute_query` / :func:`execute_many`
are the one-call entry points; :func:`explain_plan` renders what the
compiler decided.
"""

from .ast import ContinuousNNQueryAST, NNPredicate, Quantifier, TimeWindow
from .executor import (
    QueryExecutor,
    QueryResult,
    execute_many,
    execute_query,
    execute_query_naive,
    executor_for,
    explain_plan,
)
from .parser import parse_query
from .planner import (
    PlanGroup,
    PlannedStatement,
    QueryPlan,
    compile_queries,
    resolve_object_id,
)
from .plans import (
    AnswerNode,
    BandIntervalsNode,
    MergeNode,
    PlanNode,
    PrepareNode,
    render_plan,
)
from .tokens import QueryLanguageError, Token, tokenize

__all__ = [
    "AnswerNode",
    "BandIntervalsNode",
    "ContinuousNNQueryAST",
    "MergeNode",
    "NNPredicate",
    "PlanGroup",
    "PlanNode",
    "PlannedStatement",
    "PrepareNode",
    "Quantifier",
    "QueryExecutor",
    "QueryLanguageError",
    "QueryPlan",
    "QueryResult",
    "TimeWindow",
    "Token",
    "compile_queries",
    "execute_many",
    "execute_query",
    "execute_query_naive",
    "executor_for",
    "explain_plan",
    "parse_query",
    "render_plan",
    "resolve_object_id",
    "tokenize",
]
