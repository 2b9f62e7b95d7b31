"""A small SQL-style front-end for the Section-4 query variants.

Text is tokenized (:mod:`~repro.query_language.tokens`), parsed into a
:class:`ContinuousNNQueryAST` (:mod:`~repro.query_language.parser`), and
compiled by the :mod:`~repro.query_language.planner` into fused plans
over the batched engine — see ``docs/query-planner.md``.  The planner's
:class:`PlannedStatement` / :func:`plan_statements` / :class:`QueryPlan`
are also how the service, the monitor and the sharded engine run their
queries.  :func:`execute_query` / :func:`execute_many` are the one-call
entry points; :func:`explain_plan` renders what the compiler decided.
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
    PlanExecution,
    PlanGroup,
    PlannedStatement,
    QueryPlan,
    compile_queries,
    plan_statements,
    resolve_object_id,
)
from .tokens import QueryLanguageError, Token, tokenize

__all__ = [
    "ContinuousNNQueryAST",
    "NNPredicate",
    "PlanExecution",
    "PlanGroup",
    "PlannedStatement",
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
    "plan_statements",
    "resolve_object_id",
    "tokenize",
]
