"""A small SQL-style front-end for the Section-4 query variants.

Text is tokenized (:mod:`~repro.query_language.tokens`), parsed into a
:class:`ContinuousNNQueryAST` (:mod:`~repro.query_language.parser`), and
compiled by the :mod:`~repro.query_language.planner` into fused plans
over the batched engine — see ``docs/query-planner.md``.  The planner's
:class:`PlannedStatement` / :func:`plan_statements` / :class:`QueryPlan`
are also how the service, the monitor and the sharded engine run their
queries.  A :class:`QueryExecutor` is a session over one MOD: its
``execute`` / ``execute_many`` run statements and its ``explain`` renders
what the compiler decided.
"""

from .ast import ContinuousNNQueryAST, NNPredicate, Quantifier, TimeWindow
from .executor import (
    QueryExecutor,
    QueryResult,
    execute_query_naive,
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
    "execute_query_naive",
    "parse_query",
    "plan_statements",
    "resolve_object_id",
    "tokenize",
]
