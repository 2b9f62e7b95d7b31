"""Abstract syntax tree of the MOD query language.

A parsed query captures exactly the information the Section-4 query
categories need:

* the **temporal quantifier** — ∃ (EXISTS), ∀ (FORALL), or a minimum time
  fraction (FRACTION … >= x);
* the **time window** ``[t_start, t_end]``;
* the **predicate** — non-zero NN probability (``PROBABILITY_NN(T, q, TIME) > 0``)
  or bounded rank (``RANK_NN(T, q, TIME) <= k``);
* an optional **target restriction** (``AND T = 'some-object'``) that turns a
  Category 3/4 query into a Category 1/2 one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class Quantifier(enum.Enum):
    """Temporal quantifier of a continuous query."""

    EXISTS = "exists"
    FORALL = "forall"
    FRACTION = "fraction"


@dataclass(frozen=True, slots=True)
class TimeWindow:
    """The ``[t_start, t_end]`` window a query ranges over."""

    t_start: float
    t_end: float

    def __post_init__(self) -> None:
        if self.t_end < self.t_start:
            raise ValueError(
                f"query window end {self.t_end} precedes start {self.t_start}"
            )


@dataclass(frozen=True, slots=True)
class NNPredicate:
    """The probabilistic NN predicate of the WHERE clause.

    ``max_rank`` is ``None`` for the plain non-zero-probability predicate and
    the integer ``k`` for the rank-bounded variant.
    """

    query_object: object
    max_rank: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_rank is not None and self.max_rank < 1:
            raise ValueError("RANK_NN bound must be at least 1")


@dataclass(frozen=True, slots=True)
class ContinuousNNQueryAST:
    """A fully parsed continuous probabilistic NN query."""

    quantifier: Quantifier
    window: TimeWindow
    predicate: NNPredicate
    min_fraction: Optional[float] = None
    target_object: Optional[object] = None

    def __post_init__(self) -> None:
        if self.quantifier is Quantifier.FRACTION:
            if self.min_fraction is None or not 0.0 <= self.min_fraction <= 1.0:
                raise ValueError("FRACTION queries need a bound in [0, 1]")
        elif self.min_fraction is not None:
            raise ValueError("only FRACTION queries take a fraction bound")

    @property
    def category(self) -> int:
        """The paper's query category (1-4) this AST corresponds to."""
        return query_category(
            ranked=self.predicate.max_rank is not None,
            targeted=self.target_object is not None,
        )


def query_category(*, ranked: bool, targeted: bool) -> int:
    """The paper's query category: 1/2 targeted, 3/4 open; 2/4 ranked."""
    if targeted:
        return 2 if ranked else 1
    return 4 if ranked else 3
