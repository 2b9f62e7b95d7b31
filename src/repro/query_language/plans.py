"""Typed logical plan nodes for compiled UQ query batches.

The planner (:mod:`repro.query_language.planner`) lowers parsed
:class:`~repro.query_language.ast.ContinuousNNQueryAST`\\ s into a small
tree of logical operators mirroring the batched engine's physical stages:

* :class:`MergeNode` — the root; interleaves the per-group answers back
  into statement submission order;
* :class:`PrepareNode` — one *fused group* of statements sharing a time
  window and band width, served by a single
  :meth:`~repro.engine.QueryEngine.prepare_batch` call (whose candidates
  come from the provably safe corridor probe of the store's R-tree);
* :class:`BandIntervalsNode` — envelope construction + 4r-band interval
  extraction over the filtered candidates;
* :class:`AnswerNode` — one statement's variant dispatch (UQ3x set or
  rank-k extraction) plus the Category-1/2 target restriction.

Nodes are immutable and carry only *decisions*, never engine handles, so
a compiled plan can be rendered (:func:`render_plan`), compared, and
re-executed against any engine serving the same store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .ast import ContinuousNNQueryAST


@dataclass(frozen=True)
class PlanNode:
    """Base of every logical plan node.

    Subclasses override :attr:`label`, :meth:`props`, and
    :attr:`children`; the base renders as an opaque leaf.
    """

    @property
    def label(self) -> str:
        """Operator name shown by :func:`render_plan`."""
        return type(self).__name__.removesuffix("Node")

    @property
    def children(self) -> Tuple["PlanNode", ...]:
        """Child operators, outermost stage first."""
        return ()

    def props(self) -> Dict[str, object]:
        """Displayed decision properties, insertion-ordered."""
        return {}


@dataclass(frozen=True)
class AnswerNode(PlanNode):
    """One statement's answer extraction from its prepared context.

    Attributes:
        position: the statement's index in the submitted batch (the
            merge order).
        ast: the parsed statement.
        query_object: the resolved query trajectory id.
        variant: UQ3x variant (``sometime``/``always``/``fraction``) for
            probability statements, ``None`` for rank statements.
        fraction: minimum window fraction (FRACTION quantifier only).
        rank: ``RANK_NN`` bound ``k``, ``None`` for probability
            statements.
        target: resolved Category-1/2 target id, ``None`` for the open
            Category-3/4 forms.
    """

    position: int
    ast: ContinuousNNQueryAST = field(repr=False)
    query_object: object
    variant: Optional[str]
    fraction: float
    rank: Optional[int]
    target: Optional[object]

    def props(self) -> Dict[str, object]:
        shown: Dict[str, object] = {"query": self.query_object}
        if self.rank is None:
            shown["variant"] = self.variant
            if self.variant == "fraction":
                shown["fraction"] = self.fraction
        else:
            shown["rank"] = self.rank
            shown["variant"] = (
                "sometime" if self.ast.quantifier.name == "EXISTS"
                else "always" if self.ast.quantifier.name == "FORALL"
                else "fraction"
            )
            if self.ast.quantifier.name == "FRACTION":
                shown["fraction"] = self.fraction
        if self.target is not None:
            shown["target"] = self.target
        shown["category"] = self.ast.category
        return shown


@dataclass(frozen=True)
class BandIntervalsNode(PlanNode):
    """Envelope construction and 4r-band interval extraction.

    One shared pass per fused group: every child answer reads intervals
    from the context prepared for its query id.
    """

    band_width: Optional[float]
    answers: Tuple[AnswerNode, ...]

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return self.answers

    def props(self) -> Dict[str, object]:
        return {
            "band": "default(4r)" if self.band_width is None else self.band_width,
            "contexts": len({answer.query_object for answer in self.answers}),
        }


@dataclass(frozen=True)
class PrepareNode(PlanNode):
    """One fused group: a single batched preparation over a shared window."""

    t_start: float
    t_end: float
    child: BandIntervalsNode

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    @property
    def width(self) -> int:
        """Statements fused into this group."""
        return len(self.child.answers)

    def props(self) -> Dict[str, object]:
        return {
            "window": f"[{self.t_start:g}, {self.t_end:g}]",
            "statements": self.width,
        }


@dataclass(frozen=True)
class MergeNode(PlanNode):
    """The plan root: re-interleaves group answers into submission order."""

    groups: Tuple[PrepareNode, ...]

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return self.groups

    @property
    def statement_count(self) -> int:
        """Total statements across every fused group."""
        return sum(group.width for group in self.groups)

    def props(self) -> Dict[str, object]:
        return {"statements": self.statement_count, "groups": len(self.groups)}


def render_plan(node: PlanNode, *, _depth: int = 0) -> str:
    """An indented text rendering of a plan tree.

    Same visual grammar as :func:`repro.obs.tracing.render_tree`, so
    ``explain_plan`` output reads uniformly when the span tree is
    appended below it.
    """
    attrs = ""
    if node.props():
        inner = " ".join(f"{key}={value}" for key, value in node.props().items())
        attrs = f"  [{inner}]"
    lines = [f"{'  ' * _depth}{node.label:<20s}{attrs}"]
    for child in node.children:
        lines.append(render_plan(child, _depth=_depth + 1))
    return "\n".join(lines)
