"""The IPAC-NN tree: the structure of the answer to a continuous probabilistic NN query.

Section 1 of the paper defines the answer to ``UQ_nn(q, [tb, te])`` as an
interval tree (IPAC-NN — Interval-based Probabilistic Answer to a Continuous
NN query):

* the root holds the query parameters;
* the children of a node are, within the node's time interval and with the
  node's ancestors excluded, the trajectories with the highest probability
  of being the nearest neighbor — i.e. the pieces of the next lower
  envelope;
* each node carries the trajectory id, its time interval, and an optional
  descriptor of the probability values over that interval.

Theorem 2 identifies the tree with the stack of envelope levels inside the
pruning band: it is that level stack with parent links.  This module
contains the value objects (nodes, tree, descriptors); the construction
(Algorithm 3), which reads the tree off a context's level envelopes, lives
in :mod:`repro.core.ipacnn`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True, slots=True)
class ProbabilityDescriptor:
    """Descriptor ``D_i`` of the probability values over a node's interval.

    The paper leaves the exact contents open (Section 1 suggests min/max
    values and a discrete sequence of sampled probabilities); this descriptor
    stores exactly that.
    """

    minimum: float
    maximum: float
    mean: float
    sample_times: Tuple[float, ...]
    sample_probabilities: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sample_times) != len(self.sample_probabilities):
            raise ValueError("sample times and probabilities must be parallel")
        if not -1e-9 <= self.minimum <= self.maximum + 1e-9:
            raise ValueError("descriptor min/max are inconsistent")

    @property
    def samples(self) -> List[Tuple[float, float]]:
        """The sampled ``(time, probability)`` pairs."""
        return list(zip(self.sample_times, self.sample_probabilities))


@dataclass
class IPACNode:
    """One node of the IPAC-NN tree.

    Attributes:
        object_id: trajectory labelled on the node.
        t_start: start of the node's time interval.
        t_end: end of the node's time interval.
        level: 1-based level in the tree (level 1 = highest NN probability).
        descriptor: optional probability descriptor ``D_i``.
        children: child nodes covering disjoint sub-intervals of this node.
    """

    object_id: object
    t_start: float
    t_end: float
    level: int
    descriptor: Optional[ProbabilityDescriptor] = None
    children: List["IPACNode"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Length of the node's time interval."""
        return self.t_end - self.t_start

    @property
    def interval(self) -> Tuple[float, float]:
        """The node's time interval as a tuple."""
        return (self.t_start, self.t_end)

    def walk(self) -> Iterator["IPACNode"]:
        """Pre-order traversal of the subtree rooted at this node."""
        yield self
        for child in self.children:
            yield from child.walk()

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted at this node."""
        return sum(1 for _ in self.walk())

    def depth(self) -> int:
        """Height (in levels) of the subtree rooted at this node."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)


class IPACTree:
    """The full IPAC-NN tree for one continuous probabilistic NN query."""

    __slots__ = ("query_id", "t_start", "t_end", "roots")

    def __init__(
        self,
        query_id: object,
        t_start: float,
        t_end: float,
        roots: Sequence[IPACNode],
    ):
        if t_end < t_start:
            raise ValueError(f"query window [{t_start}, {t_end}] is empty")
        self.query_id = query_id
        self.t_start = t_start
        self.t_end = t_end
        self.roots: Tuple[IPACNode, ...] = tuple(roots)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"IPACTree(query={self.query_id!r}, window=[{self.t_start:.2f}, "
            f"{self.t_end:.2f}], nodes={self.size()}, depth={self.depth()})"
        )

    # ------------------------------------------------------------------
    # Traversal and aggregate structure.
    # ------------------------------------------------------------------

    def walk(self) -> Iterator[IPACNode]:
        """Pre-order traversal of every node (excluding the virtual root)."""
        for root in self.roots:
            yield from root.walk()

    def size(self) -> int:
        """Total number of nodes."""
        return sum(1 for _ in self.walk())

    def depth(self) -> int:
        """Number of levels of the tree (0 for an empty answer)."""
        if not self.roots:
            return 0
        return max(root.depth() for root in self.roots)

    def nodes_at_level(self, level: int) -> List[IPACNode]:
        """All nodes at a given 1-based level, in time order."""
        if level < 1:
            raise ValueError("levels are 1-based")
        nodes = [node for node in self.walk() if node.level == level]
        nodes.sort(key=lambda node: node.t_start)
        return nodes

    def nodes_for(self, object_id: object) -> List[IPACNode]:
        """All nodes labelled with a given trajectory, in time order."""
        nodes = [node for node in self.walk() if node.object_id == object_id]
        nodes.sort(key=lambda node: node.t_start)
        return nodes

    def labelled_object_ids(self) -> List[object]:
        """Distinct trajectory ids appearing anywhere in the tree."""
        seen = set()
        ordered = []
        for node in self.walk():
            if node.object_id not in seen:
                seen.add(node.object_id)
                ordered.append(node.object_id)
        return ordered

    # ------------------------------------------------------------------
    # Point lookups.
    # ------------------------------------------------------------------

    def ranking_at(self, t: float) -> List[object]:
        """The ranked candidate list at time ``t`` (level 1 first).

        Follows the root-to-leaf path whose intervals contain ``t``.
        """
        if not self.t_start - 1e-9 <= t <= self.t_end + 1e-9:
            raise ValueError(
                f"time {t} outside query window [{self.t_start}, {self.t_end}]"
            )
        ranking: List[object] = []
        nodes: Sequence[IPACNode] = self.roots
        while True:
            covering = _node_covering(nodes, t)
            if covering is None:
                break
            ranking.append(covering.object_id)
            nodes = covering.children
        return ranking

    def rank_of(self, object_id: object, t: float) -> Optional[int]:
        """1-based rank of a trajectory at time ``t``, or ``None`` if absent."""
        ranking = self.ranking_at(t)
        for index, candidate in enumerate(ranking, start=1):
            if candidate == object_id:
                return index
        return None

    # ------------------------------------------------------------------
    # Dual / export views.
    # ------------------------------------------------------------------

    def to_intervals(self) -> List[Tuple[object, int, float, float]]:
        """Flat view: ``(object_id, level, t_start, t_end)`` for every node."""
        return [
            (node.object_id, node.level, node.t_start, node.t_end)
            for node in self.walk()
        ]

    def to_dag_edges(self) -> List[Tuple[Tuple[object, float, float], Tuple[object, float, float]]]:
        """Parent→child edges of the answer DAG (the tree minus the virtual root).

        Theorem 2 of the paper identifies this DAG (equivalently the stack of
        envelope levels inside the pruning band) as the geometric dual of the
        IPAC-NN tree.
        """
        edges = []
        for node in self.walk():
            for child in node.children:
                edges.append(
                    (
                        (node.object_id, node.t_start, node.t_end),
                        (child.object_id, child.t_start, child.t_end),
                    )
                )
        return edges

    def level_coverage(self) -> Dict[int, float]:
        """Total covered duration per level (diagnostics for tests/benchmarks)."""
        coverage: Dict[int, float] = {}
        for node in self.walk():
            coverage[node.level] = coverage.get(node.level, 0.0) + node.duration
        return coverage


def _node_covering(nodes: Sequence[IPACNode], t: float) -> Optional[IPACNode]:
    """The node among ``nodes`` whose interval contains ``t`` (ties → earliest)."""
    best: Optional[IPACNode] = None
    for node in nodes:
        if node.t_start - 1e-9 <= t <= node.t_end + 1e-9:
            if best is None or node.t_start < best.t_start:
                best = node
    return best
