"""Materializing the probability descriptors ``D_i`` of IPAC-NN tree nodes.

The paper concentrates on ranking and leaves the computation of the
descriptors open (Section 1: "we do not address the issue of calculating the
descriptors D_i ... we concentrate on ranking").  For downstream users the
descriptors are still useful — they quantify *how likely* the labelled
trajectory is to be the NN during the node's interval — so this module fills
the gap: it samples the instantaneous NN probability (Eq. 5 on the convolved
pdfs, Section 3.1) at a handful of times inside each node's interval and
stores min/max/mean plus the samples themselves.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Optional, Sequence

import numpy as np

from ..trajectories.mod import MovingObjectsDatabase
from .answer import IPACNode, IPACTree, ProbabilityDescriptor
from .ranking import nn_probability_matrix, probability_columns


def compute_descriptor(
    node: IPACNode,
    mod: MovingObjectsDatabase,
    query_id: object,
    samples: int = 5,
    grid_size: int = 128,
) -> ProbabilityDescriptor:
    """Probability descriptor of one node.

    Args:
        node: the IPAC-NN node to describe.
        mod: the moving objects database the query ran against.
        query_id: id of the query trajectory.
        samples: number of probability samples inside the node's interval.
        grid_size: quadrature resolution of each probability evaluation.

    Returns:
        A :class:`ProbabilityDescriptor` with min/max/mean and the samples.
    """
    return _describe([node], mod, query_id, samples, grid_size)[0]


def annotate_tree(
    tree: IPACTree,
    mod: MovingObjectsDatabase,
    samples: int = 3,
    grid_size: int = 128,
    max_nodes: Optional[int] = None,
) -> int:
    """Attach descriptors to (up to ``max_nodes``) nodes of an IPAC-NN tree.

    Descriptor computation is orders of magnitude more expensive than tree
    construction (each sample is a full Eq. 5 evaluation), so annotation is
    opt-in and bounded.  Every node's samples share one evaluation.

    Returns:
        The number of nodes annotated.
    """
    nodes = list(islice(tree.walk(), None if max_nodes is None else max(0, max_nodes)))
    for node, descriptor in zip(
        nodes, _describe(nodes, mod, tree.query_id, samples, grid_size)
    ):
        node.descriptor = descriptor
    return len(nodes)


def _describe(
    nodes: Sequence[IPACNode],
    mod: MovingObjectsDatabase,
    query_id: object,
    samples: int,
    grid_size: int,
) -> List[ProbabilityDescriptor]:
    """Descriptors of ``nodes`` from one evaluation over all their sample times."""
    if not nodes:
        return []
    if samples < 1:
        raise ValueError("need at least one probability sample")
    # Sample strictly inside each interval: probabilities exactly at the
    # critical times are ties between adjacent nodes.
    offsets = (np.arange(samples) + 0.5) / samples
    node_times = [
        np.array([node.t_start])
        if node.duration <= 0
        else node.t_start + offsets * node.duration
        for node in nodes
    ]
    ids, matrix = nn_probability_matrix(
        mod, query_id, np.concatenate(node_times), grid_size=grid_size
    )
    series = probability_columns(ids, matrix, [node.object_id for node in nodes])
    descriptors = []
    first = 0
    for node, times in zip(nodes, node_times):
        values = np.array(series[node.object_id][first:first + len(times)])
        first += len(times)
        descriptors.append(
            ProbabilityDescriptor(
                minimum=float(values.min()),
                maximum=float(values.max()),
                mean=float(values.mean()),
                sample_times=tuple(float(t) for t in times),
                sample_probabilities=tuple(float(p) for p in values),
            )
        )
    return descriptors
