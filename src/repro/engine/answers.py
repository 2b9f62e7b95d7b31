"""The shared UQ3x answer shape served by every execution layer.

An *answer* is the mapping ``neighbor id -> non-zero-probability intervals``
for every member of a UQ31/32/33 answer set — the structure the streaming
monitor diffs into deltas, the sharded engine returns per query, and the
oracle tests compare.  Centralizing the variant dispatch here keeps the
batch and streaming paths byte-compatible with each other.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

from ..core.pruning import band_report, band_tally
from ..core.queries import VARIANTS, QueryContext  # VARIANTS is re-exported
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import trace_span

Intervals = Tuple[Tuple[float, float], ...]

#: A query's full answer: neighbor id -> relevance intervals.
Answer = Dict[object, Intervals]


def answer_of(
    context: QueryContext, variant: str, fraction: float = 0.0
) -> Answer:
    """A query's answer shape from a prepared context.

    The UQ3x member set of the requested variant, each member mapped to its
    exact non-zero-probability intervals (the UQ11/UQ13 information).  The
    context memoizes it (:meth:`QueryContext.answer`): the dict is a fresh
    copy per call, its interval tuples are shared.  The live monitor, the
    query plan, and the from-scratch oracles all take answers this way.
    """
    return dict(context.answer(variant, fraction))


@contextmanager
def band_span(registry: MetricsRegistry, name: str, **attributes) -> Iterator:
    """A span around preparing contexts and taking answers from them that
    says what the band pass did.

    The engine runs the pass when it builds a context (one pass for a
    batch's cold contexts, under ``engine.band``), a context built
    elsewhere when its first answer is taken; this span carries
    :func:`~repro.core.pruning.band_report`
    as ``band_rows=``, ``band_bounded=``, ``band_refined=`` (rows) and
    ``band_scalar=`` (candidates on the scalar row builder), the last three
    also in ``repro_core_band_rows_total{kind=}`` of ``registry``.
    """
    before = band_tally()
    with trace_span(name, **attributes) as span:
        yield span
        report = band_report(before)
        for kind, amount in report.items():
            span.set(f"band_{kind}", amount)
    for kind in ("bounded", "refined", "scalar"):
        if report[kind]:
            registry.counter(
                "repro_core_band_rows_total",
                "Band rows decided by bounds or refined on the sample grid; "
                "candidates whose rows the scalar builder cut",
                kind=kind,
            ).inc(report[kind])
