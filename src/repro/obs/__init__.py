"""Unified observability for the serving stack: metrics, tracing, logging.

Three small pieces with one convention:

* :mod:`repro.obs.metrics` — a lock-cheap :class:`MetricsRegistry` of
  counters, gauges, and fixed-bucket histograms (p50/p95/p99), with
  plain-dict snapshots, JSON, and Prometheus text exposition;
* :mod:`repro.obs.tracing` — :func:`trace_span` nested spans with
  monotonic timings, a ring-buffer :class:`SpanRecorder`, and a no-op
  fast path when disabled;
* :mod:`repro.obs.logging` — the ``repro.*`` logger namespace and a
  one-call :func:`configure_logging`.

Metric names follow Prometheus conventions: ``repro_<layer>_<what>`` with
``_total`` counters and ``_seconds`` histograms (catalogue in
``docs/observability.md``).
"""

from .logging import configure_logging, get_logger
from .metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    default_registry,
)
from .tracing import (
    Span,
    SpanRecorder,
    capture,
    current_span,
    disable_tracing,
    enable_tracing,
    enabled,
    render_tree,
    trace_span,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "Span",
    "SpanRecorder",
    "capture",
    "configure_logging",
    "current_span",
    "default_registry",
    "disable_tracing",
    "enable_tracing",
    "enabled",
    "get_logger",
    "render_tree",
    "trace_span",
]
