"""Structured tracing: nested spans with monotonic timings.

A span answers "where did this answer's 14 ms go": each layer opens a
span around its stage (:func:`trace_span`), child spans nest under the
currently open one via a thread-local stack, and finished root spans land
in a ring-buffer :class:`SpanRecorder`.  Rendering a recorded root with
:func:`render_tree` gives the per-query breakdown — index probe, corridor
filter, kernel, band — as an indented tree.

Tracing is **off by default** and the disabled path is a compiled no-op:
:func:`trace_span` returns one preallocated singleton whose ``__enter__``
and ``__exit__`` do nothing, so instrumented hot loops stay within the
<2% overhead budget the obs bench gates (``benchmarks/bench_obs.py``).

Two deliberate design rules keep the thread-local stack honest:

* **Never hold a span open across an ``await``.**  Asyncio tasks share a
  thread, so a span held across a suspension point would adopt children
  from unrelated tasks.  Async code times with plain ``perf_counter`` and
  opens spans only inside synchronous scopes (typically executor threads).
* **Executor threads use detached spans.**  :func:`detached_span` never
  auto-attaches to a parent; the caller stitches the finished span into
  the right tree with :meth:`Span.adopt`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "SpanRecorder",
    "capture",
    "current_span",
    "detached_span",
    "disable_tracing",
    "enable_tracing",
    "enabled",
    "record",
    "render_tree",
    "trace_span",
]

#: Module-global enable flag: checked once per trace_span call.
_ENABLED = False

#: The recorder finished root spans are pushed to (None drops them).
_RECORDER: Optional["SpanRecorder"] = None

_STACK = threading.local()


def _stack() -> List["Span"]:
    stack = getattr(_STACK, "spans", None)
    if stack is None:
        stack = _STACK.spans = []
    return stack


class Span:
    """One timed, named, attributed node of a trace tree.

    Timings are :func:`time.perf_counter` seconds.  ``duration`` is filled
    on exit.
    """

    __slots__ = ("name", "attrs", "started", "duration", "children", "_detached")

    def __init__(self, name: str, attrs: Optional[Dict[str, object]] = None,
                 *, detached: bool = False) -> None:
        self.name = name
        self.attrs: Dict[str, object] = attrs or {}
        self.started = time.perf_counter()
        self.duration: Optional[float] = None
        self.children: List[Span] = []
        self._detached = detached

    def set(self, key: str, value: object) -> None:
        """Set one attribute on the span."""
        self.attrs[key] = value

    def adopt(self, child: Optional["Span"]) -> None:
        """Attach a finished detached span as a child.

        ``None`` and the no-op singleton are ignored, so call sites can
        adopt unconditionally.
        """
        if child is None or child is NOOP_SPAN:
            return
        self.children.append(child)

    def __enter__(self) -> "Span":
        stack = _stack()
        # A detached span joins its thread's stack (so spans opened inside
        # nest under it) but never auto-attaches to the span above it —
        # its owner stitches it in explicitly via adopt().
        if not self._detached and stack:
            stack[-1].children.append(self)
        stack.append(self)
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self.started
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        if not self._detached and not stack:
            recorder = _RECORDER
            if recorder is not None:
                recorder.push(self)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First descendant (or self) with ``name``, depth-first."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def __repr__(self) -> str:
        timing = "open" if self.duration is None else f"{self.duration * 1e3:.3f}ms"
        return f"Span({self.name!r}, {timing}, children={len(self.children)})"


class _NoopSpan:
    """The disabled-tracing fast path: every operation is a no-op."""

    __slots__ = ()

    name = "noop"
    attrs: Dict[str, object] = {}
    started = 0.0
    duration: Optional[float] = 0.0
    children: List[Span] = []

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def set(self, key: str, value: object) -> None:
        pass

    def adopt(self, child) -> None:
        pass

    def walk(self):
        return iter(())

    def find(self, name: str) -> None:
        return None


#: The singleton no-op span every disabled trace_span call returns.
NOOP_SPAN = _NoopSpan()


class SpanRecorder:
    """A bounded ring buffer of finished root spans (newest last)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._spans: List[Span] = []
        self._lock = threading.Lock()

    def push(self, span: Span) -> None:
        """Record one finished root span, evicting the oldest at capacity."""
        with self._lock:
            self._spans.append(span)
            if len(self._spans) > self.capacity:
                del self._spans[: len(self._spans) - self.capacity]

    def spans(self) -> List[Span]:
        """The recorded roots, oldest first (a copy)."""
        with self._lock:
            return list(self._spans)

    def latest(self) -> Optional[Span]:
        """The most recently recorded root, or ``None``."""
        with self._lock:
            return self._spans[-1] if self._spans else None

    def clear(self) -> None:
        """Drop every recorded span."""
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


def enabled() -> bool:
    """Whether tracing is currently on."""
    return _ENABLED


def enable_tracing(recorder: Optional[SpanRecorder] = None) -> SpanRecorder:
    """Turn tracing on; finished root spans go to ``recorder``.

    Returns the active recorder (a fresh one when not supplied).
    """
    global _ENABLED, _RECORDER
    if recorder is None:
        recorder = _RECORDER if _RECORDER is not None else SpanRecorder()
    _RECORDER = recorder
    _ENABLED = True
    return recorder


def disable_tracing() -> None:
    """Turn tracing off; :func:`trace_span` returns the no-op singleton."""
    global _ENABLED
    _ENABLED = False


def trace_span(name: str, **attrs):
    """A context-managed span under the current thread's open span.

    Disabled tracing returns the preallocated no-op singleton — no
    allocation, no clock read — which is what keeps always-instrumented
    hot paths within the overhead budget.  Enabled, the span pushes onto
    the thread-local stack on enter, attaches to its parent, and (when it
    is a root) lands in the active :class:`SpanRecorder` on exit.
    """
    if not _ENABLED:
        return NOOP_SPAN
    return Span(name, attrs or None)


def detached_span(name: str, **attrs):
    """A span that never auto-attaches or records; caller stitches it.

    For executor threads, whose work belongs to a tree owned elsewhere:
    finish the span, then hand it to the owner via :meth:`Span.adopt` or
    :func:`record`.
    """
    if not _ENABLED:
        return NOOP_SPAN
    return Span(name, attrs or None, detached=True)


def current_span():
    """The innermost open span on this thread (no-op singleton when none)."""
    if not _ENABLED:
        return NOOP_SPAN
    stack = _stack()
    return stack[-1] if stack else NOOP_SPAN


def record(span: Optional[Span]) -> None:
    """Push a finished detached span to the active recorder, if any."""
    if span is None or span is NOOP_SPAN:
        return
    recorder = _RECORDER
    if recorder is not None:
        recorder.push(span)


@contextmanager
def capture(recorder: Optional[SpanRecorder] = None):
    """Temporarily enable tracing into a private recorder.

    Saves and restores the global enabled flag, recorder, and this
    thread's span stack, so tests can trace without leaking state.  Yields
    the recorder.
    """
    global _ENABLED, _RECORDER
    saved_enabled = _ENABLED
    saved_recorder = _RECORDER
    saved_stack = getattr(_STACK, "spans", None)
    _STACK.spans = []
    active = recorder if recorder is not None else SpanRecorder()
    _RECORDER = active
    _ENABLED = True
    try:
        yield active
    finally:
        _ENABLED = saved_enabled
        _RECORDER = saved_recorder
        _STACK.spans = saved_stack if saved_stack is not None else []


def render_tree(span: Span, *, _depth: int = 0) -> str:
    """An indented text rendering of a span tree with millisecond timings."""
    duration = "  (open)" if span.duration is None else f"{span.duration * 1e3:9.3f} ms"
    attrs = ""
    if span.attrs:
        inner = " ".join(f"{key}={value}" for key, value in span.attrs.items())
        attrs = f"  [{inner}]"
    lines = [f"{'  ' * _depth}{span.name:<28s} {duration}{attrs}"]
    for child in span.children:
        lines.append(render_tree(child, _depth=_depth + 1))
    return "\n".join(lines)
