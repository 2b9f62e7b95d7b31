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
* **Executor threads open ordinary root spans.**  Each thread has its own
  stack, so the first span an executor thread opens is a root: it lands
  in the active recorder on exit, and a caller that needs that tree keeps
  the span it opened (``with trace_span(...) as root``).  Synchronous work
  run on the event loop's own thread gets the same footing from
  :func:`fresh_stack`.

:func:`capture` may be entered on several threads at once: the first
entry saves the global state, the last exit restores it, and every
finished root reaches the recorder of every capture still open.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "SpanRecorder",
    "capture",
    "current_span",
    "disable_tracing",
    "enable_tracing",
    "enabled",
    "fresh_stack",
    "render_tree",
    "trace_span",
]

#: Module-global enable flag: checked once per trace_span call.
_ENABLED = False

#: The recorder finished root spans are pushed to (None drops them).
_RECORDER: Optional["SpanRecorder"] = None

#: The recorders of the open :func:`capture` blocks; while any is open,
#: finished roots go to each of them instead of ``_RECORDER``.
_CAPTURES: Tuple["SpanRecorder", ...] = ()

#: ``_ENABLED`` as the first open capture found it.
_SAVED_ENABLED = False

#: Held only while a capture enters or exits, never across its body.
_CAPTURE_LOCK = threading.Lock()

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

    __slots__ = ("name", "attrs", "started", "duration", "children")

    def __init__(self, name: str, attrs: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.attrs: Dict[str, object] = attrs or {}
        self.started = time.perf_counter()
        self.duration: Optional[float] = None
        self.children: List[Span] = []

    def set(self, key: str, value: object) -> None:
        """Set one attribute on the span."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        stack = _stack()
        if stack:
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
        if not stack:
            recorders = _CAPTURES
            if not recorders:
                recorders = () if _RECORDER is None else (_RECORDER,)
            for recorder in recorders:
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


def current_span():
    """The innermost open span on this thread (no-op singleton when none)."""
    if not _ENABLED:
        return NOOP_SPAN
    stack = _stack()
    return stack[-1] if stack else NOOP_SPAN


@contextmanager
def fresh_stack():
    """Run the body on an empty span stack, then restore this thread's own.

    The body's first span is a root, as it would be on an executor thread,
    so a span the caller holds open is not its parent.
    """
    saved = getattr(_STACK, "spans", None)
    _STACK.spans = []
    try:
        yield
    finally:
        _STACK.spans = saved if saved is not None else []


@contextmanager
def capture(recorder: Optional[SpanRecorder] = None):
    """Temporarily enable tracing into a private recorder.

    Yields the recorder, which receives every root span finished on any
    thread while the capture is open.  Captures may overlap, on one thread
    or several: the first to enter saves the global enabled flag and the
    last to exit restores it, so tests can trace without leaking state.
    This thread's span stack is saved and restored too.
    """
    global _ENABLED, _CAPTURES, _SAVED_ENABLED
    active = recorder if recorder is not None else SpanRecorder()
    with fresh_stack():
        with _CAPTURE_LOCK:
            if not _CAPTURES:
                _SAVED_ENABLED = _ENABLED
            _CAPTURES = _CAPTURES + (active,)
            _ENABLED = True
        try:
            yield active
        finally:
            with _CAPTURE_LOCK:
                remaining = list(_CAPTURES)
                remaining.remove(active)
                _CAPTURES = tuple(remaining)
                if not _CAPTURES:
                    _ENABLED = _SAVED_ENABLED


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
