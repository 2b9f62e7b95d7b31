"""Async bridge from :class:`~repro.streaming.ContinuousMonitor` deltas.

The monitor delivers answer deltas synchronously, on whatever thread calls
``apply()``.  An async consumer instead wants ``async for delta in ...``.
:class:`DeltaBridge` subscribes once to a monitor and fans every delta out
to per-consumer :class:`DeltaSubscription` queues through
``loop.call_soon_threadsafe``, so ingestion threads never touch asyncio
state directly and slow consumers never block the monitor: each
subscription has a bounded buffer and drops its *oldest* buffered delta on
overflow (counting the drops), trading completeness for bounded memory —
a consumer that observed drops should resynchronize from
:meth:`ContinuousMonitor.answers` instead of replaying deltas.
"""

from __future__ import annotations

import asyncio
from typing import Callable, List, Optional

from ..streaming.events import AnswerDelta


class DeltaSubscription:
    """One consumer's bounded, async-iterable feed of answer deltas.

    Obtained from :meth:`repro.service.QueryService.subscribe`; iterate with
    ``async for`` or await :meth:`get` directly.  :meth:`close` detaches the
    subscription and ends iteration after the buffered deltas drain.
    """

    _CLOSE = object()

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        query_key: Optional[object],
        buffer: int,
        on_close: Callable[["DeltaSubscription"], None],
    ) -> None:
        if buffer < 1:
            raise ValueError("buffer must be at least 1")
        self._loop = loop
        self._query_key = query_key
        self._queue: "asyncio.Queue[object]" = asyncio.Queue(maxsize=buffer)
        self._on_close = on_close
        self._closed = False
        self.dropped = 0  #: deltas discarded because the buffer was full.

    def matches(self, event: AnswerDelta) -> bool:
        """Whether this subscription wants the event."""
        return self._query_key is None or self._query_key == event.query_key

    def _deliver(self, event: object) -> None:
        """Enqueue an event, dropping the oldest buffered one on overflow.

        Runs on the event loop (scheduled via ``call_soon_threadsafe``).
        """
        if self._closed and event is not self._CLOSE:
            return
        while True:
            try:
                self._queue.put_nowait(event)
                return
            except asyncio.QueueFull:
                try:
                    self._queue.get_nowait()
                    self.dropped += 1
                except asyncio.QueueEmpty:  # pragma: no cover - tiny race
                    continue

    async def get(self) -> Optional[AnswerDelta]:
        """The next delta, or ``None`` once the subscription is closed."""
        if self._closed and self._queue.empty():
            return None
        event = await self._queue.get()
        if event is self._CLOSE:
            return None
        return event  # type: ignore[return-value]

    def close(self) -> None:
        """Detach from the bridge; pending ``get``s finish with ``None``."""
        if self._closed:
            return
        self._closed = True
        self._on_close(self)
        self._deliver(self._CLOSE)

    def __aiter__(self) -> "DeltaSubscription":
        return self

    async def __anext__(self) -> AnswerDelta:
        event = await self.get()
        if event is None:
            raise StopAsyncIteration
        return event


class DeltaBridge:
    """Fan-out hub between one monitor and many async subscriptions."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._subscriptions: List[DeltaSubscription] = []
        self._unsubscribers: List[Callable[[], None]] = []

    def attach(self, monitor) -> None:
        """Start forwarding a monitor's deltas into the bridge.

        ``monitor`` is anything with the :class:`ContinuousMonitor`
        ``subscribe(callback) -> unsubscriber`` shape.
        """
        self._unsubscribers.append(monitor.subscribe(self._on_delta))

    def subscribe(
        self, query_key: Optional[object] = None, buffer: int = 256
    ) -> DeltaSubscription:
        """A new bounded subscription (optionally filtered to one query key)."""
        subscription = DeltaSubscription(
            self._loop, query_key, buffer, self._detach
        )
        self._subscriptions.append(subscription)
        return subscription

    def _detach(self, subscription: DeltaSubscription) -> None:
        if subscription in self._subscriptions:
            self._subscriptions.remove(subscription)

    def _on_delta(self, event: AnswerDelta) -> None:
        """Monitor-side callback; safe to call from any thread."""
        self._loop.call_soon_threadsafe(self._fan_out, event)

    def _fan_out(self, event: AnswerDelta) -> None:
        for subscription in list(self._subscriptions):
            if subscription.matches(event):
                subscription._deliver(event)

    def close(self) -> None:
        """Unsubscribe from every monitor and close every subscription."""
        for unsubscribe in self._unsubscribers:
            unsubscribe()
        self._unsubscribers = []
        for subscription in list(self._subscriptions):
            subscription.close()
