"""Streams: the FIFO channels connecting operators inside one SPE instance.

A :class:`Stream` connects exactly one producer output port to one consumer
input port.  It transports :class:`~repro.spe.tuples.StreamTuple` elements in
timestamp order and tracks a *watermark*: the largest timestamp ``w`` such
that the producer guarantees no future tuple will have ``ts < w``.  Watermarks
are what allows multi-input operators (Union, Join, the MU unfolder) to merge
their inputs deterministically and stateful operators to close windows.

Streams are also the *readiness fabric* of the event-driven scheduler: each
stream knows its consumer operator, and every producer-side mutation
(:meth:`push`, :meth:`push_many`, :meth:`advance_watermark`, :meth:`close`)
signals that consumer so the scheduler can enqueue it instead of rescanning
the whole operator graph.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Iterator, List, Optional

from repro.spe.errors import StreamOrderError
from repro.spe.tuples import FINAL_WATERMARK, StreamTuple


class Stream:
    """A timestamp-ordered FIFO between two operator ports.

    The producer pushes tuples with :meth:`push` (or :meth:`push_many`) and
    advances the watermark with :meth:`advance_watermark` (or :meth:`close`
    once it is done).  The consumer removes every queued tuple with
    :meth:`pop_ready`.
    """

    __slots__ = (
        "name",
        "_queue",
        "_watermark",
        "_closed",
        "_last_ts",
        "enforce_order",
        "consumer",
    )

    def __init__(self, name: str = "", enforce_order: bool = True) -> None:
        self.name = name
        self._queue: Deque[StreamTuple] = deque()
        self._watermark: float = float("-inf")
        self._closed = False
        self._last_ts: float = float("-inf")
        self.enforce_order = enforce_order
        #: the operator reading this stream (set by ``Operator.add_input``);
        #: signalled on every producer-side mutation so the event-driven
        #: scheduler can mark it runnable.
        self.consumer = None

    # -- readiness ---------------------------------------------------------
    def _wake(self) -> None:
        consumer = self.consumer
        if consumer is not None:
            consumer.signal()

    # -- producer side -----------------------------------------------------
    def push(self, element: StreamTuple) -> None:
        """Append a tuple to the stream.

        Raises
        ------
        StreamOrderError
            If the producer violates the timestamp-sorted contract (only when
            ``enforce_order`` is True).
        """
        if self._closed:
            raise StreamOrderError(f"stream {self.name!r} is closed")
        if self.enforce_order and element.ts < self._last_ts:
            raise StreamOrderError(
                f"stream {self.name!r} received out-of-order tuple "
                f"(ts={element.ts} after ts={self._last_ts})"
            )
        self._last_ts = max(self._last_ts, element.ts)
        self._queue.append(element)
        self._wake()

    def push_many(self, elements: Iterable[StreamTuple]) -> None:
        """Append a batch of tuples, amortising checks and the consumer wake."""
        if self._closed:
            raise StreamOrderError(f"stream {self.name!r} is closed")
        batch = elements if isinstance(elements, (list, tuple)) else list(elements)
        if not batch:
            return
        last = self._last_ts
        if self.enforce_order:
            for element in batch:
                if element.ts < last:
                    raise StreamOrderError(
                        f"stream {self.name!r} received out-of-order tuple "
                        f"(ts={element.ts} after ts={last})"
                    )
                last = element.ts
        else:
            for element in batch:
                if element.ts > last:
                    last = element.ts
        self._last_ts = last
        self._queue.extend(batch)
        self._wake()

    def advance_watermark(self, ts: float) -> None:
        """Advance the stream watermark (monotone; smaller values ignored)."""
        if ts > self._watermark:
            self._watermark = ts
            self._wake()

    def close(self) -> None:
        """Mark the stream as finished; the watermark becomes +infinity."""
        self._closed = True
        self._watermark = FINAL_WATERMARK
        self._wake()

    # -- consumer side -----------------------------------------------------
    def pop_ready(self, limit: Optional[int] = None) -> List[StreamTuple]:
        """Remove and return up to ``limit`` queued tuples (all by default).

        This is the dataplane entry point: one call hands the consumer every
        tuple it may process in this wake-up.
        """
        queue = self._queue
        if not queue:
            return []
        if limit is None or len(queue) <= limit:
            items = list(queue)
            queue.clear()
            return items
        popleft = queue.popleft
        return [popleft() for _ in range(limit)]

    def drain(self) -> List[StreamTuple]:
        """Remove and return every queued tuple."""
        items = list(self._queue)
        self._queue.clear()
        return items

    # -- state inspection ----------------------------------------------------
    @property
    def watermark(self) -> float:
        """Largest timestamp below which no further tuple will arrive."""
        return self._watermark

    @property
    def closed(self) -> bool:
        """True once the producer called :meth:`close`."""
        return self._closed

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return True

    def __iter__(self) -> Iterator[StreamTuple]:
        return iter(self._queue)

    @property
    def settled(self) -> float:
        """Largest bound ``B`` such that no tuple with ``ts < B`` can still appear.

        This is the head tuple's timestamp when the stream is non-empty.  An
        empty stream falls back to its watermark, but also exploits the
        ordering contract (future pushes cannot precede the last pushed
        timestamp), so a producer that emitted data without advancing its
        watermark yet does not hold the bound back.  The order-restoring
        Merge uses this to decide which buffered tuples can no longer gain
        equal-timestamp companions.
        """
        if self._queue:
            return self._queue[0].ts
        return max(self._watermark, self._last_ts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Stream(name={self.name!r}, queued={len(self._queue)}, "
            f"watermark={self._watermark}, closed={self._closed})"
        )
