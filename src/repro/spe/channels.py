"""Channels: the transport between Send and Receive operators.

A :class:`Channel` models the link between two SPE instances (in the paper:
two processes on distinct Odroid boards connected by a 100 Mbps switch).  It
carries :mod:`repro.spe.codec` batch blobs only -- one ``bytes`` payload per
Send flush -- tracks the producer watermark, and records the traffic
statistics (tuples and bytes transferred) of the Fig. 13 network-load
comparison.

The queueing mechanics live behind a :class:`ChannelTransport`:

* :class:`InMemoryTransport` (the default) is a plain deque shared by both
  sides -- the cooperative :class:`~repro.spe.scheduler.Scheduler` uses it
  when it runs several SPE instances in one process.
* :class:`~repro.spe.sockets.SocketTransport` carries the same blobs over a
  stream socket, so the producer and the consumer can live in *different OS
  processes*: a ``socket.socketpair()`` under the fork launcher of
  :class:`~repro.spe.cluster.RemoteRuntime` (``execution="process"``), a
  TCP connection between worker daemons (``execution="cluster"``).
  Watermark advances and the close marker travel as explicit control
  messages; each side keeps its own local view of the channel state,
  updated when the consumer drains its socket.

Like :class:`~repro.spe.streams.Stream`, a channel participates in readiness
propagation: the Receive operator reading it registers itself as
``consumer``, and every producer-side mutation (:meth:`send_block`,
:meth:`advance_watermark`, :meth:`close`) signals it.
That is what lets one :class:`~repro.spe.scheduler.Scheduler` over several
instances wake exactly the Receive whose channel received data and never
touch an idle one.  Cross-process transports skip that in-memory hook:
there the socket itself is the wake-up signal (the consumer's worker loop
waits on the consumer end).

Producer-side mutations take a per-channel lock: the traffic counters and
the watermark's check-then-set are read-modify-writes, and a
:class:`~repro.spe.metrics.MetricsSnapshot` may be taken from another thread
while a producer is mid-update.  :meth:`counters`
returns a consistent ``(tuples_sent, bytes_sent)`` pair under that lock.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.spe.errors import ChannelError
from repro.spe.tuples import FINAL_WATERMARK

#: one wire payload: a binary batch blob.
Payload = bytes


class ChannelTransport:
    """The producer-to-consumer path of one :class:`Channel`.

    The producer side calls :meth:`send` / :meth:`advance_watermark` /
    :meth:`close`; the consumer side calls :meth:`receive_all` and reads
    :attr:`watermark`, :attr:`closed` and ``len()``.  Transports never look
    inside a payload.  ``local`` tells the owning channel
    whether both sides share this very object (so the in-memory
    consumer-signalling hook works) or live in different processes.
    """

    #: True when producer and consumer share this object in one process.
    local = True

    # -- producer side -----------------------------------------------------
    def send(self, payload: Payload) -> None:
        raise NotImplementedError

    def advance_watermark(self, ts: float) -> bool:
        """Advance the watermark (monotone); return True when it moved."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # -- consumer side -----------------------------------------------------
    def receive_all(self) -> List[Payload]:
        raise NotImplementedError

    @property
    def watermark(self) -> float:
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class InMemoryTransport(ChannelTransport):
    """The default transport: a deque shared by producer and consumer."""

    local = True

    __slots__ = ("_queue", "_watermark", "_closed")

    def __init__(self) -> None:
        self._queue: Deque[Payload] = deque()
        self._watermark: float = float("-inf")
        self._closed = False

    # -- producer side -----------------------------------------------------
    def send(self, payload: Payload) -> None:
        self._queue.append(payload)

    def advance_watermark(self, ts: float) -> bool:
        if ts > self._watermark:
            self._watermark = ts
            return True
        return False

    def close(self) -> None:
        self._closed = True
        self._watermark = FINAL_WATERMARK

    # -- consumer side -----------------------------------------------------
    def receive_all(self) -> List[Payload]:
        # Drain with atomic ``popleft`` calls rather than snapshot+clear:
        # a producer may append from another thread, and a payload sent
        # between a snapshot and a clear would be lost forever.
        queue = self._queue
        items: List[Payload] = []
        while queue:
            items.append(queue.popleft())
        return items

    @property
    def watermark(self) -> float:
        return self._watermark

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return len(self._queue)


class Channel:
    """A FIFO of :mod:`repro.spe.codec` batch blobs between two SPE instances.

    The channel carries blobs opaquely; :meth:`send_block` accounts the N
    tuples a blob encodes, so ``tuples_sent`` stays a tuple count.
    """

    __slots__ = (
        "name",
        "_transport",
        "_lock",
        "tuples_sent",
        "bytes_sent",
        "consumer",
        "tracer",
    )

    def __init__(
        self,
        name: str = "",
        transport: Optional[ChannelTransport] = None,
    ) -> None:
        self.name = name
        self._transport = transport if transport is not None else InMemoryTransport()
        self._lock = threading.Lock()
        self.tuples_sent = 0
        self.bytes_sent = 0
        #: the Receive operator reading this channel (registered by
        #: ``ReceiveOperator``); signalled on every producer-side mutation
        #: when the transport is local (cross-process transports wake the
        #: consumer through the socket instead).
        self.consumer: Any = None
        #: telemetry span tracer (None = disabled; installed by the obs
        #: layer).  Deliberately a per-channel slot, not a module global:
        #: in-process loopback cluster workers share the interpreter and a
        #: global would cross-contaminate their traces.
        self.tracer: Any = None

    def __getstate__(self) -> Dict[str, Any]:
        # A shipped plan must not drag the consuming instance along (and,
        # through it, the next instance, up to the coordinator's Sinks):
        # across processes the socket, not ``consumer``, wakes the Receive.
        state = {name: getattr(self, name) for name in self.__slots__}
        state["consumer"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    @property
    def transport(self) -> ChannelTransport:
        """The transport carrying this channel's payloads."""
        return self._transport

    # -- readiness ---------------------------------------------------------
    def _wake(self) -> None:
        if not self._transport.local:
            return
        consumer = self.consumer
        if consumer is not None:
            consumer.signal()

    # -- producer side -----------------------------------------------------
    def send_block(self, payload: Payload, count: int) -> None:
        """Enqueue one batch blob carrying ``count`` tuples.

        The traffic counters account the batched tuples individually while
        ``bytes_sent`` grows by the blob's wire size.
        """
        with self._lock:
            if self._transport.closed:
                raise ChannelError(f"channel {self.name!r} is closed")
            self._transport.send(payload)
            self.tuples_sent += count
            self.bytes_sent += len(payload)
        if self.tracer is not None:
            self.tracer.event("channel.send", self.name, count=count)
        self._wake()

    def advance_watermark(self, ts: float) -> None:
        """Advance the producer watermark (monotone)."""
        with self._lock:
            advanced = self._transport.advance_watermark(ts)
        if advanced:
            if self.tracer is not None:
                self.tracer.event("channel.watermark", self.name)
            self._wake()

    def close(self) -> None:
        """Signal that no further tuple will be sent."""
        with self._lock:
            self._transport.close()
        if self.tracer is not None:
            self.tracer.event("channel.close", self.name)
        self._wake()

    # -- consumer side -----------------------------------------------------
    def receive_all(self) -> List[Payload]:
        """Dequeue every available batch blob."""
        payloads = self._transport.receive_all()
        if payloads and self.tracer is not None:
            self.tracer.event("channel.recv", self.name, count=len(payloads))
        return payloads

    # -- state ----------------------------------------------------------------
    @property
    def watermark(self) -> float:
        """Largest timestamp below which no further tuple will be sent."""
        return self._transport.watermark

    @property
    def closed(self) -> bool:
        """True once the producer called :meth:`close`."""
        return self._transport.closed

    def counters(self) -> Tuple[int, int]:
        """A consistent ``(tuples_sent, bytes_sent)`` snapshot."""
        with self._lock:
            return self.tuples_sent, self.bytes_sent

    def __len__(self) -> int:
        return len(self._transport)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Channel(name={self.name!r}, queued={len(self._transport)}, "
            f"sent={self.tuples_sent}, bytes={self.bytes_sent})"
        )


def __getattr__(name: str) -> Any:
    # Deleted by the benchmark change that renames the spe.channels.pipe.* rows.
    if name == "ProcessTransport":
        from repro.spe.sockets import SocketTransport

        return SocketTransport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
