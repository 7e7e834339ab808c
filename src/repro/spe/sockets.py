"""Stream-socket framing and the one cross-process channel transport.

Out of process, the :class:`~repro.spe.cluster.RemoteRuntime` runs every SPE
instance in its own worker: a forked child over ``socket.socketpair()``
channels (``execution="process"``), or a worker daemon, possibly on another
host, over TCP channels (``execution="cluster"``).  This module provides
the wire layer both share:

* a **length-prefixed frame codec** -- every message travels as a 4-byte
  big-endian length followed by that many payload bytes.  TCP is a byte
  stream, so the decoder tolerates arbitrary fragmentation (frames split
  across ``recv`` calls, several frames in one read) and flags torn trailing
  frames and absurd lengths (corruption / protocol confusion) instead of
  allocating unbounded buffers.
* **messages**: three channel messages, each one frame led by a one-byte
  tag -- ``D`` + one :mod:`repro.spe.codec` batch blob, ``W`` + a float64
  watermark, ``C`` for the close marker.  Any other lead byte (a peer still
  speaking the retired JSON array encoding starts with ``[``) fails the
  drain with :class:`SerializationError` naming the channel.  The blob is
  the exact ``bytes`` the Send operator produced, so a tuple's bytes on the
  wire are identical under ``execution="process"`` and ``"cluster"``.
* :class:`SocketTransport` -- the :class:`~repro.spe.channels.ChannelTransport`
  speaking that protocol over a connected stream socket.  The producer side
  owns a blocking socket and writes one frame per blob or control message;
  the consumer side owns a non-blocking socket it drains into a local
  buffer.  Both sides may live on the same object (a socketpair is created
  lazily), which is what the transport-contract unit tests exercise, or be
  attached separately by the launchers' wiring.
* :func:`connect_with_retry` -- bounded retry/backoff TCP connect that names
  the unreachable ``host:port`` when it gives up.

A consumer socket reaching EOF *before* the close marker means the producer
worker died mid-run; the transport raises :class:`ProducerLostError` from
the drain so the Receive operator's worker fails fast and the coordinator
can stop the rest of the deployment -- blaming the producer, not the
worker that noticed.  EOF after the close marker is the normal end of a
connection.  Symmetrically, a send to a consumer that died raises
:class:`ConsumerLostError`, an echo of that death as well.
"""

from __future__ import annotations

import socket
import struct
import time
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.spe.channels import ChannelTransport, Payload
from repro.spe.errors import (
    ChannelError,
    ConsumerLostError,
    ProducerLostError,
    SerializationError,
)
from repro.spe.tuples import FINAL_WATERMARK

#: frame header: payload length as a 4-byte big-endian unsigned integer.
FRAME_HEADER = struct.Struct(">I")

#: refuse frames larger than this (corrupt length prefix / wrong protocol).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: bytes read from the socket per drain iteration.
_RECV_CHUNK = 1 << 16

#: lead bytes of the three channel messages.
_DATA = b"D"
_WATERMARK = b"W"
_CLOSE = b"C"

_WATERMARK_STRUCT = struct.Struct("<d")


def encode_frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in a length-prefixed frame."""
    if len(payload) > MAX_FRAME_BYTES:
        raise SerializationError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return FRAME_HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental decoder of length-prefixed frames from a byte stream.

    Feed it whatever ``recv`` returned -- half a header, three frames at
    once -- and pop the complete frames; partial input stays buffered until
    the rest arrives.  A declared length beyond :data:`MAX_FRAME_BYTES`
    raises immediately (a corrupt prefix would otherwise demand gigabytes);
    ``name`` identifies the channel (or control stream) the bytes arrived
    on, so that error points at the offending connection.
    """

    __slots__ = ("_buffer", "ready", "name")

    def __init__(self, name: str = "") -> None:
        self._buffer = bytearray()
        #: the channel / stream these bytes belong to (used in errors).
        self.name = name
        #: frames decoded but not yet consumed by :func:`recv_frame`.
        self.ready: Deque[bytes] = deque()

    def feed(self, data: bytes) -> List[bytes]:
        """Consume ``data``; return every frame payload it completed."""
        self._buffer.extend(data)
        frames: List[bytes] = []
        buffer = self._buffer
        offset = 0
        while True:
            if len(buffer) - offset < FRAME_HEADER.size:
                break
            (length,) = FRAME_HEADER.unpack_from(buffer, offset)
            if length > MAX_FRAME_BYTES:
                raise SerializationError(
                    f"channel {self.name!r}: frame header declares {length} "
                    f"bytes ({length / (1 << 20):.0f} MiB), beyond the "
                    f"{MAX_FRAME_BYTES}-byte limit (corrupt or foreign stream)"
                )
            start = offset + FRAME_HEADER.size
            if len(buffer) - start < length:
                break
            frames.append(bytes(buffer[start : start + length]))
            offset = start + length
        if offset:
            del buffer[:offset]
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._buffer)


def send_frame(sock: socket.socket, frame: bytes) -> None:
    """Write one already-encoded frame to a blocking socket."""
    sock.sendall(frame)


def recv_frame(sock: socket.socket, decoder: FrameDecoder) -> Optional[bytes]:
    """Block until one complete frame arrives; ``None`` on a clean EOF.

    EOF in the middle of a frame (torn tail) raises: the peer vanished
    mid-message and the bytes read so far cannot be trusted.
    """
    while not decoder.ready:
        data = sock.recv(_RECV_CHUNK)
        if not data:
            if decoder.pending_bytes:
                raise ChannelError(
                    "connection closed mid-frame "
                    f"({decoder.pending_bytes} torn trailing byte(s))"
                )
            return None
        decoder.ready.extend(decoder.feed(data))
    return decoder.ready.popleft()


def connect_with_retry(
    host: str,
    port: int,
    retries: int = 20,
    backoff_s: float = 0.05,
    timeout_s: float = 5.0,
    what: str = "worker",
) -> socket.socket:
    """Connect to ``host:port`` with bounded retry/backoff.

    Retries cover the races a cluster bring-up actually hits (a daemon still
    binding its listener, a backlog momentarily full); after ``retries``
    attempts the error names the unreachable endpoint so a typo'd host list
    points straight at the offending entry.  The backoff doubles per attempt
    and is capped at one second.
    """
    last_error: Optional[Exception] = None
    delay = backoff_s
    for _ in range(max(1, retries)):
        try:
            sock = socket.create_connection((host, port), timeout=timeout_s)
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            last_error = exc
            time.sleep(delay)
            delay = min(delay * 2, 1.0)
    raise ChannelError(
        f"cannot reach {what} at {host}:{port} after {max(1, retries)} "
        f"attempt(s): {last_error}"
    )


class SocketTransport(ChannelTransport):
    """A connected stream socket carrying the channel's batch blobs.

    One blob per data message, watermark advances and close markers, each
    message travelling as one length-prefixed frame, so one Send flush is
    one frame (and typically one segment burst).

    A transport starts *detached*.  The daemon launcher attaches the
    producer socket on the sending host and the consumer socket on the
    receiving host (:meth:`attach_producer` / :meth:`attach_consumer`); the
    fork launcher calls :meth:`pair` before forking, and each child keeps
    only its own end (:meth:`close_sockets`).  A detached object driven
    from both sides -- the unit-test contract -- pairs lazily on first use.

    The consumer-side state (:attr:`watermark`, :attr:`closed`, ``len()``)
    is only refreshed by :meth:`receive_all` drains, never by property
    reads, so a coordinator inspecting its (detached) copy of the object
    steals nothing.  Instances are picklable while detached: a plan shipped
    to a cluster worker carries the transport's identity, and the worker
    attaches the live sockets.
    """

    local = False

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._producer_sock: Optional[socket.socket] = None
        self._consumer_sock: Optional[socket.socket] = None
        self._decoder = FrameDecoder(name)
        self._buffer: Deque[Payload] = deque()
        self._watermark: float = float("-inf")
        self._closed = False
        self._eof = False

    # -- plan shipping -----------------------------------------------------
    def __getstate__(self) -> Dict[str, str]:
        if self._producer_sock is not None or self._consumer_sock is not None:
            raise SerializationError(
                f"socket transport {self.name!r} is attached to live sockets "
                "and cannot be serialised; ship plans before wiring"
            )
        return {"name": self.name}

    def __setstate__(self, state: Dict[str, str]) -> None:
        SocketTransport.__init__(self, state["name"])

    # -- wiring ------------------------------------------------------------
    def attach_producer(self, sock: socket.socket) -> None:
        """Install the connected socket the producer side writes frames to."""
        if self._producer_sock is not None:
            raise ChannelError(f"channel {self.name!r} already has a producer socket")
        sock.setblocking(True)
        self._producer_sock = sock

    def attach_consumer(self, sock: socket.socket) -> None:
        """Install the connected socket the consumer side drains frames from."""
        if self._consumer_sock is not None:
            raise ChannelError(f"channel {self.name!r} already has a consumer socket")
        sock.setblocking(False)
        self._consumer_sock = sock

    def pair(self) -> None:
        """Connect both ends over one fresh :func:`socket.socketpair`."""
        producer, consumer = socket.socketpair()
        self.attach_producer(producer)
        self.attach_consumer(consumer)

    @property
    def consumer_socket(self) -> Optional[socket.socket]:
        """The consumer-side socket (selectable by the worker's idle loop)."""
        return self._consumer_sock

    def close_sockets(self, keep_producer: bool = False, keep_consumer: bool = False) -> None:
        """Close the socket ends this side holds, except the ones to keep (idempotent)."""
        if not keep_producer and self._producer_sock is not None:
            self._producer_sock.close()
            self._producer_sock = None
        if not keep_consumer and self._consumer_sock is not None:
            self._consumer_sock.close()
            self._consumer_sock = None

    # -- producer side -----------------------------------------------------
    def _send_message(self, message: bytes) -> None:
        if self._producer_sock is None and self._consumer_sock is None:
            self.pair()  # a detached transport driven from one process
        assert self._producer_sock is not None
        try:
            send_frame(self._producer_sock, encode_frame(message))
        except OSError as exc:
            raise ConsumerLostError(
                f"channel {self.name!r}: cannot send to peer ({exc}); the "
                "consuming worker is gone"
            ) from exc

    def send(self, payload: Payload) -> None:
        self._send_message(_DATA + payload)

    def advance_watermark(self, ts: float) -> bool:
        if ts > self._watermark:
            self._watermark = ts
            self._send_message(_WATERMARK + _WATERMARK_STRUCT.pack(ts))
            return True
        return False

    def close(self) -> None:
        self._closed = True
        self._watermark = FINAL_WATERMARK
        self._send_message(_CLOSE)

    # -- consumer side -----------------------------------------------------
    def _apply(self, frame: bytes) -> None:
        lead = frame[:1]
        if lead == _DATA:
            self._buffer.append(frame[1:])
        elif lead == _WATERMARK and len(frame) == 1 + _WATERMARK_STRUCT.size:
            (ts,) = _WATERMARK_STRUCT.unpack_from(frame, 1)
            if ts > self._watermark:
                self._watermark = ts
        elif lead == _CLOSE and len(frame) == 1:
            self._closed = True
            self._watermark = FINAL_WATERMARK
        else:
            raise SerializationError(
                f"channel {self.name!r}: malformed message frame on the wire "
                f"({len(frame)} bytes, lead byte {lead!r})"
            )

    def _drain(self) -> None:
        if self._producer_sock is None and self._consumer_sock is None:
            self.pair()  # a detached transport driven from one process
        sock = self._consumer_sock
        assert sock is not None
        while not self._eof:
            try:
                data = sock.recv(_RECV_CHUNK)
            except (BlockingIOError, InterruptedError):
                break
            except OSError as exc:
                raise ChannelError(
                    f"channel {self.name!r}: cannot read from peer ({exc})"
                ) from exc
            if not data:
                self._eof = True
                break
            for frame in self._decoder.feed(data):
                self._apply(frame)
        if self._eof and not self._closed:
            torn = self._decoder.pending_bytes
            raise ProducerLostError(
                f"channel {self.name!r}: producer socket reached EOF before "
                "the close marker (worker died mid-run"
                + (f"; {torn} torn trailing byte(s))" if torn else ")")
            )

    def receive_all(self) -> List[Payload]:
        self._drain()
        items = list(self._buffer)
        self._buffer.clear()
        return items

    @property
    def watermark(self) -> float:
        return self._watermark

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return len(self._buffer)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        attached = (
            ("P" if self._producer_sock is not None else "-")
            + ("C" if self._consumer_sock is not None else "-")
        )
        return (
            f"SocketTransport(name={self.name!r}, attached={attached}, "
            f"buffered={len(self._buffer)})"
        )
