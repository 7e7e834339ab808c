"""Unit tests of the TCP frame codec and the socket channel transport.

The generic transport contract (send/receive round trips, monotone
watermarks, close semantics, Send/Receive operators) already runs against
:class:`~repro.spe.sockets.SocketTransport` in ``test_channel_transport.py``;
this file covers what is *specific* to the wire:

* the length-prefixed frame codec under arbitrary fragmentation -- partial
  reads, many frames per read, torn tails, oversized declared lengths --
  including a property-based fuzz over random payloads and chunkings,
* the message layer: one opaque blob per data frame, monotone watermark
  frames, and a frame with any other lead byte or a malformed control body
  -- including the retired JSON array encoding -- failing loudly,
* EOF semantics: a producer socket dying *before* the close marker is a
  :class:`~repro.spe.errors.ProducerLostError` naming the channel (the
  fail-fast trigger), while EOF *after* the close is a normal end,
* the fork launcher's wiring: :meth:`SocketTransport.pair` and
  ``close_sockets(keep_producer=..., keep_consumer=...)``,
* bounded-retry connects that name the unreachable ``host:port``.
"""

from __future__ import annotations

import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spe.channels import Channel
from repro.spe.errors import (
    ChannelError,
    ConsumerLostError,
    ProducerLostError,
    SerializationError,
)
from repro.spe.plan import deserialize_plan, serialize_plan
from repro.spe.sockets import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    FrameDecoder,
    SocketTransport,
    connect_with_retry,
    encode_frame,
)
from repro.spe.tuples import FINAL_WATERMARK
from tests.optest import blobs, tup

(BLOB,) = blobs([tup(1.0, v=1), tup(2.0, v=2)])


class TestFrameCodec:
    def test_round_trip_one_frame(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(b"hello")) == [b"hello"]
        assert decoder.pending_bytes == 0

    def test_empty_payload_frame(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(b"")) == [b""]

    def test_byte_at_a_time_reassembly(self):
        decoder = FrameDecoder()
        wire = encode_frame(b"abc") + encode_frame(b"") + encode_frame(b"xyzzy")
        frames = []
        for index in range(len(wire)):
            frames.extend(decoder.feed(wire[index : index + 1]))
        assert frames == [b"abc", b"", b"xyzzy"]
        assert decoder.pending_bytes == 0

    def test_many_frames_in_one_feed(self):
        decoder = FrameDecoder()
        payloads = [b"a", b"bb", b"", b"dddd"]
        wire = b"".join(encode_frame(p) for p in payloads)
        assert decoder.feed(wire) == payloads

    def test_torn_tail_stays_pending(self):
        decoder = FrameDecoder()
        wire = encode_frame(b"complete") + encode_frame(b"torn")[:-2]
        assert decoder.feed(wire) == [b"complete"]
        assert decoder.pending_bytes > 0
        # the remainder completes it
        assert decoder.feed(encode_frame(b"torn")[-2:]) == [b"torn"]
        assert decoder.pending_bytes == 0

    def test_oversized_declared_length_raises(self):
        decoder = FrameDecoder()
        header = FRAME_HEADER.pack(MAX_FRAME_BYTES + 1)
        with pytest.raises(SerializationError, match="beyond the"):
            decoder.feed(header)

    def test_oversized_payload_refused_on_encode(self):
        class _HugeLen(bytes):
            def __len__(self):
                return MAX_FRAME_BYTES + 1

        with pytest.raises(SerializationError, match="exceeds"):
            encode_frame(_HugeLen())

    @settings(max_examples=60, deadline=None)
    @given(
        payloads=st.lists(st.binary(max_size=200), max_size=12),
        chunk_sizes=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=40),
    )
    def test_fuzz_any_fragmentation_reassembles(self, payloads, chunk_sizes):
        wire = b"".join(encode_frame(p) for p in payloads)
        decoder = FrameDecoder()
        frames = []
        position = 0
        chunk_index = 0
        while position < len(wire):
            size = chunk_sizes[chunk_index % len(chunk_sizes)]
            chunk_index += 1
            frames.extend(decoder.feed(wire[position : position + size]))
            position += size
        assert frames == payloads
        assert decoder.pending_bytes == 0


def _wired_pair(name="c"):
    """A producer socket we control, its transport, and the consumer side."""
    producer_sock, consumer_sock = socket.socketpair()
    producer = SocketTransport(name)
    producer.attach_producer(producer_sock)
    consumer = SocketTransport(name)
    consumer.attach_consumer(consumer_sock)
    return producer_sock, producer, consumer


class TestSocketTransportEOF:
    def test_eof_before_close_marker_raises_naming_the_channel(self):
        _, producer, consumer = _wired_pair("lost_link")
        producer.send(BLOB)
        producer.close_sockets()
        with pytest.raises(ProducerLostError, match="lost_link.*worker died"):
            consumer.receive_all()

    def test_eof_with_torn_frame_reports_torn_bytes(self):
        producer_sock, _, consumer = _wired_pair("torn_link")
        producer_sock.sendall(encode_frame(b"x" * 10)[:-3])
        producer_sock.close()
        with pytest.raises(ChannelError, match="torn trailing byte"):
            consumer.receive_all()

    def test_eof_after_close_marker_is_a_normal_end(self):
        _, producer, consumer = _wired_pair()
        producer.send(BLOB)
        producer.advance_watermark(9.0)
        producer.close()
        producer.close_sockets()
        assert consumer.receive_all() == [BLOB]
        assert consumer.closed
        assert consumer.watermark == FINAL_WATERMARK
        # further reads after the clean EOF stay benign
        assert consumer.receive_all() == []

    def test_send_into_a_dead_peer_raises(self):
        producer_sock, consumer_sock = socket.socketpair()
        transport = SocketTransport("dead_peer")
        transport.attach_producer(producer_sock)
        consumer_sock.close()
        with pytest.raises(ChannelError, match="dead_peer"):
            # the first send may land in the kernel buffer before the RST
            # comes back; the second is guaranteed to fail.
            for _ in range(50):
                transport.send(b"x" * 4096)


class TestForkPairing:
    """How the fork launcher splits one paired transport across processes."""

    def test_pair_refuses_an_attached_transport(self):
        transport = SocketTransport("p")
        transport.pair()
        try:
            with pytest.raises(ChannelError, match="'p' already has a producer"):
                transport.pair()
        finally:
            transport.close_sockets()

    def test_kept_consumer_end_reports_a_lost_producer(self):
        transport = SocketTransport("lost")
        transport.pair()
        transport.send(BLOB)
        transport.close_sockets(keep_consumer=True)  # the producing child died
        try:
            with pytest.raises(ProducerLostError, match="'lost'"):
                transport.receive_all()
        finally:
            transport.close_sockets()

    def test_kept_producer_end_reports_a_gone_consumer(self):
        transport = SocketTransport("gone")
        transport.pair()
        transport.close_sockets(keep_producer=True)  # the consuming child died
        try:
            with pytest.raises(ConsumerLostError, match="'gone'.*consuming worker is gone"):
                for _ in range(50):
                    transport.send(b"x" * 4096)
        finally:
            transport.close_sockets()

    def test_closing_every_end_detaches_the_transport(self):
        transport = SocketTransport("coordinator_copy")
        transport.pair()
        transport.close_sockets()
        transport.close_sockets()  # idempotent
        assert transport.consumer_socket is None
        # detached again: ships like a never-wired transport
        assert deserialize_plan(serialize_plan(transport)).name == "coordinator_copy"


class TestMessageLayer:
    def test_retired_json_message_frame_raises_naming_the_channel(self):
        producer_sock, _, consumer = _wired_pair("legacy")
        producer_sock.sendall(encode_frame(b'["d",["p1","p2"]]'))
        with pytest.raises(SerializationError, match=r"'legacy'.*lead byte b'\['"):
            consumer.receive_all()

    def test_unknown_tag_on_the_wire_raises(self):
        producer_sock, _, consumer = _wired_pair("odd")
        producer_sock.sendall(encode_frame(b"z"))
        with pytest.raises(SerializationError, match="'odd'.*malformed message frame"):
            consumer.receive_all()

    @pytest.mark.parametrize(
        "frame",
        [b"", b"W", b"W" + bytes(9), b"C\x00"],
        ids=["empty", "bare-watermark", "long-watermark", "close-with-body"],
    )
    def test_malformed_control_frame_raises_naming_the_channel(self, frame):
        producer_sock, _, consumer = _wired_pair("ctl")
        producer_sock.sendall(encode_frame(frame))
        with pytest.raises(SerializationError, match="'ctl'.*malformed message frame"):
            consumer.receive_all()

    @pytest.mark.parametrize(
        "payload", [b"", bytes(32 * 1024), BLOB], ids=["empty", "raw-32KiB", "blob"]
    )
    def test_data_frames_carry_their_bytes_opaquely(self, payload):
        _, producer, consumer = _wired_pair()
        producer.send(payload)
        assert consumer.receive_all() == [payload]
        assert not consumer.closed

    def test_stale_watermark_frame_is_ignored(self):
        producer_sock, _, consumer = _wired_pair()
        for ts in (9.0, 3.0):
            producer_sock.sendall(encode_frame(b"W" + struct.pack("<d", ts)))
        consumer.receive_all()
        assert consumer.watermark == 9.0

    def test_frame_torn_across_drains_is_buffered_until_complete(self):
        producer_sock, _, consumer = _wired_pair()
        wire = encode_frame(b"D" + BLOB)
        producer_sock.sendall(wire[:7])
        assert consumer.receive_all() == []
        producer_sock.sendall(wire[7:])
        assert consumer.receive_all() == [BLOB]


class TestSocketTransportShipping:
    def test_detached_transport_pickles_and_revives(self):
        channel = Channel("c1", transport=SocketTransport("c1"))
        clone = deserialize_plan(serialize_plan(channel))
        assert isinstance(clone.transport, SocketTransport)
        assert clone.transport.name == "c1"
        # the revived transport is fully detached and usable via loopback
        clone.send_block(BLOB, 2)
        assert clone.receive_all() == [BLOB]
        clone.transport.close_sockets()

    def test_attached_transport_refuses_to_pickle(self):
        transport = SocketTransport("c2")
        producer, consumer = socket.socketpair()
        transport.attach_producer(producer)
        try:
            with pytest.raises(SerializationError, match="live sockets"):
                serialize_plan(transport)
        finally:
            producer.close()
            consumer.close()

    def test_double_attach_refused(self):
        transport = SocketTransport("c3")
        a, b = socket.socketpair()
        try:
            transport.attach_producer(a)
            with pytest.raises(ChannelError, match="already has a producer"):
                transport.attach_producer(b)
        finally:
            a.close()
            b.close()


class TestConnectWithRetry:
    def test_unreachable_endpoint_names_host_and_port(self):
        # a port from the discard range with nothing listening: connection
        # refused immediately, so two retries stay fast.
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        listener.close()  # now guaranteed closed -> refused
        with pytest.raises(ChannelError, match=f"127.0.0.1:{port}"):
            connect_with_retry("127.0.0.1", port, retries=2, backoff_s=0.01)

    def test_successful_connect_returns_a_live_socket(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        try:
            sock = connect_with_retry("127.0.0.1", port, retries=3, backoff_s=0.01)
            sock.close()
        finally:
            listener.close()
