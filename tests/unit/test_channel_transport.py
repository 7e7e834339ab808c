"""Unit tests of the channel transport interface.

The :class:`~repro.spe.channels.Channel` API is transport-agnostic: the
in-memory deque and the socket transport must be observably identical to
the Send/Receive operators.  The contract is ``send_block`` /
``advance_watermark`` / ``close`` on the producer side and ``receive_all``
on the consumer side, over opaque ``bytes`` batch blobs.  A detached
:class:`SocketTransport` (a lazily created socket pair) also works with
producer and consumer in the *same* process, which is what these tests
exploit to exercise the wire protocol without forking.
"""

from __future__ import annotations

import select

import pytest

from repro.spe.channels import Channel, InMemoryTransport
from repro.spe.codec import BinaryChannelDecoder
from repro.spe.errors import ChannelError
from repro.spe.operators.send_receive import ReceiveOperator, SendOperator
from repro.spe.sockets import SocketTransport
from repro.spe.streams import Stream
from repro.spe.tuples import FINAL_WATERMARK
from tests.optest import blobs, collect, feed, run_operator, tup, wire

TRANSPORTS = (InMemoryTransport, SocketTransport)

#: three consecutive blobs of one channel: 2, 1 and 3 tuples.
BATCHES = (
    [tup(1.0, v=1), tup(2.0, v=2)],
    [tup(3.0, v=3)],
    [tup(4.0, v=4), tup(5.0, v=5), tup(6.0, v=6)],
)


@pytest.fixture(params=TRANSPORTS, ids=lambda cls: cls.__name__)
def channel(request):
    channel = Channel("c", transport=request.param())
    yield channel
    if isinstance(channel.transport, SocketTransport):
        channel.transport.close_sockets()


class TestTransportContract:
    def test_send_block_then_receive_all_is_fifo(self, channel):
        sent = blobs(*BATCHES)
        for blob, batch in zip(sent, BATCHES):
            channel.send_block(blob, len(batch))
        assert channel.receive_all() == sent
        assert channel.receive_all() == []
        assert len(channel) == 0

    def test_watermark_is_monotone(self, channel):
        channel.advance_watermark(5.0)
        channel.advance_watermark(3.0)
        channel.receive_all()  # cross-process views refresh on drains
        assert channel.watermark == 5.0
        channel.advance_watermark(7.0)
        channel.receive_all()
        assert channel.watermark == 7.0

    def test_close_refuses_the_next_send_and_still_drains(self, channel):
        first, second = blobs(BATCHES[0], BATCHES[1])
        channel.send_block(first, 2)
        channel.close()
        with pytest.raises(ChannelError, match="'c' is closed"):
            channel.send_block(second, 1)
        assert channel.receive_all() == [first]
        assert channel.closed
        assert channel.watermark == FINAL_WATERMARK
        assert channel.counters() == (2, len(first))

    def test_counters_account_tuples_and_wire_bytes(self, channel):
        sent = blobs(*BATCHES)
        for blob, batch in zip(sent, BATCHES):
            channel.send_block(blob, len(batch))
        assert channel.counters() == (6, sum(map(len, sent)))
        assert (channel.tuples_sent, channel.bytes_sent) == channel.counters()

    def test_send_receive_round_trip(self, channel):
        for blob, batch in zip(blobs(*BATCHES), BATCHES):
            channel.send_block(blob, len(batch))
        decoder = BinaryChannelDecoder("c")
        received = [
            (t.ts, t.values)
            for blob in channel.receive_all()
            for t in decoder.decode_batch(blob)[0]
        ]
        assert received == [(t.ts, t.values) for batch in BATCHES for t in batch]

    def test_fresh_channel_is_open_and_empty(self, channel):
        assert channel.receive_all() == []
        assert not channel.closed
        assert channel.watermark == float("-inf")
        assert channel.counters() == (0, 0)

    def test_close_finalises_the_watermark(self, channel):
        channel.advance_watermark(5.0)
        channel.close()
        channel.advance_watermark(9.0)  # no-op: nothing follows the close
        assert channel.receive_all() == []
        assert channel.closed
        assert channel.watermark == FINAL_WATERMARK

    def test_len_counts_undelivered_payloads(self, channel):
        for blob, batch in zip(blobs(*BATCHES), BATCHES):
            channel.send_block(blob, len(batch))
        # cross-process views only buffer what a drain pulled off the wire
        assert len(channel) == (len(BATCHES) if channel.transport.local else 0)
        assert len(channel.receive_all()) == len(BATCHES)
        assert len(channel) == 0

    def test_watermarks_interleave_with_blobs_in_order(self, channel):
        sent = blobs(*BATCHES)
        channel.send_block(sent[0], 2)
        channel.advance_watermark(2.0)
        channel.send_block(sent[1], 1)
        channel.advance_watermark(3.0)
        channel.send_block(sent[2], 3)
        assert channel.receive_all() == sent
        assert channel.watermark == 3.0
        assert not channel.closed

    def test_send_receive_operators_through_the_transport(self, channel):
        send = SendOperator("send", channel)
        (send_in,), _ = wire(send, n_outputs=0)
        feed(send_in, [tup(1.0, v=1), tup(2.0, v=2)], close=True)
        run_operator(send)

        receive = ReceiveOperator("receive", channel)
        out = Stream("out")
        receive.add_output(out)
        run_operator(receive)
        assert [t["v"] for t in collect(out)] == [1, 2]
        assert out.closed
        assert receive.finished


@pytest.fixture()
def socket_transport():
    transport = SocketTransport("c")
    transport.pair()
    yield transport
    transport.close_sockets()


def readable(sock, timeout):
    return select.select([sock], [], [], timeout)[0] == [sock]


class TestSocketTransportProtocol:
    def test_state_reads_do_not_steal_socket_messages(self, socket_transport):
        # Property reads must stay side-effect free so another copy of the
        # object (the coordinator's) can inspect it without stealing the
        # consumer's messages.
        channel = Channel("c", transport=socket_transport)
        (blob,) = blobs(BATCHES[0])
        channel.send_block(blob, 2)
        channel.advance_watermark(4.0)
        assert len(channel) == 0  # nothing drained into the local buffer yet
        # ... and the messages still wait on the consumer socket
        assert readable(socket_transport.consumer_socket, 1.0)
        assert channel.receive_all() == [blob]
        assert channel.watermark == 4.0

    def test_consumer_end_is_waitable(self, socket_transport):
        channel = Channel("c", transport=socket_transport)
        assert not readable(socket_transport.consumer_socket, 0.0)
        channel.send_block(*blobs(BATCHES[1]), 1)
        assert readable(socket_transport.consumer_socket, 1.0)

    def test_no_consumer_signal_for_cross_process_transports(self, socket_transport):
        signals = []

        class FakeConsumer:
            def signal(self):
                signals.append(True)

        (blob,) = blobs(BATCHES[1])
        local = Channel("local")
        local.consumer = FakeConsumer()
        local.send_block(blob, 1)
        assert signals == [True]

        remote = Channel("remote", transport=socket_transport)
        remote.consumer = FakeConsumer()
        remote.send_block(blob, 1)
        assert signals == [True]  # unchanged: the socket is the wake-up signal


class TestChannelHooks:
    def test_local_consumer_is_signalled_on_every_producer_mutation(self):
        signals = []

        class FakeConsumer:
            def signal(self):
                signals.append(True)

        channel = Channel("c")
        channel.consumer = FakeConsumer()
        channel.send_block(*blobs(BATCHES[1]), 1)
        channel.advance_watermark(3.0)
        channel.advance_watermark(2.0)  # did not move: nothing to wake for
        channel.close()
        assert len(signals) == 3

    def test_tracer_sees_sends_watermark_moves_close_and_non_empty_drains(self):
        events = []

        class FakeTracer:
            def event(self, kind, name, **fields):
                events.append((kind, name, fields))

        channel = Channel("c")
        channel.tracer = FakeTracer()
        channel.send_block(*blobs(BATCHES[0]), 2)
        channel.advance_watermark(2.0)
        channel.advance_watermark(1.0)
        channel.receive_all()
        channel.receive_all()
        channel.close()
        assert events == [
            ("channel.send", "c", {"count": 2}),
            ("channel.watermark", "c", {}),
            ("channel.recv", "c", {"count": 1}),
            ("channel.close", "c", {}),
        ]
