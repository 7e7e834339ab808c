"""Unit tests for the Send/Receive operators and their channel transport."""

import itertools

import pytest

from repro.spe.channels import Channel
from repro.spe.errors import SerializationError
from repro.spe.operators import ReceiveOperator, SendOperator
from repro.spe.operators.sink import SinkOperator
from repro.spe.provenance_api import ProvenanceManager
from repro.spe.streams import Stream
from tests.optest import collect, feed, run_operator, tup, wire


class RecordingManager(ProvenanceManager):
    """Provenance manager that records on_send/on_receive invocations."""

    name = "REC"

    def __init__(self):
        self.sent = []
        self.received = []

    def on_send(self, tup):
        self.sent.append(tup)
        return {"marker": len(self.sent)}

    def on_receive(self, tup, payload):
        self.received.append((tup, payload))


class TestSendOperator:
    def test_serialises_every_tuple_to_the_channel(self):
        channel = Channel("c")
        send = SendOperator("send", channel)
        (inp,), _ = wire(send, n_outputs=0)
        feed(inp, [tup(1, x=1), tup(2, x=2)], close=True)
        run_operator(send)
        assert channel.tuples_sent == 2
        assert channel.closed

    def test_forwards_watermark_to_channel(self):
        channel = Channel("c")
        send = SendOperator("send", channel)
        (inp,), _ = wire(send, n_outputs=0)
        feed(inp, [tup(1, x=1)], watermark=9)
        run_operator(send)
        assert channel.watermark == 9
        assert not channel.closed

    def test_consults_provenance_manager(self):
        channel = Channel("c")
        send = SendOperator("send", channel)
        manager = RecordingManager()
        send.set_provenance(manager)
        (inp,), _ = wire(send, n_outputs=0)
        feed(inp, [tup(1, x=1)], close=True)
        run_operator(send)
        assert len(manager.sent) == 1


class TestReceiveOperator:
    def test_rebuilds_tuples_from_channel(self):
        channel = Channel("c")
        send = SendOperator("send", channel)
        (send_in,), _ = wire(send, n_outputs=0)
        feed(send_in, [tup(1, x=1), tup(2, x=2)], close=True)
        run_operator(send)

        receive = ReceiveOperator("receive", channel)
        out = Stream("out")
        receive.add_output(out)
        run_operator(receive)
        restored = collect(out)
        assert [t["x"] for t in restored] == [1, 2]
        assert out.closed
        assert receive.finished

    def test_restored_tuples_are_new_objects(self):
        channel = Channel("c")
        send = SendOperator("send", channel)
        (send_in,), _ = wire(send, n_outputs=0)
        original = tup(1, x=1)
        feed(send_in, [original], close=True)
        run_operator(send)

        receive = ReceiveOperator("receive", channel)
        out = Stream("out")
        receive.add_output(out)
        run_operator(receive)
        assert collect(out)[0] is not original

    def test_payload_round_trip_to_provenance_manager(self):
        channel = Channel("c")
        send = SendOperator("send", channel)
        sender_manager = RecordingManager()
        send.set_provenance(sender_manager)
        (send_in,), _ = wire(send, n_outputs=0)
        feed(send_in, [tup(1, x=1)], close=True)
        run_operator(send)

        receive = ReceiveOperator("receive", channel)
        receiver_manager = RecordingManager()
        receive.set_provenance(receiver_manager)
        out = Stream("out")
        receive.add_output(out)
        run_operator(receive)
        assert receiver_manager.received[0][1] == {"marker": 1}

    def test_watermark_propagates_before_close(self):
        channel = Channel("c")
        channel.advance_watermark(7)
        receive = ReceiveOperator("receive", channel)
        out = Stream("out")
        receive.add_output(out)
        receive.work()
        assert out.watermark == 7
        assert not out.closed

    def test_wall_clock_survives_the_boundary(self):
        channel = Channel("c")
        send = SendOperator("send", channel)
        (send_in,), _ = wire(send, n_outputs=0)
        original = tup(1, x=1)
        original.wall = 123.0
        feed(send_in, [original], close=True)
        run_operator(send)

        receive = ReceiveOperator("receive", channel)
        out = Stream("out")
        receive.add_output(out)
        run_operator(receive)
        assert collect(out)[0].wall == 123.0

    def test_a_send_standing_in_for_a_sink_measures_what_the_sink_would(self):
        def stepping_clock():
            ticks = itertools.count(100)
            return lambda: float(next(ticks))

        batch = [tup(i, x=i) for i in range(7)]
        for tup_ in batch:
            tup_.wall = float(tup_.ts) if tup_.ts % 3 else 0.0  # some unstamped
        sink = SinkOperator("sink", wall_clock=stepping_clock())
        send = SendOperator(
            "send", Channel("c"), ship_provenance=False, latency_clock=stepping_clock()
        )
        sink.process_batch(batch)
        send.process_batch(batch)
        assert send.latencies == sink.latencies
        assert len(send.latencies) == 4
        # a plain Send measures nothing.
        plain = SendOperator("plain", Channel("d"))
        plain.process_batch(batch)
        assert plain.latencies == []


class EmptyPayloadManager(RecordingManager):
    """Manager whose tuples carry nothing across the boundary."""

    def on_send(self, tup):
        self.sent.append(tup)
        return {}


def ship(manager=None, ship_provenance=True, tuples=None):
    """Send ``tuples`` over a fresh channel and return the channel."""
    channel = Channel("c")
    send = SendOperator("send", channel, ship_provenance=ship_provenance)
    if manager is not None:
        send.set_provenance(manager)
    (send_in,), _ = wire(send, n_outputs=0)
    feed(send_in, tuples or [tup(1, x=1), tup(2, x=2)], close=True)
    run_operator(send)
    return channel


def receive(channel, manager):
    """Drain ``channel`` through a Receive operator; return the restored tuples."""
    operator = ReceiveOperator("receive", channel)
    operator.set_provenance(manager)
    out = Stream("out")
    operator.add_output(out)
    run_operator(operator)
    assert operator.finished
    return collect(out)


class TestPayloadReattachment:
    """The Receive decodes and re-attaches provenance payloads."""

    def test_payloads_reach_the_manager(self):
        channel = ship(RecordingManager())
        manager = RecordingManager()
        restored = receive(channel, manager)
        assert [t["x"] for t in restored] == [1, 2]
        assert [payload for _, payload in manager.received] == [
            {"marker": 1},
            {"marker": 2},
        ]
        assert [t for t, _ in manager.received] == restored

    def test_unshipped_provenance_never_calls_on_receive(self):
        sender = RecordingManager()
        channel = ship(sender, ship_provenance=False)
        assert sender.sent == []
        manager = RecordingManager()
        restored = receive(channel, manager)
        assert [t["x"] for t in restored] == [1, 2]
        assert manager.received == []
        assert all(t.meta is None for t in restored)

    def test_empty_payloads_never_call_on_receive(self):
        channel = ship(EmptyPayloadManager())
        manager = RecordingManager()
        receive(channel, manager)
        assert manager.received == []

    def test_unshipped_batch_spends_one_byte_on_payloads(self):
        batch = [tup(float(i), x=i) for i in range(50)]
        unshipped = ship(ship_provenance=False, tuples=batch)
        empty = ship(EmptyPayloadManager(), tuples=batch)
        assert unshipped.bytes_sent == empty.bytes_sent

    def test_non_string_key_fails_naming_channel_and_key(self):
        channel = Channel("c")
        send = SendOperator("send", channel)
        (send_in,), _ = wire(send, n_outputs=0)
        bad = tup(1, x=1)
        bad.values = {7: "x"}
        feed(send_in, [bad], close=True)
        with pytest.raises(SerializationError, match=r"'c'.*dict key 7 of type int"):
            run_operator(send)
