"""Unit tests for the Stream FIFO and its watermark semantics."""

import pytest

from repro.spe.errors import StreamOrderError
from repro.spe.streams import Stream
from repro.spe.tuples import StreamTuple


def tup(ts, **values):
    return StreamTuple(ts=ts, values=values)


class TestStreamBasics:
    def test_push_pop_ready_fifo_order(self):
        stream = Stream("s")
        stream.push(tup(1))
        stream.push(tup(2))
        assert [t.ts for t in stream.pop_ready()] == [1, 2]
        assert stream.pop_ready() == []
        assert len(stream) == 0

    def test_len_and_iter(self):
        stream = Stream("s")
        for ts in (1, 2, 3):
            stream.push(tup(ts))
        assert len(stream) == 3
        assert [t.ts for t in stream] == [1, 2, 3]

    def test_drain_empties_the_stream(self):
        stream = Stream("s")
        stream.push(tup(1))
        stream.push(tup(2))
        drained = stream.drain()
        assert [t.ts for t in drained] == [1, 2]
        assert len(stream) == 0

    def test_bool_is_always_true(self):
        # A stream must not be falsy when empty (it is a channel, not a list).
        assert bool(Stream("s"))


class TestTimestampOrdering:
    def test_out_of_order_push_raises(self):
        stream = Stream("s")
        stream.push(tup(5))
        with pytest.raises(StreamOrderError):
            stream.push(tup(4))

    def test_equal_timestamps_are_allowed(self):
        stream = Stream("s")
        stream.push(tup(5))
        stream.push(tup(5))
        assert len(stream) == 2

    def test_order_enforcement_can_be_disabled(self):
        stream = Stream("s", enforce_order=False)
        stream.push(tup(5))
        stream.push(tup(4))
        assert [t.ts for t in stream] == [5, 4]


class TestWatermarks:
    def test_initial_watermark_is_minus_infinity(self):
        assert Stream("s").watermark == float("-inf")

    def test_watermark_is_monotone(self):
        stream = Stream("s")
        stream.advance_watermark(10)
        stream.advance_watermark(5)
        assert stream.watermark == 10

    def test_close_sets_infinite_watermark(self):
        stream = Stream("s")
        stream.close()
        assert stream.closed
        assert stream.watermark == float("inf")

    def test_push_after_close_raises(self):
        stream = Stream("s")
        stream.close()
        with pytest.raises(StreamOrderError):
            stream.push(tup(1))
