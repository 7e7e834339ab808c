"""Unit tests for the event-driven execution core.

Covers the readiness bookkeeping (wake-on-push, wake-on-watermark,
wake-on-close, wake deduplication, no lost wake-ups), the batch dataplane
(``pop_ready`` / ``push_many`` / ``emit_many``), the
single-pass multi-input merge (tie-break and barrier), stuck-graph
diagnostics, and the :class:`StreamTuple` fast-construction path.
"""

import pytest

from repro.spe.channels import Channel
from repro.spe.errors import SchedulingError, StreamOrderError
from repro.spe.instance import SPEInstance
from repro.spe.operators.filter import FilterOperator
from repro.spe.operators.send_receive import ReceiveOperator
from repro.spe.operators.union import UnionOperator
from repro.spe.query import Query
from repro.spe.scheduler import Scheduler
from repro.spe.streams import Stream
from repro.spe.tuples import StreamTuple, owned_values
from tests.optest import blobs, tup, wire


def attach_waker(operator):
    """Install a recording waker on ``operator``; return the wake log."""
    woken = []
    operator._waker = woken.append
    return woken


class TestReadinessBookkeeping:
    def test_wake_on_push(self):
        flt = FilterOperator("f", lambda t: True)
        (stream,), _ = wire(flt)
        woken = attach_waker(flt)
        stream.push(tup(1))
        assert woken == [flt]

    def test_wake_on_watermark(self):
        flt = FilterOperator("f", lambda t: True)
        (stream,), _ = wire(flt)
        woken = attach_waker(flt)
        stream.advance_watermark(5.0)
        assert woken == [flt]

    def test_no_wake_on_stale_watermark(self):
        flt = FilterOperator("f", lambda t: True)
        (stream,), _ = wire(flt)
        stream.advance_watermark(5.0)
        woken = attach_waker(flt)
        stream.advance_watermark(3.0)  # monotone: ignored, no wake
        assert woken == []

    def test_wake_on_close(self):
        flt = FilterOperator("f", lambda t: True)
        (stream,), _ = wire(flt)
        woken = attach_waker(flt)
        stream.close()
        assert woken == [flt]

    def test_wakeups_deduplicated_until_operator_runs(self):
        flt = FilterOperator("f", lambda t: True)
        (stream,), _ = wire(flt)
        woken = attach_waker(flt)
        stream.push(tup(1))
        stream.push(tup(2))
        stream.advance_watermark(2.0)
        assert woken == [flt]  # one enqueue for any number of signals
        flt._queued = False  # the scheduler clears the flag before work()
        stream.push(tup(3))
        assert woken == [flt, flt]  # signal after the clear re-enqueues

    def test_no_lost_wakeup_when_signal_arrives_after_flag_clear(self):
        # The scheduler clears _queued *before* calling work(); a push that
        # lands afterwards must re-enqueue even though work() may already
        # have drained the stream.
        flt = FilterOperator("f", lambda t: True)
        (stream,), (out,) = wire(flt)
        woken = attach_waker(flt)
        stream.push(tup(1))
        assert woken == [flt]
        flt._queued = False
        flt.work()  # drains the stream
        stream.push(tup(2))
        assert woken == [flt, flt]

    def test_channel_wakes_receive_operator(self):
        channel = Channel("c")
        receive = ReceiveOperator("recv", channel)
        wire(receive, n_inputs=0, n_outputs=1)
        woken = attach_waker(receive)
        channel.send_block(*blobs([tup(1)]), 1)
        assert woken == [receive]
        receive._queued = False
        channel.advance_watermark(1.0)
        assert woken == [receive, receive]
        receive._queued = False
        channel.close()
        assert woken == [receive, receive, receive]

    def test_signal_without_scheduler_is_a_noop(self):
        flt = FilterOperator("f", lambda t: True)
        (stream,), _ = wire(flt)
        stream.push(tup(1))  # no waker attached: must not raise
        assert flt._queued is False


class TestBatchDataplane:
    def test_pop_ready_returns_everything_by_default(self):
        stream = Stream("s")
        stream.push_many([tup(1), tup(2), tup(3)])
        assert [t.ts for t in stream.pop_ready()] == [1, 2, 3]
        assert len(stream) == 0

    def test_pop_ready_respects_limit(self):
        stream = Stream("s")
        stream.push_many([tup(1), tup(2), tup(3)])
        assert [t.ts for t in stream.pop_ready(2)] == [1, 2]
        assert [t.ts for t in stream.pop_ready(2)] == [3]
        assert stream.pop_ready(2) == []

    def test_push_many_enforces_order_against_history_and_within_batch(self):
        stream = Stream("s")
        stream.push(tup(5))
        with pytest.raises(StreamOrderError):
            stream.push_many([tup(4)])
        with pytest.raises(StreamOrderError):
            stream.push_many([tup(6), tup(5.5)])

    def test_push_many_wakes_consumer_once(self):
        flt = FilterOperator("f", lambda t: True)
        (stream,), _ = wire(flt)
        woken = attach_waker(flt)
        stream.push_many([tup(1), tup(2), tup(3)])
        assert woken == [flt]


class TestDeterministicMerge:
    """The multi-input merge barrier, asserted on ``work()``."""

    def test_merge_stops_at_the_empty_input_barrier(self):
        union = UnionOperator("u")
        inputs, (out,) = wire(union, n_inputs=3, n_outputs=1)
        inputs[0].push_many([tup(1, s=0), tup(4, s=0), tup(4.0, s=0)])
        inputs[1].push_many([tup(1, s=1), tup(2, s=1)])
        inputs[2].push_many([tup(0, s=2), tup(4, s=2)])
        inputs[0].advance_watermark(5)
        inputs[1].advance_watermark(4)  # empty after drain: blocks ts > 4
        inputs[2].advance_watermark(4)
        union.work()
        # input 1 runs dry at watermark 4: a ts-4 tuple may still arrive on
        # it, so input 0's two ts-4 tuples (lower index) pass and input 2's
        # (higher index) must wait.
        assert [(t.ts, t["s"]) for t in out.drain()] == [
            (0, 2), (1, 0), (1, 1), (2, 1), (4, 0), (4, 0),
        ]
        assert [len(stream) for stream in inputs] == [0, 0, 1]
        assert union.tuples_in == 6

    def test_merge_tie_break_prefers_lower_input_index(self):
        union = UnionOperator("u")
        inputs, outputs = wire(union, n_inputs=2, n_outputs=1)
        inputs[0].push_many([tup(1, s=0), tup(2, s=0)])
        inputs[1].push_many([tup(1, s=1), tup(2, s=1)])
        inputs[0].close()
        inputs[1].close()
        union.work()
        assert [(t.ts, t["s"]) for t in outputs[0].drain()] == [
            (1, 0),
            (1, 1),
            (2, 0),
            (2, 1),
        ]

    def test_merge_blocks_on_empty_lower_index_input_at_watermark_tie(self):
        # An empty lower-index input whose watermark equals the candidate's
        # timestamp may still deliver an equal-timestamp tuple, which would
        # have precedence: the candidate must wait.
        union = UnionOperator("u")
        inputs, outputs = wire(union, n_inputs=2, n_outputs=1)
        inputs[1].push(tup(3, s=1))
        inputs[0].advance_watermark(3)
        inputs[1].advance_watermark(3)
        union.work()
        assert outputs[0].drain() == []
        # A higher-index empty input at the same watermark does NOT block.
        union2 = UnionOperator("u2")
        inputs2, outputs2 = wire(union2, n_inputs=2, n_outputs=1)
        inputs2[0].push(tup(3, s=0))
        inputs2[0].advance_watermark(3)
        inputs2[1].advance_watermark(3)
        union2.work()
        assert [(t.ts, t["s"]) for t in outputs2[0].drain()] == [(3, 0)]


class TestEventScheduler:
    def build_chain(self, tuples):
        query = Query("chain")
        source = query.add_source("source", tuples, batch_size=4)
        flt = query.add_filter("flt", lambda t: True)
        sink = query.add_sink("sink")
        query.connect(source, flt)
        query.connect(flt, sink)
        return query, sink

    def test_runs_to_completion_and_counts_wakeups(self):
        query, sink = self.build_chain([tup(i, x=i) for i in range(20)])
        scheduler = Scheduler(query)
        wakeups = scheduler.run()
        assert sink.count == 20
        assert wakeups == scheduler.wakeups
        assert scheduler.finished

    def test_idle_operators_are_not_woken(self):
        # Two independent subgraphs in one query: a busy chain (many source
        # batches) and a silent one (empty source).  The scheduler must only
        # touch the silent chain for its seed pass and the close propagation.
        query = Query("two_chains")
        busy_source = query.add_source(
            "busy_source", [tup(i, x=i) for i in range(64)], batch_size=4
        )
        busy_sink = query.add_sink("busy_sink")
        query.connect(busy_source, busy_sink)
        idle_source = query.add_source("idle_source", [])
        idle_filter = query.add_filter("idle_filter", lambda t: True)
        idle_sink = query.add_sink("idle_sink")
        query.connect(idle_source, idle_filter)
        query.connect(idle_filter, idle_sink)

        runs = {"idle_sink": 0}
        original_work = idle_sink.work

        def counting_work():
            runs["idle_sink"] += 1
            return original_work()

        idle_sink.work = counting_work
        scheduler = Scheduler(query)
        scheduler.run()
        assert busy_sink.count == 64
        assert idle_sink.count == 0
        # seed wake + the close cascading from the empty source; the busy
        # chain's 16 source batches never touch it.
        assert runs["idle_sink"] <= 2
        assert scheduler.wakeups < 16 * len(query.operators)

    def test_quiescence_detected_incrementally(self):
        query, _ = self.build_chain([tup(1, x=1)])
        scheduler = Scheduler(query)
        assert not scheduler.finished
        scheduler.run()
        assert scheduler.finished
        assert not scheduler._unfinished
        assert not scheduler.has_ready_work

    @staticmethod
    def never_fed(graph):
        """``receive -> sink`` on a channel nobody feeds, added to ``graph``."""
        receive = graph.add_receive("receive", Channel(f"{graph.name}-never-fed"))
        sink = graph.add_sink("sink")
        graph.connect(receive, sink)
        return graph

    def test_stuck_query_names_its_unfinished_operators(self):
        scheduler = Scheduler(self.never_fed(Query("stuck")))
        with pytest.raises(SchedulingError) as excinfo:
            scheduler.run()
        assert str(excinfo.value) == (
            "query 'stuck' made no progress before completion; "
            "unfinished operators: receive, sink"
        )
        assert scheduler.unfinished_operators() == ["receive", "sink"]

    def test_stuck_deployment_names_instances_and_their_operators(self):
        done = SPEInstance("done")
        done.connect(done.add_source("source", [tup(1, x=1)]), done.add_sink("sink"))
        waiting = self.never_fed(SPEInstance("waiting"))
        with pytest.raises(SchedulingError) as excinfo:
            Scheduler(done, waiting).run()
        assert str(excinfo.value) == (
            "queries 'done', 'waiting' made no progress before completion; "
            "unfinished operators: waiting/receive, waiting/sink"
        )

    def test_same_named_operators_are_told_apart_by_instance(self):
        # both instances own an operator named "sink"; only one is stuck.
        done = SPEInstance("done")
        done.connect(done.add_source("source", [tup(1, x=1)]), done.add_sink("sink"))
        waiting = self.never_fed(SPEInstance("waiting"))
        scheduler = Scheduler(done, waiting)
        with pytest.raises(SchedulingError, match="waiting/sink") as excinfo:
            scheduler.run()
        assert "done/sink" not in str(excinfo.value)
        assert scheduler.unfinished_operators() == ["waiting/receive", "waiting/sink"]
        assert done["sink"].count == 1

    def test_max_passes_guard(self):
        query, _ = self.build_chain([tup(i, x=i) for i in range(500)])
        with pytest.raises(SchedulingError):
            Scheduler(query, max_passes=1).run()

    def test_multi_instance_stepwise_driving(self):
        # External drivers may step the scheduler without calling run(); the
        # first step must seed the instances lazily.
        channel = Channel("pipe")
        upstream = SPEInstance("up")
        source = upstream.add_source("source", [tup(i, x=i) for i in range(5)])
        send = upstream.add_send("send", channel)
        upstream.connect(source, send)
        downstream = SPEInstance("down")
        receive = downstream.add_receive("receive", channel)
        sink = downstream.add_sink("sink")
        downstream.connect(receive, sink)

        scheduler = Scheduler(upstream, downstream)
        steps = 0
        while not scheduler.finished:
            assert scheduler.step() or scheduler.finished
            steps += 1
            assert steps < 100
        assert [t["x"] for t in sink.received] == [0, 1, 2, 3, 4]


class TestStreamTupleFastPath:
    def test_owned_takes_over_the_dict(self):
        values = {"x": 1}
        owned = StreamTuple.owned(ts=1.0, values=values)
        assert owned.values is values
        assert owned.ts == 1.0
        assert owned.meta is None
        assert owned.wall == 0.0

    def test_constructor_still_copies(self):
        values = {"x": 1}
        copied = StreamTuple(ts=1.0, values=values)
        assert copied.values == values
        assert copied.values is not values

    def test_derive_copy_false_takes_over_fresh_dict(self):
        base = StreamTuple(ts=1.0, values={"x": 1}, wall=7.0)
        fresh = {"y": 2}
        derived = base.derive(values=fresh, copy=False)
        assert derived.values is fresh
        assert derived.wall == 7.0
        assert derived.meta is None

    def test_derive_default_still_copies(self):
        base = StreamTuple(ts=1.0, values={"x": 1})
        mapping = {"y": 2}
        derived = base.derive(values=mapping)
        assert derived.values == mapping
        assert derived.values is not mapping

    def test_pass_through_aggregate_output_does_not_alias_window_state(self):
        from repro.spe.operators.aggregate import AggregateOperator, WindowSpec

        agg = AggregateOperator(
            "agg", WindowSpec(size=4.0, advance=2.0), lambda window, key: window[-1].values
        )
        (stream,), (out,) = wire(agg)
        first, second = tup(0, v=1), tup(1, v=2)
        stream.push_many([first, second])
        stream.advance_watermark(2.0)  # flushes window [-2, 2); both stay buffered
        agg.work()
        (emitted,) = out.drain()
        emitted["v"] = 99  # mutate downstream: buffered window tuple unaffected
        assert second["v"] == 2
        assert emitted.values is not second.values

    def test_aggregate_on_unordered_stream_falls_back_to_scan(self):
        # Bisect-bounded window slices assume sorted buffers; an unordered
        # input stream (sorted_stream=False, no Sort in front) must fall
        # back to the seed's order-insensitive scan.
        from repro.spe.operators.aggregate import AggregateOperator, WindowSpec
        from repro.spe.streams import Stream

        agg = AggregateOperator(
            "agg", WindowSpec(size=8.0), lambda window, key: {"n": len(window)}
        )
        unordered = Stream("in", enforce_order=False)
        agg.add_input(unordered)
        out = Stream("out")
        agg.add_output(out)
        for ts in (5, 10, 7):  # disorder buffered inside the window state
            unordered.push(tup(ts))
        unordered.close()
        agg.work()
        counts = [t["n"] for t in out.drain()]
        assert counts == [2, 1]  # window [0,8) holds ts 5 and 7; [8,16) holds 10

    def test_pass_through_join_output_does_not_alias_inputs(self):
        from repro.spe.operators.join import JoinOperator

        join = JoinOperator("j", 10.0, lambda l, r: True, lambda l, r: l.values)
        (left, right), (out,) = wire(join, n_inputs=2, n_outputs=1)
        original = tup(1, v=1)
        left.push(original)
        right.push(tup(2, v=2))
        left.close()
        right.close()
        join.work()
        (emitted,) = out.drain()
        emitted["v"] = 99
        assert emitted.values is not original.values
        assert original["v"] == 1

    def test_owned_values_reuses_plain_dicts_only(self):
        plain = {"x": 1}
        assert owned_values(plain) is plain
        from collections import OrderedDict

        ordered = OrderedDict(x=1)
        result = owned_values(ordered)
        assert result == {"x": 1}
        assert type(result) is dict
        assert result is not ordered
