"""Unit tests for the Query DAG builder, the Scheduler and SPE instances."""

import pytest

from repro.spe.channels import Channel
from repro.spe.errors import QueryValidationError, SchedulingError
from repro.spe.instance import SPEInstance, assign_ordering_values
from repro.spe.operators import WindowSpec
from repro.spe.query import Query
from repro.spe.scheduler import Scheduler
from tests.optest import tup


def simple_query(tuples):
    query = Query("simple")
    source = query.add_source("source", tuples)
    double = query.add_map("double", lambda t: t.derive(values={"x": t["x"] * 2}))
    sink = query.add_sink("sink")
    query.connect(source, double)
    query.connect(double, sink)
    return query, sink


class TestQueryConstruction:
    def test_duplicate_operator_names_rejected(self):
        query = Query("q")
        query.add_filter("f", lambda t: True)
        with pytest.raises(QueryValidationError):
            query.add_filter("f", lambda t: True)

    def test_lookup_by_name(self):
        query = Query("q")
        op = query.add_filter("f", lambda t: True)
        assert query["f"] is op
        assert "f" in query
        assert "other" not in query

    def test_connect_requires_registered_operators(self):
        query = Query("q")
        inside = query.add_filter("f", lambda t: True)
        other = Query("other").add_filter("g", lambda t: True)
        with pytest.raises(QueryValidationError):
            query.connect(inside, other)

    def test_topological_order_respects_edges(self):
        query, _ = simple_query([])
        order = [op.name for op in query.topological_order()]
        assert order.index("source") < order.index("double") < order.index("sink")

    def test_cycle_detection(self):
        query = Query("q")
        a = query.add_filter("a", lambda t: True)
        b = query.add_filter("b", lambda t: True)
        query.connect(a, b)
        query.connect(b, a)
        with pytest.raises(QueryValidationError):
            query.topological_order()

    def test_validate_rejects_missing_inputs(self):
        query = Query("q")
        query.add_filter("dangling", lambda t: True)
        with pytest.raises(QueryValidationError):
            query.validate()

    def test_validate_rejects_missing_outputs(self):
        query = Query("q")
        source = query.add_source("source", [])
        filter_op = query.add_filter("f", lambda t: True)
        query.connect(source, filter_op)
        with pytest.raises(QueryValidationError):
            query.validate()

    def test_disconnect_removes_the_stream(self):
        query, sink = simple_query([])
        stream = sink.inputs[0]
        producer, consumer = query.disconnect(stream)
        assert producer.name == "double"
        assert consumer is sink
        assert stream not in query.streams
        assert not sink.inputs

    def test_disconnect_unknown_stream_rejected(self):
        query, _ = simple_query([])
        from repro.spe.streams import Stream

        with pytest.raises(QueryValidationError):
            query.disconnect(Stream("foreign"))

    def test_producer_of(self):
        query, sink = simple_query([])
        assert query.producer_of(sink.inputs[0]).name == "double"

    def test_sources_and_sinks_accessors(self):
        query, sink = simple_query([])
        assert [op.name for op in query.sources()] == ["source"]
        assert query.sinks() == [sink]

    def test_buffered_tuples_counts_streams_and_state(self):
        query = Query("q")
        source = query.add_source(
            "source", [tup(1, x=1), tup(2, x=2), tup(3, x=3)], batch_size=2
        )
        agg = query.add_aggregate(
            "agg", WindowSpec(size=100), lambda window, key: {"n": len(window)}
        )
        sink = query.add_sink("sink")
        query.connect(source, agg)
        query.connect(agg, sink)
        source.work()
        assert query.buffered_tuples() == 2  # queued in the source's output stream
        agg.work()
        assert query.buffered_tuples() == 2  # now held in the aggregate's window state


class TestSplice:
    """``Query.splice`` re-routes a stream and keeps both of its ports."""

    @staticmethod
    def router_into_join(rows):
        # Router port 0 (evens) feeds the Join's left input, port 1 (odds)
        # its right one, over a named stream without the order check.
        query = Query("splice")
        source = query.add_source("source", rows)
        router = query.add_router(
            "router", [lambda t: t["x"] % 2 == 0, lambda t: t["x"] % 2 == 1]
        )
        join = query.add_join(
            "join", 2.0, lambda left, right: True,
            lambda left, right: {"even": left["x"], "odd": right["x"]},
        )
        sink = query.add_sink("sink")
        query.connect(source, router)
        query.connect(router, join)
        query.connect(router, join, name="odds", sorted_stream=False)
        query.connect(join, sink)
        return query, router, join, sink

    def test_router_port_join_side_name_and_order_flag_survive(self):
        rows = [tup(float(i), x=i) for i in range(8)]
        plain, _, _, plain_sink = self.router_into_join(rows)
        Scheduler(plain).run()

        query, router, join, sink = self.router_into_join(rows)
        evens, odds = router.outputs
        relay = query.add_map("relay", lambda t: t)
        query.splice(odds, relay, relay)
        upstream = router.outputs[1]
        assert router.outputs[0] is evens and upstream is not odds
        assert relay.inputs == [upstream]
        assert (upstream.name, upstream.enforce_order) == ("odds", False)
        assert join.inputs[0] is evens
        assert query.producer_of(join.inputs[1]) is relay
        assert odds not in query.streams
        Scheduler(query).run()
        assert [t.values for t in sink.received] == [t.values for t in plain_sink.received]
        assert sink.received and all(t["even"] % 2 == 0 for t in sink.received)

    def test_no_tail_leaves_the_consumer_unfed(self):
        query, sink = simple_query([])
        stop = query.add_sink("stop")
        query.splice(sink.inputs[0], stop, None)
        assert not sink.inputs
        assert query.producer_of(stop.inputs[0]).name == "double"


class TestScheduler:
    def test_runs_query_to_completion(self):
        query, sink = simple_query([tup(1, x=1), tup(2, x=2), tup(3, x=3)])
        Scheduler(query).run()
        assert [t["x"] for t in sink.received] == [2, 4, 6]

    def test_reports_wakeup_count(self):
        query, _ = simple_query([tup(i, x=i) for i in range(100)])
        scheduler = Scheduler(query)
        wakeups = scheduler.run()
        assert wakeups == scheduler.wakeups
        assert wakeups >= 1

    def test_finished_property(self):
        query, _ = simple_query([tup(1, x=1)])
        scheduler = Scheduler(query)
        assert not scheduler.finished
        scheduler.run()
        assert scheduler.finished

    def test_pass_callback_invoked(self):
        calls = []
        query, _ = simple_query([tup(i, x=i) for i in range(50)])
        scheduler = Scheduler(
            query, pass_callback=calls.append, callback_every=1
        )
        scheduler.run()
        assert calls  # invoked at least once

    def test_max_passes_guard(self):
        query, _ = simple_query([tup(i, x=i) for i in range(500)])
        scheduler = Scheduler(query, max_passes=1)
        with pytest.raises(SchedulingError):
            scheduler.run()

    def test_stuck_receive_raises_instead_of_spinning(self):
        query = Query("stuck")
        channel = Channel("never-fed")
        receive = query.add_receive("receive", channel)
        sink = query.add_sink("sink")
        query.connect(receive, sink)
        with pytest.raises(SchedulingError):
            Scheduler(query, max_passes=10).run()


class TestSPEInstanceClassification:
    def _build(self, with_receive, with_send):
        instance = SPEInstance("node")
        channel_in = Channel("in")
        channel_out = Channel("out")
        if with_receive:
            entry = instance.add_receive("receive", channel_in)
        else:
            entry = instance.add_source("source", [])
        if with_send:
            exit_op = instance.add_send("send", channel_out)
        else:
            exit_op = instance.add_sink("sink")
        instance.connect(entry, exit_op)
        return instance

    def test_source_instance(self):
        instance = self._build(with_receive=False, with_send=True)
        assert instance.is_source_instance
        assert not instance.is_sink_instance
        assert not instance.is_intermediate_instance

    def test_sink_instance(self):
        instance = self._build(with_receive=True, with_send=False)
        assert instance.is_sink_instance
        assert not instance.is_source_instance

    def test_intermediate_instance(self):
        instance = self._build(with_receive=True, with_send=True)
        assert instance.is_intermediate_instance

    def test_channel_accessors(self):
        instance = self._build(with_receive=True, with_send=True)
        assert len(instance.incoming_channels()) == 1
        assert len(instance.outgoing_channels()) == 1


class TestMultiInstanceScheduler:
    def _two_instance_pipeline(self, values):
        channel = Channel("pipe")
        upstream = SPEInstance("upstream")
        source = upstream.add_source("source", [tup(i, x=v) for i, v in enumerate(values)])
        send = upstream.add_send("send", channel)
        upstream.connect(source, send)

        downstream = SPEInstance("downstream")
        receive = downstream.add_receive("receive", channel)
        sink = downstream.add_sink("sink")
        downstream.connect(receive, sink)
        return [upstream, downstream], sink

    def test_runs_instances_to_completion(self):
        instances, sink = self._two_instance_pipeline([1, 2, 3])
        scheduler = Scheduler(*instances)
        scheduler.run()
        assert [t["x"] for t in sink.received] == [1, 2, 3]
        assert scheduler.finished

    def test_ordering_values(self):
        instances, _ = self._two_instance_pipeline([1])
        assign_ordering_values(instances)
        assert instances[0].ordering_value == 0
        assert instances[1].ordering_value == 1

    def test_traffic_statistics(self):
        instances, _ = self._two_instance_pipeline([1, 2])
        Scheduler(*instances).run()
        (channel,) = instances[0].outgoing_channels()
        assert channel.tuples_sent == 2
        assert channel.bytes_sent > 0

    def test_requires_at_least_one_instance(self):
        with pytest.raises(SchedulingError):
            Scheduler()
