"""Unit tests for the Ariadne-style baseline (BL) provenance technique."""

import pytest

from repro.core.baseline import (
    AriadneBaselineProvenance,
    BaselineAnnotation,
    BaselineProvenanceResolver,
)
from repro.spe.streams import Stream
from tests.optest import collect, feed, run_operator, tup


@pytest.fixture
def manager():
    return AriadneBaselineProvenance(node_id="n1")


class TestAnnotations:
    def test_source_gets_singleton_annotation_and_is_stored(self, manager):
        source = tup(1, x=1)
        manager.on_source_output(source)
        annotation = source.meta
        assert isinstance(annotation, BaselineAnnotation)
        assert annotation.source_ids == (annotation.tuple_id,)
        assert manager.source_store[annotation.tuple_id] is source
        assert manager.retained_items() == 1

    def test_map_copies_the_annotation(self, manager):
        source, out = tup(1), tup(1)
        manager.on_source_output(source)
        manager.on_map_output(out, source)
        assert out.meta.source_ids == source.meta.source_ids
        assert out.meta.tuple_id != source.meta.tuple_id

    def test_join_concatenates_annotations(self, manager):
        left, right, out = tup(1), tup(2), tup(2)
        manager.on_source_output(left)
        manager.on_source_output(right)
        manager.on_join_output(out, right, left)
        assert set(out.meta.source_ids) == {
            left.meta.tuple_id,
            right.meta.tuple_id,
        }

    def test_aggregate_concatenates_the_window(self, manager):
        window = [tup(ts) for ts in range(5)]
        for window_tuple in window:
            manager.on_source_output(window_tuple)
        out = tup(0)
        manager.on_aggregate_output(out, window)
        assert len(out.meta.source_ids) == 5

    def test_annotation_grows_with_the_derivation(self, manager):
        # The structural downside of the baseline: annotations are
        # variable-length and grow with the number of contributing sources.
        window = [tup(ts) for ts in range(10)]
        for window_tuple in window:
            manager.on_source_output(window_tuple)
        first = tup(0)
        manager.on_aggregate_output(first, window)
        second = tup(0)
        manager.on_aggregate_output(second, [first, first])
        assert len(second.meta.source_ids) == 20

    def test_every_source_is_retained_even_if_unused(self, manager):
        for ts in range(50):
            manager.on_source_output(tup(ts))
        assert manager.retained_items() == 50
        assert manager.retained_bytes() > 0


class TestUnfold:
    def test_unfold_returns_stored_sources(self, manager):
        window = [tup(ts, v=ts) for ts in range(4)]
        for window_tuple in window:
            manager.on_source_output(window_tuple)
        out = tup(0)
        manager.on_aggregate_output(out, window)
        assert manager.unfold(out) == window

    def test_unfold_counts_missing_sources(self, manager):
        orphan = tup(1)
        orphan.meta = BaselineAnnotation("n1:999", ("n1:999",))
        assert manager.unfold(orphan) == []
        assert manager.missing_sources == 1

    def test_unfold_records_retrieval_times(self, manager):
        source = tup(1)
        manager.on_source_output(source)
        manager.unfold(source)
        assert len(manager.traversal_times_s) == 1


class TestProcessBoundary:
    def test_round_trip_of_source_tuple_populates_remote_store(self):
        sender = AriadneBaselineProvenance(node_id="edge")
        receiver = AriadneBaselineProvenance(node_id="cloud")
        source = tup(1, x=42)
        sender.on_source_output(source)
        payload = sender.on_send(source)
        received = tup(1, x=42)
        receiver.on_receive(received, payload)
        assert receiver.source_store[source.meta.tuple_id] is received

    def test_round_trip_of_derived_tuple_keeps_annotation(self):
        sender = AriadneBaselineProvenance(node_id="edge")
        receiver = AriadneBaselineProvenance(node_id="cloud")
        window = [tup(ts) for ts in range(3)]
        for window_tuple in window:
            sender.on_source_output(window_tuple)
        out = tup(0)
        sender.on_aggregate_output(out, window)
        payload = sender.on_send(out)
        assert payload["is_source"] is False
        received = tup(0)
        receiver.on_receive(received, payload)
        assert len(received.meta.source_ids) == 3
        # derived tuples are never stored as sources
        assert receiver.retained_items() == 0


class TestResolver:
    def _unfolded_source_ts(self, result):
        return sorted(t["ts_o"] for t in result)

    def test_resolves_sink_tuples_against_shipped_sources(self):
        manager = AriadneBaselineProvenance(node_id="prov")
        resolver = BaselineProvenanceResolver("resolver", retention=100)
        resolver.set_provenance(manager)
        sources_in, sinks_in, out = Stream("sources"), Stream("sinks"), Stream("out")
        resolver.add_input(sources_in)
        resolver.add_input(sinks_in)
        resolver.add_output(out)

        # ship three source tuples (the Receive operator would normally call
        # on_receive; emulate that here).
        shipped = []
        sender = AriadneBaselineProvenance(node_id="edge")
        for ts in (1, 2, 3):
            original = tup(ts, v=ts)
            sender.on_source_output(original)
            copy = tup(ts, v=ts)
            manager.on_receive(copy, sender.on_send(original))
            shipped.append(copy)
        feed(sources_in, shipped, close=True)

        # one annotated sink tuple referencing sources 1 and 3.
        sink_tuple = tup(3, alert=1)
        sender.on_aggregate_output(sink_tuple, [])
        annotated = tup(3, alert=1)
        manager.on_receive(
            annotated,
            {
                "id": "edge:99",
                "sources": [shipped[0].meta.source_ids[0], shipped[2].meta.source_ids[0]],
                "is_source": False,
            },
        )
        feed(sinks_in, [annotated], close=True)

        run_operator(resolver)
        result = [row for block in collect(out) for row in block.rows()]
        assert self._unfolded_source_ts(result) == [1, 3]
        assert all(t["sink_alert"] == 1 for t in result)

    def test_sink_tuples_wait_for_the_watermark(self):
        manager = AriadneBaselineProvenance(node_id="prov")
        resolver = BaselineProvenanceResolver("resolver", retention=100)
        resolver.set_provenance(manager)
        sources_in, sinks_in, out = Stream("sources"), Stream("sinks"), Stream("out")
        resolver.add_input(sources_in)
        resolver.add_input(sinks_in)
        resolver.add_output(out)

        annotated = tup(10, alert=1)
        annotated.meta = BaselineAnnotation("edge:5", ("edge:1",))
        feed(sinks_in, [annotated], watermark=50)
        feed(sources_in, [], watermark=50)
        run_operator(resolver)
        assert resolver.buffered_tuples() == 1
        assert collect(out) == []

        feed(sources_in, [], watermark=200)
        feed(sinks_in, [], watermark=200)
        run_operator(resolver)
        assert resolver.buffered_tuples() == 0
