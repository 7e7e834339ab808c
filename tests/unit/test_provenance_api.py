"""Unit tests for the high-level provenance API (modes, capture, collector)."""

import pytest

from repro.core.baseline import AriadneBaselineProvenance
from repro.core.instrumentation import GeneaLogProvenance
from repro.core.provenance import (
    ProvenanceCollector,
    ProvenanceMode,
    ProvenanceRecord,
    attach_intra_process_provenance,
    create_manager,
)
from repro.core.unfolder import SUOperator
from repro.spe.provenance_api import NoProvenance, ProvenanceManager
from repro.spe.query import Query
from repro.spe.scheduler import Scheduler
from repro.spe.tuples import UnfoldedBlock
from tests.optest import tup


class TestProvenanceMode:
    def test_labels_match_the_paper(self):
        assert ProvenanceMode.NONE.label == "NP"
        assert ProvenanceMode.GENEALOG.label == "GL"
        assert ProvenanceMode.BASELINE.label == "BL"

    @pytest.mark.parametrize(
        "label,expected",
        [
            ("NP", ProvenanceMode.NONE),
            ("gl", ProvenanceMode.GENEALOG),
            ("Baseline", ProvenanceMode.BASELINE),
            ("GENEALOG", ProvenanceMode.GENEALOG),
        ],
    )
    def test_from_label(self, label, expected):
        assert ProvenanceMode.from_label(label) is expected

    def test_from_label_rejects_unknown(self):
        with pytest.raises(ValueError):
            ProvenanceMode.from_label("magic")

    def test_create_manager(self):
        assert isinstance(create_manager(ProvenanceMode.NONE), NoProvenance)
        assert isinstance(create_manager(ProvenanceMode.GENEALOG), GeneaLogProvenance)
        assert isinstance(create_manager(ProvenanceMode.BASELINE), AriadneBaselineProvenance)

    def test_create_manager_propagates_node_id(self):
        manager = create_manager(ProvenanceMode.GENEALOG, node_id="edge-3")
        assert manager.node_id == "edge-3"


class TestNoProvenanceManager:
    def test_all_hooks_are_no_ops(self):
        manager = ProvenanceManager()
        tuple_a, tuple_b = tup(1), tup(2)
        manager.on_source_output(tuple_a)
        manager.on_map_output(tuple_b, tuple_a)
        manager.on_join_output(tuple_b, tuple_b, tuple_a)
        manager.on_aggregate_output(tuple_b, [tuple_a])
        assert tuple_a.meta is None and tuple_b.meta is None
        assert manager.on_send(tuple_a) == {}
        assert manager.unfold(tuple_a) == []
        assert manager.tuple_id(tuple_a) is None
        assert manager.retained_items() == 0
        assert manager.retained_bytes() == 0


class TestSourceBatchHook:
    def test_default_maps_the_per_tuple_primitive(self):
        # A technique that only overrides on_source_output keeps working.
        class Recording(ProvenanceManager):
            def __init__(self):
                self.seen = []

            def on_source_output(self, tup):
                self.seen.append(tup)

        manager, batch = Recording(), [tup(1), tup(2), tup(3)]
        manager.on_source_batch(batch)
        assert manager.seen == batch

    def test_baseline_annotates_every_tuple_of_the_batch(self):
        manager, batch = AriadneBaselineProvenance(node_id="n1"), [tup(1), tup(2)]
        manager.on_source_batch(batch)
        assert manager.retained_items() == 2
        assert all(source.meta is not None for source in batch)

    @pytest.mark.parametrize("manager_type", [NoProvenance, GeneaLogProvenance])
    def test_np_and_genealog_do_nothing_per_tuple(self, manager_type):
        class Counting(manager_type):
            calls = 0

            def on_source_output(self, tup):
                Counting.calls += 1

        batch = [tup(1), tup(2)]
        Counting().on_source_batch(batch)
        assert Counting.calls == 0
        assert all(source.meta is None for source in batch)

    def test_source_operator_asks_once_per_batch(self):
        class Recording(NoProvenance):
            def __init__(self):
                self.batches = []

            def on_source_batch(self, batch):
                self.batches.append(len(batch))

        query = Query("q")
        source = query.add_source("source", [tup(ts) for ts in range(5)], batch_size=2)
        query.connect(source, query.add_sink("sink"))
        manager = Recording()
        query.set_provenance(manager)
        Scheduler(query).run()
        assert manager.batches == [2, 2, 1]


class TestProvenanceCollector:
    def _unfolded(self, sink_id, sink_ts, origin_ts, **sink_values):
        """A one-entry block: one (sink tuple, source tuple) pair."""
        entry = {"payload": origin_ts, "ts_o": origin_ts, "id_o": f"src:{origin_ts}"}
        entry["type_o"] = "SOURCE"
        return UnfoldedBlock(sink_ts, sink_values, sink_id, [entry])

    def test_groups_unfolded_tuples_by_sink(self):
        collector = ProvenanceCollector()
        collector.add(self._unfolded("s1", 100, 90, alert=1))
        collector.add(self._unfolded("s1", 100, 95, alert=1))
        collector.add(self._unfolded("s2", 200, 150, alert=2))
        assert len(collector) == 2
        record = collector.record_for("s1")
        assert record.source_count == 2
        assert record.sink_values == {"alert": 1}
        assert record.source_timestamps() == [90, 95]

    def test_records_list(self):
        collector = ProvenanceCollector()
        collector.add(self._unfolded("s1", 100, 90, alert=1))
        records = collector.records()
        assert len(records) == 1
        assert isinstance(records[0], ProvenanceRecord)
        assert collector.unfolded_tuples == 1

    def test_unknown_sink_id(self):
        assert ProvenanceCollector().record_for("nope") is None

    def test_batches_and_single_tuples_collect_the_same_records(self):
        stream = [
            self._unfolded("s1", 100, 90, alert=1),
            self._unfolded("s1", 100, 95, alert=1),
            self._unfolded("s2", 200, 150, alert=2),
            self._unfolded("s1", 100, 97, alert=1),  # s1 again, not contiguous
        ]
        one_by_one, batched = ProvenanceCollector(), ProvenanceCollector()
        for tup in stream:
            one_by_one.add(tup)
        batched.on_batch(stream[:3])
        batched.on_batch(stream[3:])
        assert batched.records() == one_by_one.records()
        assert batched.unfolded_tuples == 4
        assert batched.record_for("s1").source_timestamps() == [90, 95, 97]
        assert batched.record_for("s1").sources[0] == {
            "ts_o": 90, "id_o": "src:90", "type_o": "SOURCE", "payload": 90,
        }

    def test_idless_sink_tuples_never_share_a_record(self):
        # Tuples that die right after being added: their object ids get
        # reused, which must not make two id-less sink tuples one record.
        collector = ProvenanceCollector()
        for origin_ts in (90, 95, 97):
            collector.add(self._unfolded(None, 100, origin_ts, alert=1))
        assert len(collector) == 3
        assert [r.source_timestamps() for r in collector.records()] == [[90], [95], [97]]


def build_simple_query(tuples):
    query = Query("simple")
    source = query.add_source("source", tuples)
    forward = query.add_filter("forward", lambda t: t["x"] > 0)
    sink = query.add_sink("sink")
    query.connect(source, forward)
    query.connect(forward, sink)
    return query, sink


class TestAttachIntraProcessProvenance:
    def test_none_mode_leaves_the_query_untouched(self):
        query, sink = build_simple_query([tup(1, x=1)])
        operator_count = len(query.operators)
        capture = attach_intra_process_provenance(query, ProvenanceMode.NONE)
        assert len(query.operators) == operator_count
        assert capture.records() == []
        Scheduler(query).run()
        assert sink.count == 1

    def test_genealog_mode_inserts_su_and_provenance_sink(self):
        query, sink = build_simple_query([tup(1, x=1)])
        attach_intra_process_provenance(query, ProvenanceMode.GENEALOG)
        names = {op.name for op in query.operators}
        assert "su_sink" in names
        assert "provenance_sink" in names
        assert any(isinstance(op, SUOperator) for op in query.operators)

    def test_composed_mode_avoids_the_fused_operator(self):
        query, _ = build_simple_query([tup(1, x=1)])
        attach_intra_process_provenance(query, ProvenanceMode.GENEALOG, fused=False)
        assert not any(isinstance(op, SUOperator) for op in query.operators)

    def test_capture_collects_records(self, provenance_mode):
        query, sink = build_simple_query([tup(1, x=1), tup(2, x=-1), tup(3, x=2)])
        capture = attach_intra_process_provenance(query, provenance_mode)
        Scheduler(query).run()
        assert sink.count == 2
        records = capture.records()
        assert len(records) == 2
        assert all(record.source_count == 1 for record in records)

    def test_every_operator_shares_the_manager(self):
        query, _ = build_simple_query([tup(1, x=1)])
        capture = attach_intra_process_provenance(query, ProvenanceMode.GENEALOG)
        assert all(op.provenance is capture.manager for op in query.operators)

    def test_data_sink_results_are_unchanged_by_provenance(self):
        plain_query, plain_sink = build_simple_query([tup(1, x=1), tup(2, x=5)])
        attach_intra_process_provenance(plain_query, ProvenanceMode.NONE)
        Scheduler(plain_query).run()

        provenance_query, provenance_sink = build_simple_query([tup(1, x=1), tup(2, x=5)])
        attach_intra_process_provenance(provenance_query, ProvenanceMode.GENEALOG)
        Scheduler(provenance_query).run()

        assert [t.values for t in plain_sink.received] == [
            t.values for t in provenance_sink.received
        ]

    def test_traversal_times_exposed_through_capture(self):
        query, _ = build_simple_query([tup(1, x=1)])
        capture = attach_intra_process_provenance(query, ProvenanceMode.GENEALOG)
        Scheduler(query).run()
        assert len(capture.traversal_times_s()) == 1

    def test_records_for_named_sink(self):
        query, _ = build_simple_query([tup(1, x=1)])
        capture = attach_intra_process_provenance(query, ProvenanceMode.GENEALOG)
        Scheduler(query).run()
        assert len(capture.records_for("sink")) == 1
        assert capture.records_for("unknown") == []
