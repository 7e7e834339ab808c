"""Unit tests for the live provenance subsystem (:mod:`repro.provstore`)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.unfolder import ORIGIN_ID_FIELD, ORIGIN_TS_FIELD, ORIGIN_TYPE_FIELD
from repro.provstore import (
    JsonlLedgerBackend,
    LedgerError,
    LedgerTap,
    ProvenanceLedger,
    ProvenanceTap,
    open_provenance_store,
)
from repro.provstore.backends import dumps_document, loads_document
from repro.provstore.entries import SinkMapping, SourceEntry, content_key
from repro.spe.errors import SerializationError
from repro.spe.operators.sink import SinkOperator
from repro.spe.streams import Stream
from repro.spe.tuples import StreamTuple, UnfoldedBlock


def unfolded(
    sink_id,
    sink_ts,
    sink_values,
    origin_id,
    origin_ts,
    origin_values,
    origin_type="SOURCE",
):
    """Build a one-entry block: one (sink tuple, source tuple) pair."""
    entry = dict(origin_values)
    entry[ORIGIN_TS_FIELD] = origin_ts
    entry[ORIGIN_ID_FIELD] = origin_id
    entry[ORIGIN_TYPE_FIELD] = origin_type
    return UnfoldedBlock(
        max(sink_ts, origin_ts), dict(sink_values), sink_id, [entry], sink_ts=sink_ts
    )


class TestLedgerIngest:
    def test_groups_unfolded_tuples_into_mappings(self):
        ledger = ProvenanceLedger(retention=0.0)
        ledger.ingest(unfolded("s:1", 10.0, {"alert": 1}, "a:1", 1.0, {"v": 1}))
        ledger.ingest(unfolded("s:1", 10.0, {"alert": 1}, "a:2", 2.0, {"v": 2}))
        ledger.ingest(unfolded("s:2", 11.0, {"alert": 2}, "a:2", 2.0, {"v": 2}))
        ledger.flush()
        assert ledger.sealed_count == 2
        assert [s.key for s in ledger.sources_of("s:1")] == ["a:1", "a:2"]
        assert [s.key for s in ledger.sources_of("s:2")] == ["a:2"]
        assert ledger.sources_of("unknown") == []

    def test_shared_sources_stored_once(self):
        ledger = ProvenanceLedger(retention=0.0)
        for sink in range(5):
            ledger.ingest(
                unfolded(f"s:{sink}", 10.0 + sink, {"n": sink}, "a:7", 1.0, {"v": 7})
            )
        ledger.flush()
        assert ledger.source_count == 1
        assert ledger.source_references == 5
        assert ledger.dedup_ratio == 5.0
        assert len(ledger.derived_from("a:7")) == 5

    def test_duplicate_pairs_dropped(self):
        ledger = ProvenanceLedger(retention=0.0)
        pair = unfolded("s:1", 10.0, {}, "a:1", 1.0, {"v": 1})
        ledger.ingest(pair)
        ledger.ingest(pair.copy())
        ledger.flush()
        assert ledger.duplicate_tuples == 1
        assert [s.key for s in ledger.sources_of("s:1")] == ["a:1"]

    def test_idless_tuples_fall_back_to_content_addresses(self):
        ledger = ProvenanceLedger(retention=0.0)
        ledger.ingest(unfolded(None, 10.0, {"alert": 1}, None, 1.0, {"v": 1}))
        ledger.flush()
        (mapping,) = ledger.mappings()
        assert mapping.sink_key == content_key(10.0, {"alert": 1})
        assert mapping.source_keys == (content_key(1.0, {"v": 1}),)

    def test_origin_identity_fields_not_duplicated_in_values(self):
        ledger = ProvenanceLedger(retention=0.0)
        ledger.ingest(unfolded("s:1", 10.0, {"alert": 1}, "a:1", 1.0, {"v": 1}))
        ledger.flush()
        (entry,) = ledger.sources_of("s:1")
        assert entry == SourceEntry(key="a:1", ts=1.0, kind="SOURCE", values={"v": 1})
        (mapping,) = ledger.mappings()
        assert mapping.sink_values == {"alert": 1}


class TestSealing:
    def test_watermark_seals_past_retention_bound(self):
        ledger = ProvenanceLedger(retention=5.0)
        ledger.ingest(unfolded("s:1", 10.0, {}, "a:1", 1.0, {}))
        ledger.ingest(unfolded("s:2", 20.0, {}, "a:2", 2.0, {}))
        ledger.advance_watermark(15.0)
        assert ledger.sealed_count == 0  # 10 + 5 is not < 15
        ledger.advance_watermark(15.1)
        assert ledger.sealed_count == 1
        assert ledger.pending_count == 1
        ledger.advance_watermark(float("inf"))
        assert ledger.sealed_count == 2
        assert ledger.pending_count == 0

    def test_pending_mappings_answer_queries_before_sealing(self):
        ledger = ProvenanceLedger(retention=100.0)
        ledger.ingest(unfolded("s:1", 10.0, {"alert": 1}, "a:1", 1.0, {"v": 1}))
        assert [s.key for s in ledger.sources_of("s:1")] == ["a:1"]
        assert [m.sink_key for m in ledger.derived_from("a:1")] == ["s:1"]

    def test_late_tuple_counted_not_merged(self):
        ledger = ProvenanceLedger(retention=0.0)
        ledger.ingest(unfolded("s:1", 10.0, {}, "a:1", 1.0, {}))
        ledger.advance_watermark(float("inf"))
        ledger.ingest(unfolded("s:1", 10.0, {}, "a:2", 2.0, {}))
        assert ledger.late_tuples == 1
        assert [s.key for s in ledger.sources_of("s:1")] == ["a:1"]

    def test_multiple_taps_seal_on_minimum_watermark(self):
        ledger = ProvenanceLedger(retention=0.0)
        tap_a = ledger.register_tap()
        tap_b = ledger.register_tap()
        ledger.ingest(unfolded("s:1", 10.0, {}, "a:1", 1.0, {}))
        ledger.advance_watermark(50.0, tap=tap_a)
        assert ledger.sealed_count == 0  # tap_b has not advanced yet
        ledger.advance_watermark(30.0, tap=tap_b)
        assert ledger.sealed_count == 1

    def test_sink_taps_feed_and_seal_the_ledger(self):
        # A SinkOperator with an attached LedgerTap drives ingest, watermark
        # advances and the final close without any scheduler.
        ledger = ProvenanceLedger(retention=0.0)
        sink = SinkOperator("provenance_sink")
        sink.add_tap(LedgerTap(ledger))
        stream = Stream("u")
        sink.add_input(stream)
        stream.push(unfolded("s:1", 10.0, {}, "a:1", 1.0, {}))
        stream.advance_watermark(20.0)
        sink.work()
        assert ledger.sealed_count == 1
        stream.push(unfolded("s:2", 30.0, {}, "a:2", 2.0, {}))
        stream.close()
        sink.work()
        assert ledger.sealed_count == 2
        assert ledger.pending_count == 0


class TestSubscriptions:
    def test_each_mapping_delivered_exactly_once(self):
        ledger = ProvenanceLedger(retention=0.0)
        seen = []
        ledger.subscribe(callback=seen.append)
        ledger.ingest(unfolded("s:1", 10.0, {}, "a:1", 1.0, {}))
        ledger.advance_watermark(20.0)
        ledger.advance_watermark(30.0)  # re-sealing must not re-deliver
        ledger.advance_watermark(float("inf"))
        assert [m.sink_key for m in seen] == ["s:1"]

    def test_drain_without_callback(self):
        ledger = ProvenanceLedger(retention=0.0)
        subscription = ledger.subscribe()
        ledger.ingest(unfolded("s:1", 10.0, {}, "a:1", 1.0, {}))
        ledger.flush()
        assert [m.sink_key for m in subscription.drain()] == ["s:1"]
        assert subscription.drain() == []
        assert subscription.delivered == 1

    def test_replay_delivers_earlier_mappings_once(self):
        ledger = ProvenanceLedger(retention=0.0)
        ledger.ingest(unfolded("s:1", 10.0, {}, "a:1", 1.0, {}))
        ledger.flush()
        late = ledger.subscribe(replay=True)
        ledger.ingest(unfolded("s:2", 20.0, {}, "a:2", 2.0, {}))
        ledger.flush()
        assert [m.sink_key for m in late.drain()] == ["s:1", "s:2"]

    def test_cancelled_subscription_stops_receiving(self):
        ledger = ProvenanceLedger(retention=0.0)
        subscription = ledger.subscribe()
        subscription.cancel()
        ledger.ingest(unfolded("s:1", 10.0, {}, "a:1", 1.0, {}))
        ledger.flush()
        assert subscription.delivered == 0

    def test_failing_callback_does_not_starve_other_subscribers(self):
        ledger = ProvenanceLedger(retention=0.0)

        def explode(mapping):
            raise KeyError("missing field")

        ledger.subscribe(callback=explode)
        healthy = ledger.subscribe()
        ledger.ingest(unfolded("s:1", 10.0, {}, "a:1", 1.0, {}))
        with pytest.raises(KeyError):
            ledger.flush()
        # the healthy subscriber still received the mapping exactly once.
        assert [m.sink_key for m in healthy.drain()] == ["s:1"]
        assert ledger.sealed_count == 1

    def test_manual_watermark_rejected_once_taps_registered(self):
        ledger = ProvenanceLedger(retention=0.0)
        ledger.register_tap()
        with pytest.raises(LedgerError, match="registered tap"):
            ledger.advance_watermark(10.0)

    def test_cancel_inside_callback_does_not_skip_other_subscribers(self):
        ledger = ProvenanceLedger(retention=0.0)
        first_seen = []

        def cancel_after_first(mapping):
            first_seen.append(mapping)
            first.cancel()

        first = ledger.subscribe(callback=cancel_after_first)
        second = ledger.subscribe()
        ledger.ingest(unfolded("s:1", 10.0, {}, "a:1", 1.0, {}))
        ledger.ingest(unfolded("s:2", 20.0, {}, "a:2", 2.0, {}))
        ledger.flush()
        assert [m.sink_key for m in first_seen] == ["s:1"]
        assert [m.sink_key for m in second.drain()] == ["s:1", "s:2"]


    def test_subscribing_inside_a_callback_joins_the_same_seal_pass(self):
        # One seal pass over several ready mappings: a subscriber added while
        # the first is being delivered (with replay) still sees every mapping
        # exactly once -- the pass reads the subscription list per mapping.
        ledger = ProvenanceLedger(retention=0.0)
        joined = []

        def join_once(mapping):
            if not joined:
                joined.append(ledger.subscribe(replay=True))

        ledger.subscribe(callback=join_once)
        for n in (1, 2, 3):
            ledger.ingest(unfolded(f"s:{n}", 10.0 * n, {}, f"a:{n}", 1.0, {}))
        ledger.flush()
        assert [m.sink_key for m in joined[0].drain()] == ["s:1", "s:2", "s:3"]

    def test_failing_callback_mid_pass_leaves_the_rest_pending(self):
        ledger = ProvenanceLedger(retention=0.0)

        def explode_on_second(mapping):
            if mapping.sink_key == "s:2":
                raise KeyError("missing field")

        ledger.subscribe(callback=explode_on_second)
        healthy = ledger.subscribe()
        for n in (1, 2, 3):
            ledger.ingest(unfolded(f"s:{n}", 10.0 * n, {}, f"a:{n}", 1.0, {}))
        with pytest.raises(KeyError):
            ledger.flush()
        assert [m.sink_key for m in healthy.drain()] == ["s:1", "s:2"]
        assert (ledger.sealed_count, ledger.pending_count) == (2, 1)
        ledger.flush()  # the rest seals on the next pass, nothing re-delivers
        assert [m.sink_key for m in healthy.drain()] == ["s:3"]


class TestTaps:
    def test_base_tap_maps_on_tuple_over_a_batch(self):
        class Counting(ProvenanceTap):
            def __init__(self):
                self.seen = []

            def on_tuple(self, tup):
                self.seen.append(tup.ts)

        tap = Counting()
        sink = SinkOperator("provenance_sink")
        sink.add_tap(tap)
        sink.process_batch([StreamTuple(ts=1.0), StreamTuple(ts=2.0)])
        sink.process_batch([StreamTuple(ts=3.0)])
        assert tap.seen == [1.0, 2.0, 3.0]

    def test_sink_calls_each_tap_once_per_batch(self):
        class Batches:
            def __init__(self):
                self.sizes = []

            def on_batch(self, batch):
                self.sizes.append(len(batch))

        order = []
        first, second = Batches(), Batches()
        sink = SinkOperator("provenance_sink", callback=lambda tup: order.append(tup.ts))
        sink.add_tap(first)
        sink.add_tap(second)
        sink.process_batch([StreamTuple(ts=1.0), StreamTuple(ts=2.0), StreamTuple(ts=3.0)])
        sink.process_batch([StreamTuple(ts=4.0)])
        assert first.sizes == second.sizes == [3, 1]
        assert order == [1.0, 2.0, 3.0, 4.0]
        assert [t.ts for t in sink.received] == order and sink.count == 4

    def test_ledger_tap_ingests_a_batch_at_once(self):
        ledger = ProvenanceLedger(retention=0.0)
        tap = LedgerTap(ledger)
        tap.on_batch(
            [
                unfolded("s:1", 10.0, {"alert": 1}, "a:1", 1.0, {"v": 1}),
                unfolded("s:1", 10.0, {"alert": 1}, "a:2", 2.0, {"v": 2}),
                unfolded("s:1", 10.0, {"alert": 1}, "a:1", 1.0, {"v": 1}),
            ]
        )
        tap.on_tuple(unfolded("s:2", 11.0, {"alert": 2}, "a:2", 2.0, {"v": 2}))
        tap.on_close()
        assert [m.source_keys for m in ledger.mappings()] == [("a:1", "a:2"), ("a:2",)]
        assert (ledger.ingested_tuples, ledger.duplicate_tuples) == (4, 1)
        assert ledger.source_references == 3 and ledger.source_count == 2


class TestJsonlPersistence:
    def _fill(self, ledger):
        ledger.ingest(unfolded("s:1", 10.0, {"alert": 1}, "a:1", 1.0, {"v": 1}))
        ledger.ingest(unfolded("s:1", 10.0, {"alert": 1}, "a:2", 2.0, {"v": 2}))
        ledger.ingest(unfolded("s:2", 11.0, {"alert": 2}, "a:2", 2.0, {"v": 2}))
        ledger.flush()

    def test_reopened_store_answers_identical_queries(self, tmp_path):
        path = tmp_path / "store"
        ledger = ProvenanceLedger(backend=JsonlLedgerBackend(path), retention=0.0)
        self._fill(ledger)
        ledger.close()
        store = open_provenance_store(path)
        assert store.read_only
        assert {m.sink_key: m.source_keys for m in store.mappings()} == {
            m.sink_key: m.source_keys for m in ledger.mappings()
        }
        assert [s.key for s in store.sources_of("s:1")] == ["a:1", "a:2"]
        assert sorted(m.sink_key for m in store.derived_from("a:2")) == ["s:1", "s:2"]
        assert store.source("a:1").values == {"v": 1}

    def test_segments_rotate(self, tmp_path):
        path = tmp_path / "store"
        ledger = ProvenanceLedger(
            backend=JsonlLedgerBackend(path, segment_records=3), retention=0.0
        )
        for i in range(6):
            ledger.ingest(unfolded(f"s:{i}", float(i), {}, f"a:{i}", 0.5, {}))
        ledger.flush()
        ledger.close()
        assert len(list(path.glob("segment-*.jsonl"))) > 1
        store = open_provenance_store(path)
        assert store.sealed_count == 6

    def test_read_only_store_rejects_ingest(self, tmp_path):
        path = tmp_path / "store"
        ledger = ProvenanceLedger(backend=JsonlLedgerBackend(path), retention=0.0)
        self._fill(ledger)
        ledger.close()
        store = open_provenance_store(path)
        with pytest.raises(LedgerError, match="read-only"):
            store.ingest(unfolded("s:9", 1.0, {}, "a:9", 0.5, {}))
        with pytest.raises(LedgerError, match="read-only"):
            store.advance_watermark(5.0)

    def test_existing_segments_refuse_append_reopen(self, tmp_path):
        path = tmp_path / "store"
        ledger = ProvenanceLedger(backend=JsonlLedgerBackend(path), retention=0.0)
        self._fill(ledger)
        ledger.close()
        with pytest.raises(LedgerError, match="append-only"):
            JsonlLedgerBackend(path)

    def test_opening_missing_store_fails(self, tmp_path):
        with pytest.raises(LedgerError, match="no provenance store"):
            open_provenance_store(tmp_path / "absent")

    def test_non_json_payload_values_degrade_to_strings(self, tmp_path):
        # Intra-process payloads may hold arbitrary Python objects; sealing
        # must not explode out of the scheduler, it degrades them via str.
        path = tmp_path / "store"
        ledger = ProvenanceLedger(backend=JsonlLedgerBackend(path), retention=0.0)
        ledger.ingest(
            unfolded("s:1", 10.0, {"tags": {"a", "b"}}, "a:1", 1.0, {"raw": {1, 2}})
        )
        ledger.flush()
        ledger.close()
        store = open_provenance_store(path)
        (mapping,) = store.mappings()
        assert isinstance(mapping.sink_values["tags"], str)
        assert isinstance(store.source("a:1").values["raw"], str)

    def test_failed_backend_append_keeps_mapping_pending(self):
        class FailingOnce:
            read_only = False

            def __init__(self):
                self.fail = True
                self.mappings = []

            def append_source(self, entry):
                pass

            def append_mapping(self, mapping):
                if self.fail:
                    raise RuntimeError("disk full")
                self.mappings.append(mapping)

            def flush(self):
                pass

            def close(self):
                pass

            def describe(self):
                return "failing"

        backend = FailingOnce()
        ledger = ProvenanceLedger(backend=backend, retention=0.0)
        seen = []
        ledger.subscribe(callback=seen.append)
        ledger.ingest(unfolded("s:1", 10.0, {}, "a:1", 1.0, {}))
        with pytest.raises(RuntimeError):
            ledger.flush()
        assert ledger.pending_count == 1  # not lost
        assert seen == []  # not delivered before durable
        backend.fail = False
        ledger.flush()  # retry succeeds
        assert ledger.sealed_count == 1
        assert [m.sink_key for m in seen] == ["s:1"]

    def test_replay_subscription_on_reopened_store(self, tmp_path):
        path = tmp_path / "store"
        ledger = ProvenanceLedger(backend=JsonlLedgerBackend(path), retention=0.0)
        self._fill(ledger)
        ledger.close()
        store = open_provenance_store(path)
        subscription = store.subscribe(replay=True)
        assert [m.sink_key for m in subscription.drain()] == ["s:1", "s:2"]


class TestDocumentLines:
    """One ledger record per JSONL line: ``dumps_document`` / ``loads_document``."""

    def test_round_trip_preserves_json_types(self):
        document = {
            "key": "a:1",
            "ts": 1.5,
            "n": 3,
            "ok": True,
            "none": None,
            "values": {"list": [1, "x"], "nested": {"y": 2.0}},
        }
        assert loads_document(dumps_document(document)) == document

    def test_one_compact_line(self):
        line = dumps_document({"a": [1, 2], "b": "two words\nsecond line"})
        assert "\n" not in line
        assert line.startswith('{"a":[1,2],"b":')

    def test_non_json_values_degrade_to_their_str_form(self):
        restored = loads_document(dumps_document({"raw": {1}, "obj": Path("p")}))
        assert restored == {"raw": "{1}", "obj": "p"}

    def test_circular_document_raises(self):
        document = {}
        document["self"] = document
        with pytest.raises(SerializationError, match="cannot serialise"):
            dumps_document(document)

    @pytest.mark.parametrize("line", ['{"torn": ', "not json", None])
    def test_unreadable_line_raises(self, line):
        with pytest.raises(SerializationError, match="cannot deserialise"):
            loads_document(line)


class TestEntries:
    def test_mapping_document_roundtrip(self):
        mapping = SinkMapping(
            sink_key="s:1", sink_ts=10.0, sink_values={"a": 1}, source_keys=("x", "y")
        )
        assert SinkMapping.from_document(mapping.to_document()) == mapping

    def test_source_document_roundtrip(self):
        entry = SourceEntry(key="a:1", ts=1.0, kind="REMOTE", values={"v": 3})
        assert SourceEntry.from_document(entry.to_document()) == entry
