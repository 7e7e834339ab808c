"""Acceptance tests for the live provenance store.

For Q1-Q4 x {GL, BL} x {intra, inter} x parallelism {1, 2}, one run with an
attached JSONL-backed :class:`ProvenanceLedger` must satisfy, per cell:

* the ledger's backward provenance of every sink tuple is id-identical to
  the on-demand traversal result (the provenance records grouped by the
  existing collector from the very same unfolded stream),
* every sealed mapping is delivered to a subscriber exactly once,
* source entries shared by several sink tuples are stored once,
* the persisted store re-opened read-only answers the same forward and
  backward queries.
"""

from __future__ import annotations

import pytest

from repro.analysis import PlanAnalysisError
from repro.api import Pipeline
from repro.core.provenance import ProvenanceMode
from repro.core.traversal import find_provenance
from repro.provstore import (
    JsonlLedgerBackend,
    ProvenanceLedger,
    open_provenance_store,
)
from repro.workloads.linear_road import LinearRoadConfig, LinearRoadGenerator
from repro.workloads.queries import (
    query_dataflow,
    query_parallel_placement,
    query_placement,
)
from repro.workloads.smart_grid import SmartGridConfig, SmartGridGenerator
from tests.conftest import RecordingTap

LINEAR_ROAD = LinearRoadConfig(
    n_cars=10, duration_s=1200.0, breakdown_probability=0.06, accident_probability=0.7, seed=31
)
SMART_GRID = SmartGridConfig(
    n_meters=10,
    n_days=3,
    blackout_day_probability=1.0,
    blackout_meter_count=8,
    anomaly_probability=0.25,
    seed=33,
)

QUERIES = ("q1", "q2", "q3", "q4")
MODES = (ProvenanceMode.GENEALOG, ProvenanceMode.BASELINE)
MODE_IDS = [mode.label for mode in MODES]
DEPLOYMENTS = ("intra", "inter")
PARALLELISMS = (1, 2)


def workload_for(query_name):
    if query_name in ("q1", "q2"):
        return LinearRoadGenerator(LINEAR_ROAD).tuples
    return SmartGridGenerator(SMART_GRID).tuples


def run_with_store(query_name, mode, deployment, parallelism, store):
    supplier = workload_for(query_name)
    if deployment == "inter":
        placement = (
            query_parallel_placement(query_name, parallelism)
            if parallelism > 1
            else query_placement(query_name)
        )
    else:
        placement = None
    pipeline = Pipeline(
        query_dataflow(query_name, supplier, parallelism=parallelism),
        provenance=mode,
        placement=placement,
        provenance_store=store,
    )
    return pipeline.run()


def record_map(records):
    """Provenance records as sink id -> frozenset of source ids."""
    return {
        record.sink_id: frozenset(source["id_o"] for source in record.sources)
        for record in records
    }


def ledger_map(ledger):
    """Ledger mappings as sink key -> frozenset of source keys."""
    return {
        mapping.sink_key: frozenset(mapping.source_keys)
        for mapping in ledger.mappings()
    }


class TestLedgerMatchesOnDemandTraversal:
    @pytest.mark.parametrize("parallelism", PARALLELISMS)
    @pytest.mark.parametrize("deployment", DEPLOYMENTS)
    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("query_name", QUERIES)
    def test_cell(self, tmp_path, query_name, mode, deployment, parallelism):
        ledger = ProvenanceLedger(backend=JsonlLedgerBackend(tmp_path / "store"))
        delivered = []
        ledger.subscribe(callback=delivered.append)
        result = run_with_store(query_name, mode, deployment, parallelism, ledger)
        records = result.provenance_records()
        assert records, "cell produced no provenance to compare"

        # (1) ledger-materialised backward provenance == on-demand traversal,
        # including the ids themselves (both observe the same unfolded stream).
        expected = record_map(records)
        assert ledger_map(ledger) == expected

        # (2) every mapping delivered to the subscriber exactly once.
        assert sorted(m.sink_key for m in delivered) == sorted(expected)
        assert ledger.late_tuples == 0
        assert ledger.pending_count == 0

        # (3) shared source entries stored once.
        distinct = {key for keys in expected.values() for key in keys}
        assert ledger.source_count == len(distinct)
        assert ledger.source_references == sum(len(keys) for keys in expected.values())
        shared = ledger.source_references - len(distinct)
        if shared:
            assert ledger.dedup_ratio > 1.0

        # (4) the persisted store, re-opened read-only, answers the same
        # forward and backward queries.
        ledger.close()
        store = open_provenance_store(tmp_path / "store")
        assert ledger_map(store) == expected
        for sink_key, source_keys in expected.items():
            assert {s.key for s in store.sources_of(sink_key)} == set(source_keys)
        for source_key in distinct:
            live = {m.sink_key for m in ledger.derived_from(source_key)}
            reopened = {m.sink_key for m in store.derived_from(source_key)}
            assert reopened == live
            assert reopened == {
                sink for sink, keys in expected.items() if source_key in keys
            }

    def test_gl_intra_ledger_matches_direct_graph_traversal(self):
        # Belt and braces: compare against find_provenance applied directly
        # to the sink tuples' metadata, not just against the collector.
        ledger = ProvenanceLedger()
        result = run_with_store("q1", ProvenanceMode.GENEALOG, "intra", 1, ledger)
        manager = result.capture.manager
        assert result.sink.received
        for tup in result.sink.received:
            expected = {manager.tuple_id(origin) for origin in find_provenance(tup)}
            assert {s.key for s in ledger.sources_of(tup)} == expected
            sink_key = manager.tuple_id(tup)
            for origin in find_provenance(tup):
                derived = {m.sink_key for m in ledger.derived_from(manager.tuple_id(origin))}
                assert sink_key in derived


class TestPipelineStoreWiring:
    def test_store_requires_provenance_capture(self):
        with pytest.raises(Exception, match="provenance capture"):
            Pipeline(
                query_dataflow("q1", workload_for("q1")),
                provenance="none",
                provenance_store=ProvenanceLedger(),
            )

    def test_store_path_creates_jsonl_ledger(self, tmp_path):
        pipeline = Pipeline(
            query_dataflow("q1", workload_for("q1")),
            provenance="genealog",
            provenance_store=str(tmp_path / "store"),
        )
        result = pipeline.run()
        assert result.store is pipeline.store
        assert result.store.sealed_count == len(result.provenance_records())
        result.store.close()
        reopened = open_provenance_store(tmp_path / "store")
        assert reopened.sealed_count == result.store.sealed_count

    def test_read_only_store_rejected(self, tmp_path):
        ledger = ProvenanceLedger(backend=JsonlLedgerBackend(tmp_path / "store"))
        run_with_store("q1", ProvenanceMode.GENEALOG, "intra", 1, ledger)
        ledger.close()
        with pytest.raises(Exception, match="read-only"):
            Pipeline(
                query_dataflow("q1", workload_for("q1")),
                provenance="genealog",
                provenance_store=open_provenance_store(tmp_path / "store"),
            )

    def test_retention_defaults_to_dataflow_window_sum(self):
        ledger = ProvenanceLedger()
        Pipeline(
            query_dataflow("q2", workload_for("q2")),
            provenance="genealog",
            provenance_store=ledger,
        )
        assert ledger.retention == 150.0  # q2: 120s + 30s of windows

    def test_capture_provenance_knob_restricts_capture(self):
        from repro.api import Dataflow
        from repro.spe.tuples import StreamTuple

        def supplier():
            return [StreamTuple(ts=float(i), values={"v": i}) for i in range(10)]

        df = Dataflow("knob")
        split = df.source("src", supplier).split(name="copy")
        split.filter(lambda t: t["v"] % 2 == 0, name="evens").sink(
            "wanted", capture_provenance=True
        )
        split.filter(lambda t: t["v"] % 2 == 1, name="odds").sink("unwanted")
        ledger = ProvenanceLedger()
        result = Pipeline(df, provenance="genealog", provenance_store=ledger).run()
        # only the opted-in sink was spliced and feeds the store.
        assert list(result.capture.provenance_sinks) == ["wanted"]
        assert ledger.sealed_count == result.query["wanted"].count > 0
        wanted_values = {m.sink_values["v"] for m in ledger.mappings()}
        assert wanted_values == {0, 2, 4, 6, 8}

    def test_distributed_capture_rejects_opted_out_sink(self):
        from repro.api import Dataflow, Placement
        from repro.spe.tuples import StreamTuple

        def supplier():
            return [StreamTuple(ts=float(i), values={"v": i}) for i in range(10)]

        df = Dataflow("optout")
        (df.source("src", supplier)
           .filter(lambda t: True, name="keep")
           .sink("out", capture_provenance=False))
        placement = Placement({"a": ("src",), "b": ("keep", "out")})
        with pytest.raises(PlanAnalysisError, match="opted out") as info:
            Pipeline(df, provenance="genealog", placement=placement).build()
        (diag,) = info.value.report.errors
        assert diag.rule == "provenance.capture-shape"
        assert diag.operators == ("out",)


class TestMetricsSnapshot:
    def test_intra_snapshot_exposes_work_calls(self):
        from repro.workloads.queries import query_pipeline

        pipeline = query_pipeline("q1", workload_for("q1"), mode=ProvenanceMode.NONE)
        result = pipeline.run()
        snapshot = result.metrics()
        assert not snapshot.channels
        assert snapshot.total_work_calls == sum(
            op.work_calls for op in result.query.operators
        ) > 0
        source = snapshot.operators["source"]
        assert source.kind == "SourceOperator"
        assert source.instance is None
        assert source.tuples_out > 0
        assert snapshot.operators["sink"].tuples_in == result.sink.count

    def test_inter_snapshot_exposes_channel_traffic(self):
        from repro.workloads.queries import query_pipeline

        pipeline = query_pipeline(
            "q1", workload_for("q1"), mode=ProvenanceMode.GENEALOG, deployment="inter"
        )
        result = pipeline.run()
        snapshot = result.metrics()
        assert snapshot.total_bytes_sent == result.bytes_transferred() > 0
        assert snapshot.total_tuples_sent == result.tuples_transferred() > 0
        assert any(key.startswith("spe1/") for key in snapshot.operators)
        assert any(op.instance == "provenance_node" for op in snapshot.operators.values())
        document = snapshot.to_document()
        assert set(document) == {"operators", "channels"}

    def test_parallel_snapshot_selects_replicas_by_prefix(self):
        from repro.workloads.queries import query_pipeline

        pipeline = query_pipeline(
            "q1", workload_for("q1"), mode=ProvenanceMode.NONE, parallelism=2
        )
        result = pipeline.run()
        replicas = result.metrics().operators_named("stop_aggregate_shard")
        assert len(replicas) == 2
        assert all(op.work_calls > 0 for op in replicas.values())


class TestFirstSightCost:
    """Deterministic guards on what the ledger builds, and when.

    Counts depend on the input alone, so they gate without timing noise:
    attribute dicts and entries are built when a sink tuple or a source is
    seen for the first time, never per unfolded tuple.
    """

    def test_q1_builds_one_entry_per_source_and_one_pending_per_mapping(self):
        from repro.provstore import ledger as ledger_module

        # The perfbench smoke scale of q1_intra: 40 cars x 1 h.
        config = LinearRoadConfig(n_cars=40, duration_s=3600.0, seed=1)
        built = {"SourceEntry": 0, "_PendingMapping": 0}

        def counting(cls):
            def build(*args, **kwargs):
                built[cls.__name__] += 1
                return cls(*args, **kwargs)

            return build

        store = ProvenanceLedger()
        with pytest.MonkeyPatch.context() as patch:
            for cls in (ledger_module.SourceEntry, ledger_module._PendingMapping):
                patch.setattr(ledger_module, cls.__name__, counting(cls))
            pipeline = Pipeline(
                query_dataflow("q1", LinearRoadGenerator(config).tuples),
                provenance="genealog",
                provenance_store=store,
            )
            (provenance_sink,) = pipeline.build().capture.provenance_sinks.values()
            recorder = RecordingTap()
            provenance_sink.add_tap(recorder)
            result = pipeline.run()
            assert store.sealed_count == result.sink.count > 0
            assert store.ingested_tuples > store.source_count > store.sealed_count
            assert built == {
                "SourceEntry": store.source_count,
                "_PendingMapping": store.sealed_count,
            }
            # The whole stream once more (every mapping has sealed: all late)
            # and into a fresh ledger twice (second time: all duplicates).
            stream = recorder.tuples
            pairs = sum(len(block.sources) for block in stream)
            assert pairs == store.ingested_tuples
            store.ingest_batch(stream)
            assert store.late_tuples == pairs
            fresh = ProvenanceLedger(retention=store.retention)
            fresh.ingest_batch(stream)
            first_sight = dict(built)
            fresh.ingest_batch(stream)
            assert fresh.duplicate_tuples == pairs
            assert built == first_sight
            assert first_sight == {
                "SourceEntry": 2 * store.source_count,
                "_PendingMapping": 2 * store.sealed_count,
            }

    @staticmethod
    def traced_reingest_lines(n_attributes):
        """Interpreter lines spent re-ingesting an already-seen batch."""
        import sys

        from repro.core import unfolder
        from repro.provstore import entries
        from repro.provstore import ledger as ledger_module
        from tests.unit.test_provstore import unfolded

        extra = {f"a{i}": i for i in range(n_attributes)}
        batch = [
            unfolded(f"s:{n // 4}", 1.0, dict(extra, alert=1), f"a:{n % 7}", 0.5, dict(extra, v=n))
            for n in range(40)
        ]
        ledger = ProvenanceLedger(retention=10.0)
        ledger.ingest_batch(batch)
        files = {ledger_module.__file__, entries.__file__, unfolder.__file__}
        lines = 0

        def tracer(frame, event, arg):
            nonlocal lines
            if frame.f_code.co_filename not in files:
                return None
            if event == "line":
                lines += 1
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            ledger.ingest_batch(batch)
        finally:
            sys.settrace(previous)
        assert ledger.duplicate_tuples == len(batch) and ledger.source_count == 7
        return lines

    def test_reingest_cost_is_independent_of_attribute_count(self):
        narrow = self.traced_reingest_lines(2)
        assert narrow > 0
        assert self.traced_reingest_lines(30) == narrow
