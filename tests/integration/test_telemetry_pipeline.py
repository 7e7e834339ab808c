"""Telemetry end to end: span parity across execution modes, merged traces.

The observability layer's core promise is that the *same* pipeline produces
the *same* operator span lanes no matter where its instances run: in the
coordinator's event loop, in forked OS processes, or in plan-shipped cluster
workers.  These tests run Q1 under all three executions and compare the
``operator.work`` lanes, check that worker-recorded spans actually travel
home through the result-shipping path, render a two-worker cluster run into
one merged Chrome trace with coordinator + worker lanes, and pin down the
disabled-mode contract: with ``telemetry=None`` not a single ring-buffer
write happens anywhere in the engine.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.core.provenance import ProvenanceMode
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import SpanTracer
from repro.workloads.linear_road import LinearRoadConfig, LinearRoadGenerator
from repro.workloads.queries import query_pipeline

LINEAR_ROAD = LinearRoadConfig(
    n_cars=10, duration_s=600.0, breakdown_probability=0.05,
    accident_probability=0.6, seed=31,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def run_q1(execution: str, telemetry=None, mode=ProvenanceMode.GENEALOG):
    supplier = LinearRoadGenerator(LINEAR_ROAD).tuples
    deployment = "intra" if execution == "intra" else "inter"
    pipeline = query_pipeline(
        "q1",
        supplier,
        mode=mode,
        deployment=deployment,
        execution="event" if execution == "intra" else execution,
        telemetry=telemetry,
    )
    return pipeline.run()


def work_lanes(telemetry: Telemetry):
    """The (node, operator) pairs that recorded ``operator.work`` spans."""
    return {
        (span.node, span.name)
        for span in telemetry.spans()
        if span.kind == "operator.work"
    }


class TestSpanParityAcrossExecutions:
    """Q1's operator spans land on the same lanes in every execution mode."""

    def test_event_vs_process_vs_cluster(self):
        if not HAS_FORK:
            pytest.skip("process execution requires the fork start method")
        lanes = {}
        # the coordinator's phase spans, which perfbench's spe.shipping rows read.
        phases = {
            "event": set(),
            "process": {"process.collect", "process.apply"},
            "cluster": {"cluster.plan", "cluster.wire", "cluster.collect", "cluster.apply"},
        }
        for execution in ("event", "process", "cluster"):
            telemetry = Telemetry()
            result = run_q1(execution, telemetry=telemetry)
            assert result.sink.count > 0
            lanes[execution] = work_lanes(telemetry)
            assert lanes[execution], f"{execution}: no operator.work spans"
            kinds = {span.kind for span in telemetry.spans() if span.node == "coordinator"}
            assert phases[execution] <= kinds, (execution, kinds)
        assert lanes["event"] == lanes["process"] == lanes["cluster"]

    def test_worker_spans_ship_home(self):
        """Spans recorded inside cluster workers reach the coordinator."""
        telemetry = Telemetry()
        run_q1("cluster", telemetry=telemetry)
        nodes = set(telemetry.nodes())
        # The coordinator's own phase spans plus one lane per SPE instance.
        assert "coordinator" in nodes
        assert {"spe1", "spe2"} <= nodes
        coordinator_kinds = {
            span.kind for span in telemetry.spans() if span.node == "coordinator"
        }
        assert {"cluster.plan", "cluster.wire", "cluster.collect"} <= coordinator_kinds
        worker_kinds = {
            span.kind for span in telemetry.spans() if span.node == "spe1"
        }
        assert "operator.work" in worker_kinds

    def test_intra_spans_cover_provenance_hooks(self):
        telemetry = Telemetry()
        run_q1("intra", telemetry=telemetry)
        kinds = {span.kind for span in telemetry.spans()}
        assert "operator.work" in kinds
        assert "provenance.traversal" in kinds
        assert "provenance.unfold" in kinds
        # finalize() derived latency + traversal histograms from the result.
        assert "latency" in telemetry.histograms
        assert "traversal" in telemetry.histograms
        assert telemetry.histograms["latency"].total > 0


class TestMergedClusterTrace:
    """One cluster run (2 loopback workers) -> one merged Chrome trace."""

    def test_two_worker_chrome_trace_has_correlated_lanes(self):
        telemetry = Telemetry()
        # Q1 NP inter deploys exactly two SPE instances -> two workers.
        result = run_q1("cluster", telemetry=telemetry, mode=ProvenanceMode.NONE)
        assert result.sink.count > 0
        assert len(result.instances) == 2

        document = telemetry.to_chrome_trace()
        json.loads(json.dumps(document))  # strict-JSON exportable
        events = document["traceEvents"]
        process_names = {
            event["args"]["name"]
            for event in events
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert {"coordinator", "spe1", "spe2"} <= process_names

        # Correlation: the workers' operator spans fall inside the window the
        # coordinator observed (between run start and result collection), so
        # the merged timeline interleaves rather than ordering by origin.
        spans = telemetry.spans()
        collect = [s for s in spans if s.kind == "cluster.collect"]
        assert collect
        collect_end = max(s.end_s for s in collect)
        worker_spans = [s for s in spans if s.node in ("spe1", "spe2")]
        assert worker_spans
        assert all(s.start_s <= collect_end for s in worker_spans)

        complete = [e for e in events if e["ph"] == "X"]
        assert min(e["ts"] for e in complete) >= 0.0

    def test_prometheus_export_covers_worker_lanes(self):
        telemetry = Telemetry()
        run_q1("cluster", telemetry=telemetry, mode=ProvenanceMode.NONE)
        text = telemetry.to_prometheus_text()
        assert 'node="spe1"' in text
        assert 'node="spe2"' in text
        assert "repro_latency_seconds_bucket" in text


class TestDisabledModeIsFree:
    """With telemetry off, no ring-buffer write happens anywhere."""

    def test_zero_ring_buffer_writes(self, monkeypatch):
        writes = []

        def counting_record(self, *args, **kwargs):
            writes.append(("record", args))

        def counting_event(self, *args, **kwargs):
            writes.append(("event", args))

        monkeypatch.setattr(SpanTracer, "record", counting_record)
        monkeypatch.setattr(SpanTracer, "event", counting_event)
        result = run_q1("intra", telemetry=None)
        assert result.sink.count > 0
        assert result.trace is None
        assert result.timeline() == []
        assert writes == []

    def test_zero_ring_buffer_writes_inter(self, monkeypatch):
        writes = []
        monkeypatch.setattr(
            SpanTracer, "record", lambda self, *a, **k: writes.append(a)
        )
        monkeypatch.setattr(
            SpanTracer, "event", lambda self, *a, **k: writes.append(a)
        )
        result = run_q1("event", telemetry=None)
        assert result.sink.count > 0
        assert writes == []
