"""Counter shapes of the paper's Figures 12-14 and the section 9 ablations.

Every cell (query x technique x deployment) runs once, at smoke scale,
through the public :func:`~repro.workloads.queries.query_pipeline` surface.
The assertions are on deterministic counts -- sink tuples, provenance
records, contribution-graph sizes, traversal samples, channel traffic -- never
on timings; the throughput / latency / memory side of the figures is measured
by the repository's benchmark.

* Fig. 12 (intra-process): every technique produces the same alerts, GL and
  BL the same provenance, and instrumenting a query does not change what any
  of its operators processes.
* Fig. 13 (inter-process): the distributed run reproduces the intra-process
  results; the data path ships the same tuples under every technique, with
  GL's fixed-size metadata cheaper on the wire than BL's annotations.
* Fig. 14 (traversal): graph sizes match section 7 of the paper, and each
  GL instance traverses exactly the tuples that leave it.
* Ablations: fused vs composed SU/MU, traversal vs graph size, and the
  selective window-provenance optimisation.
"""

from functools import lru_cache

import pytest

from repro.api import Dataflow, Pipeline
from repro.core.instrumentation import GeneaLogProvenance
from repro.core.provenance import ProvenanceMode
from repro.core.traversal import find_provenance
from repro.spe.operators.aggregate import WindowSpec
from repro.spe.tuples import StreamTuple
from repro.workloads.queries import query_pipeline
from tests.conftest import record_index
from tests.integration.test_queries_inter import workload_for

QUERIES = ("q1", "q2", "q3", "q4")
MODES = (ProvenanceMode.NONE, ProvenanceMode.GENEALOG, ProvenanceMode.BASELINE)
MODE_IDS = [mode.label for mode in MODES]

#: contribution-graph size of every sink tuple of this workload (section 7;
#: Q4 is 25 because the midnight reading itself is part of the provenance).
EXPECTED_SIZES = {"q1": 4, "q2": 8, "q3": 192, "q4": 25}


@lru_cache(maxsize=None)
def run(query, mode, deployment="intra", fused=True):
    """One cell, run once and shared by every test that reads it."""
    return query_pipeline(
        query, workload_for(query), mode=mode, deployment=deployment, fused=fused
    ).run()


@lru_cache(maxsize=None)
def source_count(query):
    return sum(1 for _ in workload_for(query)())


def outputs(result):
    return [(t.ts, dict(t.values)) for t in result.sink.received]


def data_channels(query):
    """Names of the channels the query itself needs (the NP deployment's)."""
    return {channel.name for channel in run(query, ProvenanceMode.NONE, "inter").channels}


#: data channels whose tuples spe1 derives (MAP / JOIN / AGGREGATE) before
#: shipping them: the only crossings a boundary SU unfolds.  Q1's spe1 only
#: filters, so everything it ships crosses as SOURCE; Q4's midnight readings
#: are filtered source tuples, its daily aggregates derived.
DERIVED_CROSSINGS = {
    "q1": set(),
    "q2": {"q2_data"},
    "q3": {"q3_data"},
    "q4": {"q4_daily"},
}

#: GL unfolded blocks per upstream channel on this workload: one per
#: derived crossing (holding an entry per originating tuple), none for
#: SOURCE crossings.
UPSTREAM_TUPLES = {
    "q1": {"q1_upstream_data": 0},
    "q2": {"q2_upstream_data": 52},
    "q3": {"q3_upstream_data": 15},
    "q4": {"q4_upstream_daily": 30, "q4_upstream_midnight": 0},
}


# ---------------------------------------------------------------------------
# Figure 12: intra-process
# ---------------------------------------------------------------------------


class TestFig12IntraProcess:
    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("query", QUERIES)
    def test_fig12_cell(self, query, mode):
        result = run(query, mode)
        snapshot = result.metrics()
        assert result.sink.count > 0
        assert not snapshot.channels
        assert snapshot.operators["source"].tuples_out == source_count(query)
        assert snapshot.operators["sink"].tuples_in == result.sink.count
        records = result.provenance_records()
        if mode is ProvenanceMode.NONE:
            assert records == []
            assert result.traversal_times_s() == []
        else:
            assert len(records) == result.sink.count
            assert all(record.source_count > 0 for record in records)
            assert len(result.traversal_times_s()) == result.sink.count

    @pytest.mark.parametrize("query", QUERIES)
    def test_fig12_shape_results_agree_across_techniques(self, query):
        np_run, gl_run, bl_run = (run(query, mode) for mode in MODES)
        assert outputs(np_run) == outputs(gl_run) == outputs(bl_run)
        assert record_index(gl_run.provenance_records()) == record_index(
            bl_run.provenance_records()
        )

    @pytest.mark.parametrize("mode", MODES[1:], ids=MODE_IDS[1:])
    @pytest.mark.parametrize("query", QUERIES)
    def test_fig12_shape_instrumentation_leaves_the_query_untouched(self, query, mode):
        """Every operator of the bare query sees the same tuples under GL/BL."""
        bare = run(query, ProvenanceMode.NONE).metrics().operators
        instrumented = run(query, mode).metrics().operators
        for key, counters in bare.items():
            assert key in instrumented
            assert (instrumented[key].tuples_in, instrumented[key].tuples_out) == (
                counters.tuples_in,
                counters.tuples_out,
            ), key


# ---------------------------------------------------------------------------
# Figure 13: inter-process
# ---------------------------------------------------------------------------


class TestFig13InterProcess:
    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("query", QUERIES)
    def test_fig13_cell(self, query, mode):
        result = run(query, mode, "inter")
        snapshot = result.metrics()
        assert outputs(result) == outputs(run(query, ProvenanceMode.NONE))
        assert len(result.instances) == (2 if mode is ProvenanceMode.NONE else 3)
        assert result.channels
        assert all(channel.closed for channel in result.channels)
        upstream = {c.name: c for c in result.channels if "_upstream_" in c.name}
        if mode is ProvenanceMode.GENEALOG:
            assert {name: c.tuples_sent for name, c in upstream.items()} == UPSTREAM_TUPLES[query]
        assert all(
            channel.bytes_sent > 0
            for channel in result.channels
            if channel.name not in upstream or channel.tuples_sent
        )
        assert snapshot.total_bytes_sent == result.bytes_transferred()
        assert snapshot.total_tuples_sent == result.tuples_transferred()
        records = result.provenance_records()
        if mode is ProvenanceMode.NONE:
            assert records == []
        else:
            assert len(records) == result.sink.count

    @pytest.mark.parametrize("query", QUERIES)
    def test_fig13_shape_provenance_matches_intra_expectations(self, query):
        intra = record_index(run(query, ProvenanceMode.GENEALOG).provenance_records())
        for mode in MODES[1:]:
            assert record_index(run(query, mode, "inter").provenance_records()) == intra

    @pytest.mark.parametrize("query", QUERIES)
    def test_fig13_shape_annotations_cost_more_than_genealog_metadata(self, query):
        """The data path ships the same tuples; BL's annotations weigh most."""
        sent = {}
        for mode in MODES:
            channels = {c.name: c for c in run(query, mode, "inter").channels}
            sent[mode] = {
                name: channels[name].counters() for name in data_channels(query)
            }
        for name in data_channels(query):
            (np_tuples, np_bytes), (gl_tuples, gl_bytes), (bl_tuples, bl_bytes) = (
                sent[mode][name] for mode in MODES
            )
            assert np_tuples == gl_tuples == bl_tuples > 0
            assert np_bytes < gl_bytes < bl_bytes, name

    @pytest.mark.parametrize("query", QUERIES)
    def test_fig13_shape_baseline_ships_each_sink_tuple_once(self, query):
        baseline = run(query, ProvenanceMode.BASELINE, "inter")
        (annotated,) = (c for c in baseline.channels if "annotated_sinks" in c.name)
        assert annotated.tuples_sent == baseline.sink.count


# ---------------------------------------------------------------------------
# Figure 14: traversal
# ---------------------------------------------------------------------------


class TestFig14Traversal:
    @pytest.mark.parametrize("query", QUERIES)
    def test_fig14_intra_process_traversal(self, query):
        result = run(query, ProvenanceMode.GENEALOG)
        sizes = [len(find_provenance(sink_tuple)) for sink_tuple in result.sink.received]
        assert set(sizes) == {EXPECTED_SIZES[query]}
        assert sizes == [record.source_count for record in result.provenance_records()]

    @pytest.mark.parametrize("query", QUERIES)
    def test_fig14_inter_process_traversal(self, query):
        """spe1 traverses every tuple it derives and ships, spe2 every alert."""
        result = run(query, ProvenanceMode.GENEALOG, "inter")
        samples = result.traversal_times_by_instance()
        derived_shipped = sum(
            c.tuples_sent for c in result.channels if c.name in DERIVED_CROSSINGS[query]
        )
        assert len(samples.get("spe1", ())) == derived_shipped
        assert len(samples["spe2"]) == result.sink.count
        assert set(samples) == ({"spe1", "spe2"} if derived_shipped else {"spe2"})
        # BL traverses nothing until the annotated sink reaches the provenance node.
        baseline = run(query, ProvenanceMode.BASELINE, "inter")
        assert {k: len(v) for k, v in baseline.traversal_times_by_instance().items()} == {
            "provenance_node": baseline.sink.count
        }

    def test_fig14_shape_traversal_grows_with_graph_size(self):
        average = {}
        for query in QUERIES:
            records = run(query, ProvenanceMode.GENEALOG).provenance_records()
            average[query] = sum(r.source_count for r in records) / len(records)
        assert sorted(average, key=average.get) == ["q1", "q2", "q4", "q3"]


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


class TestAblations:
    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "composed"])
    @pytest.mark.parametrize("query", QUERIES)
    def test_ablation_su_fused_vs_composed(self, query, fused):
        result = run(query, ProvenanceMode.GENEALOG, "inter", fused=fused)
        assert outputs(result) == outputs(run(query, ProvenanceMode.NONE))
        assert record_index(result.provenance_records()) == record_index(
            run(query, ProvenanceMode.BASELINE).provenance_records()
        )

    @pytest.mark.parametrize("graph_size", [4, 24, 192, 1000])
    def test_ablation_traversal_scales_with_graph_size(self, graph_size):
        manager = GeneaLogProvenance(record_traversal_times=False)
        window = []
        for index in range(graph_size):
            source = StreamTuple(ts=float(index), values={"v": index})
            manager.on_source_output(source)
            window.append(source)
        root = StreamTuple(ts=0.0, values={"size": graph_size})
        manager.on_aggregate_output(root, window)
        found = find_provenance(root)
        assert len(found) == graph_size
        assert {t["v"] for t in found} == set(range(graph_size))

    @pytest.mark.parametrize("selective", [False, True], ids=["full-window", "selective"])
    def test_ablation_selective_window_provenance(self, selective):
        """Q3's readings through a daily-maximum aggregate, with and without
        declaring the maximum as the window's only contributor."""
        df = Dataflow("max-consumption")
        df.source("source", workload_for("q3")).aggregate(
            WindowSpec(size=24 * 3600.0),
            lambda window, key: {
                "meter_id": key,
                "max_cons": max(t["cons"] for t in window),
            },
            key_function=lambda t: t["meter_id"],
            contributors_function=(
                (lambda window, key, values: [
                    next(t for t in window if t["cons"] == values["max_cons"])
                ])
                if selective
                else None
            ),
            name="daily_max",
        ).sink("sink")
        records = Pipeline(df, provenance=ProvenanceMode.GENEALOG).run().provenance_records()
        assert records
        if selective:
            # only the maximum reading of each (meter, day) window contributes.
            assert all(record.source_count == 1 for record in records)
        else:
            assert all(record.source_count == 24 for record in records)
