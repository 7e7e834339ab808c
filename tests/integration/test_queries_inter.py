"""Integration tests for the three-instance (inter-process) deployments.

The key property (Theorem 6.5): the provenance collected at the provenance
node of the distributed deployment must be exactly the provenance collected
intra-process for the same query and input.
"""

import pytest

from repro.core.provenance import ProvenanceMode
from repro.core.types import TupleType
from repro.workloads.linear_road import LinearRoadConfig, LinearRoadGenerator
from repro.workloads.queries import query_pipeline
from repro.workloads.smart_grid import SmartGridConfig, SmartGridGenerator
from tests.conftest import record_index
from tests.equivalence import provenance_bytes

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

ALL_QUERIES = ("q1", "q2", "q3", "q4")


def workload_for(query_name):
    if query_name in ("q1", "q2"):
        return LinearRoadGenerator(LINEAR_ROAD).tuples
    return SmartGridGenerator(SMART_GRID).tuples


def inter_pipeline(query_name, mode, fused=True):
    return query_pipeline(
        query_name, workload_for(query_name), mode=mode, deployment="inter", fused=fused
    )


def run_inter(query_name, mode, fused=True):
    return inter_pipeline(query_name, mode, fused=fused).run()


def run_intra(query_name, mode):
    return query_pipeline(query_name, workload_for(query_name), mode=mode).run()


class TestDeploymentStructure:
    @pytest.mark.parametrize("query_name", ALL_QUERIES)
    def test_np_uses_two_instances(self, query_name):
        result = inter_pipeline(query_name, ProvenanceMode.NONE).build()
        assert len(result.instances) == 2

    @pytest.mark.parametrize("query_name", ALL_QUERIES)
    @pytest.mark.parametrize(
        "mode", [ProvenanceMode.GENEALOG, ProvenanceMode.BASELINE], ids=["GL", "BL"]
    )
    def test_provenance_adds_a_third_instance(self, query_name, mode):
        result = inter_pipeline(query_name, mode).build()
        assert len(result.instances) == 3
        assert result.instances[-1].name == "provenance_node"

    @pytest.mark.parametrize("query_name", ALL_QUERIES)
    def test_instances_communicate_only_through_send_receive(self, query_name):
        result = inter_pipeline(query_name, ProvenanceMode.GENEALOG).build()
        for instance in result.instances:
            for op in instance.operators:
                for stream in op.outputs:
                    # every stream stays inside one instance
                    assert stream in instance.streams
        sends = sum(len(instance.sends()) for instance in result.instances)
        receives = sum(len(instance.receives()) for instance in result.instances)
        assert sends == receives
        assert sends == len(result.channels)

    def test_ordering_values(self):
        result = run_inter("q1", ProvenanceMode.GENEALOG)
        values = {instance.name: instance.ordering_value for instance in result.instances}
        assert values["spe1"] == 0
        assert values["spe2"] == 1
        assert values["provenance_node"] == 2


class TestDistributedResults:
    @pytest.mark.parametrize("query_name", ALL_QUERIES)
    @pytest.mark.parametrize(
        "mode", list(ProvenanceMode), ids=[m.label for m in ProvenanceMode]
    )
    def test_sink_output_matches_the_intra_process_run(self, query_name, mode):
        intra = run_intra(query_name, ProvenanceMode.NONE)
        inter = run_inter(query_name, mode)
        assert [(t.ts, dict(t.values)) for t in inter.sink.received] == [
            (t.ts, dict(t.values)) for t in intra.sink.received
        ]

    @pytest.mark.parametrize("query_name", ALL_QUERIES)
    @pytest.mark.parametrize(
        "mode", [ProvenanceMode.GENEALOG, ProvenanceMode.BASELINE], ids=["GL", "BL"]
    )
    def test_distributed_provenance_equals_intra_process_provenance(self, query_name, mode):
        intra = run_intra(query_name, mode)
        inter = run_inter(query_name, mode)
        intra_records = record_index(intra.provenance_records())
        inter_records = record_index(inter.provenance_records())
        assert intra_records == inter_records

    @pytest.mark.parametrize("query_name", ALL_QUERIES)
    def test_composed_mu_and_su_match_the_fused_implementations(self, query_name):
        fused = run_inter(query_name, ProvenanceMode.GENEALOG, fused=True)
        composed = run_inter(query_name, ProvenanceMode.GENEALOG, fused=False)
        assert record_index(fused.provenance_records()) == record_index(
            composed.provenance_records()
        )


    @pytest.mark.parametrize("query_name", ALL_QUERIES)
    def test_composed_and_fused_blocks_give_identical_canonical_rows(self, query_name):
        # The composed MU splits derived blocks into one-entry blocks ahead
        # of its Join; the collector merges them back by sink id.
        fused = run_inter(query_name, ProvenanceMode.GENEALOG, fused=True)
        composed = run_inter(query_name, ProvenanceMode.GENEALOG, fused=False)
        assert fused.provenance_records()
        assert provenance_bytes(fused.provenance_records()) == provenance_bytes(
            composed.provenance_records()
        )
        assert (
            fused.collectors["sink"].unfolded_tuples
            == composed.collectors["sink"].unfolded_tuples
        )


class TestInterProcessMechanics:
    def test_remote_tuples_appear_at_the_second_instance(self):
        result = run_inter("q1", ProvenanceMode.GENEALOG)
        spe2 = next(i for i in result.instances if i.name == "spe2")
        receive = spe2.receives()[0]
        # every tuple that crossed the boundary must have been re-typed.
        assert receive.tuples_in > 0
        sink_records = result.provenance_records()
        assert sink_records
        for record in sink_records:
            assert all(entry["type_o"] == TupleType.SOURCE.value for entry in record.sources)

    def test_traversal_happens_on_both_processing_instances(self):
        # Q1's spe1 only filters: what it ships crosses as SOURCE, so its
        # boundary SU traverses nothing.  Q2's spe1 aggregates, and unfolds
        # every aggregate it ships.
        q1 = run_inter("q1", ProvenanceMode.GENEALOG).traversal_times_by_instance()
        assert set(q1) == {"spe2"} and q1["spe2"]
        q2 = run_inter("q2", ProvenanceMode.GENEALOG).traversal_times_by_instance()
        assert set(q2) == {"spe1", "spe2"}
        assert all(samples for samples in q2.values())

    @pytest.mark.parametrize("query_name", ALL_QUERIES)
    def test_baseline_ships_the_whole_source_stream(self, query_name):
        runs = {mode: run_inter(query_name, mode) for mode in ProvenanceMode}
        baseline = runs[ProvenanceMode.BASELINE]
        baseline_sources_channel = next(
            channel for channel in baseline.channels if "sources" in channel.name
        )
        # The baseline has no choice: every source tuple crosses the network,
        # contributing or not (the paper's main criticism of BL).
        assert baseline_sources_channel.tuples_sent == baseline.source.tuples_out
        # Fig. 13's traffic shape: both techniques ship more than NP does.
        wire_bytes = {
            mode: sum(channel.bytes_sent for channel in run.channels)
            for mode, run in runs.items()
        }
        assert wire_bytes[ProvenanceMode.GENEALOG] > wire_bytes[ProvenanceMode.NONE]
        assert wire_bytes[ProvenanceMode.BASELINE] > wire_bytes[ProvenanceMode.NONE]

    def test_genealog_ships_only_candidate_provenance(self):
        def upstream_tuples(query_name):
            genealog = run_inter(query_name, ProvenanceMode.GENEALOG)
            (upstream_channel,) = (c for c in genealog.channels if "upstream" in c.name)
            return upstream_channel.tuples_sent, genealog.source.tuples_out

        # Q1's crossings are filtered source tuples: the MU forwards whatever
        # derives from them as it is, so no upstream provenance ships at all.
        assert upstream_tuples("q1")[0] == 0
        # Q2 ships aggregates, unfolded only for the tuples that survive the
        # first Filter (zero-speed reports): a strict subset of the sources.
        sent, source_count = upstream_tuples("q2")
        assert 0 < sent < source_count

    def test_channels_report_traffic(self):
        result = run_inter("q1", ProvenanceMode.GENEALOG)
        assert all(channel.closed for channel in result.channels)
        assert all(
            channel.bytes_sent > 0
            for channel in result.channels
            if "upstream" not in channel.name
        )
        assert [c.bytes_sent for c in result.channels if "upstream" in c.name] == [0]
