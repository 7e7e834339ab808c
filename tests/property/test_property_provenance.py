"""Property-based, end-to-end provenance tests.

For randomly generated (but bounded-size) vehicular workloads and query
parameters, the following must always hold:

* the query output is identical under NP, GL and BL,
* GeneaLog and the baseline report exactly the same provenance,
* the distributed deployment reports exactly the same provenance as the
  single-process one (Theorem 6.5),
* every reported source tuple is genuinely contributing: it belongs to the
  alerting car and lies inside the alert's window.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.provenance import ProvenanceMode
from repro.workloads.linear_road import LinearRoadConfig, LinearRoadGenerator
from repro.workloads.queries import query_pipeline
from tests.conftest import record_index

workload_configs = st.builds(
    LinearRoadConfig,
    n_cars=st.integers(3, 10),
    duration_s=st.sampled_from([600.0, 900.0, 1200.0]),
    breakdown_probability=st.sampled_from([0.02, 0.05, 0.1]),
    accident_probability=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 10_000),
)


def run_intra(config, mode):
    return query_pipeline("q1", LinearRoadGenerator(config).tuples, mode=mode).run()


def run_inter(config, mode):
    return query_pipeline(
        "q1", LinearRoadGenerator(config).tuples, mode=mode, deployment="inter"
    ).run()


class TestProvenanceProperties:
    @given(workload_configs)
    @settings(max_examples=15, deadline=None)
    def test_outputs_agree_across_techniques(self, config):
        outputs = {}
        for mode in ProvenanceMode:
            result = run_intra(config, mode)
            outputs[mode] = [(t.ts, dict(t.values)) for t in result.sink.received]
        assert outputs[ProvenanceMode.NONE] == outputs[ProvenanceMode.GENEALOG]
        assert outputs[ProvenanceMode.NONE] == outputs[ProvenanceMode.BASELINE]

    @given(workload_configs)
    @settings(max_examples=15, deadline=None)
    def test_genealog_equals_baseline_equals_distributed(self, config):
        genealog = run_intra(config, ProvenanceMode.GENEALOG)
        baseline = run_intra(config, ProvenanceMode.BASELINE)
        distributed = run_inter(config, ProvenanceMode.GENEALOG)
        intra_index = record_index(genealog.provenance_records())
        assert intra_index == record_index(baseline.provenance_records())
        assert intra_index == record_index(distributed.provenance_records())

    @given(workload_configs)
    @settings(max_examples=15, deadline=None)
    def test_reported_sources_are_plausible_contributors(self, config):
        result = run_intra(config, ProvenanceMode.GENEALOG)
        for record in result.provenance_records():
            car = record.sink_values["car_id"]
            window_start = record.sink_ts
            assert record.source_count == record.sink_values["count"]
            for entry in record.sources:
                assert entry["car_id"] == car
                assert entry["speed"] == 0
                assert window_start <= entry["ts_o"] < window_start + 120.0

    @given(workload_configs)
    @settings(max_examples=10, deadline=None)
    def test_one_record_per_sink_tuple(self, config):
        result = run_intra(config, ProvenanceMode.GENEALOG)
        assert len(result.provenance_records()) == result.sink.count
