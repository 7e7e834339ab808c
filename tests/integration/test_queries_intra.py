"""Integration tests for Q1-Q4 in the single-process deployment.

Besides basic sanity (alerts are produced, results do not depend on the
provenance technique), these tests check provenance *correctness* against
independent oracles:

* GeneaLog and the Ariadne-style baseline must report exactly the same
  provenance for every sink tuple,
* for Q1 and Q3 the expected contributing source tuples can be computed
  directly from the workload (stopped-car episodes / blacked-out meters), and
  the captured provenance must match,
* the contribution-graph sizes must match the ones reported in section 7 of
  the paper (4 for Q1, 8 for Q2, ~192 for Q3, ~24 for Q4).
"""

from collections import defaultdict

import pytest

from repro.core.provenance import ProvenanceMode
from repro.workloads.linear_road import LinearRoadConfig, LinearRoadGenerator
from repro.workloads.queries import query_pipeline
from repro.workloads.smart_grid import (
    SECONDS_PER_DAY,
    SmartGridConfig,
    SmartGridGenerator,
)
from tests.conftest import record_index

LINEAR_ROAD = LinearRoadConfig(
    n_cars=12, duration_s=1500.0, breakdown_probability=0.05, accident_probability=0.6, seed=21
)
SMART_GRID = SmartGridConfig(
    n_meters=12,
    n_days=3,
    blackout_day_probability=1.0,
    blackout_meter_count=8,
    anomaly_probability=0.2,
    seed=23,
)


def workload_for(query_name):
    if query_name in ("q1", "q2"):
        return LinearRoadGenerator(LINEAR_ROAD).tuples
    return SmartGridGenerator(SMART_GRID).tuples


def run(query_name, mode, fused=True):
    return query_pipeline(query_name, workload_for(query_name), mode=mode, fused=fused).run()


ALL_QUERIES = ("q1", "q2", "q3", "q4")


class TestQueryOutputs:
    @pytest.mark.parametrize("query_name", ALL_QUERIES)
    def test_queries_produce_alerts(self, query_name):
        result = run(query_name, ProvenanceMode.NONE)
        assert result.sink.count > 0

    @pytest.mark.parametrize("query_name", ALL_QUERIES)
    def test_sink_output_is_independent_of_the_technique(self, query_name):
        outputs = {}
        for mode in ProvenanceMode:
            result = run(query_name, mode)
            outputs[mode] = [(t.ts, dict(t.values)) for t in result.sink.received]
        assert outputs[ProvenanceMode.NONE] == outputs[ProvenanceMode.GENEALOG]
        assert outputs[ProvenanceMode.NONE] == outputs[ProvenanceMode.BASELINE]

    @pytest.mark.parametrize("query_name", ALL_QUERIES)
    def test_runs_are_deterministic(self, query_name):
        first = run(query_name, ProvenanceMode.GENEALOG)
        second = run(query_name, ProvenanceMode.GENEALOG)
        assert [(t.ts, dict(t.values)) for t in first.sink.received] == [
            (t.ts, dict(t.values)) for t in second.sink.received
        ]
        assert record_index(first.provenance_records()) == record_index(
            second.provenance_records()
        )


class TestProvenanceAgreement:
    @pytest.mark.parametrize("query_name", ALL_QUERIES)
    def test_genealog_and_baseline_report_identical_provenance(self, query_name):
        genealog = run(query_name, ProvenanceMode.GENEALOG)
        baseline = run(query_name, ProvenanceMode.BASELINE)
        assert record_index(genealog.provenance_records()) == record_index(
            baseline.provenance_records()
        )

    @pytest.mark.parametrize("query_name", ALL_QUERIES)
    def test_one_record_per_sink_tuple(self, query_name, provenance_mode):
        result = run(query_name, provenance_mode)
        assert len(result.provenance_records()) == result.sink.count


class TestProvenanceSizes:
    def test_q1_sizes(self, provenance_mode):
        result = run("q1", provenance_mode)
        sizes = {record.source_count for record in result.provenance_records()}
        assert sizes == {4}

    def test_q2_sizes(self, provenance_mode):
        result = run("q2", provenance_mode)
        sizes = {record.source_count for record in result.provenance_records()}
        # at least two stopped cars with four reports each
        assert all(size >= 8 for size in sizes)
        assert 8 in sizes

    def test_q3_sizes(self, provenance_mode):
        result = run("q3", provenance_mode)
        sizes = {record.source_count for record in result.provenance_records()}
        # 8 blacked-out meters x 24 hourly readings
        assert sizes == {192}

    def test_q4_sizes(self, provenance_mode):
        result = run("q4", provenance_mode)
        sizes = {record.source_count for record in result.provenance_records()}
        # the 24 readings of the previous day plus the midnight reading
        assert sizes == {25}


class TestProvenanceOracles:
    def test_q1_provenance_matches_the_stopped_car_episodes(self, provenance_mode):
        """Every Q1 alert must trace back to exactly the four zero-speed,
        same-position reports of that car inside the alert's window."""
        reports = list(LinearRoadGenerator(LINEAR_ROAD).tuples())
        by_car = defaultdict(list)
        for report in reports:
            by_car[report["car_id"]].append(report)

        result = run("q1", provenance_mode)
        records = result.provenance_records()
        assert records
        for record in records:
            car = record.sink_values["car_id"]
            window_start = record.sink_ts
            window_end = window_start + 120.0
            expected = [
                report.ts
                for report in by_car[car]
                if window_start <= report.ts < window_end and report["speed"] == 0
            ]
            assert record.source_timestamps() == sorted(expected)
            assert len(expected) == 4

    def test_q3_provenance_matches_the_blackout_episodes(self, provenance_mode):
        """Every Q3 alert must trace back to all hourly readings of the
        blacked-out meters of that day."""
        readings = list(SmartGridGenerator(SMART_GRID).tuples())
        result = run("q3", provenance_mode)
        records = result.provenance_records()
        assert records
        for record in records:
            day_start = record.sink_ts
            day_end = day_start + SECONDS_PER_DAY
            day_readings = [r for r in readings if day_start <= r.ts < day_end]
            consumption = defaultdict(float)
            for reading in day_readings:
                consumption[reading["meter_id"]] += reading["cons"]
            blacked_out = {meter for meter, total in consumption.items() if total == 0}
            expected = sorted(
                reading.ts
                for reading in day_readings
                if reading["meter_id"] in blacked_out
            )
            assert record.source_timestamps() == expected
            meters_in_provenance = {entry["meter_id"] for entry in record.sources}
            assert meters_in_provenance == blacked_out

    def test_q4_provenance_contains_the_anomalous_midnight_reading(self, provenance_mode):
        result = run("q4", provenance_mode)
        records = result.provenance_records()
        assert records
        for record in records:
            meter = record.sink_values["meter_id"]
            assert all(entry["meter_id"] == meter for entry in record.sources)
            midnight_readings = [
                entry
                for entry in record.sources
                if entry["ts_o"] % SECONDS_PER_DAY == 0
                and entry["cons"] == SMART_GRID.anomaly_consumption
            ]
            assert midnight_readings, "the anomalous reading must be part of the provenance"
