"""Integration tests reproducing the running example of the paper (Figures 1-4).

The sample query Q1 (Figure 1) detects broken-down cars: a Filter keeps
zero-speed reports, an Aggregate counts them per car over a 120s/30s window
and a Filter raises the alert when four reports share one position.  Fed the
six position reports of Figure 1, the query produces the sink tuple
``(08:00:00, a, 4, 1)`` and its provenance is the four reports of car "a"
(Figure 2).
"""


from repro.core.provenance import ProvenanceMode
from repro.workloads.queries import query_pipeline
from tests.conftest import FIGURE1_BASE_TS, figure1_reports


class TestFigure1Example:
    def _run(self, mode, fused=True):
        return query_pipeline("q1", figure1_reports, mode=mode, fused=fused).run()

    def test_sink_tuple_matches_the_paper(self):
        result = self._run(ProvenanceMode.NONE)
        assert len(result.sink.received) == 1
        alert = result.sink.received[0]
        assert alert.ts == FIGURE1_BASE_TS
        assert alert["car_id"] == "a"
        assert alert["count"] == 4
        assert alert["dist_pos"] == 1

    def test_sink_output_is_identical_under_all_techniques(self):
        results = {}
        for mode in ProvenanceMode:
            result = self._run(mode)
            results[mode] = [(t.ts, dict(t.values)) for t in result.sink.received]
        assert results[ProvenanceMode.NONE] == results[ProvenanceMode.GENEALOG]
        assert results[ProvenanceMode.NONE] == results[ProvenanceMode.BASELINE]

    def test_provenance_is_the_four_reports_of_car_a(self, provenance_mode):
        result = self._run(provenance_mode)
        records = result.provenance_records()
        assert len(records) == 1
        record = records[0]
        assert record.sink_values["car_id"] == "a"
        expected_offsets = [1, 31, 61, 91]
        assert record.source_timestamps() == [
            FIGURE1_BASE_TS + offset for offset in expected_offsets
        ]
        assert all(entry["car_id"] == "a" for entry in record.sources)
        assert all(entry["pos"] == "X" for entry in record.sources)
        assert all(entry["type_o"] == "SOURCE" for entry in record.sources)

    def test_non_contributing_reports_are_excluded(self, provenance_mode):
        result = self._run(provenance_mode)
        record = result.provenance_records()[0]
        contributing_cars = {entry["car_id"] for entry in record.sources}
        # the reports of cars "b" (moving) and "c" (stopped only once) do not
        # contribute to the alert.
        assert contributing_cars == {"a"}

    def test_composed_su_produces_the_same_provenance(self, provenance_mode):
        fused = self._run(provenance_mode, fused=True).provenance_records()
        composed = self._run(provenance_mode, fused=False).provenance_records()
        assert [r.source_timestamps() for r in fused] == [
            r.source_timestamps() for r in composed
        ]

    def test_provenance_size_matches_section_7(self, provenance_mode):
        # "As for provenance, 4 source tuples contribute to each sink tuple" (Q1).
        result = self._run(provenance_mode)
        assert [r.source_count for r in result.provenance_records()] == [4]
