"""Tests for the window-provenance optimisation (paper section 9, item i).

When an Aggregate declares which window tuples actually determined its output
(e.g. the single maximum tuple), GeneaLog can link the output to that subset
only, so the remaining window tuples become reclaimable and the contribution
graph shrinks -- without changing the query's results.
"""

import gc
import weakref

import pytest

from repro.api import Dataflow, Pipeline
from repro.core.instrumentation import GeneaLogProvenance
from repro.core.meta import get_meta
from repro.core.provenance import ProvenanceMode
from repro.core.types import TupleType
from repro.spe.operators.aggregate import WindowSpec
from tests.optest import tup


def max_speed_aggregate(window, key):
    fastest = max(window, key=lambda t: t["speed"])
    return {"car_id": key, "max_speed": fastest["speed"], "max_ts": fastest.ts}


def max_speed_contributors(window, key, values):
    return [t for t in window if t["speed"] == values["max_speed"]][:1]


def run_max_query(supplier, mode=ProvenanceMode.GENEALOG, contributors=True):
    df = Dataflow("max-speed")
    df.source("source", supplier).aggregate(
        WindowSpec(size=60),
        max_speed_aggregate,
        key_function=lambda t: t["car_id"],
        contributors_function=max_speed_contributors if contributors else None,
        name="max_speed",
    ).sink("sink")
    return Pipeline(df, provenance=mode).run()


def readings():
    return [
        tup(1, car_id="a", speed=10),
        tup(10, car_id="a", speed=42),
        tup(20, car_id="a", speed=7),
        tup(30, car_id="a", speed=13),
    ]


class TestInstrumentationHook:
    def test_single_contributor_uses_single_parent_layout(self):
        manager = GeneaLogProvenance()
        window = [tup(ts, v=ts) for ts in (1, 2, 3)]
        for window_tuple in window:
            manager.on_source_output(window_tuple)
        out = tup(0)
        manager.on_aggregate_output(out, window, contributors=[window[1]])
        meta = get_meta(out)
        assert meta.type is TupleType.MAP
        assert meta.u1 is window[1]
        assert manager.unfold(out) == [window[1]]

    def test_two_contributors_use_pair_layout(self):
        manager = GeneaLogProvenance()
        window = [tup(ts, v=ts) for ts in (1, 2, 3)]
        for window_tuple in window:
            manager.on_source_output(window_tuple)
        out = tup(0)
        manager.on_aggregate_output(out, window, contributors=[window[2], window[0]])
        meta = get_meta(out)
        assert meta.type is TupleType.JOIN
        assert meta.u1 is window[2]
        assert meta.u2 is window[0]
        assert set(manager.unfold(out)) == {window[0], window[2]}

    def test_larger_subsets_fall_back_to_the_full_window(self):
        manager = GeneaLogProvenance()
        window = [tup(ts, v=ts) for ts in (1, 2, 3, 4)]
        for window_tuple in window:
            manager.on_source_output(window_tuple)
        out = tup(0)
        manager.on_aggregate_output(out, window, contributors=window[:3])
        meta = get_meta(out)
        assert meta.type is TupleType.AGGREGATE
        assert manager.unfold(out) == window

    def test_empty_subset_falls_back_to_the_full_window(self):
        manager = GeneaLogProvenance()
        window = [tup(1, v=1), tup(2, v=2)]
        for window_tuple in window:
            manager.on_source_output(window_tuple)
        out = tup(0)
        manager.on_aggregate_output(out, window, contributors=[])
        assert get_meta(out).type is TupleType.AGGREGATE


class TestEndToEnd:
    @pytest.mark.parametrize(
        "mode", [ProvenanceMode.GENEALOG, ProvenanceMode.BASELINE], ids=["GL", "BL"]
    )
    def test_provenance_is_the_single_maximum_reading(self, mode):
        result = run_max_query(readings(), mode)
        assert result.sink.count == 1
        records = result.provenance_records()
        assert len(records) == 1
        record = records[0]
        assert record.source_count == 1
        assert record.sources[0]["ts_o"] == 10
        assert record.sources[0]["speed"] == 42

    def test_query_results_are_unchanged_by_the_optimisation(self):
        sink_a = run_max_query(readings(), contributors=True).sink
        sink_b = run_max_query(readings(), contributors=False).sink
        assert [t.values for t in sink_a.received] == [t.values for t in sink_b.received]

    def test_without_the_optimisation_the_whole_window_contributes(self):
        result = run_max_query(readings(), contributors=False)
        assert result.provenance_records()[0].source_count == 4

    def test_non_contributing_tuples_become_reclaimable(self):
        refs = []

        def supplier():
            for reading in readings():
                refs.append(weakref.ref(reading))
                yield reading

        result = run_max_query(supplier)
        assert result.sink.count == 1
        gc.collect()
        alive = [ref() for ref in refs if ref() is not None]
        # only the maximum reading is still reachable (through the sink tuple).
        assert len(alive) == 1
        assert alive[0]["speed"] == 42
