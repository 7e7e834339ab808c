"""Integration tests for GeneaLog's memory-reclamation property (challenge C2).

The paper's claim: GeneaLog never needs to store the source stream -- a source
tuple stays in memory exactly as long as something that may still contribute
to a result references it (here: CPython reference counting), while the
baseline must keep *every* source tuple in its store.

These tests observe that directly with weak references to the source tuples.
The last class counts metadata blocks instead: GeneaLog's cost is proportional
to the tuples that *contribute*, not to the tuples that flow.
"""

import gc
import multiprocessing
import types
import weakref

import pytest

from repro.api import Pipeline
from repro.core.meta import GeneaLogMeta
from repro.core.provenance import ProvenanceMode
from repro.provstore import ProvenanceLedger
from repro.spe.tuples import StreamTuple
from repro.workloads.linear_road import LinearRoadConfig, LinearRoadGenerator
from repro.workloads.queries import query_dataflow, query_pipeline, query_placement

CONFIG = LinearRoadConfig(
    n_cars=10, duration_s=1200.0, breakdown_probability=0.05, seed=77
)


def run_with_weakrefs(mode):
    """Run Q1 under ``mode`` keeping only weak references to the source tuples."""
    refs = []

    def supplier():
        for source_tuple in LinearRoadGenerator(CONFIG).tuples():
            refs.append(weakref.ref(source_tuple))
            yield source_tuple

    result = query_pipeline("q1", supplier, mode=mode).run()
    gc.collect()
    alive = sum(1 for ref in refs if ref() is not None)
    return result, refs, alive


class TestMemoryReclamation:
    def test_genealog_only_retains_contributing_sources(self):
        result, refs, alive = run_with_weakrefs(ProvenanceMode.GENEALOG)
        total = len(refs)
        contributing = {
            (entry["ts_o"], entry["car_id"])
            for record in result.provenance_records()
            for entry in record.sources
        }
        assert result.sink.count > 0
        # Every non-contributing source tuple has been reclaimed; what stays
        # alive is bounded by the contributing tuples still referenced
        # through the retained sink tuples (result.sink.received).
        assert alive < total
        assert alive <= len(contributing) * 2  # sliding windows may pin a few extras

    def test_genealog_releases_everything_once_results_are_dropped(self):
        result, refs, _ = run_with_weakrefs(ProvenanceMode.GENEALOG)
        result.sink.clear()
        del result
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_baseline_retains_every_source_tuple(self):
        result, refs, alive = run_with_weakrefs(ProvenanceMode.BASELINE)
        # The baseline's store pins the whole source stream, contributing or not.
        assert alive == len(refs)
        assert result.managers["q1"].retained_items() == len(refs)

    def test_no_provenance_retains_nothing(self):
        result, refs, alive = run_with_weakrefs(ProvenanceMode.NONE)
        assert result.sink.count > 0
        assert alive == 0


def reachable_stream_tuples(*roots):
    """How many tuples (blocks included) ``roots`` reach through plain data.

    Classes, modules and functions are not followed: they reach everything.
    """
    seen, stack, found = set(), list(roots), 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, StreamTuple):
            found += 1
            continue
        stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("execution", ["event", "process"])
def test_records_and_ledger_hold_no_tuple(execution):
    """Records and ledger keep payload dicts and entries, never a tuple or block."""
    if execution == "process" and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("execution='process' forks its workers")
    refs = []

    def supplier():
        for source_tuple in LinearRoadGenerator(CONFIG).tuples():
            refs.append(weakref.ref(source_tuple))
            yield source_tuple

    store = ProvenanceLedger()
    pipeline = Pipeline(
        query_dataflow("q1", supplier), provenance="genealog", placement=query_placement("q1"),
        execution=execution, provenance_store=store,
    )
    result = pipeline.run()
    records, collector = result.provenance_records(), result.collectors["sink"]
    assert records and store.sealed_count == len(records) == result.sink.count
    assert reachable_stream_tuples(records, collector, store) == 0
    result.sink.clear()
    del result, pipeline
    gc.collect()
    # in process, the sources lived in a worker: the coordinator saw none.
    assert all(ref() is None for ref in refs)
    assert (len(refs) > 0) is (execution == "event")


class TestContributionProportionalMetadata:
    def test_q1_allocates_fewer_blocks_than_source_tuples(self):
        # The perfbench smoke scale of q1_intra: 40 cars x 1 h.
        config = LinearRoadConfig(n_cars=40, duration_s=3600.0, seed=1)
        source_tuples = list(LinearRoadGenerator(config).tuples())
        allocated = [0]
        plain_init = GeneaLogMeta.__init__

        def counting_init(self, *args, **kwargs):
            allocated[0] += 1
            plain_init(self, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(GeneaLogMeta, "__init__", counting_init)
            result = Pipeline(query_dataflow("q1", source_tuples), provenance="genealog").run()

        assert result.sink.count > 0 and result.provenance_records()
        # Deterministic: the count depends on the input alone.  At the parent
        # commit it was above len(source_tuples) (one block per source tuple
        # plus one per derived tuple).
        assert 0 < allocated[0] < len(source_tuples)
        dropped = [tup for tup in source_tuples if tup.values["speed"] != 0]
        assert len(dropped) > len(source_tuples) // 2
        # A tuple the first Filter drops carries zero provenance bytes.
        assert all(tup.meta is None for tup in dropped)
