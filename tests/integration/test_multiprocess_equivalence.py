"""Multiprocess equivalence: OS-process execution reproduces event execution.

The :class:`~repro.spe.multiprocess.MultiprocessRuntime` runs each SPE
instance in its own forked OS process with pipe-backed channels, but the
paper's determinism property (section 2) demands the change be
*unobservable* in every result.  For Q1-Q4 x {NP, GL, BL} x inter x
parallelism {1, 2} these tests run ``execution="process"`` against
``execution="event"`` and compare:

* sink outputs -- byte-identical,
* provenance records -- identical after canonicalising the opaque tuple ids
  (content-sorted relabelling, preserving which records share ids),
* data-channel transfer counts -- identical per-channel tuple counts, GL's
  unfold channels excluded (byte volumes are not compared: the stateful
  binary codec frames one blob per Send flush, and flush sizes follow OS
  scheduling).

The canonicalisers, workloads and ``run_cell`` are :mod:`tests.equivalence`'s,
shared with the parallel, cluster and reference-oracle suites.

A second block checks the live provenance store: a ledger attached to a
process deployment must seal the same mappings and source entries as one
attached to the cooperative run (ledger entries are shipped back to the
coordinator and ingested there), and metrics / latencies must be populated.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.provenance import ProvenanceMode
from tests.equivalence import (  # noqa: F401
    ALL_MODES,
    ALL_QUERIES,
    assert_same_store,
    data_channel_counts,
    deterministic_wall,  # noqa: F401 - autouse fixture: deterministic source wall clocks
    provenance_bytes,
    run_cell,
    run_q1_with_store,
    sink_bytes,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multiprocess execution requires the fork start method",
)

PARALLELISMS = (1, 2)


class TestMultiprocessEquivalence:
    """Q1-Q4 x NP/GL/BL x inter x parallelism {1,2}: process == event."""

    @pytest.mark.parametrize("parallelism", PARALLELISMS)
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.name)
    @pytest.mark.parametrize("query_name", ALL_QUERIES)
    def test_identical_outputs_provenance_and_transfers(
        self, query_name, mode, parallelism
    ):
        event = run_cell(query_name, mode, parallelism)
        process = run_cell(query_name, mode, parallelism, execution="process")

        assert process.sink.count == event.sink.count
        assert sink_bytes(process.sink) == sink_bytes(event.sink)
        assert provenance_bytes(process.provenance_records()) == provenance_bytes(
            event.provenance_records()
        )
        assert data_channel_counts(process.channels) == data_channel_counts(
            event.channels
        )
        if mode is ProvenanceMode.NONE:
            # NP traffic carries no opaque ids, but under the stateful binary
            # codec the *byte* volume depends on batch boundaries (one blob
            # per Send flush, and flush sizes follow OS scheduling across
            # runtimes), so wire bytes are not comparable cell-by-cell.  Every
            # data channel must still have moved actual payload bytes.
            assert all(
                c.bytes_sent > 0 for c in process.channels if c.tuples_sent
            )
            assert all(
                c.bytes_sent > 0 for c in event.channels if c.tuples_sent
            )
        # the shipped counters populate the consolidated metrics snapshot.
        snapshot = process.metrics()
        assert snapshot.total_work_calls > 0
        assert snapshot.total_tuples_sent == process.tuples_transferred()
        assert process.wakeups > 0 and process.rounds > 0


class TestMultiprocessProvenanceStore:
    """Ledger entries produced in the workers ship back to the coordinator."""

    def test_store_matches_event_execution(self):
        assert_same_store(run_q1_with_store("process"), run_q1_with_store("event"))

    def test_sink_latencies_measured_in_the_workers(self):
        result = run_cell("q1", ProvenanceMode.NONE, execution="process")
        assert len(result.sink.latencies) == result.sink.count
        assert all(latency != 0.0 for latency in result.sink.latencies)
