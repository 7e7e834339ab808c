"""The house equivalence oracle: one canonicaliser, one set of workloads.

The paper's determinism property (section 2) makes a run's result a pure
function of the source data, so every execution of a query -- any runtime,
any parallelism -- must agree on

* sink outputs -- byte-identical (:func:`sink_bytes`),
* provenance records -- identical after canonicalising the *opaque tuple
  ids* (:func:`provenance_bytes`): ids are run-local handles drawn from
  per-instance counters, so their raw values legitimately differ between
  plans and runtimes, while the sink-to-sources mapping and which records
  *share* a handle may not,
* data-channel tuple counts (:func:`data_channel_counts`).

The parallel, multiprocess, cluster and reference-oracle suites all import
these helpers, the Linear Road / Smart Grid configurations and
:func:`run_cell` from here so they cannot drift apart.
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro.api import Pipeline
from repro.core.provenance import ProvenanceMode
from repro.provstore import ProvenanceLedger
from repro.spe.operators.source import SourceOperator
from repro.workloads.linear_road import LinearRoadConfig, LinearRoadGenerator
from repro.workloads.queries import query_dataflow, query_pipeline, query_placement
from repro.workloads.smart_grid import SmartGridConfig, SmartGridGenerator

LINEAR_ROAD = LinearRoadConfig(
    n_cars=10, duration_s=1200.0, breakdown_probability=0.05, accident_probability=0.6, seed=31
)
#: blackout_meter_count > 7 so Q3's alert (count > 7) fires next to Q4's.
SMART_GRID = SmartGridConfig(
    n_meters=12,
    n_days=3,
    blackout_day_probability=1.0,
    blackout_meter_count=9,
    anomaly_probability=0.2,
    seed=33,
)

ALL_QUERIES = ("q1", "q2", "q3", "q4")
ALL_MODES = (ProvenanceMode.NONE, ProvenanceMode.GENEALOG, ProvenanceMode.BASELINE)


@pytest.fixture(autouse=True)
def deterministic_wall(monkeypatch):
    """Give every Source a deterministic per-tuple wall clock.

    ``wall`` is serialised into channel payloads; pinning it to a per-source
    counter makes payload bytes a pure function of the data, so wire volumes
    can be compared across runtimes.  Forked workers inherit the patched
    class.  Autouse in every module that imports it.
    """
    original = SourceOperator.__init__

    def patched(self, name, supplier, batch_size=64, wall_clock=None, enforce_order=True):
        counter = itertools.count(1)
        original(
            self,
            name,
            supplier,
            batch_size=batch_size,
            wall_clock=lambda: float(next(counter)),
            enforce_order=enforce_order,
        )

    monkeypatch.setattr(SourceOperator, "__init__", patched)


def workload_for(query_name):
    """The tuple supplier of ``query_name``'s workload (a fresh generator per call)."""
    if query_name in ("q1", "q2"):
        return LinearRoadGenerator(LINEAR_ROAD).tuples
    return SmartGridGenerator(SMART_GRID).tuples


def sink_bytes(sink):
    """Canonical byte serialisation of a sink's received tuples, in order."""
    return json.dumps(
        [(t.ts, sorted(t.values.items(), key=lambda kv: kv[0])) for t in sink.received],
        default=str,
    ).encode()


def provenance_bytes(records):
    """Canonical bytes of provenance records, ids relabelled structurally.

    Records are sorted by content; each record's sources are sorted by their
    id-stripped content (the within-record arrival order of unfolded tuples
    legitimately differs between plans -- a Merge reorders upstream unfold
    streams); canonical ids are then assigned in that traversal order.  Two
    runs compare equal iff they map the same sink tuples to the same source
    tuples with consistently shared id handles.
    """
    content = []
    for record in records:
        sources = []
        for source in record.sources:
            stripped = json.dumps(
                {key: value for key, value in source.items() if key != "id_o"},
                sort_keys=True,
                default=str,
            )
            sources.append((stripped, source.get("id_o")))
        sources.sort(key=lambda pair: pair[0])
        content.append(
            (
                record.sink_ts,
                json.dumps(sorted(record.sink_values.items()), default=str),
                [pair[0] for pair in sources],
                record,
                sources,
            )
        )
    content.sort(key=lambda entry: entry[:3])
    canonical = {}

    def canon(raw_id):
        if raw_id is None:
            return None
        if raw_id not in canonical:
            canonical[raw_id] = f"id{len(canonical)}"
        return canonical[raw_id]

    entries = []
    for sink_ts, sink_values, _, record, sources in content:
        entries.append(
            (
                sink_ts,
                sink_values,
                canon(record.sink_id),
                [(stripped, canon(raw_id)) for stripped, raw_id in sources],
            )
        )
    return json.dumps(entries, default=str).encode()


def data_channel_counts(channels):
    """Per-channel tuple counts, GL unfold-stream channels excluded.

    The SU's per-watermark emission granularity on the ``upstream_*`` /
    ``derived`` channels legitimately depends on OS timing across processes
    (the MU deduplicates the extra records, so the collected provenance is
    unaffected); two process runs of one deployment can already differ there.
    """
    return sorted(
        (channel.name, channel.tuples_sent)
        for channel in channels
        if "upstream_" not in channel.name and not channel.name.endswith("_derived")
    )


#: (query, mode, parallelism, deployment) -> finished in-process PipelineResult.
_EVENT_RESULTS = {}


def run_cell(query_name, mode, parallelism=1, deployment="inter", execution="event"):
    """Run one cell of the equivalence matrix; return its ``PipelineResult``.

    In-process cells are run once per session and shared by every suite
    (read-only: none of the compared quantities depends on the wall stamps,
    and no test mutates a result); out-of-process cells run fresh on every
    call.
    """
    def run():
        return query_pipeline(
            query_name,
            workload_for(query_name),
            mode=mode,
            deployment=deployment,
            execution=execution,
            parallelism=parallelism,
        ).run()

    if execution != "event":
        return run()
    key = (query_name, mode, parallelism, deployment)
    if key not in _EVENT_RESULTS:
        _EVENT_RESULTS[key] = run()
    return _EVENT_RESULTS[key]


def run_q1_with_store(execution):
    """Q1 under GL on the paper's placement, feeding a fresh in-memory ledger."""
    ledger = ProvenanceLedger()
    Pipeline(
        query_dataflow("q1", workload_for("q1")),
        provenance=ProvenanceMode.GENEALOG,
        placement=query_placement("q1"),
        execution=execution,
        provenance_store=ledger,
    ).run()
    return ledger


def canonical_mappings(ledger):
    """Sealed mappings as id-free content: (sink ts, sink values, source contents).

    The ledger keys embed GeneaLog's per-instance id counters, whose raw
    values depend on OS-timing-dependent SU emission batching out of process
    (like the unfold-channel counts above); the *structure* -- which sink
    tuples map to which source contents -- is what determinism guarantees.
    """

    def content(entry):
        return json.dumps(
            {"ts": entry.ts, "kind": entry.kind, "values": entry.values},
            sort_keys=True,
            default=str,
        )

    return sorted(
        (
            mapping.sink_ts,
            json.dumps(sorted(mapping.sink_values.items()), default=str),
            sorted(content(source) for source in ledger.sources_of(mapping)),
        )
        for mapping in ledger.mappings()
    )


def assert_same_store(ledger, reference_ledger):
    """Both ledgers sealed the same mappings over the same source entries."""
    assert ledger.sealed_count == reference_ledger.sealed_count
    assert ledger.source_count == reference_ledger.source_count
    assert ledger.source_references == reference_ledger.source_references
    assert ledger.duplicate_tuples == reference_ledger.duplicate_tuples
    assert canonical_mappings(ledger) == canonical_mappings(reference_ledger)
