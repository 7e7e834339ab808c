"""Keyed data-parallelism equivalence: sharded plans reproduce sequential plans.

The keyed-parallel expansion (hash Partition -> key-disjoint replicas ->
order-restoring Merge) must be *unobservable* in every result: for
Q1-Q4 x {NP, GL, BL} x {intra, inter} x parallelism {2, 4}, the sink outputs
must be byte-identical to the ``parallelism=1`` plan of the same deployment,
and the provenance records must be identical after canonicalising the opaque
tuple ids (:mod:`tests.equivalence`).
"""

from __future__ import annotations

import pytest

from repro.core.provenance import ProvenanceMode
from tests.equivalence import (  # noqa: F401
    ALL_MODES,
    ALL_QUERIES,
    deterministic_wall,  # noqa: F401 - autouse fixture: deterministic source wall clocks
    provenance_bytes,
    run_cell,
    sink_bytes,
)

PARALLELISMS = (2, 4)


class TestParallelEquivalence:
    """parallelism {2, 4} vs the parallelism=1 plan, per deployment."""

    @pytest.mark.parametrize("parallelism", PARALLELISMS)
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.name)
    @pytest.mark.parametrize("deployment", ("intra", "inter"))
    @pytest.mark.parametrize("query_name", ALL_QUERIES)
    def test_sink_and_provenance_identical(
        self, query_name, deployment, mode, parallelism
    ):
        sequential = run_cell(query_name, mode, 1, deployment=deployment)
        parallel = run_cell(query_name, mode, parallelism, deployment=deployment)
        assert sink_bytes(parallel.sink) == sink_bytes(sequential.sink)
        assert provenance_bytes(parallel.provenance_records()) == provenance_bytes(
            sequential.provenance_records()
        )

    def test_suites_exercise_alerts(self):
        """The chosen workloads must actually produce sink tuples (and, for
        the provenance modes, records) -- otherwise the byte comparisons
        above would pass vacuously."""
        for query_name in ALL_QUERIES:
            result = run_cell(query_name, ProvenanceMode.GENEALOG, deployment="intra")
            assert result.sink.count > 0, f"{query_name} produced no alerts"
            assert result.provenance_records(), f"{query_name} captured no provenance"


class TestParallelDeployment:
    """Structural properties of the sharded plans."""

    @pytest.mark.parametrize("query_name", ALL_QUERIES)
    def test_replicas_split_the_work(self, query_name):
        """Every replica of the (first) sharded stage sees a strict subset of
        the keyed stream, and the shards' inputs sum to the sequential
        stage's input."""
        sequential = run_cell(query_name, ProvenanceMode.NONE, 1, deployment="intra")
        parallel = run_cell(query_name, ProvenanceMode.NONE, 4, deployment="intra")
        stage = {
            "q1": "stop_aggregate",
            "q2": "stop_aggregate",
            "q3": "daily_aggregate",
            "q4": "daily_aggregate",
        }[query_name]
        replicas = [
            op for op in parallel.query.operators if op.name.startswith(f"{stage}_shard")
        ]
        assert len(replicas) == 4
        sequential_stage = next(
            op for op in sequential.query.operators if op.name == stage
        )
        assert sum(op.tuples_in for op in replicas) == sequential_stage.tuples_in
        busy = [op for op in replicas if op.tuples_in > 0]
        assert len(busy) >= 2, "hash partitioning left all keys on one shard"

    def test_inter_deployment_spreads_shards_across_instances(self):
        result = run_cell("q1", ProvenanceMode.NONE, 2)
        owners = {
            op.name: instance.name
            for instance in result.instances
            for op in instance.operators
        }
        assert owners["stop_aggregate_shard0"] != owners["stop_aggregate_shard1"]
        assert owners["stop_aggregate_partition"] == "spe1"
        assert owners["stop_aggregate_merge"] == "spe2"
