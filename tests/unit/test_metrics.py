"""Unit tests for the execution-counter snapshot of ``PipelineResult.metrics()``."""

import dataclasses
import json

import pytest

from repro.spe.metrics import ChannelCounters, MetricsSnapshot, snapshot_operators
from repro.spe.operators.filter import FilterOperator
from tests.optest import feed, run_operator, tup, wire


def filter_that_ran(name):
    """A Filter that received three tuples and kept the two even ones."""
    operator = FilterOperator(name, lambda t: t["v"] % 2 == 0)
    (stream,), _ = wire(operator)
    feed(stream, [tup(1.0, v=1), tup(2.0, v=2), tup(3.0, v=4)], close=True)
    run_operator(operator)
    return operator


def snapshot():
    operators = snapshot_operators([filter_that_ran("keep")], instance="spe1")
    operators.update(snapshot_operators([filter_that_ran("keep_shard0")]))
    channels = {
        "data": ChannelCounters("data", tuples_sent=5, bytes_sent=120),
        "upstream": ChannelCounters("upstream", tuples_sent=2, bytes_sent=40),
    }
    return MetricsSnapshot(operators=operators, channels=channels)


class TestSnapshotOperators:
    def test_intra_process_keys_are_bare_names(self):
        operator = filter_that_ran("keep")
        (key, counters), = snapshot_operators([operator]).items()
        assert key == "keep"
        assert counters.instance is None
        assert counters.kind == "FilterOperator"
        assert (counters.tuples_in, counters.tuples_out) == (3, 2)
        assert counters.work_calls == operator.work_calls

    def test_distributed_keys_are_qualified_with_the_instance(self):
        (key, counters), = snapshot_operators(
            [filter_that_ran("keep")], instance="spe2"
        ).items()
        assert key == "spe2/keep"
        assert (counters.name, counters.instance) == ("keep", "spe2")

    def test_counters_are_frozen(self):
        counters = snapshot().operators["spe1/keep"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            counters.tuples_in = 0


class TestMetricsSnapshot:
    def test_totals_sum_over_operators_and_channels(self):
        metrics = snapshot()
        assert metrics.total_work_calls == sum(
            op.work_calls for op in metrics.operators.values()
        )
        assert (metrics.total_tuples_sent, metrics.total_bytes_sent) == (7, 160)

    def test_operators_named_matches_the_unqualified_prefix(self):
        metrics = snapshot()
        assert set(metrics.operators_named("keep")) == {"spe1/keep", "keep_shard0"}
        assert set(metrics.operators_named("keep_shard")) == {"keep_shard0"}
        assert metrics.operators_named("spe1") == {}

    def test_document_is_json_ready(self):
        metrics = snapshot()
        document = metrics.to_document()
        assert json.loads(json.dumps(document)) == document
        assert document["operators"]["spe1/keep"] == {
            "kind": "FilterOperator",
            "work_calls": metrics.operators["spe1/keep"].work_calls,
            "tuples_in": 3,
            "tuples_out": 2,
        }
        assert document["channels"]["data"] == {"tuples_sent": 5, "bytes_sent": 120}
