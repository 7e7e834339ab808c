"""Unit tests for the fluent dataflow DSL (:mod:`repro.api.dataflow`).

The load-bearing half is structural parity: for Q1-Q4, in every provenance
mode, the DSL-built deployments must be operator-for-operator identical to
the frozen legacy ``add_*``/``connect`` constructions of
:mod:`tests.legacy_queries` -- same operator names and types, same edges,
same input port order (Join left/right), same channels.
"""

from __future__ import annotations

import pytest

from repro.analysis import PlanAnalysisError
from repro.api import Dataflow, DataflowError, Pipeline, Placement
from repro.core.provenance import ProvenanceMode
from repro.spe.errors import QueryValidationError
from repro.spe.operators.aggregate import WindowSpec
from repro.spe.operators.base import Operator
from repro.spe.operators.filter import FilterOperator
from repro.spe.operators.join import JoinOperator
from repro.spe.operators.map import MapOperator
from repro.spe.operators.multiplex import MultiplexOperator
from repro.spe.operators.router import RouterOperator
from repro.spe.operators.sort import SortOperator
from repro.spe.operators.union import UnionOperator
from repro.spe.query import Query
from repro.spe.tuples import StreamTuple
from repro.workloads.queries import QUERY_NAMES, query_pipeline
from tests import legacy_queries

ALL_MODES = (ProvenanceMode.NONE, ProvenanceMode.GENEALOG, ProvenanceMode.BASELINE)
MODE_IDS = [mode.label for mode in ALL_MODES]


def tuples(*rows):
    return [StreamTuple(ts=float(ts), values=dict(values)) for ts, values in rows]


def supplier():
    return tuples((1.0, {"v": 1}), (2.0, {"v": 2}), (3.0, {"v": 3}))


# ---------------------------------------------------------------------------
# DSL mechanics
# ---------------------------------------------------------------------------


class TestDataflowMechanics:
    def test_linear_chain_lowering(self):
        df = Dataflow("chain")
        (df.source("src", supplier)
           .map(lambda t: t, name="identity")
           .filter(lambda t: t["v"] > 1, name="keep")
           .sink("out"))
        query = Pipeline(df).build().query
        assert [op.name for op in query.operators] == ["src", "identity", "keep", "out"]
        assert isinstance(query["identity"], MapOperator)
        assert isinstance(query["keep"], FilterOperator)

    def test_auto_generated_stage_names(self):
        df = Dataflow("auto")
        df.source("src", supplier).filter(lambda t: True).filter(lambda t: True).sink()
        assert df.node_names == ["src", "filter_1", "filter_2", "sink_1"]

    def test_auto_names_skip_explicitly_taken_names(self):
        df = Dataflow("auto2")
        (df.source("src", supplier)
           .filter(lambda t: True, name="filter_1")
           .filter(lambda t: True)
           .sink())
        assert df.node_names == ["src", "filter_1", "filter_2", "sink_1"]

    def test_duplicate_stage_name_rejected(self):
        df = Dataflow("dup")
        stream = df.source("src", supplier)
        stream.filter(lambda t: True, name="f")
        with pytest.raises(DataflowError, match="already has a stage named 'f'"):
            stream.filter(lambda t: True, name="f")

    def test_split_fans_out(self):
        df = Dataflow("fanout")
        split = df.source("src", supplier).split(name="copy")
        split.filter(lambda t: True, name="left").sink("left_sink")
        split.filter(lambda t: False, name="right").sink("right_sink")
        query = Pipeline(df).build().query
        assert isinstance(query["copy"], MultiplexOperator)
        assert len(query["copy"].outputs) == 2

    def test_join_port_order(self):
        df = Dataflow("joined")
        split = df.source("src", supplier).split(name="copy")
        left = split.map(lambda t: t, name="left")
        right = split.map(lambda t: t, name="right")
        left.join(
            right, 10.0, lambda a, b: True, lambda a, b: a.values, name="pair"
        ).sink("out")
        query = Pipeline(df).build().query
        join = query["pair"]
        assert isinstance(join, JoinOperator)
        producers = [query.producer_of(stream).name for stream in join.inputs]
        assert producers == ["left", "right"]

    def test_union_merges(self):
        df = Dataflow("merged")
        split = df.source("src", supplier).split(name="copy")
        a = split.filter(lambda t: True, name="a")
        b = split.filter(lambda t: True, name="b")
        a.union(b, name="both").sink("out")
        query = Pipeline(df).build().query
        union = query["both"]
        assert isinstance(union, UnionOperator)
        assert {query.producer_of(stream).name for stream in union.inputs} == {"a", "b"}

    def test_router_ports_follow_predicate_order(self):
        df = Dataflow("routed")
        low, high = df.source("src", supplier).router(
            [lambda t: t["v"] < 2, lambda t: t["v"] >= 2], name="route"
        )
        # Attach downstream stages in *reverse* port order: the lowering must
        # still wire router port 0 to `low` and port 1 to `high`.
        high_sink = high.sink("high_sink")
        low_sink = low.sink("low_sink")
        query = Pipeline(df).build().query
        router = query["route"]
        assert isinstance(router, RouterOperator)
        consumers = []
        for stream in router.outputs:
            for op in query.operators:
                if stream in op.inputs:
                    consumers.append(op.name)
        assert consumers == ["low_sink", "high_sink"]

    def test_unordered_source_feeds_unsorted_stream_into_sort(self):
        df = Dataflow("sorted")
        (df.source("src", supplier, enforce_order=False)
           .sort(slack=10.0, name="reorder")
           .sink("out"))
        query = Pipeline(df).build().query
        sort = query["reorder"]
        assert isinstance(sort, SortOperator)
        assert sort.inputs[0].enforce_order is False
        assert sort.outputs[0].enforce_order is True

    def test_custom_operator_instance_is_single_use(self):
        class Passthrough(Operator):
            max_inputs = 1
            max_outputs = 1

        df = Dataflow("custom")
        df.source("src", supplier).pipe(Passthrough("custom_op")).sink("out")
        operators = df.lower_into(Query("custom"))
        assert isinstance(operators["custom_op"], Passthrough)
        with pytest.raises(DataflowError, match="can only be lowered once"):
            df.lower_into(Query("custom"))

    def test_dataflow_retention_sums_window_sizes(self):
        df = Dataflow("windows")
        split = df.source("src", supplier).split()
        agg = split.aggregate(
            WindowSpec(size=120.0, advance=30.0), lambda w, k: {}, name="agg"
        )
        other = split.filter(lambda t: True, name="f")
        agg.join(other, 60.0, lambda a, b: True, lambda a, b: {}, name="j").sink()
        assert df.retention_s() == 180.0

    def test_connect_error_names_offending_operators(self):
        query = Query("q")
        inside = query.add_filter("inside", lambda t: True)
        outside = FilterOperator("outside", lambda t: True)
        with pytest.raises(QueryValidationError, match="'outside'"):
            query.connect(inside, outside)

    def test_connect_rejects_self_loop(self):
        query = Query("q")
        op = query.add_filter("loopy", lambda t: True)
        with pytest.raises(QueryValidationError, match="itself"):
            query.connect(op, op)


class TestPlacementValidation:
    def _dataflow(self):
        df = Dataflow("pv")
        df.source("src", supplier).filter(lambda t: True, name="f").sink("out")
        return df

    def test_unassigned_stage_rejected(self):
        placement = Placement({"spe1": ("src", "f")})
        with pytest.raises(PlanAnalysisError, match="does not assign stage") as info:
            Pipeline(self._dataflow(), placement=placement).build()
        assert info.value.report.rule_ids() == ["placement.invalid"]

    def test_unknown_stage_rejected(self):
        placement = Placement({"spe1": ("src", "f", "out", "ghost")})
        with pytest.raises(PlanAnalysisError, match="unknown stage") as info:
            Pipeline(self._dataflow(), placement=placement).build()
        assert info.value.report.rule_ids() == ["placement.invalid"]

    def test_doubly_assigned_stage_rejected(self):
        placement = Placement({"spe1": ("src", "f"), "spe2": ("f", "out")})
        with pytest.raises(PlanAnalysisError, match="assigned to both") as info:
            Pipeline(self._dataflow(), placement=placement).build()
        assert info.value.report.rule_ids() == ["placement.invalid"]

    def test_provenance_instance_name_reserved(self):
        with pytest.raises(DataflowError, match="reserved"):
            Placement({"provenance_node": ("src",)})


# ---------------------------------------------------------------------------
# structural parity with the legacy add_*/connect constructions
# ---------------------------------------------------------------------------


def query_signature(query):
    """Operators (name, type), edges and per-operator input port order."""
    operators = sorted((op.name, type(op).__name__) for op in query.operators)
    edges = sorted(
        (query.producer_of(stream).name, op.name)
        for op in query.operators
        for stream in op.inputs
    )
    input_ports = {
        op.name: [query.producer_of(stream).name for stream in op.inputs]
        for op in query.operators
    }
    return operators, edges, input_ports


def small_supplier(query_name):
    if query_name in ("q1", "q2"):
        rows = [(30.0 * i, {"car_id": f"c{i % 3}", "speed": 0, "pos": "X"}) for i in range(12)]
    else:
        rows = [(3600.0 * i, {"meter_id": f"m{i % 3}", "cons": 0.0}) for i in range(12)]
    return lambda: tuples(*rows)


class TestLegacyParityIntra:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("query_name", QUERY_NAMES)
    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "composed"])
    def test_dsl_query_is_operator_for_operator_identical(self, query_name, mode, fused):
        supplier = small_supplier(query_name)
        dsl = query_pipeline(query_name, supplier, mode=mode, fused=fused).build()
        legacy = legacy_queries.build_query(query_name, supplier, mode=mode, fused=fused)
        assert query_signature(dsl.query) == query_signature(legacy.query)
        assert dsl.source.name == legacy.source.name
        assert dsl.sink.name == legacy.sink.name
        assert sorted(dsl.capture.collectors) == sorted(legacy.capture.collectors)


class TestLegacyParityInter:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("query_name", QUERY_NAMES)
    def test_dsl_deployment_is_instance_for_instance_identical(self, query_name, mode):
        supplier = small_supplier(query_name)
        dsl = query_pipeline(query_name, supplier, mode=mode, deployment="inter").build()
        legacy = legacy_queries.build_distributed_query(query_name, supplier, mode=mode)
        assert [i.name for i in dsl.instances] == [i.name for i in legacy.instances]
        for dsl_instance, legacy_instance in zip(dsl.instances, legacy.instances):
            dsl_ops, dsl_edges, _ = query_signature(dsl_instance)
            legacy_ops, legacy_edges, _ = query_signature(legacy_instance)
            assert dsl_ops == legacy_ops, dsl_instance.name
            assert dsl_edges == legacy_edges, dsl_instance.name
        assert sorted(c.name for c in dsl.channels) == sorted(
            c.name for c in legacy.channels
        )

    @pytest.mark.parametrize("query_name", QUERY_NAMES)
    def test_join_input_order_preserved_across_instances(self, query_name):
        # Input port order matters on the instance hosting multi-input
        # operators (the Join's left stream must stay the left stream).
        supplier = small_supplier(query_name)
        dsl = query_pipeline(
            query_name, supplier, mode=ProvenanceMode.GENEALOG, deployment="inter"
        ).build()
        legacy = legacy_queries.build_distributed_query(
            query_name, supplier, mode=ProvenanceMode.GENEALOG
        )
        for dsl_instance, legacy_instance in zip(dsl.instances, legacy.instances):
            _, _, dsl_ports = query_signature(dsl_instance)
            _, _, legacy_ports = query_signature(legacy_instance)
            for name, producers in legacy_ports.items():
                if len(producers) > 1:
                    assert dsl_ports[name] == producers, (dsl_instance.name, name)
