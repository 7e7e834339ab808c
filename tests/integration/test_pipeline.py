"""End-to-end tests for the :class:`~repro.api.pipeline.Pipeline` facade.

The acceptance property of the fluent API: for Q1-Q4, in all three
provenance modes (NP/GL/BL) and both deployments (intra- and inter-process),
a ``Pipeline`` run must produce *identical* sink output and provenance
records to the frozen legacy ``add_*``/``connect`` construction of
:mod:`tests.legacy_queries`.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.analysis import PlanAnalysisError
from repro.api import Dataflow, DataflowError, Pipeline, Placement
from repro.core.provenance import ProvenanceMode
from repro.workloads.linear_road import LinearRoadConfig, LinearRoadGenerator
from repro.workloads.queries import (
    QUERY_NAMES,
    query_dataflow,
    query_pipeline,
    query_placement,
)
from repro.workloads.smart_grid import SmartGridConfig, SmartGridGenerator
from tests import legacy_queries
from tests.conftest import RecordingTap, record_index, run_built

LINEAR_ROAD = LinearRoadConfig(
    n_cars=10, duration_s=1200.0, breakdown_probability=0.06, accident_probability=0.7, seed=31
)
SMART_GRID = SmartGridConfig(
    n_meters=10,
    n_days=3,
    blackout_day_probability=1.0,
    blackout_meter_count=8,
    anomaly_probability=0.25,
    seed=33,
)

ALL_MODES = (ProvenanceMode.NONE, ProvenanceMode.GENEALOG, ProvenanceMode.BASELINE)
MODE_IDS = [mode.label for mode in ALL_MODES]


def workload_for(query_name):
    if query_name in ("q1", "q2"):
        return LinearRoadGenerator(LINEAR_ROAD).tuples
    return SmartGridGenerator(SMART_GRID).tuples


def sink_values(sink):
    return [(tup.ts, sorted(tup.values.items())) for tup in sink.received]


class TestPipelineIntraParity:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("query_name", QUERY_NAMES)
    def test_identical_sink_output_and_provenance(self, query_name, mode):
        supplier = workload_for(query_name)
        result = query_pipeline(query_name, supplier, mode=mode).run()
        legacy = legacy_queries.build_query(query_name, supplier, mode=mode)
        run_built(legacy)
        assert result.sink.count > 0
        assert sink_values(result.sink) == sink_values(legacy.sink)
        assert record_index(result.provenance_records()) == record_index(
            legacy.provenance_records()
        )

    def test_pipeline_runs_with_scheduler(self):
        result = query_pipeline("q1", workload_for("q1"), mode=ProvenanceMode.NONE).run()
        assert result.deployment == "intra"
        assert result.query is not None
        assert not result.instances
        assert result.wakeups > 0
        assert result.bytes_transferred() == 0


class TestPipelineInterParity:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("query_name", QUERY_NAMES)
    def test_identical_sink_output_and_provenance(self, query_name, mode):
        supplier = workload_for(query_name)
        result = query_pipeline(query_name, supplier, mode=mode, deployment="inter").run()
        legacy = legacy_queries.build_distributed_query(query_name, supplier, mode=mode)
        run_built(legacy)
        assert result.sink.count > 0
        assert sink_values(result.sink) == sink_values(legacy.sink)
        assert record_index(result.provenance_records()) == record_index(
            legacy.provenance_records()
        )

    def test_pipeline_runs_with_distributed_runtime(self):
        result = query_pipeline(
            "q1", workload_for("q1"), mode=ProvenanceMode.GENEALOG, deployment="inter"
        ).run()
        assert result.deployment == "inter"
        assert result.query is None
        assert [instance.name for instance in result.instances] == [
            "spe1",
            "spe2",
            "provenance_node",
        ]
        assert result.wakeups > 0
        assert result.tuples_transferred() > 0
        assert result.bytes_transferred() > 0
        # the runtime assigned ordering values to every instance.
        assert all(
            instance.ordering_value is not None for instance in result.instances
        )


class TestPipelineFacade:
    @pytest.mark.parametrize(
        "alias, expected",
        [
            ("none", ProvenanceMode.NONE),
            ("genealog", ProvenanceMode.GENEALOG),
            ("baseline", ProvenanceMode.BASELINE),
            ("NP", ProvenanceMode.NONE),
            ("GL", ProvenanceMode.GENEALOG),
            ("BL", ProvenanceMode.BASELINE),
        ],
    )
    def test_provenance_mode_aliases(self, alias, expected):
        pipeline = Pipeline(query_dataflow("q1", workload_for("q1")), provenance=alias)
        assert pipeline.mode is expected

    @pytest.mark.parametrize("execution", ("turbo", "polling", "threaded"))
    @pytest.mark.parametrize(
        "build",
        (
            lambda execution: Pipeline(
                query_dataflow("q1", workload_for("q1")), execution=execution
            ),
            lambda execution: query_pipeline("q1", workload_for("q1"), execution=execution),
        ),
        ids=("Pipeline", "query_pipeline"),
    )
    def test_unknown_execution_mode_rejected(self, build, execution):
        with pytest.raises(DataflowError) as excinfo:
            build(execution)
        assert str(excinfo.value) == (
            f"unknown execution mode {execution!r}; expected 'event', 'process' or 'cluster'"
        )

    @pytest.mark.parametrize("provenance", ("bogus", "", "GeneaLogs"))
    def test_unknown_provenance_mode_rejected(self, provenance):
        with pytest.raises(DataflowError) as excinfo:
            Pipeline(query_dataflow("q1", workload_for("q1")), provenance=provenance)
        assert str(excinfo.value) == (
            f"unknown provenance mode {provenance!r}; expected 'none', 'genealog' or "
            "'baseline' (or the paper's 'NP', 'GL', 'BL')"
        )

    def test_build_is_idempotent(self):
        pipeline = query_pipeline("q1", workload_for("q1"), mode=ProvenanceMode.GENEALOG)
        assert pipeline.build() is pipeline.build()

    def test_custom_placement_retention_override(self):
        # A two-instance cut through the middle of Q1 with an explicit
        # retention must still deliver the full provenance.
        supplier = workload_for("q1")
        pipeline = Pipeline(
            query_dataflow("q1", supplier),
            provenance="genealog",
            placement=query_placement("q1"),
            retention=240.0,
        )
        result = pipeline.run()
        legacy = legacy_queries.build_distributed_query(
            "q1", supplier, mode=ProvenanceMode.GENEALOG
        )
        run_built(legacy)
        assert record_index(result.provenance_records()) == record_index(
            legacy.provenance_records()
        )

    def test_distributed_dataflow_roundtrip_with_custom_query(self):
        # A custom (non-Q1..Q4) fluent dataflow, cut across two instances,
        # collects provenance at the provenance node in both techniques.
        def custom_dataflow():
            from repro.spe.operators.aggregate import WindowSpec
            from repro.spe.tuples import StreamTuple

            def supplier():
                return [
                    StreamTuple(ts=float(i), values={"k": i % 2, "v": i})
                    for i in range(40)
                ]

            df = Dataflow("custom")
            (df.source("src", supplier)
               .filter(lambda t: t["v"] % 3 != 0, name="drop_thirds")
               .aggregate(
                   WindowSpec(size=10.0, advance=10.0),
                   lambda window, key: {"k": key, "total": sum(t["v"] for t in window)},
                   key_function=lambda t: t["k"],
                   name="totals",
               )
               .filter(lambda t: t["total"] > 10, name="big")
               .sink("out"))
            return df

        placement = Placement(
            {"edge": ("src", "drop_thirds"), "hub": ("totals", "big", "out")},
            links={("drop_thirds", "totals"): "data"},
        )
        for technique in ("genealog", "baseline"):
            result = Pipeline(
                custom_dataflow(), provenance=technique, placement=placement
            ).run()
            assert result.sink.count > 0
            records = result.provenance_records()
            assert len(records) == result.sink.count
            assert all(record.source_count > 0 for record in records)


class TestPipelineSpliceRegressions:
    """Regressions for provenance splicing around port-sensitive operators."""

    def _supplier(self):
        from repro.spe.tuples import StreamTuple

        return lambda: [
            StreamTuple(ts=float(i), values={"v": i}) for i in range(20)
        ]

    @pytest.mark.parametrize("technique", ["none", "genealog", "baseline"])
    def test_router_port_crossing_boundary_keeps_routing(self, technique):
        # Router port 0 (evens) crosses the instance boundary while port 1
        # (odds) stays local; the SU/multiplex splicing in front of the Send
        # and Sink must not reorder the router's output ports.
        df = Dataflow("routed")
        evens, odds = df.source("src", self._supplier()).router(
            [lambda t: t["v"] % 2 == 0, lambda t: t["v"] % 2 == 1], name="route"
        )
        local = odds.map(
            lambda t: t.derive(values={"v": t["v"], "side": "odd"}), name="tag_odd"
        )
        remote = evens.map(
            lambda t: t.derive(values={"v": t["v"], "side": "even"}), name="tag_even"
        )
        local.union(remote, name="merge").sink("out")
        placement = Placement(
            {"a": ("src", "route", "tag_odd"), "b": ("tag_even", "merge", "out")},
            links={
                ("route", "tag_even"): "evens",
                ("tag_odd", "merge"): "odds",
            },
        )
        result = Pipeline(df, provenance=technique, placement=placement).run()
        assert result.sink.count == 20
        for tup in result.sink.received:
            expected = "even" if tup["v"] % 2 == 0 else "odd"
            assert tup["side"] == expected, tup.values

    def test_default_cut_labels_disambiguate_shared_upstream(self):
        # Two cut edges leaving the same stage must not collide on the
        # default channel label.
        df = Dataflow("shared")
        split = df.source("src", self._supplier()).split(name="copy")
        a = split.map(lambda t: t.derive(), name="a")
        b = split.map(lambda t: t.derive(), name="b")
        a.union(b, name="merge").sink("out")
        placement = Placement({"one": ("src", "copy"), "two": ("a", "b", "merge", "out")})
        result = Pipeline(df, provenance="none", placement=placement).run()
        assert result.sink.count == 40  # both copies arrive
        assert sorted(c.name for c in result.channels) == [
            "shared_copy",
            "shared_copy_b",
        ]

    def test_stale_placement_link_rejected(self):
        df = Dataflow("typo")
        df.source("src", self._supplier()).filter(lambda t: True, name="f").sink("out")
        placement = Placement(
            {"one": ("src", "f"), "two": ("out",)},
            links={("fff", "out"): "data"},  # typo'd upstream stage
        )
        with pytest.raises(PlanAnalysisError, match="do not name any edge") as info:
            Pipeline(df, placement=placement).build()
        assert info.value.report.rule_ids() == ["placement.invalid"]
        assert "('fff', 'out')" in str(info.value)

    def test_intra_router_ports_survive_sink_splicing(self):
        # Without a cut edge the builder splices an SU in front of every
        # captured Sink; when a Router port feeds a Sink directly the splice must not
        # reorder the router's output ports.
        from repro.spe.tuples import StreamTuple

        def supplier():
            return [StreamTuple(ts=float(i), values={"v": i}) for i in range(10)]

        for technique in ("none", "genealog", "baseline"):
            df = Dataflow("routed_intra")
            low, high = df.source("src", supplier).router(
                [lambda t: t["v"] < 5, lambda t: t["v"] >= 5], name="route"
            )
            low.sink("low_sink")
            high.map(lambda t: t.derive(), name="pass").sink("high_sink")
            result = Pipeline(df, provenance=technique).run()
            low_values = sorted(t["v"] for t in result.query["low_sink"].received)
            high_values = sorted(t["v"] for t in result.query["high_sink"].received)
            assert low_values == [0, 1, 2, 3, 4], technique
            assert high_values == [5, 6, 7, 8, 9], technique

    def test_reserved_cut_labels_are_fenced(self):
        from repro.spe.tuples import StreamTuple

        def supplier():
            return [StreamTuple(ts=float(i), values={"v": i}) for i in range(10)]

        def dataflow():
            df = Dataflow("q")
            (df.source("src", supplier)
               .map(lambda t: t.derive(), name="derived")
               .sink("out"))
            return df

        # a stage named like a reserved label gets an auto-disambiguated
        # channel instead of colliding with the spliced provenance plumbing.
        placement = Placement({"a": ("src", "derived"), "b": ("out",)})
        result = Pipeline(dataflow(), provenance="genealog", placement=placement).run()
        channel_names = [c.name for c in result.channels]
        assert len(set(channel_names)) == len(channel_names)
        assert result.sink.count == 10
        assert len(result.provenance_records()) == 10
        # an explicit reserved link label is rejected outright.
        reserved = Placement(
            {"a": ("src", "derived"), "b": ("out",)},
            links={("derived", "out"): "derived"},
        )
        with pytest.raises(PlanAnalysisError, match="reserved") as info:
            Pipeline(dataflow(), provenance="genealog", placement=reserved).build()
        assert info.value.report.rule_ids() == ["placement.invalid"]

    def test_one_shot_iterator_supplier_cannot_be_lowered_twice(self):
        from repro.spe.tuples import StreamTuple

        def rows():
            for i in range(10):
                yield StreamTuple(ts=float(i), values={"v": i})

        df = Dataflow("oneshot")
        df.source("src", rows()).sink("out")
        first = Pipeline(df, provenance="none").run()
        assert first.sink.count == 10
        with pytest.raises(Exception, match="one-shot iterator"):
            Pipeline(df, provenance="genealog").build()

    def test_unordered_source_crossing_boundary(self):
        # An enforce_order=False source whose (unsorted) stream crosses the
        # instance boundary: the producer->Send connection must honour the
        # edge's sorted_stream flag.
        from repro.spe.tuples import StreamTuple

        def supplier():
            return [
                StreamTuple(ts=float(ts), values={"v": ts})
                for ts in (1.0, 3.0, 2.0, 5.0, 4.0, 6.0)
            ]

        df = Dataflow("disorder")
        (df.source("src", supplier, enforce_order=False)
           .sort(slack=2.0, name="reorder")
           .sink("out"))
        placement = Placement({"a": ("src",), "b": ("reorder", "out")})
        result = Pipeline(df, placement=placement).run()
        assert [t.ts for t in result.sink.received] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    @pytest.mark.parametrize("technique", ["genealog", "baseline"])
    def test_provenance_on_unordered_stream_rejected_at_build(self, technique):
        # Provenance operators require timestamp-ordered input; splicing onto
        # an unordered stream must fail at build time, not mid-run.
        from repro.spe.tuples import StreamTuple

        def supplier():
            return [
                StreamTuple(ts=float(ts), values={"v": ts}) for ts in (1.0, 3.0, 2.0)
            ]

        # inter-process: the unordered stream crosses the boundary into the
        # instance hosting the sort, so the cut Send would get an SU.
        df = Dataflow("disorder")
        (df.source("src", supplier, enforce_order=False)
           .sort(slack=2.0, name="reorder")
           .sink("out"))
        placement = Placement({"a": ("src",), "b": ("reorder", "out")})
        with pytest.raises(PlanAnalysisError, match="timestamp-ordered") as info:
            Pipeline(df, provenance=technique, placement=placement).build()
        assert info.value.report.rule_ids() == ["provenance.unordered-capture"]
        assert ("src", "reorder") in [d.operators for d in info.value.report.errors]
        # intra-process: unordered stream feeding the sink directly.
        df2 = Dataflow("disorder_intra")
        df2.source("src", supplier, enforce_order=False).sink("out")
        with pytest.raises(PlanAnalysisError, match="timestamp-ordered") as info:
            Pipeline(df2, provenance=technique).build()
        assert info.value.report.rule_ids() == ["provenance.unordered-capture"]
        assert [d.operators for d in info.value.report.errors] == [("out", "src")]

    def test_baseline_without_sources_raises_descriptive_error(self):
        from repro.spe.operators.source import SourceOperator

        df = Dataflow("fragment")
        root = df.stage(lambda: SourceOperator("r", []), name="r")
        root.filter(lambda t: True, name="f").sink("out")
        placement = Placement({"a": ("r", "f"), "b": ("out",)})
        with pytest.raises(PlanAnalysisError, match="no Source stage") as info:
            Pipeline(df, provenance="baseline", placement=placement).build()
        (diag,) = info.value.report.errors
        assert diag.rule == "provenance.capture-shape"
        assert diag.operators == ("r",)

    def test_a_tap_on_the_provenance_sink_reads_the_unfolded_stream_inter(self):
        supplier = workload_for("q1")
        pipeline = Pipeline(
            query_dataflow("q1", supplier),
            provenance="genealog",
            placement=query_placement("q1"),
        )
        provenance_sink = pipeline.build().instances[-1]["provenance_sink"]
        recorder = RecordingTap()
        provenance_sink.add_tap(recorder)
        result = pipeline.run()
        assert not provenance_sink.received  # provenance Sinks keep no tuples
        rows = [row for block in recorder.tuples for row in block.rows()]
        assert len(rows) == result.collectors["sink"].unfolded_tuples > 0


class TestIdentityStages:
    """A Map or FlatMap that returns its input tuple passes it through: the
    tuple keeps its own provenance, so GL and BL still agree."""

    STAGES = {
        "map": lambda stream: stream.map(lambda t: t, name="same"),
        "flat_map": lambda stream: stream.flat_map(lambda t: [t], name="same"),
    }
    DEPLOYMENTS = {
        "intra": {},
        "inter": {"placement": Placement({"a": ("src",), "b": ("same", "out")})},
        "inter-process": {
            "placement": Placement({"a": ("src",), "b": ("same", "out")}),
            "execution": "process",
        },
    }

    @staticmethod
    def _run(stage, deployment, technique):
        from repro.spe.tuples import StreamTuple

        df = Dataflow("identity")
        stream = df.source(
            "src", lambda: [StreamTuple(ts=float(i), values={"v": i}) for i in range(6)]
        )
        TestIdentityStages.STAGES[stage](stream).sink("out")
        kwargs = TestIdentityStages.DEPLOYMENTS[deployment]
        result = Pipeline(df, provenance=technique, validate="strict", **kwargs).run()
        return sorted(
            (record.sink_values["v"], sorted(entry["v"] for entry in record.sources))
            for record in result.provenance_records()
        )

    @pytest.mark.parametrize("deployment", DEPLOYMENTS)
    @pytest.mark.parametrize("stage", STAGES)
    def test_genealog_agrees_with_the_baseline(self, stage, deployment):
        if deployment == "inter-process" and "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("execution='process' forks its workers")
        genealog = self._run(stage, deployment, "genealog")
        assert genealog == self._run(stage, deployment, "baseline")
        assert genealog == [(v, [v]) for v in range(6)]
