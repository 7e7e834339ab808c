"""Per-rule tests of the static plan analyzer.

Every rule gets a minimal plan that trips it (asserted by rule id) and,
where the misbehavior is runnable without hanging, a companion run showing
the failure the diagnostic predicts.  The fixture functions live at module
level so ``inspect.getsource`` finds them (the concurrency/schema rules
read the AST of the user code).
"""

import multiprocessing
import random
import re
import warnings
from types import SimpleNamespace

import pytest

from repro.analysis import PlanAnalysisError, PlanAnalysisWarning, analyze_plan
from repro.api import Dataflow, DataflowError, Pipeline, Placement
from repro.core.provenance import ProvenanceMode
from repro.provstore import ProvenanceLedger
from repro.spe.channels import Channel
from repro.spe.errors import QueryValidationError, SchedulingError, StreamOrderError
from repro.spe.instance import SPEInstance, assign_ordering_values
from repro.spe.operators.aggregate import WindowSpec
from repro.spe.operators.map import MapOperator
from repro.spe.query import Query
from repro.spe.scheduler import Scheduler
from repro.spe.tuples import StreamTuple


# -- fixture user code (module level: the analyzer reads its source) ---------

def _identity(t):
    return t


def _always(t):
    return True


def _count_aggregate(window, key):
    return {"key": key, "count": len(window)}


def _keyed(t):
    return t["key"]


def _reads_velocity(t):
    return t["velocity"] == 0


_RACY_COUNTER = {"n": 0}


def _racy_aggregate(window, key):
    _RACY_COUNTER["n"] += 1
    return {"key": key, "count": len(window), "n": _RACY_COUNTER["n"]}


def _noisy_aggregate(window, key):
    return {"key": key, "count": len(window), "jitter": random.random()}


def _rows(n=8, keys=4):
    return [
        StreamTuple(ts=float(i), values={"key": f"k{i % keys}", "x": i})
        for i in range(n)
    ]


def _disordered_rows():
    return [
        StreamTuple(ts=2.0, values={"key": "a", "x": 0}),
        StreamTuple(ts=1.0, values={"key": "b", "x": 1}),
        StreamTuple(ts=3.0, values={"key": "a", "x": 2}),
    ]


def rule_ids(report):
    return set(report.rule_ids())


def refused(pipeline, rule):
    """The one error ``pipeline``'s plan gets, which its build() raises."""
    (diag,) = pipeline.analyze().errors
    assert diag.rule == rule
    with pytest.raises(PlanAnalysisError, match=re.escape(rule)):
        pipeline.build()
    return diag


def lowered(df):
    """``df`` lowered into a query without the analyzer's check."""
    query = Query(df.name)
    df.lower_into(query)
    return query


def run_unchecked(df):
    """Run ``df`` with no analyzer in the way; return its query."""
    query = lowered(df)
    Scheduler(query).run()
    return query


# -- graph rules -------------------------------------------------------------

class TestGraphRules:
    def test_cycle_flagged(self):
        df = Dataflow("cyclic")
        a = df.source("src", []).map(_identity, name="a")
        b = a.map(_identity, name="b")
        b.to(a)
        report = analyze_plan(df)
        assert "graph.cycle" in rule_ids(report)
        (diag,) = report.by_rule("graph.cycle")
        assert {"a", "b"} <= set(diag.operators)

    def test_cycle_breaks_the_build_too(self):
        df = Dataflow("cyclic")
        a = df.source("src", []).map(_identity, name="a")
        a.map(_identity, name="b").to(a)
        with pytest.raises(QueryValidationError):
            lowered(df).validate()

    def test_unreachable_flagged(self):
        df = Dataflow("unreachable")
        df.source("src", []).sink("out")
        df._add_node(
            "map", "orphan", lambda: MapOperator("orphan", _identity),
            meta={"function": _identity},
        )
        report = analyze_plan(df)
        assert "graph.unreachable" in rule_ids(report)
        assert any("orphan" in d.operators for d in report.by_rule("graph.unreachable"))

    def test_unreachable_breaks_the_build_too(self):
        df = Dataflow("unreachable")
        df.source("src", []).sink("out")
        df._add_node(
            "map", "orphan", lambda: MapOperator("orphan", _identity),
            meta={"function": _identity},
        )
        with pytest.raises(QueryValidationError, match="no input stream"):
            lowered(df).validate()

    def test_dead_end_flagged(self):
        df = Dataflow("deadend")
        df.source("src", []).map(_identity, name="m")
        report = analyze_plan(df)
        assert "graph.dead-end" in rule_ids(report)
        (diag,) = report.by_rule("graph.dead-end")
        assert diag.operators == ("m",)

    def test_dead_end_breaks_the_build_too(self):
        df = Dataflow("deadend")
        df.source("src", []).map(_identity, name="m")
        with pytest.raises(QueryValidationError, match="no output stream"):
            lowered(df).validate()

    def test_arity_flagged_on_implicit_fan_out(self):
        df = Dataflow("arity")
        stream = df.source("src", []).filter(_always, name="f")
        stream.map(_identity, name="m1").sink("s1")
        stream.map(_identity, name="m2").sink("s2")
        report = analyze_plan(df)
        assert "graph.arity" in rule_ids(report)
        assert any("f" in d.operators for d in report.by_rule("graph.arity"))



# -- ordering rules ----------------------------------------------------------

class TestOrderingRules:
    def test_unordered_input_flagged(self):
        df = Dataflow("unordered")
        (df.source("src", _disordered_rows, enforce_order=False)
           .aggregate(WindowSpec(size=10.0, advance=10.0), _count_aggregate,
                      key_function=_keyed, name="agg")
           .sink("out"))
        report = analyze_plan(df)
        assert "ordering.unordered-input" in rule_ids(report)
        (diag,) = report.by_rule("ordering.unordered-input")
        assert diag.operators == ("agg", "src")

    def test_sort_clears_unordered_input(self):
        df = Dataflow("sorted")
        (df.source("src", _disordered_rows, enforce_order=False)
           .sort(slack=5.0, name="fix")
           .aggregate(WindowSpec(size=10.0, advance=10.0), _count_aggregate,
                      key_function=_keyed, name="agg")
           .sink("out"))
        assert not analyze_plan(df).diagnostics

    def test_order_violation_risk_flagged(self):
        df = Dataflow("risk")
        df.source("src", _disordered_rows, enforce_order=False).map(
            _identity, name="m"
        ).sink("out")
        report = analyze_plan(df)
        assert "ordering.order-violation-risk" in rule_ids(report)

    def test_order_violation_risk_is_real_at_runtime(self):
        df = Dataflow("risk")
        df.source("src", _disordered_rows, enforce_order=False).map(
            _identity, name="m"
        ).sink("out")
        with pytest.raises(StreamOrderError):
            run_unchecked(df)


# -- provenance rules --------------------------------------------------------

class TestProvenanceRules:
    def test_unordered_capture_flagged(self):
        df = Dataflow("capture")
        df.source("src", _disordered_rows, enforce_order=False).sink("out")
        report = analyze_plan(df, mode=ProvenanceMode.GENEALOG)
        assert "provenance.unordered-capture" in rule_ids(report)

    def test_unordered_capture_silent_without_provenance(self):
        df = Dataflow("capture")
        df.source("src", _disordered_rows, enforce_order=False).sink("out")
        report = analyze_plan(df)
        assert "provenance.unordered-capture" not in rule_ids(report)

    def test_store_retention_below_window_sum_flagged(self):
        df = Dataflow("retention")
        (df.source("src", _rows())
           .aggregate(WindowSpec(size=120.0, advance=30.0), _count_aggregate,
                      key_function=_keyed, name="agg")
           .sink("out"))
        report = analyze_plan(
            df,
            mode=ProvenanceMode.GENEALOG,
            store=SimpleNamespace(retention=10.0),
        )
        assert "provenance.retention-below-window-sum" in rule_ids(report)

    def test_sufficient_store_retention_is_clean(self):
        df = Dataflow("retention")
        (df.source("src", _rows())
           .aggregate(WindowSpec(size=120.0, advance=30.0), _count_aggregate,
                      key_function=_keyed, name="agg")
           .sink("out"))
        report = analyze_plan(
            df,
            mode=ProvenanceMode.GENEALOG,
            store=SimpleNamespace(retention=240.0),
        )
        assert "provenance.retention-below-window-sum" not in rule_ids(report)

    def test_baseline_unordered_source_flagged_even_when_sorted_in_place(self):
        df = Dataflow("capture")
        (df.source("src", _disordered_rows, enforce_order=False)
           .sort(slack=5.0, name="fix")
           .sink("out"))
        placement = Placement({"spe1": ("src", "fix"), "spe2": ("out",)})
        diag = refused(Pipeline(df, "baseline", placement), "provenance.unordered-capture")
        assert diag.operators == ("src",)
        # GeneaLog splices nothing onto the source's own stream.
        assert Pipeline(df, "genealog", placement).analyze().ok


class TestCaptureShape:
    def _two_sinks(self):
        df = Dataflow("shape")
        split = df.source("src", _rows()).split(name="copy")
        split.filter(_always, name="f").sink("out")
        split.map(_identity, name="m").sink("other")
        return df

    PLACED = Placement({"spe1": ("src", "copy"), "spe2": ("f", "m", "out", "other")})

    @pytest.mark.parametrize("technique", ("genealog", "baseline"))
    def test_distributed_capture_needs_exactly_one_sink(self, technique):
        pipeline = Pipeline(self._two_sinks(), technique, self.PLACED)
        diag = refused(pipeline, "provenance.capture-shape")
        assert diag.operators == ("out", "other")
        assert "exactly one" in diag.message

    def test_a_store_needs_a_captured_sink(self):
        df = Dataflow("shape")
        df.source("src", _rows()).sink("out", capture_provenance=False)
        pipeline = Pipeline(df, "genealog", provenance_store=ProvenanceLedger())
        assert refused(pipeline, "provenance.capture-shape").operators == ("out",)
        assert Pipeline(df, "genealog").analyze().ok

    def test_intra_capture_takes_any_number_of_sinks(self):
        assert Pipeline(self._two_sinks(), "genealog").analyze().ok
        # without provenance the placed shape is unconstrained too.
        assert Pipeline(self._two_sinks(), placement=self.PLACED).analyze().ok


# -- boundary rules ----------------------------------------------------------

class TestBoundaryRules:
    def test_placement_invalid_flagged(self):
        df = Dataflow("placed")
        df.source("src", _rows()).map(_identity, name="m").sink("out")
        placement = Placement({"spe1": ("src",)})
        report = analyze_plan(df, placement=placement)
        assert "placement.invalid" in rule_ids(report)

    @pytest.mark.parametrize(
        "links, message",
        (
            ({("src", "m"): "derived"}, "reserved for the provenance plumbing"),
            ({("src", "m"): "upstream_x"}, "reserved for the provenance plumbing"),
            ({("src", "m"): "data", ("m", "out"): "data"}, "used by more than one cut edge"),
            ({("src", "out"): "data"}, "do not name any edge"),
        ),
        ids=("reserved", "reserved-prefix", "duplicate", "no-edge"),
    )
    def test_invalid_link_labels_flagged(self, links, message):
        df = Dataflow("placed")
        df.source("src", _rows()).map(_identity, name="m").sink("out")
        placement = Placement({"spe1": ("src",), "spe2": ("m",), "spe3": ("out",)}, links=links)
        assert message in refused(Pipeline(df, placement=placement), "placement.invalid").message

    def test_a_link_on_an_uncut_edge_flagged(self):
        df = Dataflow("placed")
        df.source("src", _rows()).map(_identity, name="m").sink("out")
        placement = Placement(
            {"spe1": ("src",), "spe2": ("m", "out")}, links={("m", "out"): "data"}
        )
        diag = refused(Pipeline(df, placement=placement), "placement.invalid")
        assert "('m', 'out')" in diag.message

    def test_an_automatic_label_leaves_a_later_link_label_alone(self):
        # the first cut edge would be labelled "src"; the second names it.
        df = Dataflow("placed")
        df.source("src", _rows()).map(_identity, name="m").sink("out")
        placement = Placement(
            {"spe1": ("src",), "spe2": ("m",), "spe3": ("out",)},
            links={("m", "out"): "src"},
        )
        assert analyze_plan(df, placement=placement).ok
        result = Pipeline(df, placement=placement).run()
        assert sorted(c.name for c in result.channels) == ["placed_src", "placed_src_m"]
        assert result.sink.count == len(_rows())

    def test_instance_cycle_flagged(self):
        df = Dataflow("icycle")
        (df.source("src", _rows())
           .map(_identity, name="m1")
           .map(_identity, name="m2")
           .sink("out"))
        placement = Placement({"spe1": ("src", "m2", "out"), "spe2": ("m1",)})
        report = analyze_plan(df, placement=placement)
        assert "boundary.instance-cycle" in rule_ids(report)
        (diag,) = report.by_rule("boundary.instance-cycle")
        assert {"src", "m1", "m2"} <= set(diag.operators)

    def test_instance_cycle_is_real_at_runtime(self):
        # the flagged placement, by hand: spe1 -> spe2 -> spe1.
        spe1, spe2 = SPEInstance("spe1"), SPEInstance("spe2")
        there, back = Channel("there"), Channel("back")
        spe1.connect(spe1.add_source("src", _rows()), spe1.add_send("send_there", there))
        spe2.connect(spe2.add_receive("receive_there", there), spe2.add_map("m1", _identity))
        spe2.connect(spe2["m1"], spe2.add_send("send_back", back))
        spe1.connect(spe1.add_receive("receive_back", back), spe1.add_map("m2", _identity))
        spe1.connect(spe1["m2"], spe1.add_sink("out"))
        with pytest.raises(SchedulingError, match="cycle"):
            assign_ordering_values([spe1, spe2])


# -- schema rules ------------------------------------------------------------

class TestSchemaRules:
    def _bad_plan(self):
        df = Dataflow("schema")
        (df.source("src", _rows(), schema=("key", "x"))
           .filter(_reads_velocity, name="f")
           .sink("out"))
        return df

    def test_unknown_field_flagged(self):
        report = analyze_plan(self._bad_plan())
        (diag,) = report.by_rule("schema.unknown-field")
        assert "velocity" in diag.message
        assert diag.operators == ("f", "src")

    def test_unknown_field_is_real_at_runtime(self):
        with pytest.raises(KeyError):
            run_unchecked(self._bad_plan())

    def test_schema_propagates_through_aggregate(self):
        df = Dataflow("schema")
        (df.source("src", _rows(), schema=("key", "x"))
           .aggregate(WindowSpec(size=10.0, advance=10.0), _count_aggregate,
                      key_function=_keyed, name="agg")
           .filter(_reads_velocity, name="f")
           .sink("out"))
        report = analyze_plan(df)
        (diag,) = report.by_rule("schema.unknown-field")
        assert diag.operators == ("f", "agg")

    def test_matching_fields_are_clean(self):
        df = Dataflow("schema")
        (df.source("src", _rows(), schema=("key", "x"))
           .filter(_always, name="f")
           .sink("out"))
        assert not analyze_plan(df).diagnostics


# -- concurrency rules -------------------------------------------------------

def _parallel_plan(aggregate_function, parallelism=2):
    df = Dataflow("parallel")
    (df.source("src", lambda: _rows(n=32, keys=8))
       .aggregate(WindowSpec(size=4.0, advance=4.0), aggregate_function,
                  key_function=_keyed, name="agg", parallelism=parallelism)
       .sink("out"))
    return df


class TestConcurrencyRules:
    def test_captured_state_mutation_flagged(self):
        report = analyze_plan(_parallel_plan(_racy_aggregate))
        (diag,) = report.by_rule("concurrency.captured-state-mutation")
        assert "agg" in diag.operators
        assert "_RACY_COUNTER" in diag.message

    def test_captured_state_mutation_silent_when_sequential(self):
        report = analyze_plan(_parallel_plan(_racy_aggregate, parallelism=1))
        assert "concurrency.captured-state-mutation" not in rule_ids(report)

    def test_racy_closure_diverges_from_sequential_plan(self):
        _RACY_COUNTER["n"] = 0
        sequential = run_unchecked(_parallel_plan(_racy_aggregate, parallelism=1))
        _RACY_COUNTER["n"] = 0
        sharded = run_unchecked(_parallel_plan(_racy_aggregate, parallelism=2))
        assert [t.values for t in sequential["out"].received] != [
            t.values for t in sharded["out"].received
        ]

    def test_nondeterministic_call_flagged(self):
        report = analyze_plan(_parallel_plan(_noisy_aggregate))
        (diag,) = report.by_rule("concurrency.nondeterministic-call")
        assert "agg" in diag.operators
        assert "random.random" in diag.message

    def test_nondeterministic_call_diverges_run_to_run(self):
        first = run_unchecked(_parallel_plan(_noisy_aggregate))
        second = run_unchecked(_parallel_plan(_noisy_aggregate))
        assert [t.values for t in first["out"].received] != [
            t.values for t in second["out"].received
        ]

    def test_by_value_shipped_state_flagged(self):
        seen = []

        def stateful_predicate(t):
            seen.append(t.values["x"])
            return True

        df = Dataflow("shipped")
        df.source("src", _rows()).filter(stateful_predicate, name="f").sink("out")
        report = analyze_plan(df, execution="cluster")
        (diag,) = report.by_rule("concurrency.by-value-shipped-state")
        assert diag.severity == "warning"
        assert diag.operators == ("f",)

    def test_by_value_shipped_state_flagged_under_process(self):
        # a forked worker mutates its own copy of the closure, as a daemon does.
        df = Dataflow("shipped")
        df.source("src", _rows()).filter(_shipped_state_filter(), name="f").sink("out")
        report = analyze_plan(df, execution="process")
        (diag,) = report.by_rule("concurrency.by-value-shipped-state")
        assert diag.operators == ("f",)
        assert "process workers" in diag.message

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="execution='process' needs the fork start method",
    )
    def test_shipped_state_never_reaches_the_coordinator_under_process(self):
        seen = []

        def keep_and_record(t):
            seen.append(t.values["x"])
            return True

        df = Dataflow("shipped")
        df.source("src", _rows()).filter(keep_and_record, name="f").sink("out")
        placement = Placement({"edge": ("src", "f"), "hub": ("out",)})
        result = Pipeline(df, placement=placement, execution="process", validate="off").run()
        assert result.sink.count == 8
        assert seen == []  # every append happened in the worker's copy

    def test_module_level_function_ships_by_name(self):
        df = Dataflow("shipped")
        df.source("src", _rows()).aggregate(
            WindowSpec(size=4.0, advance=4.0), _racy_aggregate,
            key_function=_keyed, name="agg",
        ).sink("out")
        report = analyze_plan(df, execution="cluster")
        assert "concurrency.by-value-shipped-state" not in rule_ids(report)


# -- the Pipeline validate gate ----------------------------------------------

def _unknown_field_plan():
    """A plan whose filter reads a field its source never carries."""
    df = Dataflow("schema")
    (df.source("src", _rows(), schema=("key", "x"))
       .filter(_reads_velocity, name="f")
       .sink("out"))
    return df


def _shipped_state_filter():
    """A by-value-shipped closure mutating captured state (passes everything)."""
    seen = []

    def keep_and_record(t):
        seen.append(t.values["x"])
        return True

    return keep_and_record


class TestValidateGate:
    def test_strict_blocks_an_unknown_field_plan(self):
        with pytest.raises(PlanAnalysisError) as info:
            Pipeline(_unknown_field_plan(), validate="strict").run()
        message = str(info.value)
        assert "schema.unknown-field" in message
        assert "velocity" in message

    def test_strict_blocks_a_racy_closure_plan(self):
        with pytest.raises(PlanAnalysisError) as info:
            Pipeline(_parallel_plan(_racy_aggregate), validate="strict").run()
        message = str(info.value)
        assert "concurrency.captured-state-mutation" in message
        assert "agg" in message

    def _warning_pipeline(self, validate="warn"):
        """Clean but for one concurrency.by-value-shipped-state warning."""
        df = Dataflow("warned")
        df.source("src", _rows()).filter(_shipped_state_filter(), name="f").sink("out")
        placement = Placement({"edge": ("src", "f"), "hub": ("out",)})
        return Pipeline(df, placement=placement, execution="cluster", validate=validate)

    @pytest.mark.parametrize("validate", ("strict", "warn", "off"))
    def test_errors_raise_in_every_mode(self, validate):
        pipeline = Pipeline(_unknown_field_plan(), validate=validate)
        with pytest.raises(PlanAnalysisError) as info:
            pipeline.run()
        assert info.value.report.rule_ids() == ["schema.unknown-field"]
        (diag,) = info.value.report.errors
        assert diag.operators == ("f", "src")
        assert "schema.unknown-field [f, src]" in str(info.value)
        # nothing was lowered, so nothing ran.
        assert pipeline._result is None

    def test_strict_raises_on_warnings(self):
        with pytest.raises(PlanAnalysisError) as info:
            self._warning_pipeline(validate="strict").build()
        assert info.value.report.rule_ids() == ["concurrency.by-value-shipped-state"]
        assert not info.value.report.errors
        assert "concurrency.by-value-shipped-state [f]" in str(info.value)

    def test_warn_mode_warns_and_still_runs(self):
        with pytest.warns(
            PlanAnalysisWarning, match="concurrency.by-value-shipped-state"
        ) as caught:
            result = self._warning_pipeline().run()
        assert len(caught) == 1
        assert result.sink.count == len(_rows())

    def test_off_mode_is_silent(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = self._warning_pipeline(validate="off").run()
        assert not [w for w in caught if issubclass(w.category, PlanAnalysisWarning)]
        assert result.sink.count == len(_rows())

    def test_run_analyzes_once(self, monkeypatch):
        pipeline = self._warning_pipeline(validate="off")
        calls = []
        analyze = pipeline.analyze
        monkeypatch.setattr(pipeline, "analyze", lambda: calls.append(1) or analyze())
        pipeline.run()
        pipeline.run()
        assert calls == [1]

    def test_an_analyzer_crash_is_a_warning(self, monkeypatch):
        import repro.analysis.rules as rules

        def crash(model):
            raise RuntimeError("boom")

        monkeypatch.setattr(
            rules, "ALL_RULES", rules.ALL_RULES + (rules.Rule("x.crash", "x", "error", "", crash),)
        )
        df = Dataflow("clean")
        df.source("src", _rows()).sink("out")
        with pytest.warns(PlanAnalysisWarning, match="analysis.rule-error"):
            result = Pipeline(df).run()
        assert result.sink.count == len(_rows())

    def test_strict_passes_a_clean_plan(self):
        df = Dataflow("clean")
        df.source("src", _rows(), schema=("key", "x")).filter(
            _always, name="f"
        ).sink("out")
        result = Pipeline(df, validate="strict").run()
        assert result.sink.count == len(_rows())

    def test_unknown_validate_value_rejected(self):
        df = Dataflow("clean")
        df.source("src", _rows()).sink("out")
        with pytest.raises(DataflowError, match="validate"):
            Pipeline(df, validate="paranoid")

    def test_analyze_reports_without_running(self):
        pipeline = Pipeline(_unknown_field_plan())
        report = pipeline.analyze()
        assert not report.ok
        assert report.rule_ids() == ["schema.unknown-field"]
        assert pipeline._result is None
