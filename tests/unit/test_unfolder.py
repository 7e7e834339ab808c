"""Unit tests for the single-stream unfolder (SU, section 5)."""

import pytest

from repro.core.instrumentation import GeneaLogProvenance
from repro.core.types import TupleType
from repro.core.unfolder import (
    SUOperator,
    UnfoldMapOperator,
    attach_su,
    make_unfolded_values,
    origin_type_name,
    unfold_block,
)
from repro.spe.errors import ReservedAttributeError
from repro.spe.query import Query
from repro.spe.scheduler import Scheduler
from repro.spe.streams import Stream
from repro.spe.tuples import (
    ORIGIN_ID_FIELD,
    ORIGIN_TS_FIELD,
    ORIGIN_TYPE_FIELD,
    SINK_ID_FIELD,
    SINK_TS_FIELD,
    StreamTuple,
)
from tests.optest import collect, feed, run_operator, tup, wire


@pytest.fixture
def manager():
    return GeneaLogProvenance(node_id="n1")


def rows(blocks):
    """The flat Definition 6.2 view of an unfolded stream."""
    return [row for block in blocks for row in block.rows()]


def aggregate_tuple(manager, sources, ts=0.0, **values):
    """Build an AGGREGATE-typed tuple whose window is ``sources``."""
    for source in sources:
        manager.on_source_output(source)
    out = StreamTuple(ts=ts, values=values)
    manager.on_aggregate_output(out, sources)
    return out


class TestUnfoldedValues:
    def test_carries_sink_and_origin_attributes(self, manager):
        source = tup(5, car_id="a", speed=0)
        manager.on_source_output(source)
        sink_tuple = tup(0, count=4)
        manager.on_aggregate_output(sink_tuple, [source])
        values = make_unfolded_values(sink_tuple, source, manager)
        assert values["sink_count"] == 4
        assert values[SINK_TS_FIELD] == 0
        assert values["car_id"] == "a"
        assert values[ORIGIN_TS_FIELD] == 5
        assert values[ORIGIN_TYPE_FIELD] == "SOURCE"
        assert values[SINK_ID_FIELD] == manager.tuple_id(sink_tuple)
        assert values[ORIGIN_ID_FIELD] == manager.tuple_id(source)

    def test_origin_type_name(self, manager):
        source = tup(1)
        manager.on_source_output(source)
        assert origin_type_name(source) == "SOURCE"
        remote = tup(1)
        manager.on_receive(remote, {"type": "REMOTE", "id": "x:1"})
        assert origin_type_name(remote) == "REMOTE"
        assert origin_type_name(tup(1)) == "SOURCE"  # bare tuples default to SOURCE


class TestSUOperator:
    def _run_su(self, manager, tuples):
        su = SUOperator("su")
        su.set_provenance(manager)
        data_out, unfolded_out = Stream("so"), Stream("u")
        inp = Stream("si")
        su.add_input(inp)
        su.add_output(data_out)
        su.add_output(unfolded_out)
        feed(inp, tuples, close=True)
        run_operator(su)
        return collect(data_out), collect(unfolded_out)

    def test_data_port_is_an_exact_copy_of_the_input(self, manager):
        sources = [tup(ts, v=ts) for ts in (1, 2)]
        out = aggregate_tuple(manager, sources, ts=0, alert=1)
        data, _ = self._run_su(manager, [out])
        assert data == [out]

    def test_unfolded_port_has_one_block_with_an_entry_per_originating_tuple(self, manager):
        sources = [tup(ts, v=ts) for ts in (1, 2, 3)]
        out = aggregate_tuple(manager, sources, ts=0, alert=1)
        _, (block,) = self._run_su(manager, [out])
        assert block.values == {"alert": 1} and block.sink_id == manager.tuple_id(out)
        assert len(block.sources) == 3
        assert sorted(t[ORIGIN_TS_FIELD] for t in rows([block])) == [1, 2, 3]
        assert all(t["sink_alert"] == 1 for t in rows([block]))

    def test_source_tuples_unfold_to_themselves(self, manager):
        source = tup(7, v=1)
        manager.on_source_output(source)
        data, unfolded = self._run_su(manager, [source])
        assert data == [source]
        assert len(rows(unfolded)) == 1
        assert rows(unfolded)[0][ORIGIN_TS_FIELD] == 7

    def test_no_provenance_manager_produces_empty_unfolded_stream(self):
        from repro.spe.provenance_api import NoProvenance

        su = SUOperator("su")
        su.set_provenance(NoProvenance())
        inp, data_out, unfolded_out = Stream("si"), Stream("so"), Stream("u")
        su.add_input(inp)
        su.add_output(data_out)
        su.add_output(unfolded_out)
        feed(inp, [tup(1, v=1)], close=True)
        run_operator(su)
        assert len(collect(data_out)) == 1
        assert collect(unfolded_out) == []


class TestAttachSU:
    def _query_with_su(self, fused):
        manager = GeneaLogProvenance(node_id="n1")
        sources = [tup(ts, v=ts) for ts in (1, 2, 3)]
        query = Query("q")
        source_op = query.add_source("source", sources)
        data_out, unfolded_out = attach_su(query, source_op, name="su", fused=fused)
        sink = query.add_sink("data_sink")
        provenance_sink = query.add_sink("provenance_sink")
        query.connect(data_out, sink)
        query.connect(unfolded_out, provenance_sink)
        query.set_provenance(manager)
        Scheduler(query).run()
        return sink, provenance_sink

    def test_fused_and_composed_produce_the_same_unfolded_stream(self):
        fused_sink, fused_prov = self._query_with_su(fused=True)
        composed_sink, composed_prov = self._query_with_su(fused=False)
        assert [t.values for t in fused_sink.received] == [
            t.values for t in composed_sink.received
        ]
        fused_origins = sorted(t[ORIGIN_TS_FIELD] for t in rows(fused_prov.received))
        composed_origins = sorted(t[ORIGIN_TS_FIELD] for t in rows(composed_prov.received))
        assert fused_origins == composed_origins == [1, 2, 3]
        # The unfolded rows are identical, ids included ...
        assert rows(fused_prov.received) == rows(composed_prov.received)
        # ... but only the standard Map of Figure 5B links its outputs: the
        # fused SU's unfolded tuples are leaves and carry no metadata block.
        assert all(t.meta is None for t in fused_prov.received)
        assert all(t.meta.type is TupleType.MAP for t in composed_prov.received)

    def test_composed_su_uses_only_standard_operators(self):
        query = Query("q")
        source_op = query.add_source("source", [])
        attach_su(query, source_op, name="su", fused=False)
        names = {op.name for op in query.operators}
        assert "su_multiplex" in names
        assert "su_unfold" in names
        assert not any(isinstance(op, SUOperator) for op in query.operators)

    def test_unfold_map_operator_expands_tuples(self, manager):
        unfold = UnfoldMapOperator("unfold")
        unfold.set_provenance(manager)
        inp, out = Stream("in"), Stream("out")
        unfold.add_input(inp)
        unfold.add_output(out)
        sources = [tup(ts) for ts in (1, 2)]
        aggregate = aggregate_tuple(manager, sources, ts=0)
        feed(inp, [aggregate], close=True)
        run_operator(unfold)
        assert len(rows(collect(out))) == 2


def boundary_unfolded(manager, tuple_, fused):
    """What a boundary SU (before a cut Send) unfolds for one input tuple.

    Composed, the unfolding Map sees the Multiplex's copy of the input,
    exactly as in the Figure 5B composition.
    """
    if fused:
        su = SUOperator("su", boundary=True)
        su.set_provenance(manager)
        (inp,), (data_out, unfolded_out) = wire(su, n_outputs=2)
        feed(inp, [tuple_], close=True)
        run_operator(su)
        assert collect(data_out) == [tuple_]
        return rows(collect(unfolded_out))
    copy = StreamTuple(ts=tuple_.ts, values=dict(tuple_.values))
    manager.on_multiplex_output(copy, tuple_)
    unfold = UnfoldMapOperator("su_unfold", boundary=True)
    unfold.set_provenance(manager)
    (inp,), (out,) = wire(unfold)
    feed(inp, [copy], close=True)
    run_operator(unfold)
    return rows(collect(out))


def received(manager, tuple_type):
    leaf = tup(1, v=1)
    manager.on_receive(leaf, {"type": tuple_type, "id": "upstream:7"})
    return leaf


def multiplex_copy(manager, tuple_):
    copy = StreamTuple(ts=tuple_.ts, values=dict(tuple_.values))
    manager.on_multiplex_output(copy, tuple_)
    return copy


def map_output(manager, parent):
    out = tup(parent.ts, w=1)
    manager.on_map_output(out, parent)
    return out


def join_output(manager):
    newer, older = tup(2, a=1), tup(1, b=1)
    out = tup(2, ab=1)
    manager.on_join_output(out, newer, older)
    return out


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "composed"])
class TestBoundarySU:
    """A boundary SU unfolds only the tuples its own instance derived."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda m: tup(1, v=1),
            lambda m: multiplex_copy(m, tup(1, v=1)),
            lambda m: received(m, "SOURCE"),
            lambda m: received(m, "REMOTE"),
        ],
        ids=["source", "multiplex_of_source", "received_source", "received_remote"],
    )
    def test_emits_nothing_for_what_crosses_without_an_id_minted_here(
        self, manager, fused, make
    ):
        assert boundary_unfolded(manager, make(manager), fused) == []
        assert manager.traversal_times_s == []  # not even traversed

    @pytest.mark.parametrize(
        "make, origins",
        [
            (lambda m: map_output(m, tup(1, v=1)), 1),
            (lambda m: multiplex_copy(m, map_output(m, tup(1, v=1))), 1),
            (lambda m: aggregate_tuple(m, [tup(1, v=1), tup(2, v=2)], ts=2), 2),
            (join_output, 2),
            (lambda m: map_output(m, received(m, "REMOTE")), 1),
        ],
        ids=["map", "multiplex_of_map", "aggregate", "join", "map_of_received_remote"],
    )
    def test_emits_for_derived_tuples(self, manager, fused, make, origins):
        derived = make(manager)
        unfolded = boundary_unfolded(manager, derived, fused)
        assert len(unfolded) == origins
        assert {t[SINK_ID_FIELD] for t in unfolded} == {manager.tuple_id(derived)}

    @pytest.mark.parametrize("boundary", [False, True])
    def test_attach_su_marks_the_unfolding_operator(self, fused, boundary):
        query = Query("q")
        source = query.add_source("s", [])
        _, unfolding = attach_su(query, source, fused=fused, boundary=boundary)
        assert unfolding.boundary is boundary


#: (where the attribute sits, its name): every name the unfolded schema
#: (Definition 6.2) reserves, which used to corrupt provenance silently.
RESERVED = [
    ("sink", "ts"),
    ("sink", "id"),
    ("origin", "sink_kind"),
    ("origin", "sink_ts"),
    ("origin", ORIGIN_TS_FIELD),
    ("origin", ORIGIN_ID_FIELD),
    ("origin", ORIGIN_TYPE_FIELD),
]


def reserved_input(manager, side, name):
    """A sink tuple with one origin, ``name`` sitting on the given side."""
    origin = StreamTuple(ts=1, values={"v": 1, **({name: "x"} if side == "origin" else {})})
    out = StreamTuple(ts=2, values={"alert": 1, **({name: "x"} if side == "sink" else {})})
    manager.on_aggregate_output(out, [origin])
    return out


class TestReservedAttributeNames:
    @pytest.mark.parametrize("side,name", RESERVED)
    def test_su_rejects_naming_operator_and_attribute(self, manager, side, name):
        su = SUOperator("su_alerts")
        su.set_provenance(manager)
        wire(su, n_outputs=2)
        bad = reserved_input(manager, side, name)
        with pytest.raises(ReservedAttributeError) as caught:
            su.process_batch([bad])
        assert "'su_alerts'" in str(caught.value)
        assert f"{side} attribute {name!r}" in str(caught.value)

    @pytest.mark.parametrize("side,name", RESERVED)
    def test_unfold_map_rejects(self, manager, side, name):
        unfold = UnfoldMapOperator("su_unfold")
        unfold.set_provenance(manager)
        wire(unfold)
        with pytest.raises(ReservedAttributeError, match=f"'su_unfold'.*{name!r}"):
            unfold.process_batch([reserved_input(manager, side, name)])

    @pytest.mark.parametrize("side,name", RESERVED)
    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "composed"])
    def test_pipeline_with_a_store_rejects(self, side, name, fused):
        from repro import Dataflow, Pipeline
        from repro.provstore import ProvenanceLedger

        def supplier():
            extra = {name: "x"} if side == "origin" else {}
            return [StreamTuple(ts=float(i), values={"v": i, **extra}) for i in range(4)]

        flow = Dataflow("reserved")
        stream = flow.source("s", supplier)
        if side == "sink":
            stream = stream.map(lambda t: t.derive(values={"v": t["v"], name: "x"}))
        stream.filter(lambda t: True).sink("out")
        store = ProvenanceLedger()
        pipeline = Pipeline(
            flow, provenance="genealog", provenance_store=store, fused=fused, validate="off"
        )
        with pytest.raises(ReservedAttributeError, match=repr(name)):
            pipeline.run()
        assert store.ingested_tuples == 0  # rejected before anything was stored

    def test_names_outside_the_reserved_set_pass(self, manager):
        # near misses: the prefix without the underscore, the bare identity
        # names on the *other* side, a sink attribute called like an origin's.
        origin = StreamTuple(ts=1, values={"sinker": 1, "ts": 3, "id": 4})
        out = aggregate_tuple(manager, [origin], ts=2, ts_o=5, sinker=6)
        values = make_unfolded_values(out, origin, manager)
        assert values["sink_ts_o"] == 5 and values[ORIGIN_TS_FIELD] == 1
        assert values["sink_sinker"] == 6 and values["sinker"] == 1
        assert values["ts"] == 3 and values["id"] == 4

    def test_a_block_holds_the_sink_once_and_an_entry_per_origin(self, manager):
        origins = [tup(1, v=1, w=2), tup(3, v=3, w=4)]
        out = aggregate_tuple(manager, origins, ts=2, alert=1, level=3)
        block = unfold_block(out, origins, manager, "su")
        assert block.values is out.values  # the sink payload, once, by reference
        assert (block.ts, block.sink_ts, block.sink_id) == (2, 2, manager.tuple_id(out))
        assert block.sources == [
            {"v": 1, "w": 2, ORIGIN_TS_FIELD: 1, ORIGIN_ID_FIELD: "n1:1",
             ORIGIN_TYPE_FIELD: "SOURCE"},
            {"v": 3, "w": 4, ORIGIN_TS_FIELD: 3, ORIGIN_ID_FIELD: "n1:2",
             ORIGIN_TYPE_FIELD: "SOURCE"},
        ]
        assert list(block.rows()[0]) == [
            "sink_alert", "sink_level", SINK_TS_FIELD, SINK_ID_FIELD,
            "v", "w", ORIGIN_TS_FIELD, ORIGIN_ID_FIELD, ORIGIN_TYPE_FIELD,
        ]
        assert block.rows()[1] == make_unfolded_values(out, origins[1], manager)
