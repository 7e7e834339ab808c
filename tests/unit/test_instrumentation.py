"""Unit tests for GeneaLog's operator instrumentation (section 4.1)."""

import pytest

from repro.core.instrumentation import GeneaLogProvenance
from repro.core.meta import get_meta
from repro.core.types import TupleType
from repro.core.unfolder import ORIGIN_ID_FIELD, ORIGIN_TYPE_FIELD, make_unfolded_values
from repro.spe.tuples import StreamTuple


def tup(ts=0.0, **values):
    return StreamTuple(ts=ts, values=values)


@pytest.fixture
def manager():
    return GeneaLogProvenance(node_id="n1")


class TestCreationHooks:
    def test_source_hooks_allocate_nothing(self, manager):
        # Absent meta *is* T=SOURCE: neither source hook attaches a block.
        batch = [tup(1), tup(2)]
        manager.on_source_output(batch[0])
        manager.on_source_batch(batch)
        assert all(source.meta is None for source in batch)
        assert manager.unfold(batch[0]) == [batch[0]]

    def test_map_points_to_its_input(self, manager):
        source, out = tup(1), tup(1)
        manager.on_source_output(source)
        manager.on_map_output(out, source)
        meta = get_meta(out)
        assert meta.type is TupleType.MAP
        assert meta.u1 is source
        assert meta.u2 is None

    def test_multiplex_points_to_its_input(self, manager):
        source, copy = tup(1), tup(1)
        manager.on_source_output(source)
        manager.on_multiplex_output(copy, source)
        meta = get_meta(copy)
        assert meta.type is TupleType.MULTIPLEX
        assert meta.u1 is source

    def test_join_points_to_newer_and_older(self, manager):
        older, newer, out = tup(1), tup(5), tup(5)
        manager.on_source_output(older)
        manager.on_source_output(newer)
        manager.on_join_output(out, newer, older)
        meta = get_meta(out)
        assert meta.type is TupleType.JOIN
        assert meta.u1 is newer
        assert meta.u2 is older

    def test_aggregate_chains_the_window(self, manager):
        window = [tup(ts) for ts in (1, 2, 3)]
        for window_tuple in window:
            manager.on_source_output(window_tuple)
        out = tup(0)
        manager.on_aggregate_output(out, window)
        meta = get_meta(out)
        assert meta.type is TupleType.AGGREGATE
        assert meta.u2 is window[0]
        assert meta.u1 is window[2]
        assert get_meta(window[0]).n is window[1]
        assert get_meta(window[1]).n is window[2]
        # only tuples with a successor need a block (to hold N)
        assert get_meta(window[0]).type is TupleType.SOURCE
        assert window[2].meta is None

    def test_aggregate_with_empty_window(self, manager):
        out = tup(0)
        manager.on_aggregate_output(out, [])
        meta = get_meta(out)
        assert meta.type is TupleType.AGGREGATE
        assert meta.u1 is None and meta.u2 is None

    def test_inputs_without_meta_are_treated_as_sources(self, manager):
        # Creation hooks never materialise their inputs' metadata ...
        bare, other, out, copy, joined = tup(1, v=1), tup(2), tup(1), tup(1), tup(2)
        manager.on_map_output(out, bare)
        manager.on_multiplex_output(copy, bare)
        manager.on_join_output(joined, other, bare)
        manager.on_aggregate_output(tup(0), [other], contributors=[other])
        assert bare.meta is None and other.meta is None
        # ... a bare input is a SOURCE leaf as it stands ...
        assert manager.unfold(out) == [bare]
        assert manager.unfold(joined) == [other, bare]
        # ... and unfolds as one, with a lazily minted, stable id.
        values = make_unfolded_values(out, bare, manager)
        assert values[ORIGIN_TYPE_FIELD] == "SOURCE"
        assert values[ORIGIN_ID_FIELD].startswith("n1:")
        assert manager.tuple_id(bare) == values[ORIGIN_ID_FIELD]
        assert manager.tuple_id(copy) == values[ORIGIN_ID_FIELD]  # same logical tuple
        assert get_meta(bare).type is TupleType.SOURCE


class TestIds:
    def test_ids_are_assigned_lazily_and_are_stable(self, manager):
        source = tup(1)
        manager.on_source_output(source)
        assert source.meta is None  # no id, no block
        first = manager.tuple_id(source)
        second = manager.tuple_id(source)
        assert first == second
        assert first.startswith("n1:")
        assert get_meta(source).tuple_id == first

    def test_ids_are_unique_per_manager(self, manager):
        ids = set()
        for _ in range(100):
            source = tup(1)
            manager.on_source_output(source)
            ids.add(manager.tuple_id(source))
        assert len(ids) == 100

    def test_ids_include_the_node_identifier(self):
        first = GeneaLogProvenance(node_id="alpha")
        second = GeneaLogProvenance(node_id="beta")
        tuple_a, tuple_b = tup(1), tup(1)
        first.on_source_output(tuple_a)
        second.on_source_output(tuple_b)
        assert first.tuple_id(tuple_a) != second.tuple_id(tuple_b)


class TestProcessBoundary:
    def test_send_payload_downgrades_to_remote(self, manager):
        source, mapped = tup(1), tup(1)
        manager.on_source_output(source)
        manager.on_map_output(mapped, source)
        payload = manager.on_send(mapped)
        assert payload["type"] == "REMOTE"
        assert payload["id"] == manager.tuple_id(mapped)

    def test_send_payload_keeps_source_type(self, manager):
        source = tup(1)
        manager.on_source_output(source)
        payload = manager.on_send(source)
        assert payload["type"] == "SOURCE"
        assert payload["id"] == manager.tuple_id(source)  # minted once, kept

    def test_receive_reattaches_type_and_id(self, manager):
        received = tup(1)
        manager.on_receive(received, {"type": "REMOTE", "id": "other:7"})
        meta = get_meta(received)
        assert meta.type is TupleType.REMOTE
        assert meta.tuple_id == "other:7"
        assert meta.u1 is None  # pointers never survive the boundary

    def test_receive_defaults_to_remote(self, manager):
        received = tup(1)
        manager.on_receive(received, {})
        assert get_meta(received).type is TupleType.REMOTE


class TestUnfold:
    def test_unfold_uses_the_traversal(self, manager):
        source, out = tup(1), tup(1)
        manager.on_source_output(source)
        manager.on_map_output(out, source)
        assert manager.unfold(out) == [source]

    def test_unfold_records_traversal_times(self, manager):
        source = tup(1)
        manager.on_source_output(source)
        manager.unfold(source)
        manager.unfold(source)
        assert len(manager.traversal_times_s) == 2
        assert all(sample >= 0 for sample in manager.traversal_times_s)

    def test_traversal_recording_can_be_disabled(self):
        manager = GeneaLogProvenance(record_traversal_times=False)
        source = tup(1)
        manager.on_source_output(source)
        manager.unfold(source)
        assert manager.traversal_times_s == []

    def test_no_provenance_specific_memory_is_retained(self, manager):
        # GeneaLog itself stores nothing: retention is delegated entirely to
        # the process's memory management (challenge C2).
        source = tup(1)
        manager.on_source_output(source)
        assert manager.retained_items() == 0
        assert manager.retained_bytes() == 0
