"""Unit tests for GeneaLog's metadata and the contribution-graph traversal."""

import pytest

from repro.core.meta import METADATA_FIELDS, GeneaLogMeta, get_meta
from repro.core.traversal import (
    contribution_graph,
    direct_contributors,
    find_provenance,
    provenance_depth,
    window_of,
)
from repro.core.types import TupleType
from repro.spe.tuples import StreamTuple


def source(ts, **values):
    tup = StreamTuple(ts=ts, values=values)
    tup.meta = GeneaLogMeta(TupleType.SOURCE)
    return tup


def derived(tuple_type, ts=0.0, u1=None, u2=None, **values):
    tup = StreamTuple(ts=ts, values=values)
    tup.meta = GeneaLogMeta(tuple_type, u1=u1, u2=u2)
    return tup


def aggregate_of(window, ts=0.0):
    for current, following in zip(window, window[1:]):
        current.meta.n = following
    return derived(TupleType.AGGREGATE, ts=ts, u1=window[-1], u2=window[0])


class TestTupleType:
    def test_leaf_types(self):
        assert TupleType.SOURCE.is_leaf()
        assert TupleType.REMOTE.is_leaf()
        assert not TupleType.MAP.is_leaf()
        assert not TupleType.AGGREGATE.is_leaf()

    def test_string_round_trip(self):
        assert TupleType("SOURCE") is TupleType.SOURCE
        assert str(TupleType.JOIN) == "JOIN"


class TestMeta:
    def test_metadata_is_fixed_size(self):
        # GeneaLog's core claim: the per-tuple metadata is constant-size.
        assert GeneaLogMeta.__slots__ == ("type", "u1", "u2", "n", "tuple_id")
        assert METADATA_FIELDS == 5
        with pytest.raises(AttributeError):
            GeneaLogMeta(TupleType.SOURCE).extra = 1  # type: ignore[attr-defined]

    def test_get_meta(self):
        tup = source(1)
        assert get_meta(tup) is tup.meta
        assert get_meta(StreamTuple(ts=1)) is None
        other = StreamTuple(ts=1, meta="not-genealog")
        assert get_meta(other) is None


class TestFindProvenance:
    def test_source_tuple_is_its_own_provenance(self):
        tup = source(1)
        assert find_provenance(tup) == [tup]

    def test_remote_tuple_is_a_leaf(self):
        tup = derived(TupleType.REMOTE, ts=1)
        assert find_provenance(tup) == [tup]

    def test_map_chain(self):
        leaf = source(1)
        mapped = derived(TupleType.MAP, u1=leaf)
        mapped_again = derived(TupleType.MAP, u1=mapped)
        assert find_provenance(mapped_again) == [leaf]

    def test_multiplex_points_to_its_input(self):
        leaf = source(1)
        copy = derived(TupleType.MULTIPLEX, u1=leaf)
        assert find_provenance(copy) == [leaf]

    def test_join_has_two_contributors(self):
        left = source(1, side="l")
        right = source(2, side="r")
        joined = derived(TupleType.JOIN, u1=right, u2=left)
        assert set(find_provenance(joined)) == {left, right}

    def test_aggregate_walks_the_window_chain(self):
        window = [source(ts) for ts in (1, 2, 3, 4)]
        out = aggregate_of(window)
        assert find_provenance(out) == window

    def test_single_tuple_window(self):
        window = [source(1)]
        out = aggregate_of(window)
        assert find_provenance(out) == window

    def test_nested_aggregate_of_joins(self):
        leaves = [source(ts) for ts in range(6)]
        joins = [
            derived(TupleType.JOIN, ts=i, u1=leaves[2 * i + 1], u2=leaves[2 * i])
            for i in range(3)
        ]
        out = aggregate_of(joins)
        assert set(find_provenance(out)) == set(leaves)

    def test_shared_contributor_reported_once(self):
        shared = source(1)
        left = derived(TupleType.MAP, u1=shared)
        right = derived(TupleType.MAP, u1=shared)
        joined = derived(TupleType.JOIN, u1=left, u2=right)
        assert find_provenance(joined) == [shared]

    def test_bare_tuple_treated_as_source(self):
        bare = StreamTuple(ts=1)
        mapped = derived(TupleType.MAP, u1=bare)
        assert find_provenance(mapped) == [bare]
        assert find_provenance(bare) == [bare]
        assert bare.meta is None  # the traversal is read-only

    def test_bare_single_tuple_window(self):
        bare = StreamTuple(ts=1)
        out = derived(TupleType.AGGREGATE, u1=bare, u2=bare)
        assert find_provenance(out) == [bare]
        assert window_of(out) == [bare]
        assert bare.meta is None

    def test_single_tuple_window_stops_at_its_tuple(self):
        # The window [a] flushed before [a, b, c] chained a -> b -> c: the
        # first output's window is still just a.
        a, b, c = source(1), source(2), source(3)
        first = derived(TupleType.AGGREGATE, u1=a, u2=a)
        second = aggregate_of([a, b, c])
        assert find_provenance(first) == [a]
        assert find_provenance(second) == [a, b, c]

    def test_bare_window_tail_ends_the_chain(self):
        # Only tuples with a successor hold an N link; the latest may be bare.
        a, b = source(1), StreamTuple(ts=2)
        a.meta.n = b
        out = derived(TupleType.AGGREGATE, u1=b, u2=a)
        assert find_provenance(out) == [a, b]
        assert window_of(out) == [a, b]
        assert b.meta is None


class TestGraphHelpers:
    def test_direct_contributors(self):
        leaf = source(1)
        mapped = derived(TupleType.MAP, u1=leaf)
        assert direct_contributors(leaf) == []
        assert direct_contributors(mapped) == [leaf]

    def test_window_of(self):
        window = [source(ts) for ts in (1, 2, 3)]
        out = aggregate_of(window)
        assert window_of(out) == window

    def test_window_of_rejects_non_aggregates(self):
        with pytest.raises(ValueError):
            window_of(source(1))
        with pytest.raises(ValueError):
            window_of(StreamTuple(ts=1))

    def test_graph_helpers_are_read_only(self):
        bare = StreamTuple(ts=1)
        mapped = derived(TupleType.MAP, u1=bare)
        assert direct_contributors(bare) == []
        assert contribution_graph(mapped) == [(mapped, bare)]
        assert provenance_depth(mapped) == 1
        assert bare.meta is None

    def test_contribution_graph_edges(self):
        leaf = source(1)
        copy = derived(TupleType.MULTIPLEX, u1=leaf)
        mapped = derived(TupleType.MAP, u1=copy)
        edges = contribution_graph(mapped)
        assert (mapped, copy) in edges
        assert (copy, leaf) in edges
        assert len(edges) == 2

    def test_provenance_depth(self):
        leaf = source(1)
        mapped = derived(TupleType.MAP, u1=leaf)
        mapped_again = derived(TupleType.MAP, u1=mapped)
        assert provenance_depth(leaf) == 0
        assert provenance_depth(mapped_again) == 2

    def test_figure2_contribution_graph(self):
        # The running example: the sink tuple's graph has the four position
        # reports of car "a" as leaves (Figure 2 of the paper).
        reports = [
            source(ts, car_id="a", speed=0, pos="X") for ts in (1, 31, 61, 91)
        ]
        aggregate_output = aggregate_of(reports, ts=0)
        sink_tuple = aggregate_output  # the final Filter forwards it unchanged
        assert find_provenance(sink_tuple) == reports
        assert provenance_depth(sink_tuple) == 1
