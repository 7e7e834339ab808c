"""Unit tests for the multi-stream unfolder (MU, section 6)."""

import pytest

from repro.core.instrumentation import GeneaLogProvenance
from repro.core.multi_unfolder import MUOperator, attach_mu
from repro.spe.query import Query
from repro.spe.scheduler import Scheduler
from repro.spe.streams import Stream
from repro.spe.tuples import (
    ORIGIN_ID_FIELD,
    ORIGIN_TS_FIELD,
    ORIGIN_TYPE_FIELD,
    SINK_ID_FIELD,
    SINK_PREFIX,
    SINK_TS_FIELD,
    UnfoldedBlock,
)
from tests.optest import collect, feed, run_operator


def unfolded(sink_ts, sink_id, origin_ts, origin_id, origin_type="SOURCE", **extra):
    """A one-entry block: ``sink_``-prefixed ``extra`` is the sink's payload."""
    sink = {k[len(SINK_PREFIX):]: v for k, v in extra.items() if k.startswith(SINK_PREFIX)}
    entry = {k: v for k, v in extra.items() if not k.startswith(SINK_PREFIX)}
    entry.update(
        {ORIGIN_TS_FIELD: origin_ts, ORIGIN_ID_FIELD: origin_id, ORIGIN_TYPE_FIELD: origin_type}
    )
    return UnfoldedBlock(sink_ts, sink, sink_id, [entry])


def rows(blocks):
    """The flat Definition 6.2 view of an unfolded stream."""
    return [row for block in blocks for row in block.rows()]


class TestCombine:
    def test_sink_part_comes_from_derived_origin_part_from_upstream(self):
        mu, derived_in, upstream_in, out = wire_mu()
        derived = unfolded(100, "spe2:1", 90, "spe1:5", "REMOTE", sink_alert=1)
        upstream = unfolded(90, "spe1:5", 60, "spe1:2", "SOURCE", car_id="a")
        feed(upstream_in, [upstream], close=True)
        feed(derived_in, [derived], close=True)
        run_operator(mu)
        (combined,) = rows(collect(out))
        assert combined["sink_alert"] == 1
        assert combined[SINK_TS_FIELD] == 100
        assert combined[SINK_ID_FIELD] == "spe2:1"
        assert combined[ORIGIN_TS_FIELD] == 60
        assert combined[ORIGIN_ID_FIELD] == "spe1:2"
        assert combined[ORIGIN_TYPE_FIELD] == "SOURCE"
        assert combined["car_id"] == "a"


def wire_mu(retention=1000.0):
    mu = MUOperator("mu", retention=retention)
    mu.set_provenance(GeneaLogProvenance(node_id="prov"))
    derived_in, upstream_in, out = Stream("derived"), Stream("upstream"), Stream("out")
    mu.add_input(derived_in)
    mu.add_input(upstream_in)
    mu.add_output(out)
    return mu, derived_in, upstream_in, out


class TestMUOperator:
    def test_source_typed_derived_tuples_are_forwarded(self):
        mu, derived_in, upstream_in, out = wire_mu()
        tuple_in = unfolded(10, "spe2:1", 5, "spe2:0", "SOURCE", sink_alert=1)
        feed(derived_in, [tuple_in], close=True)
        feed(upstream_in, [], close=True)
        run_operator(mu)
        assert collect(out) == [tuple_in]

    def test_remote_typed_derived_tuples_are_replaced_by_upstream(self):
        mu, derived_in, upstream_in, out = wire_mu()
        upstream_tuples = [
            unfolded(90, "spe1:5", ts, f"spe1:{ts}", "SOURCE", car_id="a")
            for ts in (60, 70, 80)
        ]
        derived = unfolded(100, "spe2:1", 90, "spe1:5", "REMOTE", sink_alert=1)
        feed(upstream_in, upstream_tuples, close=True)
        feed(derived_in, [derived], close=True)
        run_operator(mu)
        results = rows(collect(out))
        assert sorted(t[ORIGIN_TS_FIELD] for t in results) == [60, 70, 80]
        assert all(t["sink_alert"] == 1 for t in results)
        assert all(t[SINK_ID_FIELD] == "spe2:1" for t in results)

    def test_matching_works_regardless_of_arrival_order(self):
        # The derived tuple may arrive before the upstream tuples (e.g. a
        # window-start timestamp smaller than its contributing tuples).
        mu, derived_in, upstream_in, out = wire_mu()
        derived = unfolded(50, "spe2:1", 90, "spe1:5", "REMOTE")
        upstream = unfolded(90, "spe1:5", 60, "spe1:2", "SOURCE")
        feed(derived_in, [derived], close=True)
        feed(upstream_in, [upstream], close=True)
        run_operator(mu)
        assert len(collect(out)) == 1

    def test_unmatched_upstream_tuples_produce_nothing(self):
        mu, derived_in, upstream_in, out = wire_mu()
        upstream = unfolded(90, "spe1:5", 60, "spe1:2", "SOURCE")
        feed(upstream_in, [upstream], close=True)
        feed(derived_in, [], close=True)
        run_operator(mu)
        assert collect(out) == []

    def test_buffers_are_purged_by_watermark(self):
        mu, derived_in, upstream_in, out = wire_mu(retention=10)
        upstream = unfolded(5, "spe1:5", 3, "spe1:2", "SOURCE")
        feed(upstream_in, [upstream], watermark=100)
        feed(derived_in, [], watermark=100)
        run_operator(mu)
        assert mu.buffered_tuples() == 0

    def test_recent_buffers_are_retained(self):
        mu, derived_in, upstream_in, out = wire_mu(retention=1000)
        upstream = unfolded(5, "spe1:5", 3, "spe1:2", "SOURCE")
        feed(upstream_in, [upstream], watermark=100)
        feed(derived_in, [], watermark=100)
        run_operator(mu)
        assert mu.buffered_tuples() == 1


    def test_buffers_are_released_on_close(self):
        mu, derived_in, upstream_in, out = wire_mu(retention=1000)
        upstream = unfolded(5, "spe1:5", 3, "spe1:2", "SOURCE")
        derived = unfolded(6, "spe2:1", 6, "spe1:9", "REMOTE")
        feed(upstream_in, [upstream], close=True)
        feed(derived_in, [derived], close=True)
        run_operator(mu)
        assert mu.buffered_tuples() == 0


class TestAttachMU:
    def _run(self, fused):
        query = Query("mu-query")
        upstream_tuples = [
            unfolded(90, "spe1:5", ts, f"spe1:{ts}", "SOURCE", car_id="a")
            for ts in (60, 70, 80)
        ]
        derived_tuples = [
            unfolded(30, "spe2:0", 30, "spe2:9", "SOURCE", sink_alert=0),
            unfolded(100, "spe2:1", 90, "spe1:5", "REMOTE", sink_alert=1),
        ]
        derived_source = query.add_source("derived_source", derived_tuples)
        upstream_source = query.add_source("upstream_source", upstream_tuples)
        ports = attach_mu(query, retention=1000, upstream_count=1, fused=fused)
        query.connect(derived_source, ports.derived_entry)
        query.connect(upstream_source, ports.upstream_entry)
        sink = query.add_sink("provenance_sink")
        query.connect(ports.output, sink)
        query.set_provenance(GeneaLogProvenance(node_id="prov"))
        Scheduler(query).run()
        return rows(sink.received)

    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "composed"])
    def test_source_and_remote_tuples_are_handled(self, fused):
        results = self._run(fused)
        origins = sorted(t[ORIGIN_TS_FIELD] for t in results)
        assert origins == [30, 60, 70, 80]

    def test_fused_and_composed_agree(self):
        fused_results = {
            (t[SINK_ID_FIELD], t[ORIGIN_ID_FIELD]) for t in self._run(True)
        }
        composed_results = {
            (t[SINK_ID_FIELD], t[ORIGIN_ID_FIELD]) for t in self._run(False)
        }
        assert fused_results == composed_results

    def test_composed_mu_uses_only_standard_operators(self):
        query = Query("q")
        ports = attach_mu(query, retention=10, upstream_count=2, fused=False)
        assert not any(isinstance(op, MUOperator) for op in query.operators)
        names = {op.name for op in query.operators}
        assert "mu_join" in names
        assert "mu_upstream_union" in names
        assert "mu_multiplex" in names


class TestRecursiveStitching:
    """Chained process boundaries (Definition 6.4 applied recursively).

    Key-sharded stages place partition, replicas and merge on different
    instances, so a derived tuple's REMOTE origin may itself unfold to
    REMOTE origins one more boundary up; the fused MU must keep replacing
    until it bottoms out at SOURCE tuples.
    """

    def wire(self, upstream_count=2, retention=1000.0):
        mu = MUOperator("mu", retention=retention)
        mu.set_provenance(GeneaLogProvenance(node_id="prov"))
        derived_in = Stream("derived")
        mu.add_input(derived_in)
        upstream_ins = []
        for index in range(upstream_count):
            stream = Stream(f"upstream{index}")
            mu.add_input(stream)
            upstream_ins.append(stream)
        out = Stream("out")
        mu.add_output(out)
        return mu, derived_in, upstream_ins, out

    def test_two_hop_chain_resolves_to_sources(self):
        mu, derived_in, (near, far), out = self.wire()
        # sink <- REMOTE shard:7; shard:7 <- REMOTE spe1:1, spe1:2;
        # spe1:1 / spe1:2 <- SOURCE payloads.
        derived = unfolded(100, "sink:0", 90, "shard:7", "REMOTE", sink_alert=1)
        near_tuples = [
            unfolded(90, "shard:7", 60, "spe1:1", "REMOTE"),
            unfolded(90, "shard:7", 70, "spe1:2", "REMOTE"),
        ]
        far_tuples = [
            unfolded(60, "spe1:1", 60, "spe1:1", "SOURCE", car_id="a"),
            unfolded(70, "spe1:2", 70, "spe1:2", "SOURCE", car_id="b"),
        ]
        feed(derived_in, [derived], close=True)
        feed(near, near_tuples, close=True)
        feed(far, far_tuples, close=True)
        run_operator(mu)
        results = rows(collect(out))
        assert sorted(t[ORIGIN_TS_FIELD] for t in results) == [60, 70]
        assert sorted(t["car_id"] for t in results) == ["a", "b"]
        assert all(t[ORIGIN_TYPE_FIELD] == "SOURCE" for t in results)
        assert all(t[SINK_ID_FIELD] == "sink:0" for t in results)
        assert all(t["sink_alert"] == 1 for t in results)

    def test_remote_identity_records_are_ignored(self):
        # A boundary SU unfolding a tuple that merely passed through its
        # instance ships sink_id == id_o with type REMOTE; combining with it
        # would loop the replacement forever.
        mu, derived_in, (near, far), out = self.wire()
        derived = unfolded(100, "sink:0", 90, "spe1:1", "REMOTE")
        identity = unfolded(90, "spe1:1", 90, "spe1:1", "REMOTE")
        resolving = unfolded(90, "spe1:1", 60, "spe1:0", "SOURCE", car_id="a")
        feed(near, [identity], close=True)
        feed(far, [resolving], close=True)
        feed(derived_in, [derived], close=True)
        run_operator(mu)
        results = rows(collect(out))
        assert len(results) == 1
        assert results[0]["car_id"] == "a"

    def test_source_identity_records_terminate_a_chain(self):
        # A forwarded source tuple's unfolding *is* itself (sink_id == id_o,
        # type SOURCE): it must be kept -- it carries the source payload.
        mu, derived_in, (near, far), out = self.wire()
        derived = unfolded(100, "sink:0", 90, "spe1:1", "REMOTE")
        identity = unfolded(90, "spe1:1", 90, "spe1:1", "SOURCE", car_id="a")
        feed(near, [identity], close=True)
        feed(far, [], close=True)
        feed(derived_in, [derived], close=True)
        run_operator(mu)
        results = rows(collect(out))
        assert len(results) == 1
        assert results[0]["car_id"] == "a"
        assert results[0][ORIGIN_TYPE_FIELD] == "SOURCE"

    def test_duplicate_cross_boundary_records_are_matched_once(self):
        # The same logical tuple id can cross two different boundaries
        # (multiplex copies share their input's id); the identical unfolding
        # record then arrives on two upstream streams and must not double
        # the sources of the final record.
        mu, derived_in, (near, far), out = self.wire()
        derived = unfolded(100, "sink:0", 90, "spe1:1", "REMOTE")
        record = unfolded(90, "spe1:1", 60, "spe1:0", "SOURCE", car_id="a")
        duplicate = unfolded(90, "spe1:1", 60, "spe1:0", "SOURCE", car_id="a")
        feed(near, [record], close=True)
        feed(far, [duplicate], close=True)
        feed(derived_in, [derived], close=True)
        run_operator(mu)
        assert len(collect(out)) == 1
