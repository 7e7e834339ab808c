"""Unit tests for keyed data-parallelism: Partition, Merge, DSL expansion."""

import pytest

from repro.analysis import PlanAnalysisError
from repro.api.dataflow import Dataflow, DataflowError
from repro.api.pipeline import Pipeline, Placement
from repro.spe.codec import BinaryChannelDecoder, BinaryChannelEncoder
from repro.spe.errors import QueryValidationError
from repro.spe.operators.aggregate import AggregateOperator, WindowSpec
from repro.spe.operators.merge import MergeOperator
from repro.spe.operators.partition import PartitionOperator, stable_shard
from repro.spe.query import Query
from repro.spe.scheduler import Scheduler
from repro.spe.streams import Stream
from repro.spe.tuples import StreamTuple


def tup(ts, **values):
    return StreamTuple(ts=ts, values=values)


# ---------------------------------------------------------------------------
# PartitionOperator
# ---------------------------------------------------------------------------


class TestPartitionOperator:
    def build(self, shards=3, **kwargs):
        partition = PartitionOperator("p", lambda t: t["k"], **kwargs)
        source = Stream("in")
        partition.add_input(source)
        outs = []
        for index in range(shards):
            stream = Stream(f"s{index}")
            partition.add_output(stream)
            outs.append(stream)
        return partition, source, outs

    def test_same_key_always_lands_on_the_same_port(self):
        partition, source, outs = self.build()
        source.push_many([tup(i, k=i % 5) for i in range(50)])
        source.close()
        partition.work()
        for port, stream in enumerate(outs):
            for element in stream:
                assert stable_shard(element["k"], 3) == port

    def test_per_port_streams_preserve_input_order(self):
        partition, source, outs = self.build()
        tuples = [tup(i, k=i % 5) for i in range(50)]
        source.push_many(tuples)
        source.close()
        partition.work()
        position = {id(t): i for i, t in enumerate(tuples)}
        for stream in outs:
            forwarded = [position[id(t)] for t in stream]
            assert forwarded == sorted(forwarded)

    def test_stamp_sequence_numbers_the_input_stream(self):
        partition, source, outs = self.build(stamp_sequence=True)
        tuples = [tup(i, k=i) for i in range(10)]
        source.push_many(tuples)
        source.close()
        partition.work()
        assert [t.order_key for t in tuples] == list(range(10))

    def test_watermark_and_close_reach_every_port(self):
        partition, source, outs = self.build()
        source.push(tup(1.0, k=1))
        source.advance_watermark(5.0)
        partition.work()
        assert all(stream.watermark == 5.0 for stream in outs)
        source.close()
        partition.work()
        assert all(stream.closed for stream in outs)

    def test_partition_without_outputs_is_rejected(self):
        partition = PartitionOperator("p", lambda t: t["k"])
        partition.add_input(Stream("in"))
        with pytest.raises(QueryValidationError, match="no output"):
            partition.validate()

    def test_custom_partitioner_out_of_range_is_rejected(self):
        partition, source, _ = self.build(partitioner=lambda key, n: n + 1)
        source.push(tup(1.0, k=1))
        with pytest.raises(QueryValidationError, match="outside range"):
            partition.work()


# ---------------------------------------------------------------------------
# MergeOperator
# ---------------------------------------------------------------------------


class TestMergeOperator:
    def build(self, inputs=2):
        merge = MergeOperator("m")
        streams = []
        for index in range(inputs):
            stream = Stream(f"in{index}")
            merge.add_input(stream)
            streams.append(stream)
        out = Stream("out")
        merge.add_output(out)
        return merge, streams, out

    def test_equal_timestamps_sort_by_order_key_not_input_index(self):
        merge, (left, right), out = self.build()
        # The aggregate-replica convention: order_key is the group key's
        # sort value; "a" lives on input 1, "b" on input 0.
        b = tup(10.0, key="b")
        b.order_key = "b"
        a = tup(10.0, key="a")
        a.order_key = "a"
        left.push(b)
        right.push(a)
        left.close()
        right.close()
        merge.work()
        assert [t["key"] for t in out.drain()] == ["a", "b"]

    def test_order_key_is_cleared_on_release(self):
        merge, (left, right), out = self.build()
        stamped = tup(1.0, key="x")
        stamped.order_key = "x"
        left.push(stamped)
        left.close()
        right.close()
        merge.work()
        (released,) = out.drain()
        assert released is stamped
        assert released.order_key is None

    def test_ties_are_held_until_every_input_settles(self):
        merge, (left, right), out = self.build()
        first = tup(10.0, key="b")
        first.order_key = "b"
        left.push(first)
        left.advance_watermark(10.0)
        merge.work()
        # input 1 could still deliver ts == 10.0, so nothing may be released.
        assert out.drain() == []
        late = tup(10.0, key="a")
        late.order_key = "a"
        right.push(late)
        right.close()
        left.close()
        merge.work()
        assert [t["key"] for t in out.drain()] == ["a", "b"]

    def test_output_watermark_never_overtakes_held_tuples(self):
        merge, (left, right), out = self.build()
        held = tup(10.0, key="b")
        held.order_key = "b"
        left.push(held)
        left.advance_watermark(20.0)
        right.advance_watermark(10.0)
        merge.work()
        # input 1 may still deliver ts == 10.0 (a watermark only excludes
        # *smaller* timestamps), so the tuple is held and the output
        # watermark may not overtake it.
        assert out.drain() == []
        assert out.watermark <= 10.0

    def test_strictly_larger_watermark_releases_and_advances(self):
        merge, (left, right), out = self.build()
        held = tup(10.0, key="b")
        held.order_key = "b"
        left.push(held)
        left.advance_watermark(20.0)
        right.advance_watermark(15.0)
        merge.work()
        # no input can deliver ts <= 10 any more: release, and promise 15.
        assert [t.ts for t in out.drain()] == [10.0]
        assert out.watermark == 15.0

    def test_merge_without_inputs_is_rejected(self):
        merge = MergeOperator("m")
        merge.add_output(Stream("out"))
        with pytest.raises(QueryValidationError, match="no input"):
            merge.validate()

    def test_untagged_inputs_degrade_to_arrival_order(self):
        merge, (left, right), out = self.build()
        left.push(tup(1.0, key="l"))
        right.push(tup(1.0, key="r"))
        left.close()
        right.close()
        merge.work()
        assert [t["key"] for t in out.drain()] == ["l", "r"]


# ---------------------------------------------------------------------------
# order keys across serialisation
# ---------------------------------------------------------------------------


def wire_round_trip(stamped):
    """``stamped`` after one trip through the channel codec."""
    blob = BinaryChannelEncoder("c").encode_batch([stamped])
    (rebuilt,), _ = BinaryChannelDecoder("c").decode_batch(blob)
    return rebuilt


class TestOrderKeySerialisation:
    def test_absent_order_key_stays_absent(self):
        assert wire_round_trip(tup(1.0, a=1)).order_key is None

    def test_scalar_and_tuple_order_keys_round_trip(self):
        stamped = tup(1.0, a=1)
        stamped.order_key = 7
        assert wire_round_trip(stamped).order_key == 7
        pair = tup(2.0, a=1)
        pair.order_key = (0, 3, 1.5, 2)
        assert wire_round_trip(pair).order_key == (0, 3, 1.5, 2)

    def test_copy_preserves_order_key(self):
        stamped = tup(1.0, a=1)
        stamped.order_key = 5
        assert stamped.copy().order_key == 5


# ---------------------------------------------------------------------------
# DSL expansion
# ---------------------------------------------------------------------------


def counting_aggregate(window, key):
    return {"k": key, "n": len(window)}


class TestParallelDataflowExpansion:
    def keyed_dataflow(self, parallelism):
        df = Dataflow("px")
        (df.source("src", [tup(float(i), k=i % 4) for i in range(32)])
           .aggregate(
               WindowSpec(size=4.0, advance=4.0),
               counting_aggregate,
               key_function=lambda t: t["k"],
               name="agg",
               parallelism=parallelism,
           )
           .sink("out"))
        return df

    def test_parallelism_one_is_the_sequential_plan(self):
        df = self.keyed_dataflow(1)
        assert df.node_names == ["src", "agg", "out"]
        assert df.parallel_stage_names == []

    def test_expansion_creates_partition_shards_merge(self):
        df = self.keyed_dataflow(3)
        stage = df.parallel_stage("agg")
        assert stage.partitions == ("agg_partition",)
        assert stage.replicas == ("agg_shard0", "agg_shard1", "agg_shard2")
        assert stage.merge == "agg_merge"
        assert "agg" not in df
        for member in stage.members:
            assert member in df

    def test_expanded_plan_runs_and_matches_sequential(self):
        sequential = Pipeline(self.keyed_dataflow(1)).run()
        parallel = Pipeline(self.keyed_dataflow(3)).run()
        assert [(t.ts, dict(t.values)) for t in parallel.sink.received] == [
            (t.ts, dict(t.values)) for t in sequential.sink.received
        ]

    def test_key_by_supplies_the_aggregate_key(self):
        df = Dataflow("kb")
        (df.source("src", [tup(float(i), k=i % 2) for i in range(8)])
           .key_by(lambda t: t["k"])
           .aggregate(WindowSpec(size=4.0, advance=4.0), counting_aggregate,
                      name="agg", parallelism=2)
           .sink("out"))
        result = Pipeline(df).run()
        keys = {t["k"] for t in result.sink.received}
        assert keys == {0, 1}

    def test_parallel_aggregate_without_key_is_rejected(self):
        df = Dataflow("nokey")
        builder = df.source("src", [])
        with pytest.raises(DataflowError, match="group-by key"):
            builder.aggregate(
                WindowSpec(size=4.0), counting_aggregate, parallelism=2
            )

    def test_parallel_join_requires_key_by_on_both_sides(self):
        df = Dataflow("j")
        left = df.source("l", [])
        right = df.source("r", [])
        with pytest.raises(DataflowError, match="key_by"):
            left.join(right, 1.0, lambda a, b: True, lambda a, b: {}, parallelism=2)

    def test_unordered_upstream_is_rejected(self):
        df = Dataflow("uo")
        builder = df.source("src", [], enforce_order=False)
        with pytest.raises(DataflowError, match="sort"):
            builder.aggregate(
                WindowSpec(size=4.0),
                counting_aggregate,
                key_function=lambda t: t["k"],
                parallelism=2,
            )

    def test_stage_name_may_not_collide_with_parallel_stage(self):
        df = self.keyed_dataflow(2)
        with pytest.raises(DataflowError, match="parallel stage"):
            df.source("agg", [])

    def test_query_helpers_exist(self):
        query = Query("q")
        partition = query.add_partition("p", lambda t: t["k"])
        merge = query.add_merge("m")
        assert isinstance(partition, PartitionOperator)
        assert isinstance(merge, MergeOperator)

    def test_str_colliding_keys_keep_byte_identical_order(self):
        # Distinct keys whose str() collides (1 vs "1") may land on different
        # shards (stable_shard hashes repr); the flush order uses repr as a
        # tie-break in both plans, so the merged order still matches.
        def mixed_keys(parallelism):
            df = Dataflow(f"mx{parallelism}")
            rows = [tup(float(i), k=(1 if i % 2 else "1")) for i in range(16)]
            (df.source("src", rows)
               .aggregate(WindowSpec(size=4.0, advance=4.0), counting_aggregate,
                          key_function=lambda t: t["k"], name="agg",
                          parallelism=parallelism)
               .sink("out"))
            return df

        sequential = Pipeline(mixed_keys(1)).run()
        parallel = Pipeline(mixed_keys(4)).run()
        assert [(t.ts, t["k"], t["n"]) for t in parallel.sink.received] == [
            (t.ts, t["k"], t["n"]) for t in sequential.sink.received
        ]

    def test_retention_matches_the_sequential_plan(self):
        # Replica shards must not multiply the stage's retention (the default
        # MU / baseline-resolver horizon): each key lives on one shard.
        assert self.keyed_dataflow(4).retention_s() == self.keyed_dataflow(1).retention_s()

    def test_replica_shards_are_plain_aggregates_with_order_tags(self):
        df = self.keyed_dataflow(2)
        query = Pipeline(df).build().query
        shard = query["agg_shard0"]
        assert isinstance(shard, AggregateOperator)
        Scheduler(query).run()
        assert all(t.order_key is None for t in query["out"].received)


# ---------------------------------------------------------------------------
# placement expansion and diagnostics
# ---------------------------------------------------------------------------


class TestPlacementParallelStages:
    def dataflow(self):
        df = Dataflow("pl")
        (df.source("src", [tup(float(i), k=i % 2) for i in range(8)])
           .aggregate(WindowSpec(size=4.0, advance=4.0), counting_aggregate,
                      key_function=lambda t: t["k"], name="agg", parallelism=2)
           .sink("out"))
        return df

    def test_logical_name_places_the_whole_stage(self):
        placement = Placement({"a": ("src", "agg"), "b": ("out",)})
        result = Pipeline(self.dataflow(), placement=placement).run()
        assert result.sink.count > 0

    def test_members_spread_across_instances(self):
        placement = Placement(
            {
                "a": ("src", "agg_partition"),
                "s0": ("agg_shard0",),
                "s1": ("agg_shard1",),
                "b": ("agg_merge", "out"),
            }
        )
        result = Pipeline(self.dataflow(), placement=placement).run()
        assert result.sink.count > 0
        assert len(result.instances) == 4

    def test_unknown_stage_error_names_the_offending_instance(self):
        placement = Placement({"a": ("src", "agg", "out", "ghost")})
        with pytest.raises(PlanAnalysisError, match="unknown stage") as excinfo:
            Pipeline(self.dataflow(), placement=placement).build()
        assert excinfo.value.report.rule_ids() == ["placement.invalid"]
        assert "'ghost'" in str(excinfo.value)
        assert "'a'" in str(excinfo.value)

    def test_duplicate_assignment_error_names_both_instances(self):
        placement = Placement({"a": ("src", "agg"), "b": ("agg_shard0", "out")})
        with pytest.raises(PlanAnalysisError, match="assigned to both") as excinfo:
            Pipeline(self.dataflow(), placement=placement).build()
        assert excinfo.value.report.rule_ids() == ["placement.invalid"]
        message = str(excinfo.value)
        assert "'agg_shard0'" in message
        assert "'a'" in message and "'b'" in message

    def test_duplicate_within_one_instance_is_detected(self):
        placement = Placement({"a": ("src", "src", "agg", "out")})
        with pytest.raises(PlanAnalysisError, match="assigned to both") as excinfo:
            Pipeline(self.dataflow(), placement=placement).build()
        assert excinfo.value.report.rule_ids() == ["placement.invalid"]
