"""Property-based tests for the deterministic-merge and windowing machinery."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spe.operators.aggregate import AggregateOperator, WindowSpec
from repro.spe.operators.union import UnionOperator
from repro.spe.streams import Stream
from repro.spe.tuples import StreamTuple


# ---------------------------------------------------------------------------
# Union merge
# ---------------------------------------------------------------------------

sorted_ts_lists = st.lists(st.integers(0, 100), max_size=25).map(sorted)


def run_union(streams_content, chunk_size):
    """Run a Union over the given per-stream timestamp lists, feeding the
    streams ``chunk_size`` tuples at a time."""
    union = UnionOperator("union")
    streams = []
    for index, _ in enumerate(streams_content):
        stream = Stream(f"in{index}")
        union.add_input(stream)
        streams.append(stream)
    out = Stream("out")
    union.add_output(out)

    positions = [0] * len(streams_content)
    while True:
        progressed = False
        for index, content in enumerate(streams_content):
            start = positions[index]
            chunk = content[start : start + chunk_size]
            for ts in chunk:
                streams[index].push(StreamTuple(ts=ts, values={"origin": index}))
                streams[index].advance_watermark(ts)
            positions[index] += len(chunk)
            if chunk:
                progressed = True
            if positions[index] >= len(content):
                streams[index].close()
        union.work()
        if not progressed and all(p >= len(c) for p, c in zip(positions, streams_content)):
            break
    while union.work():
        pass
    return [(t.ts, t["origin"]) for t in out.drain()]


class TestUnionMergeProperties:
    @given(st.lists(sorted_ts_lists, min_size=1, max_size=4), st.integers(1, 7))
    @settings(max_examples=100, deadline=None)
    def test_output_is_sorted_and_complete(self, streams_content, chunk_size):
        merged = run_union(streams_content, chunk_size)
        timestamps = [ts for ts, _ in merged]
        assert timestamps == sorted(timestamps)
        assert sorted(timestamps) == sorted(ts for content in streams_content for ts in content)

    @given(st.lists(sorted_ts_lists, min_size=1, max_size=4), st.integers(1, 7), st.integers(1, 7))
    @settings(max_examples=75, deadline=None)
    def test_merge_is_independent_of_arrival_granularity(
        self, streams_content, first_chunk, second_chunk
    ):
        # Determinism: the merged order depends only on the stream contents,
        # not on how the tuples trickled in.
        assert run_union(streams_content, first_chunk) == run_union(
            streams_content, second_chunk
        )


# ---------------------------------------------------------------------------
# Aggregate windows
# ---------------------------------------------------------------------------


def brute_force_windows(timestamps, size, advance):
    """Reference implementation of aligned sliding windows over a multiset of ts."""
    if not timestamps:
        return {}
    lowest = min(timestamps)
    highest = max(timestamps)
    first_start = math.floor(lowest / advance) * advance - (size - advance)
    windows = {}
    start = first_start
    while start <= highest:
        selected = [ts for ts in timestamps if start <= ts < start + size]
        if selected:
            windows[start] = len(selected)
        start += advance
    return windows


window_specs = st.tuples(st.integers(1, 20), st.integers(1, 20)).map(
    lambda pair: (max(pair), min(pair))
)


class TestAggregateProperties:
    @given(st.lists(st.integers(0, 200), max_size=40).map(sorted), window_specs)
    @settings(max_examples=100, deadline=None)
    def test_window_counts_match_brute_force(self, timestamps, spec):
        size, advance = spec
        operator = AggregateOperator(
            "agg",
            WindowSpec(size=size, advance=advance),
            lambda window, key: {"count": len(window)},
        )
        inp, out = Stream("in"), Stream("out")
        operator.add_input(inp)
        operator.add_output(out)
        for ts in timestamps:
            inp.push(StreamTuple(ts=ts, values={}))
        inp.advance_watermark(timestamps[-1] if timestamps else 0)
        inp.close()
        while operator.work():
            pass
        produced = {t.ts: t["count"] for t in out.drain()}
        assert produced == brute_force_windows(timestamps, size, advance)

    @given(st.lists(st.integers(0, 200), max_size=40).map(sorted), window_specs)
    @settings(max_examples=60, deadline=None)
    def test_all_state_is_eventually_released(self, timestamps, spec):
        size, advance = spec
        operator = AggregateOperator(
            "agg",
            WindowSpec(size=size, advance=advance),
            lambda window, key: {"count": len(window)},
        )
        inp, out = Stream("in"), Stream("out")
        operator.add_input(inp)
        operator.add_output(out)
        for ts in timestamps:
            inp.push(StreamTuple(ts=ts, values={}))
        inp.close()
        while operator.work():
            pass
        assert operator.buffered_tuples() == 0
