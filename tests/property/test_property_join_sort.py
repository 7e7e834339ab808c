"""Property-based tests for the Join and Sort operators."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.spe.operators.join import JoinOperator
from repro.spe.operators.sort import SortOperator
from repro.spe.streams import Stream
from repro.spe.tuples import StreamTuple


def run_join(left_tuples, right_tuples, window_size):
    """Run a key-equality join and return the set of (left ts, right ts) pairs."""
    join = JoinOperator(
        "join",
        window_size=window_size,
        predicate=lambda left, right: left["k"] == right["k"],
        combiner=lambda left, right: {"lts": left.ts, "rts": right.ts},
    )
    left_stream, right_stream, out = Stream("l"), Stream("r"), Stream("o")
    join.add_input(left_stream)
    join.add_input(right_stream)
    join.add_output(out)
    for ts, key in left_tuples:
        left_stream.push(StreamTuple(ts=ts, values={"k": key}))
    for ts, key in right_tuples:
        right_stream.push(StreamTuple(ts=ts, values={"k": key}))
    left_stream.close()
    right_stream.close()
    while join.work():
        pass
    return {(t["lts"], t["rts"]) for t in out.drain()}


def brute_force_join(left_tuples, right_tuples, window_size):
    return {
        (lts, rts)
        for lts, lk in left_tuples
        for rts, rk in right_tuples
        if lk == rk and abs(lts - rts) <= window_size
    }


keyed_stream = st.lists(
    st.tuples(st.integers(0, 60), st.sampled_from("abc")), max_size=15
).map(sorted)

#: (ts, key, value) streams on a narrow time range, so equal timestamps
#: across keys and sides and pairs exactly WS apart are common.
valued_stream = st.lists(
    st.tuples(st.integers(0, 20), st.sampled_from("abc"), st.integers(0, 3)),
    max_size=12,
).map(sorted)
watermarks = st.lists(st.integers(0, 25), max_size=5).map(sorted)

BY_KEY = (lambda t: t["k"], lambda t: t["k"])


def run_join_stepwise(keys, left_tuples, right_tuples, marks, window_size):
    """Run a join advancing both watermarks through ``marks``.

    Before each watermark ``w`` every tuple with ``ts < w`` is pushed.  The
    predicate is stricter than key equality (the value parities must match
    too).  Returns the ordered ``(ts, values)`` output and the join's
    ``buffered_tuples()`` after every watermark and after the close.
    """
    join = JoinOperator(
        "join",
        window_size=window_size,
        predicate=lambda left, right: left["k"] == right["k"]
        and left["v"] % 2 == right["v"] % 2,
        combiner=lambda left, right: {"lv": left["v"], "rv": right["v"], "k": left["k"]},
        keys=keys,
    )
    sides = [(Stream("l"), list(left_tuples)), (Stream("r"), list(right_tuples))]
    out = Stream("o")
    for stream, _ in sides:
        join.add_input(stream)
    join.add_output(out)
    buffered = []
    for mark in list(marks) + [None]:
        for stream, pending in sides:
            while pending and (mark is None or pending[0][0] < mark):
                ts, key, value = pending.pop(0)
                stream.push(StreamTuple(ts=ts, values={"k": key, "v": value}))
            if mark is None:
                stream.close()
            else:
                stream.advance_watermark(mark)
        while join.work():
            pass
        buffered.append(join.buffered_tuples())
    return [(t.ts, t.values) for t in out.drain()], buffered


def nested_loop_reference(left_tuples, right_tuples, marks, window_size):
    """What :func:`run_join_stepwise` must return, computed without the operator.

    Tuples are consumed in ``(ts, input index)`` order and each one is tested
    against every earlier tuple of the other side.  After watermark ``w`` the
    window holds the pushed tuples (``ts < w``) no older than ``w - WS``.
    """
    consumed = sorted(
        (ts, side, position, key, value)
        for side, tuples in enumerate((left_tuples, right_tuples))
        for position, (ts, key, value) in enumerate(tuples)
    )
    seen = ([], [])
    output = []
    for ts, side, _, key, value in consumed:
        for other_ts, other_key, other_value in seen[1 - side]:
            (lk, lv), (rk, rv) = (
                ((key, value), (other_key, other_value))
                if side == 0
                else ((other_key, other_value), (key, value))
            )
            if abs(ts - other_ts) <= window_size and lk == rk and lv % 2 == rv % 2:
                output.append((ts, {"lv": lv, "rv": rv, "k": lk}))
        seen[side].append((ts, key, value))
    everything = list(left_tuples) + list(right_tuples)
    buffered = [
        sum(1 for ts, _, _ in everything if mark - window_size <= ts < mark)
        for mark in marks
    ]
    return output, buffered + [0]


class TestJoinProperties:
    @given(keyed_stream, keyed_stream, st.integers(0, 30))
    @settings(max_examples=120, deadline=None)
    def test_join_matches_brute_force(self, left, right, window_size):
        assert run_join(left, right, window_size) == brute_force_join(
            left, right, window_size
        )

    @given(keyed_stream, keyed_stream, st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_join_is_symmetric_in_pair_count(self, left, right, window_size):
        forward = run_join(left, right, window_size)
        backward = run_join(right, left, window_size)
        assert {(r, l) for (l, r) in backward} == forward

    @given(valued_stream, valued_stream, watermarks, st.integers(0, 10))
    @example([(0, "a", 1), (5, "b", 0)], [(5, "a", 1), (5, "b", 2)], [5], 5)
    @settings(max_examples=150, deadline=None)
    def test_keyed_join_matches_unkeyed_order_and_state(
        self, left, right, marks, window_size
    ):
        for first, second in ((left, right), (right, left)):
            keyed = run_join_stepwise(BY_KEY, first, second, marks, window_size)
            unkeyed = run_join_stepwise(None, first, second, marks, window_size)
            assert keyed == unkeyed
            assert keyed == nested_loop_reference(first, second, marks, window_size)


class TestSortProperties:
    @given(
        st.lists(st.integers(0, 100), max_size=40),
        st.integers(0, 120),
    )
    @settings(max_examples=120, deadline=None)
    def test_sort_with_sufficient_slack_emits_sorted_stream(self, timestamps, extra_slack):
        # With slack at least as large as the actual disorder, the operator
        # must emit every tuple, in timestamp order.
        disorder = 0
        highest = float("-inf")
        for ts in timestamps:
            highest = max(highest, ts)
            disorder = max(disorder, highest - ts)
        sort = SortOperator("sort", slack=disorder + extra_slack)
        inp = Stream("in", enforce_order=False)
        out = Stream("out")
        sort.add_input(inp)
        sort.add_output(out)
        for ts in timestamps:
            inp.push(StreamTuple(ts=ts, values={}))
        inp.close()
        while sort.work():
            pass
        released = [t.ts for t in out.drain()]
        assert released == sorted(timestamps)
        assert sort.violations == 0

    @given(st.lists(st.integers(0, 100), max_size=40), st.integers(0, 10))
    @settings(max_examples=80, deadline=None)
    def test_sort_output_is_always_sorted_even_when_dropping(self, timestamps, slack):
        sort = SortOperator("sort", slack=slack, drop_violations=True)
        inp = Stream("in", enforce_order=False)
        out = Stream("out")
        sort.add_input(inp)
        sort.add_output(out)
        for ts in timestamps:
            inp.push(StreamTuple(ts=ts, values={}))
        inp.close()
        while sort.work():
            pass
        released = [t.ts for t in out.drain()]
        assert released == sorted(released)
        assert len(released) + sort.violations == len(timestamps)
