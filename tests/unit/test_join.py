"""Unit tests for the windowed Join operator."""

import pytest

from repro.spe.errors import QueryValidationError
from repro.spe.operators import JoinOperator
from repro.spe.streams import Stream
from tests.optest import collect, feed, run_operator, tup, wire


def make_join(window_size=10):
    return JoinOperator(
        "join",
        window_size=window_size,
        predicate=lambda left, right: left["k"] == right["k"],
        combiner=lambda left, right: {"k": left["k"], "l": left["v"], "r": right["v"]},
    )


class TestJoinMatching:
    def test_matching_pair_is_emitted_once(self):
        op = make_join()
        (left, right), (out,) = wire(op, n_inputs=2)
        feed(left, [tup(1, k="a", v=1)], close=True)
        feed(right, [tup(2, k="a", v=2)], close=True)
        run_operator(op)
        results = collect(out)
        assert len(results) == 1
        assert results[0].values == {"k": "a", "l": 1, "r": 2}
        assert results[0].ts == 2  # max of the pair

    def test_non_matching_keys_produce_nothing(self):
        op = make_join()
        (left, right), (out,) = wire(op, n_inputs=2)
        feed(left, [tup(1, k="a", v=1)], close=True)
        feed(right, [tup(2, k="b", v=2)], close=True)
        run_operator(op)
        assert collect(out) == []

    def test_pairs_outside_window_are_not_joined(self):
        op = make_join(window_size=10)
        (left, right), (out,) = wire(op, n_inputs=2)
        feed(left, [tup(0, k="a", v=1)], close=True)
        feed(right, [tup(11, k="a", v=2)], close=True)
        run_operator(op)
        assert collect(out) == []

    def test_pair_exactly_at_window_boundary_is_joined(self):
        op = make_join(window_size=10)
        (left, right), (out,) = wire(op, n_inputs=2)
        feed(left, [tup(0, k="a", v=1)], close=True)
        feed(right, [tup(10, k="a", v=2)], close=True)
        run_operator(op)
        assert len(collect(out)) == 1

    def test_many_to_many_matching(self):
        op = make_join()
        (left, right), (out,) = wire(op, n_inputs=2)
        feed(left, [tup(1, k="a", v=1), tup(2, k="a", v=2)], close=True)
        feed(right, [tup(3, k="a", v=10), tup(4, k="a", v=20)], close=True)
        run_operator(op)
        pairs = {(t["l"], t["r"]) for t in collect(out)}
        assert pairs == {(1, 10), (1, 20), (2, 10), (2, 20)}

    def test_combiner_can_suppress_pairs(self):
        op = JoinOperator(
            "join",
            window_size=10,
            predicate=lambda left, right: True,
            combiner=lambda left, right: None,
        )
        (left, right), (out,) = wire(op, n_inputs=2)
        feed(left, [tup(1, v=1)], close=True)
        feed(right, [tup(2, v=2)], close=True)
        run_operator(op)
        assert collect(out) == []
        assert op.pairs_emitted == 0

    def test_left_right_roles_follow_input_ports(self):
        op = JoinOperator(
            "join",
            window_size=10,
            predicate=lambda left, right: True,
            combiner=lambda left, right: {"left_v": left["v"], "right_v": right["v"]},
        )
        (left, right), (out,) = wire(op, n_inputs=2)
        feed(left, [tup(5, v="L")], close=True)
        feed(right, [tup(1, v="R")], close=True)
        run_operator(op)
        result = collect(out)[0]
        assert result["left_v"] == "L"
        assert result["right_v"] == "R"


class TestJoinState:
    def test_buffers_are_purged_by_watermark(self):
        op = make_join(window_size=10)
        (left, right), (out,) = wire(op, n_inputs=2)
        feed(left, [tup(1, k="a", v=1)], watermark=50)
        feed(right, [], watermark=50)
        run_operator(op)
        assert op.buffered_tuples() == 0

    def test_recent_tuples_are_retained(self):
        op = make_join(window_size=10)
        (left, right), (out,) = wire(op, n_inputs=2)
        feed(left, [tup(45, k="a", v=1)], watermark=50)
        feed(right, [], watermark=50)
        run_operator(op)
        assert op.buffered_tuples() == 1

    def test_window_is_released_on_close(self):
        op = make_join(window_size=10)
        (left, right), (out,) = wire(op, n_inputs=2)
        feed(left, [tup(45, k="a", v=1)], close=True)
        feed(right, [tup(46, k="b", v=2)], close=True)
        run_operator(op)
        assert op.buffered_tuples() == 0

    def test_keyed_probe_tests_only_same_key_tuples(self):
        calls = []

        def predicate(left, right):
            calls.append((left["v"], right["v"]))
            return True

        op = JoinOperator(
            "join",
            window_size=10,
            predicate=predicate,
            combiner=lambda left, right: {"l": left["v"], "r": right["v"]},
            keys=(lambda t: t["k"], lambda t: t["k"]),
        )
        (left, right), (out,) = wire(op, n_inputs=2)
        feed(left, [tup(1, k="a", v=1), tup(2, k="b", v=2)], close=True)
        feed(right, [tup(3, k="a", v=3), tup(4, k="c", v=4)], close=True)
        run_operator(op)
        assert calls == [(1, 3)]
        assert [(t["l"], t["r"]) for t in collect(out)] == [(1, 3)]

    def test_negative_window_size_rejected(self):
        with pytest.raises(QueryValidationError):
            JoinOperator(
                "join", window_size=-1,
                predicate=lambda a, b: True, combiner=lambda a, b: {},
            )

    def test_validate_requires_two_inputs(self):
        op = make_join()
        op.add_input(Stream("only"))
        op.add_output(Stream("out"))
        with pytest.raises(QueryValidationError):
            op.validate()


class TestJoinDeterminism:
    def test_blocked_until_other_side_watermark_advances(self):
        op = make_join()
        (left, right), (out,) = wire(op, n_inputs=2)
        feed(left, [tup(5, k="a", v=1)])
        # right side has not advanced at all: nothing may be consumed yet.
        assert not op.work() or len(out) == 0
        feed(right, [tup(5, k="a", v=2)], close=True)
        feed(left, [], close=True)
        run_operator(op)
        assert len(collect(out)) == 1
