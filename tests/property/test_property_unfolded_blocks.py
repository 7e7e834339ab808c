"""Property: a block's flat view is the flat Definition 6.2 tuple, pair by pair.

The SU emits one :class:`~repro.spe.tuples.UnfoldedBlock` per sink tuple.
``block.rows()`` must reproduce, for every (sink, origin) pair, the flat
mapping the unfolders built one pair at a time before blocks existed --
including which schemas were refused for a reserved attribute name, and
which name the refusal named.  ``flat_reference`` below is that flat
construction, kept here as the oracle.
"""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instrumentation import GeneaLogProvenance
from repro.core.unfolder import make_unfolded_values, unfold_block
from repro.spe.errors import ReservedAttributeError
from repro.spe.tuples import StreamTuple

_IDENTITY = ("ts_o", "id_o", "type_o")


class Reserved(Exception):
    """The flat construction refused ``name`` on ``side``."""

    def __init__(self, side: str, name: str) -> None:
        super().__init__(side, name)
        self.side, self.name = side, name


def flat_reference(sink, origin, manager):
    """One flat unfolded tuple: prefixed sink attributes, then the origin's."""
    for name in ("ts", "id"):  # would be overwritten by sink_ts / sink_id
        if name in sink.values:
            raise Reserved("sink", name)
    values = {"sink_" + key: value for key, value in sink.values.items()}
    values["sink_ts"] = sink.ts
    values["sink_id"] = manager.tuple_id(sink)
    for name in origin.values:
        if name.startswith("sink_") or name in _IDENTITY:
            raise Reserved("origin", name)
    values.update(origin.values)
    values["ts_o"] = origin.ts
    values["id_o"] = manager.tuple_id(origin)
    values["type_o"] = "SOURCE"
    return values


#: ordinary names, near misses and every reserved name of either side.
names = st.sampled_from(
    ["v", "w", "car", "ts", "id", "sinker", "sink_x", "sink_ts", "ts_o", "id_o", "type_o", "tso"]
)
payloads = st.dictionaries(names, st.one_of(st.integers(-5, 5), st.text(max_size=3)), max_size=4)


@settings(max_examples=150, deadline=None)
@given(sink=payloads, origins=st.lists(payloads, min_size=1, max_size=4), ts=st.integers(0, 9))
def test_rows_equal_the_flat_tuples_and_reject_the_same_schemas(sink, origins, ts):
    manager = GeneaLogProvenance(node_id="p")
    sink_tuple = StreamTuple(ts=float(ts), values=sink)
    origin_tuples = [StreamTuple(ts=float(i), values=values) for i, values in enumerate(origins)]
    try:
        expected = [flat_reference(sink_tuple, origin, manager) for origin in origin_tuples]
    except Reserved as refused:
        pattern = f"{refused.side} attribute {re.escape(repr(refused.name))}"
        try:
            unfold_block(sink_tuple, origin_tuples, manager, "prop")
        except ReservedAttributeError as error:
            assert re.search(pattern, str(error)), str(error)
        else:
            raise AssertionError(f"expected a refusal of {refused.side} {refused.name!r}")
        return
    block = unfold_block(sink_tuple, origin_tuples, manager, "prop")
    assert block.rows() == expected
    assert [list(row) for row in block.rows()] == [list(row) for row in expected]
    assert [
        make_unfolded_values(sink_tuple, origin, manager) for origin in origin_tuples
    ] == expected
