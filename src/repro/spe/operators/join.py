"""Join operator: time-windowed join of a left and a right stream.

The Join "defines one left input stream (L) and one right input stream (R),
and produces an output tuple combining and/or altering the attributes of
tuples ``tL`` and ``tR`` for each pair satisfying a given predicate while not
being far apart more than a given window size WS" (section 2).

Inputs are consumed in deterministic merged timestamp order; a pair is
emitted when the later of its two tuples is processed, so every matching pair
is produced exactly once and output timestamps (the maximum of the pair) are
non-decreasing.

Each input's window is indexed by key (key -> that key's tuples) next to one
deque of ``(key, tuple)`` entries that watermark eviction pops, both in
consumption order.  A new tuple probes only the other input's bucket of its
key, still checking window distance and predicate per candidate.  An unkeyed
join files every tuple under the key ``None``: the nested-loop join is the
one-bucket case.  Keys never change the emission order, since a bucket keeps
consumption order and a tuple of another key could not pass a predicate that
implies key equality.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Tuple, Union

from repro.spe.errors import QueryValidationError
from repro.spe.operators.base import MultiInputOperator
from repro.spe.tuples import StreamTuple, UnfoldedBlock, owned_values

JoinPredicate = Callable[[StreamTuple, StreamTuple], bool]
JoinCombiner = Callable[
    [StreamTuple, StreamTuple], Union[None, UnfoldedBlock, Mapping[str, Any]]
]
JoinKey = Callable[[StreamTuple], Any]
#: ``(left key, right key)`` extractors of an equi-join.
JoinKeys = Tuple[JoinKey, JoinKey]

LEFT = 0
RIGHT = 1


class JoinOperator(MultiInputOperator):
    """Windowed two-way stream join.

    Parameters
    ----------
    name:
        Operator name.
    window_size:
        Maximum timestamp distance ``WS`` between the two tuples of a pair.
    predicate:
        ``predicate(left, right)`` decides whether the pair joins.
    combiner:
        ``combiner(left, right)`` builds the output attribute mapping
        (returning ``None`` suppresses the pair).  A returned plain dict is
        taken over by the engine without copying -- the combiner must build a
        fresh mapping per call and not mutate it afterwards.  A returned
        fresh :class:`UnfoldedBlock` (the composed MU's) is the output itself.
    keys:
        ``(left key, right key)`` extractors of an equi-join (the predicate
        must imply key equality), or ``None``; the output is the same.
    tag_order_key:
        Set on the replicas of a key-sharded parallel join.  The sequential
        join emits pairs in consumption order of the newer tuple, then in
        buffer (= consumption) order of the older one; a shard only sees its
        keys' subsequence of that order.  With this flag each output tuple's
        ``order_key`` is tagged with ``(newer input index, newer partition
        sequence stamp, older ts, older partition sequence stamp)`` -- the
        global rank of the pair -- so the downstream
        :class:`~repro.spe.operators.merge.MergeOperator` can interleave the
        shards back into the sequential emission order.  Requires the join's
        inputs to be fed by sequence-stamping Partitions.
    """

    max_inputs = 2
    max_outputs = 1

    def __init__(
        self,
        name: str,
        window_size: float,
        predicate: JoinPredicate,
        combiner: JoinCombiner,
        keys: Optional[JoinKeys] = None,
        tag_order_key: bool = False,
    ) -> None:
        super().__init__(name)
        if window_size < 0:
            raise QueryValidationError("join window size must be non-negative")
        self.window_size = float(window_size)
        self._predicate = predicate
        self._combiner = combiner
        self._keys = keys
        self._tag_order_key = tag_order_key
        #: per input: key -> that key's window tuples, in consumption order.
        self._index: Tuple[Dict[Any, List[StreamTuple]], ...] = ({}, {})
        #: per input: the window's ``(key, tuple)`` entries, in consumption order.
        self._order: Tuple[Deque[Tuple[Any, StreamTuple]], ...] = (deque(), deque())
        self.pairs_emitted = 0

    def validate(self) -> None:
        super().validate()
        if len(self.inputs) != 2:
            raise QueryValidationError(
                f"join {self.name!r} needs exactly two inputs, has {len(self.inputs)}"
            )

    def process_tuple(self, tup: StreamTuple, input_index: int) -> None:
        key = None if self._keys is None else self._keys[input_index](tup)
        for candidate in self._index[1 - input_index].get(key, ()):
            if abs(tup.ts - candidate.ts) > self.window_size:
                continue
            left, right = (tup, candidate) if input_index == LEFT else (candidate, tup)
            if not self._predicate(left, right):
                continue
            self._emit_pair(left, right, newer=tup, older=candidate, newer_index=input_index)
        self._index[input_index].setdefault(key, []).append(tup)
        self._order[input_index].append((key, tup))

    def _pair_order_key(
        self, newer: StreamTuple, older: StreamTuple, newer_index: int
    ) -> Tuple[int, Any, float, Any]:
        newer_seq = newer.order_key
        older_seq = older.order_key
        if newer_seq is None or older_seq is None:
            raise QueryValidationError(
                f"join {self.name!r} tags pair order keys but its inputs carry "
                "no partition sequence stamps; feed it from a "
                "PartitionOperator(stamp_sequence=True)"
            )
        return (newer_index, newer_seq, older.ts, older_seq)

    def _emit_pair(
        self,
        left: StreamTuple,
        right: StreamTuple,
        newer: StreamTuple,
        older: StreamTuple,
        newer_index: int,
    ) -> None:
        values = self._combiner(left, right)
        if values is None:
            return
        if isinstance(values, UnfoldedBlock):
            out: StreamTuple = values
        else:
            if values is left.values or values is right.values:
                # A pass-through combiner returned an input tuple's own
                # payload: copy it so the output never aliases (and can never
                # corrupt) a tuple still in the join window or provenance graph.
                values = dict(values)
            out = StreamTuple.owned(ts=max(left.ts, right.ts), values=owned_values(values))
        out.wall = max(left.wall, right.wall)
        if self._tag_order_key:
            out.order_key = self._pair_order_key(newer, older, newer_index)
        self.provenance.on_join_output(out, newer, older)
        self.pairs_emitted += 1
        self.emit(out)

    def on_watermark(self, watermark: float) -> None:
        if watermark == float("inf"):
            return
        horizon = watermark - self.window_size
        for index, order in zip(self._index, self._order):
            # Deque and buckets both keep consumption order, so the entry
            # popped here is always the front of its key's bucket.
            while order and order[0][1].ts < horizon:
                key, _ = order.popleft()
                bucket = index[key]
                del bucket[0]
                if not bucket:
                    del index[key]

    def on_close(self) -> None:
        for index, order in zip(self._index, self._order):
            index.clear()
            order.clear()

    def buffered_tuples(self) -> int:
        """Number of tuples currently held in the join windows."""
        return len(self._order[LEFT]) + len(self._order[RIGHT])
