"""Merge operator: order-restoring fan-in of key-sharded replica streams.

The Merge is the fan-in half of the keyed data-parallelism bracket (the
fan-out half is :class:`~repro.spe.operators.partition.PartitionOperator`).
It differs from the Union in one crucial way: the Union's deterministic merge
breaks timestamp ties by *input index*, which interleaves equal-timestamp
tuples by the shard that happened to own their key.  The sequential plan the
parallel one must be byte-equivalent to orders those ties differently -- an
Aggregate flushes equal-timestamp windows in sorted-group-key order, a Join
emits equal-timestamp pairs in input consumption order.  The Merge therefore

* consumes its inputs through the standard
  :class:`~repro.spe.operators.base.MultiInputOperator` barrier (so the
  consumption order stays a pure function of the input streams),
* *buffers* consumed tuples instead of forwarding them immediately, and
* releases a buffered tuple only once no input can still deliver an equal
  timestamp (every input's :attr:`~repro.spe.streams.Stream.settled` bound
  has passed it), sorting each released group by ``(ts, order_key)``.

The ``order_key`` tag is stamped by the sharded producers (the group-key sort
value for Aggregates, the pair consumption rank for Joins, the partition
sequence stamp for forwarded tuples) and is cleared on emission, so the
stream leaving the Merge is indistinguishable from the sequential plan's.
Like the Union, the Merge forwards existing tuples -- it never creates new
ones -- so it needs no provenance instrumentation.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.spe.errors import QueryValidationError
from repro.spe.operators.base import MultiInputOperator
from repro.spe.tuples import StreamTuple


class MergeOperator(MultiInputOperator):
    """Merges key-sharded streams back into sequential emission order."""

    max_inputs = None
    max_outputs = 1

    def __init__(self, name: str) -> None:
        super().__init__(name)
        #: consumed-but-unreleased tuples as ``(ts, order_key, tup)`` entries.
        self._held: List[Tuple] = []
        #: consumption rank, the tie-break for tuples without an order key.
        self._arrivals = 0

    def validate(self) -> None:
        super().validate()
        if not self.inputs:
            raise QueryValidationError(f"merge {self.name!r} has no input streams")

    def process_tuple(self, tup: StreamTuple, input_index: int) -> None:
        order_key = tup.order_key
        if order_key is None:
            # Untagged inputs degrade to the Union's deterministic order:
            # the barrier consumption rank already encodes (ts, input index,
            # FIFO).  Mixing tagged and untagged tuples on one merge is a
            # wiring error and raises from the sort's cross-type comparison.
            order_key = self._arrivals
        self._arrivals += 1
        self._held.append((tup.ts, order_key, tup))

    def _release(self, bound: float) -> None:
        """Emit every held tuple with ``ts < bound`` in ``(ts, order_key)`` order."""
        if not self._held:
            return
        self._held.sort(key=lambda entry: entry[:2])
        cut = 0
        for ts, _, _ in self._held:
            if ts >= bound:
                break
            cut += 1
        if not cut:
            return
        batch = []
        for _, _, tup in self._held[:cut]:
            tup.order_key = None
            batch.append(tup)
        del self._held[:cut]
        self.emit_many(batch)

    def work(self) -> bool:
        self._progress = False
        inputs = self.inputs
        if not inputs:
            return False
        self._drain_merged()
        # A held tuple may be released once no input -- queued or future --
        # can still contribute an equal timestamp that would have to be
        # sorted among the same group.
        bound = min(stream.settled for stream in inputs)
        self._release(bound)
        if bound != float("-inf"):
            # Everything still held (and everything upstream) is >= bound, so
            # bound is exactly the watermark this operator can promise.
            self._advance_outputs(bound)
        if self._inputs_exhausted() and not self._outputs_closed:
            self._release(float("inf"))
            self._close_outputs()
        return self._progress

    def buffered_tuples(self) -> int:
        """Number of consumed tuples still waiting for their release bound."""
        return len(self._held)
