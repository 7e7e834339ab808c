"""Partition operator: hash-routes a keyed stream across replica shards.

Keyed data-parallelism runs ``N`` replicas of a stateful operator on
key-disjoint sub-streams.  The Partition is the fan-out half of that bracket
(the order-restoring :class:`~repro.spe.operators.merge.MergeOperator` is the
fan-in half): every input tuple is forwarded -- the *same* object, like a
Filter, so no provenance instrumentation is needed and the contribution graph
stays identical to the sequential plan -- to exactly one output port, chosen
by a **stable** hash of the tuple's key.

Stability matters twice: the shard assignment must not change between runs
(Python's builtin ``hash`` is salted per process) and must not change across
process boundaries (shards may live on different SPE instances), so the hash
is computed with :func:`hashlib.blake2b` over the key's ``repr``.

With ``stamp_sequence=True`` the partition additionally stamps every
forwarded tuple's :attr:`~repro.spe.tuples.StreamTuple.order_key` with its
position in the pre-partition stream.  Sharded Joins use the stamp to
reconstruct the sequential pair-emission order at the Merge; a bare
partition→merge bracket uses it to restore the input stream verbatim.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Hashable, List, Optional, Sequence

from repro.spe.errors import QueryValidationError
from repro.spe.operators.base import SingleInputOperator
from repro.spe.tuples import StreamTuple

KeyFunction = Callable[[StreamTuple], Hashable]
Partitioner = Callable[[Hashable, int], int]


def stable_shard(key: Hashable, shard_count: int) -> int:
    """Deterministic shard index of ``key`` among ``shard_count`` shards.

    A pure function of ``repr(key)`` -- independent of the process, the
    ``PYTHONHASHSEED`` salt and the run -- so the same key always lands on
    the same shard, on any SPE instance.
    """
    if shard_count <= 0:
        raise ValueError("shard_count must be positive")
    digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % shard_count


class PartitionOperator(SingleInputOperator):
    """Routes each input tuple to the shard owning its key.

    Parameters
    ----------
    name:
        Operator name.
    key_function:
        Extracts the partition key from a tuple.  Tuples sharing a key are
        always routed to the same output port.
    partitioner:
        Optional override of :func:`stable_shard`; called as
        ``partitioner(key, output_count)`` and must return a port index in
        ``range(output_count)`` deterministically.
    stamp_sequence:
        When True, stamp every forwarded tuple's ``order_key`` with its
        0-based position in the input stream (see module docstring).
    """

    max_inputs = 1
    max_outputs = None

    def __init__(
        self,
        name: str,
        key_function: KeyFunction,
        partitioner: Optional[Partitioner] = None,
        stamp_sequence: bool = False,
    ) -> None:
        super().__init__(name)
        self._key_function = key_function
        self._partitioner = partitioner or stable_shard
        self._stamp_sequence = stamp_sequence
        self._sequence = 0

    def validate(self) -> None:
        super().validate()
        if not self.outputs:
            raise QueryValidationError(
                f"partition {self.name!r} has no output shard streams"
            )

    def shard_of(self, tup: StreamTuple) -> int:
        """The output port ``tup`` is routed to (given the current wiring)."""
        port = self._partitioner(self._key_function(tup), len(self.outputs))
        if not 0 <= port < len(self.outputs):
            raise QueryValidationError(
                f"partition {self.name!r}: partitioner returned shard {port} "
                f"outside range(0, {len(self.outputs)})"
            )
        return port

    def process_batch(self, batch: Sequence[StreamTuple]) -> None:
        """Route a whole batch with one wake-up per touched shard."""
        buckets: List[List[StreamTuple]] = [[] for _ in self.outputs]
        stamp = self._stamp_sequence
        for tup in batch:
            if stamp:
                tup.order_key = self._sequence
                self._sequence += 1
            buckets[self.shard_of(tup)].append(tup)
        for port, bucket in enumerate(buckets):
            self.emit_many(bucket, port)
