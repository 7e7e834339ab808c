"""Sort operator: turns a bounded-disorder stream into a timestamp-sorted one.

Section 2 of the paper assumes sources deliver timestamp-sorted streams,
"either because Sources deliver timestamp-sorted streams ... or by leveraging
sorting techniques such as [25]".  This operator provides that sorting
technique for the substrate: it buffers tuples for a configurable maximum
*disorder bound* (slack) and releases them in timestamp order once the
watermark guarantees no earlier tuple can still arrive.

Like Filter and Union it forwards existing tuples, so no provenance
instrumentation is required; a query that needs provenance over an unsorted
source simply places a SortOperator right after it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Tuple

from repro.spe.errors import QueryValidationError, StreamOrderError
from repro.spe.operators.base import Operator
from repro.spe.tuples import StreamTuple


class SortOperator(Operator):
    """Reorders a stream whose disorder is bounded by ``slack`` seconds.

    The upstream may deliver tuples up to ``slack`` seconds out of order.  A
    tuple with timestamp ``ts`` is released once the highest timestamp seen
    so far is at least ``ts + slack`` (or when the input closes).  A tuple
    arriving later than that bound violates the contract and raises
    :class:`StreamOrderError` (callers that prefer dropping can set
    ``drop_violations=True``).
    """

    max_inputs = 1
    max_outputs = 1

    def __init__(self, name: str, slack: float, drop_violations: bool = False) -> None:
        super().__init__(name)
        if slack < 0:
            raise QueryValidationError("sort slack must be non-negative")
        self.slack = float(slack)
        self.drop_violations = drop_violations
        self.violations = 0
        self._heap: List[Tuple[float, int, StreamTuple]] = []
        self._sequence = itertools.count()
        self._highest_ts = float("-inf")
        self._released_ts = float("-inf")

    def work(self) -> bool:
        self._progress = False
        if not self.inputs:
            return False
        stream = self.inputs[0]
        # The input stream cannot enforce ordering (that is the whole point),
        # so it must be created with enforce_order=False; Query.connect with
        # ``sorted_stream=False`` takes care of that.
        batch = stream.pop_ready()
        if batch:
            self.tuples_in += len(batch)
            ingest = self._ingest
            for tup in batch:
                ingest(tup)
            self._progress = True
        watermark = stream.watermark
        if watermark > self._in_watermark:
            self._in_watermark = watermark
        bound = self._release_bound()
        if bound < float("inf"):
            self._release(bound)
            if bound > float("-inf"):
                self._advance_outputs(bound)
        if self._inputs_exhausted() and not self._outputs_closed:
            self._release(float("inf"))
            self._close_outputs()
        return self._progress

    # -- internals -----------------------------------------------------------
    def _ingest(self, tup: StreamTuple) -> None:
        late_bound = max(self._released_ts, self._highest_ts - self.slack)
        if tup.ts < late_bound:
            self.violations += 1
            if self.drop_violations:
                return
            raise StreamOrderError(
                f"sort operator {self.name!r} received a tuple {late_bound - tup.ts:.3f}s "
                f"later than its slack of {self.slack}s allows"
            )
        self._highest_ts = max(self._highest_ts, tup.ts)
        heapq.heappush(self._heap, (tup.ts, next(self._sequence), tup))

    def _release_bound(self) -> float:
        """Largest timestamp that can safely be released.

        Two guarantees are combined: the disorder bound (no tuple can be more
        than ``slack`` behind the highest timestamp seen) and the upstream
        watermark (no tuple below it will arrive at all).
        """
        bound = self._highest_ts - self.slack
        if self._in_watermark > bound:
            bound = self._in_watermark
        return bound

    def _release(self, bound: float) -> None:
        heap = self._heap
        if not heap or heap[0][0] > bound:
            return
        released = []
        while heap and heap[0][0] <= bound:
            ts, _, tup = heapq.heappop(heap)
            if ts > self._released_ts:
                self._released_ts = ts
            released.append(tup)
        self.emit_many(released)

    def buffered_tuples(self) -> int:
        """Number of tuples currently waiting for their release bound."""
        return len(self._heap)
