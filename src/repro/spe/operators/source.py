"""The Source operator: injects timestamp-sorted source tuples into a query."""

from __future__ import annotations

import time
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Union

from repro.spe.errors import StreamOrderError
from repro.spe.operators.base import Operator
from repro.spe.tuples import StreamTuple

TupleSupplier = Union[Iterable[StreamTuple], Callable[[], Iterable[StreamTuple]]]


class SourceOperator(Operator):
    """Creates the source tuples fed to the query.

    The supplier may be any iterable of :class:`StreamTuple` (a list, a
    generator, or a workload generator from :mod:`repro.workloads`) or a
    zero-argument callable returning such an iterable (useful when the same
    query object is executed several times).  Tuples must be timestamp-sorted.

    ``batch_size`` bounds how many tuples are injected per scheduler pass so
    that downstream operators interleave with the source instead of the whole
    input being buffered in the first stream.
    """

    max_inputs = 0
    max_outputs = 1

    def __init__(
        self,
        name: str,
        supplier: TupleSupplier,
        batch_size: int = 512,
        wall_clock: Callable[[], float] = time.perf_counter,
        enforce_order: bool = True,
    ) -> None:
        super().__init__(name)
        self._supplier = supplier
        self.batch_size = batch_size
        self._wall_clock = wall_clock
        #: when False the source accepts out-of-order suppliers (a downstream
        #: SortOperator is then responsible for re-establishing order).
        self.enforce_order = enforce_order
        self._iterator: Optional[Iterator[StreamTuple]] = None
        self._exhausted = False
        self._last_ts = float("-inf")

    def _ensure_iterator(self) -> Iterator[StreamTuple]:
        if self._iterator is None:
            supplier = self._supplier
            iterable = supplier() if callable(supplier) else supplier
            self._iterator = iter(iterable)
        return self._iterator

    def work(self) -> bool:
        self._progress = False
        if self._exhausted or not self.outputs:
            return False
        iterator = self._ensure_iterator()
        batch = list(islice(iterator, self.batch_size))
        if len(batch) < self.batch_size:
            self._exhausted = True
        if batch:
            wall_clock = self._wall_clock
            last_ts = self._last_ts
            if self.enforce_order:
                for tup in batch:
                    if tup.ts < last_ts:
                        raise StreamOrderError(
                            f"source {self.name!r} produced out-of-order tuple "
                            f"(ts={tup.ts} after ts={last_ts})"
                        )
                    last_ts = tup.ts
                    tup.wall = wall_clock()
            else:
                for tup in batch:
                    if tup.ts > last_ts:
                        last_ts = tup.ts
                    tup.wall = wall_clock()
            self._last_ts = last_ts
            self.provenance.on_source_batch(batch)
            self.emit_many(batch)
            if self.enforce_order:
                # An out-of-order source cannot promise anything about future
                # timestamps, so it only advances the watermark when it closes.
                self._advance_outputs(self._last_ts)
        if self._exhausted:
            self._close_outputs()
        return self._progress

    @property
    def self_reschedule(self) -> bool:
        """The supplier is an iterator, not a stream: nothing will signal the
        source, so it re-enqueues itself until the supplier is exhausted."""
        return not self._exhausted

    @property
    def finished(self) -> bool:
        return self._exhausted and self._outputs_closed
