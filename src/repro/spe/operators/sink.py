"""The Sink operator: receives the sink tuples produced by the query."""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Sequence

from repro.spe.operators.base import SingleInputOperator
from repro.spe.tuples import StreamTuple


def record_latencies(
    batch: Sequence[StreamTuple], wall_clock: Callable[[], float], latencies: List[float]
) -> None:
    """Append each tuple's ingress -> now latency to ``latencies``.

    The reception instant is read per tuple: the latency metric is defined
    against each tuple's own arrival, and harnesses may inject stepping
    clocks.  Tuples without a ``wall`` stamp are not measured.
    """
    for tup in batch:
        now = wall_clock()
        if tup.wall:
            latencies.append(now - tup.wall)


class SinkOperator(SingleInputOperator):
    """Collects sink tuples and optionally forwards them to a callback.

    The sink records, for every received tuple, the wall-clock instant of its
    arrival; the difference with the tuple's ``wall`` attribute (the arrival
    of the latest contributing source tuple) is the per-tuple latency the
    benchmark reports.  A Sink whose clock is ``None`` measures nothing: out
    of process, the Send standing in for it measures with its clock instead
    (:func:`~repro.spe.cluster.cut_home`).
    """

    max_inputs = 1
    max_outputs = 0

    def __init__(
        self,
        name: str,
        callback: Optional[Callable[[StreamTuple], None]] = None,
        keep_tuples: bool = True,
        wall_clock: Optional[Callable[[], float]] = time.perf_counter,
    ) -> None:
        super().__init__(name)
        self._callback = callback
        self._keep_tuples = keep_tuples
        self._wall_clock = wall_clock
        self.received: List[StreamTuple] = []
        self.latencies: List[float] = []
        self.count = 0
        #: attached :class:`~repro.provstore.tap.ProvenanceTap`-shaped
        #: observers; they see every batch, watermark advance and the close.
        self.taps: List[Any] = []

    def add_tap(self, tap: Any) -> None:
        """Attach an observer of this sink's stream (batches + watermarks)."""
        self.taps.append(tap)

    def process_batch(self, batch: Sequence[StreamTuple]) -> None:
        """Count and measure ``batch``, then hand it on in a fixed order: the
        whole batch is kept, then the callback sees each tuple, then each
        tap sees the batch once."""
        self.count += len(batch)
        if self._wall_clock is not None:
            record_latencies(batch, self._wall_clock, self.latencies)
        if self._keep_tuples:
            self.received.extend(batch)
        callback = self._callback
        if callback is not None:
            for tup in batch:
                callback(tup)
        for tap in self.taps:
            tap.on_batch(batch)

    def on_watermark(self, watermark: float) -> None:
        for tap in self.taps:
            tap.on_watermark(watermark)

    def on_close(self) -> None:
        for tap in self.taps:
            tap.on_close()

    def clear(self) -> None:
        """Drop every collected tuple and latency sample."""
        self.received.clear()
        self.latencies.clear()
        self.count = 0
