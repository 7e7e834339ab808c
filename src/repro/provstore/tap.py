"""Taps: how a running query feeds the provenance ledger.

A :class:`ProvenanceTap` is the observer interface a
:class:`~repro.spe.operators.sink.SinkOperator` notifies about its stream:
every received batch, every input-watermark advance, and the close of its
input.  The capture pipeline attaches taps to *provenance* Sinks (the sinks
fed by the SU/MU unfolders or the baseline resolver), so the tap sees the
unfolded provenance stream -- including, on distributed deployments, the
serialized provenance payloads that crossed process boundaries and were
re-ingested on the provenance instance.

**Batch protocol.**  The Sink calls :meth:`ProvenanceTap.on_batch` once per
tap per batch it processes (a single tuple arrives as a batch of one), in
stream order and interleaved with :meth:`~ProvenanceTap.on_watermark`
exactly as the Sink observed them.  Out of process the Sink runs in the
coordinator's home instance (:func:`repro.spe.cluster.cut_home`), so its
taps stay in the coordinator and make the same calls.  A tap that only
cares about tuples overrides :meth:`~ProvenanceTap.on_tuple` and inherits
the batch loop; a tap that can amortise work over a batch overrides
:meth:`~ProvenanceTap.on_batch` (the
:class:`~repro.core.provenance.ProvenanceCollector` is a tap-shaped object
doing so).

:class:`LedgerTap` is the concrete tap that forwards that stream into a
:class:`~repro.provstore.ledger.ProvenanceLedger`.  Several taps can feed
one logical ledger (one per provenance Sink -- e.g. multiple data sinks, or
sharded sinks under keyed parallelism); the ledger seals on the *minimum*
watermark across its taps, so no mapping seals while any tap can still
deliver unfolded tuples for it.  (The stream a tap sees never carries a
reserved attribute name -- the unfolders reject those, see
:mod:`repro.provstore.ledger`.)
"""

from __future__ import annotations

from typing import Sequence

from repro.provstore.ledger import ProvenanceLedger
from repro.spe.tuples import StreamTuple


class ProvenanceTap:
    """Observer of a Sink's stream; every hook is a no-op by default."""

    def on_tuple(self, tup: StreamTuple) -> None:
        """The Sink received ``tup``."""

    def on_batch(self, batch: Sequence[StreamTuple]) -> None:
        """The Sink received ``batch`` (in stream order); maps :meth:`on_tuple`."""
        for tup in batch:
            self.on_tuple(tup)

    def on_watermark(self, watermark: float) -> None:
        """The Sink's input watermark advanced to ``watermark``."""

    def on_close(self) -> None:
        """The Sink's input closed (no further tuple or watermark follows)."""


class LedgerTap(ProvenanceTap):
    """Feed one provenance Sink's unfolded stream into a ledger."""

    def __init__(self, ledger: ProvenanceLedger) -> None:
        self.ledger = ledger
        self._tap_id = ledger.register_tap()

    def on_tuple(self, tup: StreamTuple) -> None:
        self.ledger.ingest(tup)

    def on_batch(self, batch: Sequence[StreamTuple]) -> None:
        self.ledger.ingest_batch(batch)

    def on_watermark(self, watermark: float) -> None:
        self.ledger.advance_watermark(watermark, tap=self._tap_id)

    def on_close(self) -> None:
        self.ledger.close_tap(self._tap_id)
