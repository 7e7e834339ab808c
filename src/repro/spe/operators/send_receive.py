"""Send and Receive operators: tuple transport between SPE instances.

From a semantics perspective Send/Receive forward tuples; from an
implementation perspective they create new memory objects on the receiving
side because tuples are serialised across the process boundary (section 4.1).
The provenance manager is consulted on both sides: on Send it contributes the
payload that must survive serialisation (GeneaLog: tuple type and unique ID),
on Receive it re-attaches metadata to the freshly created tuple.

The Send operator encodes each batch it is handed into **one**
:mod:`repro.spe.codec` blob and flushes it with a single
:meth:`~repro.spe.channels.Channel.send_block`, so the per-tuple
serialisation and channel-accounting overhead is paid per batch; the Receive
operator decodes each blob back into a batch.  Blobs are the only wire
format: anything else fails the decode with
:class:`~repro.spe.errors.SerializationError` naming the channel.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.spe.channels import Channel, Payload
from repro.spe.codec import BinaryChannelDecoder, BinaryChannelEncoder
from repro.spe.operators.base import Operator, SingleInputOperator
from repro.spe.operators.sink import record_latencies
from repro.spe.tuples import StreamTuple


class SendOperator(SingleInputOperator):
    """Serialises every input tuple onto a :class:`Channel`."""

    max_inputs = 1
    max_outputs = 0

    def __init__(
        self,
        name: str,
        channel: Channel,
        ship_provenance: bool = True,
        latency_clock: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(name)
        self.channel = channel
        #: set on a Send standing in for a Sink that runs elsewhere (the
        #: out-of-process home instance): the Sink's clock.  The Send then
        #: measures the Sink's ingress -> sink latencies where the tuples
        #: reach the Sink's place, so they exclude the hop to the Sink.
        self.latency_clock = latency_clock
        self.latencies: List[float] = []
        #: when False the Send ships empty provenance payloads instead of
        #: consulting the manager.  The GeneaLog unfolded streams set this:
        #: an unfolded tuple carries its provenance inside its *attributes*
        #: (``sink_id`` / ``id_o`` / ``type_o``), and the MU and the ledger
        #: only ever read those, so minting and shipping a wire id per
        #: unfolded tuple is pure overhead on the provenance-heavy channels.
        self.ship_provenance = ship_provenance
        # Per-channel-direction encoder state (interned strings, schemas).
        # Fresh state here matches the fresh decoder the receiving end
        # builds; both grow in lock-step via the wire.
        self._encoder = BinaryChannelEncoder(channel.name)

    def process_batch(self, batch: Sequence[StreamTuple]) -> None:
        """Serialise the whole batch and flush it to the channel in one call."""
        if self.latency_clock is not None:
            record_latencies(batch, self.latency_clock, self.latencies)
        # ``None`` = no payload at all: the codec ships one flag byte for the
        # batch instead of a document per tuple.
        payloads: Optional[List[Dict[str, Any]]] = None
        if self.ship_provenance:
            on_send = self.provenance.on_send
            payloads = [on_send(tup) for tup in batch]
        blob = self._encoder.encode_batch(batch, payloads)
        self.channel.send_block(blob, len(batch))
        self._progress = True

    def on_watermark(self, watermark: float) -> None:
        self.channel.advance_watermark(watermark)

    def on_close(self) -> None:
        self.channel.close()


class ReceiveOperator(Operator):
    """Deserialises tuples from a :class:`Channel` into a local stream."""

    max_inputs = 0
    max_outputs = 1

    def __init__(self, name: str, channel: Channel) -> None:
        super().__init__(name)
        self.channel = channel
        # Channel activity (send / watermark / close) must mark this operator
        # runnable: it has no input stream to signal it.
        channel.consumer = self
        #: mirror of the producing Send's encoder state.
        self._decoder = BinaryChannelDecoder(channel.name)

    def _decode(self, payload: Payload) -> List[StreamTuple]:
        """Decode one batch blob and re-attach its provenance payloads.

        Sends with ``ship_provenance=False`` (the GeneaLog unfolded streams)
        ship no payloads and other tuples may carry an empty one; nothing
        downstream reads metadata re-attached from nothing, so those skip
        the per-tuple call.
        """
        tuples, provenance_payloads = self._decoder.decode_batch(payload)
        if provenance_payloads is not None and not self.provenance.is_noop:
            on_receive = self.provenance.on_receive
            for tup, provenance_payload in zip(tuples, provenance_payloads):
                if provenance_payload:
                    on_receive(tup, provenance_payload)
        return tuples

    def work(self) -> bool:
        self._progress = False
        if not self.outputs:
            return False
        channel = self.channel
        decode = self._decode
        while True:
            # Snapshot the watermark *before* draining: the producer only
            # advances it after appending every tuple it covers, so all
            # tuples the snapshot promises are caught by the drain below.
            # Reading it after the drain races with a concurrent producer
            # (out-of-process workers): a tuple sent between the
            # drain and the read would be emitted on the *next* wake-up,
            # after a watermark that already covers it, and downstream
            # merges would release out of order.
            watermark = channel.watermark
            payloads = channel.receive_all()
            if payloads:
                batch: List[StreamTuple] = []
                for payload in payloads:
                    batch += decode(payload)
                self.tuples_in += len(batch)
                self.emit_many(batch)
            if watermark > self._in_watermark:
                self._in_watermark = watermark
                self._advance_outputs(watermark)
            # The drain itself may have refreshed the channel view (socket
            # transports fold control messages into it): go around again
            # until a pass neither delivered tuples nor moved the watermark.
            if not payloads and channel.watermark == watermark:
                break
        if channel.closed and len(channel) == 0 and not self._outputs_closed:
            self._close_outputs()
        return self._progress

    @property
    def finished(self) -> bool:
        return self._outputs_closed
