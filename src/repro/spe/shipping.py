"""Sink-stream shipping and replay for the out-of-process runtime.

The :class:`~repro.spe.cluster.RemoteRuntime` executes SPE instances *away*
from the coordinator that built the deployment -- in forked OS processes
(socketpair channels) or on worker daemons (TCP channels).
Everything the coordinator promised its caller --
sink callbacks, :class:`~repro.provstore.tap.ProvenanceTap`-shaped observers
(the :class:`~repro.core.provenance.ProvenanceCollector`, the
:class:`~repro.provstore.tap.LedgerTap` feeding a provenance store),
per-operator and per-channel counters, worker-measured latencies and
traversal samples -- therefore materialises remotely and must be shipped back
and re-enacted on the coordinator-side objects.

This module is that machinery, one copy for both launchers:

* :class:`ShippingTap` records a sink's observed stream (tuples, watermark
  advances, the close) in the worker, encoded with the channel codec so
  anything that reached a sink ships back losslessly.
* :func:`prepare_sinks` installs shipping taps in the worker, displacing the
  coordinator-owned callbacks/taps (which must not run twice, and whose
  targets belong to the coordinator).
* :func:`take_chunk` hands over what the taps recorded since the last
  chunk.  The worker ships a chunk after every scheduler pass that recorded
  something, so sink streams come home *while* the workers run.
* :func:`replay_sink` re-enacts one sink's share of a chunk on the
  coordinator-side sink, through one persistent decoder per sink, as the
  chunk arrives.
* :func:`collect_result` assembles the final result document a worker
  ships back: counters, sink counts and worker-measured latencies,
  traversal samples and spans -- no sink events, those came in chunks.
* :func:`apply_instance_result` copies such a document onto the
  coordinator-side instance.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, cast

from repro.spe.channels import Channel
from repro.spe.codec import BinaryChannelDecoder, BinaryChannelEncoder
from repro.spe.errors import SchedulingError
from repro.spe.instance import SPEInstance
from repro.spe.operators.sink import SinkOperator
from repro.spe.provenance_api import ProvenanceManager
from repro.spe.tuples import StreamTuple

#: event tags of a shipped sink stream.
EVENT_TUPLE = "t"
EVENT_WATERMARK = "w"
EVENT_CLOSE = "c"

#: one recorded sink event: (tag, tuple batch blob | watermark | None).
Event = Tuple[str, object]


class ShippingTap:
    """Worker-side sink observer: records the sink's stream for shipping.

    Installed *in the worker* in place of the coordinator-side callback and
    taps (which must not run twice, and whose targets -- a collector dict, a
    JSONL ledger directory -- belong to the coordinator).  Tuples are
    serialised with the channel binary codec, and consecutive tuples batch
    into one blob per :data:`EVENT_TUPLE` event (flushed whenever a
    watermark or the close interleaves, so replay preserves the exact
    tuple/watermark order the worker observed, and whenever the worker
    takes a chunk with :meth:`take`), so anything that reached a
    sink of a remote deployment ships back losslessly without paying a
    per-tuple serialisation.
    """

    def __init__(self, name: str = "") -> None:
        self.events: List[Event] = []
        self._encoder = BinaryChannelEncoder(f"shipping:{name}")
        self._pending: List[StreamTuple] = []

    def _flush(self) -> None:
        pending = self._pending
        if pending:
            blob = self._encoder.encode_batch(pending)
            self.events.append((EVENT_TUPLE, blob))
            pending.clear()

    def on_batch(self, batch: Sequence[StreamTuple]) -> None:
        self._pending.extend(batch)

    def on_watermark(self, watermark: float) -> None:
        self._flush()
        self.events.append((EVENT_WATERMARK, watermark))

    def on_close(self) -> None:
        self._flush()
        self.events.append((EVENT_CLOSE, None))

    def take(self) -> List[Event]:
        """Flush pending tuples; hand over the events recorded so far."""
        self._flush()
        events, self.events = self.events, []
        return events


#: sink name -> the events its :class:`ShippingTap` recorded since the last
#: chunk; sinks that recorded nothing are left out.
SinkChunk = Dict[str, List[Event]]


def take_chunk(taps: Mapping[str, ShippingTap]) -> SinkChunk:
    """Everything ``taps`` recorded since the last call (empty if nothing)."""
    chunk: SinkChunk = {}
    for name, tap in taps.items():
        events = tap.take()
        if events:
            chunk[name] = events
    return chunk


def instance_manager(instance: SPEInstance) -> Optional[ProvenanceManager]:
    """The provenance manager installed on ``instance``'s operators."""
    for operator in instance.operators:
        manager: Optional[ProvenanceManager] = getattr(operator, "provenance", None)
        if manager is not None:
            return manager
    return None


def prepare_sinks(instance: SPEInstance) -> Dict[str, ShippingTap]:
    """Replace every sink's callback/taps with a shipping recorder (worker only)."""
    taps: Dict[str, ShippingTap] = {}
    for sink in instance.sinks():
        tap = ShippingTap(sink.name)
        sink._callback = None
        sink._keep_tuples = False
        sink.taps = [tap]
        taps[sink.name] = tap
    return taps


def strip_sinks(instance: SPEInstance) -> Dict[str, Tuple[Any, bool, list]]:
    """Detach every sink's callback/taps/keep flag; return them for restoring.

    The daemon launcher serialises the lowered plan before shipping it to
    a worker, and the coordinator-owned callbacks and taps (a collector, a
    ledger over an open file) must neither travel nor need to be picklable.
    The worker installs :func:`prepare_sinks` recorders on arrival anyway.
    """
    saved: Dict[str, Tuple[Any, bool, list]] = {}
    for sink in instance.sinks():
        saved[sink.name] = (sink._callback, sink._keep_tuples, sink.taps)
        sink._callback = None
        sink._keep_tuples = False
        sink.taps = []
    return saved


def restore_sinks(instance: SPEInstance, saved: Mapping[str, Tuple[Any, bool, list]]) -> None:
    """Re-attach what :func:`strip_sinks` detached (inverse operation)."""
    for sink in instance.sinks():
        callback, keep_tuples, taps = saved[sink.name]
        sink._callback = callback
        sink._keep_tuples = keep_tuples
        sink.taps = taps


def collect_result(instance: SPEInstance, scheduler: Any, passes: int) -> Dict:
    """Everything but the sink events the coordinator needs for this instance."""
    manager = instance_manager(instance)
    tracer = getattr(scheduler, "tracer", None)
    return {
        "instance": instance.name,
        "passes": passes,
        "wakeups": scheduler.wakeups,
        "operators": {
            op.name: (op.work_calls, op.tuples_in, op.tuples_out)
            for op in instance.operators
        },
        "channels": {
            channel.name: channel.counters()
            for channel in instance.outgoing_channels()
        },
        "sinks": {
            sink.name: {"count": sink.count, "latencies": list(sink.latencies)}
            for sink in instance.sinks()
        },
        "traversal_times_s": list(getattr(manager, "traversal_times_s", ())),
        # The worker's span ring + clock anchor (None when telemetry is off);
        # the coordinator aligns it onto the merged timeline.
        "telemetry": tracer.export() if tracer is not None else None,
    }


def replay_sink(
    sink: SinkOperator, events: Sequence[Event], decoder: BinaryChannelDecoder
) -> int:
    """Re-enact a chunk of a worker sink's stream on the coordinator-side sink.

    Tuples are deserialised and handed to the sink's original callback and
    taps in their arrival order, interleaved with the watermark advances and
    the close exactly as the worker observed them -- so a collector or a
    ledger fed through the coordinator-side sink sees the same stream it
    would have seen running in-process.  ``decoder`` must be the one decoder
    that replays every chunk of this sink, in order (the codec is stateful).
    Latencies are *not* re-measured (replay time is meaningless); the
    worker's measurements arrive with its result document.  Returns the
    number of tuples replayed.
    """
    replayed = 0
    for kind, body in events:
        if kind == EVENT_TUPLE:
            # one event is one batch blob.
            tuples, _ = decoder.decode_batch(cast(bytes, body))
            sink.deliver(tuples)
            replayed += len(tuples)
        elif kind == EVENT_WATERMARK:
            sink.on_watermark(cast(float, body))
        else:  # EVENT_CLOSE
            sink.on_close()
    return replayed


def adopt_sink_result(sink: SinkOperator, shipped: Mapping[str, Any]) -> None:
    """Copy a worker sink's count and measured latencies onto ``sink``."""
    sink.count = shipped["count"]
    sink.latencies = list(shipped["latencies"])


def apply_instance_result(
    instance: SPEInstance,
    document: Dict,
    channels_by_name: Mapping[str, Channel],
    telemetry: Any = None,
) -> None:
    """Copy one worker's shipped counters onto the coordinator.

    ``document`` is the value :func:`collect_result` produced in the worker;
    ``channels_by_name`` maps channel names onto the *coordinator-side*
    channel objects (worker counters are shipped back by channel name).
    ``telemetry`` (a :class:`repro.obs.telemetry.Telemetry`) adopts the
    worker's shipped span buffer, if any.  The sink streams themselves were
    replayed chunk by chunk during the run.
    """
    for operator in instance.operators:
        counters = document["operators"].get(operator.name)
        if counters is not None:
            operator.work_calls, operator.tuples_in, operator.tuples_out = counters
    for name, (tuples_sent, bytes_sent) in document["channels"].items():
        channel = channels_by_name[name]
        channel.tuples_sent = tuples_sent
        channel.bytes_sent = bytes_sent
    for sink in instance.sinks():
        adopt_sink_result(sink, document["sinks"][sink.name])
    manager = instance_manager(instance)
    samples = document.get("traversal_times_s") or ()
    if samples and manager is not None:
        getattr(manager, "traversal_times_s", []).extend(samples)
    if telemetry is not None:
        telemetry.merge_worker(document.get("telemetry"))


def require_unique_channel_names(channels: List[Channel], runtime: str) -> None:
    """Shipping counters back by name needs channel names to be unique."""
    names = [channel.name for channel in channels]
    duplicated = {name for name in names if names.count(name) > 1}
    if duplicated:
        raise SchedulingError(
            f"channel name(s) {sorted(duplicated)!r} are not unique; the "
            f"{runtime} runtime ships per-channel counters back by name"
        )
