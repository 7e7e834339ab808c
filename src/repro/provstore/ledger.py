"""The streaming provenance ledger: ingest, seal, query, subscribe.

The paper's capture pipeline stops at a provenance Sink: unfolded blocks
(one per sink tuple, holding one source entry per originating tuple; the
pairs of Definition 6.2) are grouped in memory and inspected after the run.
:class:`ProvenanceLedger` turns that terminal buffer into a live subsystem:

* **Ingest** -- unfolded blocks stream in one Sink batch at a time (through
  :class:`~repro.provstore.tap.LedgerTap` objects attached to provenance
  Sinks, or direct :meth:`ProvenanceLedger.ingest_batch` calls;
  :meth:`ProvenanceLedger.ingest` is a batch of one).  Each originating
  tuple is content-addressed by its unique ``<stream>:<counter>`` id and
  stored **once**, however many sink tuples it contributes to; repeated
  ``(sink, source)`` pairs (e.g. the same unfolding shipped over two process
  boundaries) are dropped on arrival.  Work follows a **first-sight rule**:
  a block costs one pending-mapping lookup (``sink_id``) and each of its
  entries one ``seen`` test (``id_o``); a mapping adopts the block's sink
  payload, and a :class:`SourceEntry` is built once per new source.  Blocks
  and entries without ids take the content-address route of
  :func:`~repro.provstore.entries.address` inside the same loop.
* **Reserved attribute names** -- the flat Definition 6.2 view of a block
  prefixes sink attributes with ``sink_`` and names the origin's identity
  ``ts_o`` / ``id_o`` / ``type_o``.  The unfolders therefore reject a sink
  attribute named ``ts`` or ``id`` and an origin attribute named ``ts_o`` /
  ``id_o`` / ``type_o`` or starting with ``sink_``
  (:class:`~repro.spe.errors.ReservedAttributeError`) before any such block
  can reach a store.
* **Sealing** -- a sink tuple's mapping stays *pending* until the ingest
  watermark guarantees no further block for it can arrive.  The
  bound is the MU operator's retention math (section 6): every unfolded
  block for sink timestamp ``t`` carries ``ts <= t + retention``, so the
  mapping seals once the watermark passes ``t + retention`` (the final
  watermark seals everything).  Sealing hands the mapping to the
  persistence backend and delivers it to every subscription **exactly
  once** -- pending state is therefore retained only up to the
  watermark-driven expiry bound.
* **Queries** -- :meth:`sources_of` answers backward provenance (sink tuple
  -> contributing source entries) and :meth:`derived_from` forward
  provenance (source tuple -> sink mappings it fed), over sealed and
  still-pending state alike.
* **Persistence** -- the backend is pluggable
  (:class:`~repro.provstore.backends.MemoryLedgerBackend` by default,
  append-only JSONL segments via
  :class:`~repro.provstore.backends.JsonlLedgerBackend`); a JSONL store
  directory re-opened with :func:`open_provenance_store` answers the same
  forward/backward queries read-only.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Union

from repro.core.types import TupleType
from repro.core.unfolder import ORIGIN_ID_FIELD, ORIGIN_TS_FIELD, ORIGIN_TYPE_FIELD
from repro.provstore.backends import (
    JsonlLedgerBackend,
    LedgerBackend,
    LedgerError,
    MemoryLedgerBackend,
)
from repro.provstore.entries import SinkMapping, SourceEntry, address
from repro.spe.tuples import StreamTuple, UnfoldedBlock

if TYPE_CHECKING:
    from repro.obs.tracer import SpanTracer

#: sentinel watermark meaning "nothing ingested yet".
_NO_WATERMARK = float("-inf")

#: the names of a source entry that are not the origin's payload.
_IDENTITY = frozenset((ORIGIN_TS_FIELD, ORIGIN_ID_FIELD, ORIGIN_TYPE_FIELD))


def _payload(entry: Dict[str, Any]) -> Dict[str, Any]:
    """A source entry's origin payload (``ts_o`` / ``id_o`` / ``type_o`` dropped)."""
    return {key: value for key, value in entry.items() if key not in _IDENTITY}


class Subscription:
    """One consumer of the sealed-mapping stream.

    Every mapping the ledger seals after (or, with ``replay=True``, before)
    the subscription was created is delivered to it exactly once: either by
    invoking ``callback`` at seal time, or -- without a callback -- by
    buffering the mapping until :meth:`drain` is called.
    """

    def __init__(
        self,
        ledger: "ProvenanceLedger",
        callback: Optional[Callable[[SinkMapping], None]] = None,
    ) -> None:
        self._ledger = ledger
        self._callback = callback
        self._queue: Deque[SinkMapping] = deque()
        #: number of mappings delivered to this subscription so far.
        self.delivered = 0
        self._cancelled = False

    def _deliver(self, mapping: SinkMapping) -> None:
        self.delivered += 1
        if self._callback is not None:
            self._callback(mapping)
        else:
            self._queue.append(mapping)

    def drain(self) -> List[SinkMapping]:
        """Return (and forget) every buffered mapping, in seal order."""
        drained = list(self._queue)
        self._queue.clear()
        return drained

    def cancel(self) -> None:
        """Stop receiving mappings; buffered ones remain drainable."""
        if not self._cancelled:
            self._cancelled = True
            ledger = self._ledger
            ledger._subscriptions = [s for s in ledger._subscriptions if s is not self]

    def __len__(self) -> int:
        return len(self._queue)


class _PendingMapping:
    """A sink tuple's mapping while unfolded blocks may still arrive."""

    __slots__ = ("sink_ts", "sink_values", "sources")

    def __init__(self, sink_ts: float, sink_values: Dict[str, Any]) -> None:
        self.sink_ts = sink_ts
        self.sink_values = sink_values
        #: contributing source keys in first-ingest order (an ordered set).
        self.sources: Dict[str, None] = {}

    def snapshot(self, sink_key: str) -> SinkMapping:
        """A copy for queries; the mapping itself keeps accepting sources."""
        return SinkMapping(
            sink_key, self.sink_ts, dict(self.sink_values), tuple(self.sources)
        )


class ProvenanceLedger:
    """A continuously materialised, queryable store of backward provenance.

    ``retention`` is the seal bound in event-time seconds (the sum of the
    deployment's window sizes, exactly the MU operator's retention); the
    :class:`~repro.api.pipeline.Pipeline` fills it in from the dataflow when
    the ledger is attached with ``retention=None``.
    """

    def __init__(
        self,
        backend: Optional[LedgerBackend] = None,
        retention: Optional[float] = None,
        name: str = "provenance_store",
    ) -> None:
        self.name = name
        self.backend = backend if backend is not None else MemoryLedgerBackend()
        self.retention = retention
        self.read_only = self.backend.read_only
        #: telemetry span tracer (None = disabled; installed by the obs layer).
        self.tracer: Optional["SpanTracer"] = None
        #: sealed mappings, in seal order (dict preserves insertion).
        self._mappings: Dict[str, SinkMapping] = {}
        #: pending mappings, still accepting unfolded blocks.
        self._pending: Dict[str, _PendingMapping] = {}
        #: every distinct source entry, stored once (content-addressed).
        self._sources: Dict[str, SourceEntry] = {}
        #: source keys already handed to the backend.
        self._persisted_sources: Set[str] = set()
        #: forward index over *sealed* mappings: source key -> sink keys.
        self._forward: Dict[str, List[str]] = {}
        self._subscriptions: List[Subscription] = []
        #: ingest watermark per registered tap (min across taps seals).
        self._tap_watermarks: Dict[int, float] = {}
        self._next_tap_id = 0
        self._manual_watermark = _NO_WATERMARK
        # -- accounting ----------------------------------------------------
        #: (sink, source) pairs ingested (including duplicates and late arrivals).
        self.ingested_tuples = 0
        #: repeated (sink, source) pairs dropped on arrival.
        self.duplicate_tuples = 0
        #: tuples for an already-sealed sink mapping (retention too small).
        self.late_tuples = 0
        #: total (deduplicated) source references across all mappings.
        self.source_references = 0
        if self.read_only:
            self._load()

    # -- construction helpers ------------------------------------------------
    def _load(self) -> None:
        sources, mappings = self.backend.load()
        for entry in sources:
            self._sources[entry.key] = entry
            self._persisted_sources.add(entry.key)
        for mapping in mappings:
            self._mappings[mapping.sink_key] = mapping
            self.source_references += len(mapping.source_keys)
            for key in mapping.source_keys:
                self._forward.setdefault(key, []).append(mapping.sink_key)

    def _require_writable(self) -> None:
        if self.read_only:
            raise LedgerError(
                f"provenance store {self.name!r} is open read-only "
                f"({self.backend.describe()})"
            )

    # -- tap registration -----------------------------------------------------
    def register_tap(self) -> int:
        """Reserve a tap slot; returns the id used for watermark advances."""
        self._require_writable()
        tap_id = self._next_tap_id
        self._next_tap_id += 1
        self._tap_watermarks[tap_id] = _NO_WATERMARK
        return tap_id

    @property
    def watermark(self) -> float:
        """The ingest watermark sealing is based on (min across taps)."""
        if self._tap_watermarks:
            return min(self._tap_watermarks.values())
        return self._manual_watermark

    # -- ingest ----------------------------------------------------------------
    def ingest(self, unfolded: UnfoldedBlock) -> None:
        """Consume one unfolded block."""
        self.ingest_batch((unfolded,))

    def ingest_batch(self, batch: Sequence[UnfoldedBlock]) -> None:
        """Consume a batch of unfolded blocks, in stream order.

        The work is one pending-mapping lookup per block and one ``seen``
        test per source entry; a :class:`SourceEntry` is built on first
        sight only.
        """
        self._require_writable()
        pending_by_key = self._pending
        sources = self._sources
        ingested = duplicates = late = 0
        for block in batch:
            entries = block.sources
            ingested += len(entries)
            sink_key = block.sink_id
            if sink_key.__class__ is not str:  # an id-less sink is its content address
                sink_key = address(sink_key, block.sink_ts, block.values)
            pending = pending_by_key.get(sink_key)
            if pending is None:
                if sink_key in self._mappings:
                    # The mapping sealed already: the retention bound was
                    # too small for this deployment.  Count it loudly instead
                    # of corrupting the exactly-once delivery of the mapping.
                    late += len(entries)
                    continue
                pending = pending_by_key[sink_key] = _PendingMapping(
                    block.sink_ts, block.values
                )
            seen = pending.sources
            for entry in entries:
                source_key = entry[ORIGIN_ID_FIELD]
                if source_key.__class__ is not str:
                    source_key = address(source_key, entry[ORIGIN_TS_FIELD], _payload(entry))
                if source_key in seen:
                    duplicates += 1
                    continue
                seen[source_key] = None
                if source_key not in sources:
                    sources[source_key] = SourceEntry(
                        source_key,
                        entry[ORIGIN_TS_FIELD],
                        entry[ORIGIN_TYPE_FIELD],
                        _payload(entry),
                    )
        self.ingested_tuples += ingested
        self.late_tuples += late
        self.duplicate_tuples += duplicates
        self.source_references += ingested - late - duplicates

    # -- sealing ----------------------------------------------------------------
    def advance_watermark(self, watermark: float, tap: Optional[int] = None) -> None:
        """Raise one tap's (or the manual) ingest watermark; seal what settled."""
        self._require_writable()
        if tap is None:
            if self._tap_watermarks:
                # Sealing is driven by the min across tap watermarks; a
                # manual advance would be silently out-voted, so refuse it
                # instead of accepting a no-op.
                raise LedgerError(
                    f"ledger {self.name!r} has {len(self._tap_watermarks)} "
                    "registered tap(s); its watermark advances through them "
                    "(use flush() to force-seal pending mappings)"
                )
            if watermark > self._manual_watermark:
                self._manual_watermark = watermark
        else:
            if watermark > self._tap_watermarks[tap]:
                self._tap_watermarks[tap] = watermark
        self._seal_ready()

    def close_tap(self, tap: int) -> None:
        """A tap's stream ended; its watermark becomes final."""
        self.advance_watermark(float("inf"), tap=tap)

    def _seal_ready(self) -> None:
        watermark = self.watermark
        if watermark == _NO_WATERMARK or not self._pending:
            return
        retention = self.retention if self.retention is not None else 0.0
        if watermark == float("inf"):
            ready = list(self._pending)
        else:
            ready = [
                key
                for key, pending in self._pending.items()
                if pending.sink_ts + retention < watermark
            ]
        if not ready:
            return
        tracer = self.tracer
        started = tracer.clock() if tracer is not None else 0.0
        self._seal(ready)
        if tracer is not None:
            tracer.record("ledger.seal", self.name, started, count=len(ready))

    def _seal(self, ready: List[str]) -> None:
        """Seal the pending mappings ``ready`` names, in order; flush once."""
        persisted = self._persisted_sources
        forward = self._forward
        backend = self.backend
        for sink_key in ready:
            # Persist first, mutate ledger state after: if a backend append
            # raises, the mapping stays pending (a later flush retries)
            # instead of being lost from both the pending area and the
            # sealed index.  The pending dicts are handed over, not copied.
            pending = self._pending[sink_key]
            mapping = SinkMapping(
                sink_key, pending.sink_ts, pending.sink_values, tuple(pending.sources)
            )
            for key in mapping.source_keys:
                if key not in persisted:
                    backend.append_source(self._sources[key])
                    persisted.add(key)
            backend.append_mapping(mapping)
            del self._pending[sink_key]
            for key in mapping.source_keys:
                forward.setdefault(key, []).append(sink_key)
            self._mappings[sink_key] = mapping
            # ``_subscriptions`` is replaced, never mutated, by subscribe()
            # and cancel(), so a callback that cancels (or adds) one
            # mid-delivery cannot make this loop skip another subscriber.
            # One failing callback must not starve the remaining
            # subscribers either -- every delivery is attempted, then the
            # first failure is re-raised.
            first_error: Optional[BaseException] = None
            for subscription in self._subscriptions:
                if subscription._cancelled:
                    continue
                try:
                    subscription._deliver(mapping)
                except Exception as exc:  # noqa: BLE001 - isolate subscribers
                    if first_error is None:
                        first_error = exc
            if first_error is not None:
                raise first_error
        backend.flush()

    def flush(self) -> None:
        """Seal every pending mapping now (as if the final watermark passed)."""
        self._require_writable()
        self._seal(list(self._pending))

    def close(self) -> None:
        """Seal what is pending and release the backend."""
        if not self.read_only:
            self.flush()
        self.backend.close()

    # -- subscriptions ------------------------------------------------------------
    def subscribe(
        self,
        callback: Optional[Callable[[SinkMapping], None]] = None,
        replay: bool = False,
    ) -> Subscription:
        """Receive every sealed mapping exactly once.

        With ``replay=True`` the mappings sealed before the subscription
        existed are delivered first (in seal order), so a late subscriber
        still sees each mapping exactly once overall.
        """
        subscription = Subscription(self, callback)
        if replay:
            for mapping in self._mappings.values():
                subscription._deliver(mapping)
        if not self.read_only:
            self._subscriptions = [*self._subscriptions, subscription]
        return subscription

    # -- key resolution -------------------------------------------------------------
    @staticmethod
    def _tuple_key(tup: StreamTuple) -> str:
        """The ledger key of a data tuple (sink tuple or source tuple)."""
        meta = tup.meta
        # GeneaLog assigns ids to the *logical* tuple: follow multiplex
        # copies down to it, exactly like GeneaLogProvenance.tuple_id.
        while (
            meta is not None
            and getattr(meta, "type", None) is TupleType.MULTIPLEX
            and getattr(meta, "u1", None) is not None
        ):
            tup = meta.u1
            meta = tup.meta
        return address(getattr(meta, "tuple_id", None), tup.ts, tup.values)

    def _resolve_key(self, subject: Union[str, StreamTuple, SinkMapping, SourceEntry]) -> str:
        if isinstance(subject, str):
            return subject
        if isinstance(subject, StreamTuple):
            return self._tuple_key(subject)
        if isinstance(subject, SinkMapping):
            return subject.sink_key
        if isinstance(subject, SourceEntry):
            return subject.key
        raise LedgerError(
            f"cannot resolve a ledger key from {type(subject).__name__}; pass "
            "a key string, a StreamTuple, a SinkMapping or a SourceEntry"
        )

    # -- queries ------------------------------------------------------------------
    def mapping_for(self, sink: Union[str, StreamTuple, SinkMapping]) -> Optional[SinkMapping]:
        """The (sealed or still-pending) mapping of one sink tuple."""
        sink_key = self._resolve_key(sink)
        mapping = self._mappings.get(sink_key)
        if mapping is not None:
            return mapping
        pending = self._pending.get(sink_key)
        if pending is not None:
            return pending.snapshot(sink_key)
        return None

    def sources_of(self, sink: Union[str, StreamTuple, SinkMapping]) -> List[SourceEntry]:
        """Backward query: the source entries contributing to ``sink``."""
        mapping = self.mapping_for(sink)
        if mapping is None:
            return []
        return [self._sources[key] for key in mapping.source_keys]

    def derived_from(
        self, source: Union[str, StreamTuple, SourceEntry]
    ) -> List[SinkMapping]:
        """Forward query: the sink mappings ``source`` contributed to."""
        source_key = self._resolve_key(source)
        results = [
            self._mappings[sink_key] for sink_key in self._forward.get(source_key, ())
        ]
        for sink_key, pending in self._pending.items():
            if source_key in pending.sources:
                results.append(pending.snapshot(sink_key))
        return results

    def mappings(self) -> List[SinkMapping]:
        """Every sealed mapping, in seal order."""
        return list(self._mappings.values())

    def source_entries(self) -> List[SourceEntry]:
        """Every distinct source entry ingested so far."""
        return list(self._sources.values())

    def source(self, key: str) -> Optional[SourceEntry]:
        """The source entry stored under ``key`` (None when unknown)."""
        return self._sources.get(key)

    # -- accounting ----------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Sink mappings still inside the watermark-driven retention bound."""
        return len(self._pending)

    @property
    def sealed_count(self) -> int:
        """Sink mappings sealed (persisted + delivered) so far."""
        return len(self._mappings)

    @property
    def source_count(self) -> int:
        """Distinct source entries stored (each shared entry counted once)."""
        return len(self._sources)

    @property
    def dedup_ratio(self) -> float:
        """Source references per stored source entry (1.0 = nothing shared)."""
        if not self._sources:
            return 1.0
        return self.source_references / len(self._sources)

    def __len__(self) -> int:
        return len(self._mappings) + len(self._pending)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProvenanceLedger(name={self.name!r}, sealed={self.sealed_count}, "
            f"pending={self.pending_count}, sources={self.source_count}, "
            f"backend={self.backend.describe()})"
        )


def open_provenance_store(path: Union[str, Path], **backend_options: Any) -> ProvenanceLedger:
    """Re-open a JSONL provenance store directory read-only.

    The returned ledger answers the same :meth:`ProvenanceLedger.sources_of`
    / :meth:`ProvenanceLedger.derived_from` queries as the live ledger that
    wrote the store; ingestion and subscriptions-at-seal are disabled
    (``subscribe(replay=True)`` still replays the sealed stream).

    A writer killed mid-append leaves a torn trailing line in the newest
    segment; the open tolerates it (the intact prefix loads normally) and
    reports it via ``ledger.backend.torn_tail``.
    """
    backend = JsonlLedgerBackend(path, read_only=True, **backend_options)
    return ProvenanceLedger(backend=backend, name=str(path))
