"""Tuple and stream-element types.

A stream is an unbounded sequence of tuples sharing the same schema
``<ts, a1, ..., an>`` (section 2 of the paper).  :class:`StreamTuple` is the
in-memory representation of one such tuple.  Besides the event timestamp and
the payload attributes, a tuple can carry:

* ``meta`` -- the provenance metadata attached by an instrumented operator
  (``None`` when provenance is disabled).  For GeneaLog this is the
  fixed-size :class:`repro.core.meta.GeneaLogMeta`, or ``None`` for a
  source tuple that needed no block yet (absent meta is ``T = SOURCE``);
  for the Ariadne-style baseline it is a variable-length annotation.
* ``wall`` -- the wall-clock instant at which the *latest source tuple
  contributing to this tuple* entered the system.  It is maintained by every
  operator (``max`` over inputs) and is what the latency metric of the
  evaluation uses ("the average time interleaving the production of each sink
  tuple and the reception of the latest source tuple contributing to it").

Streams also transport two kinds of control elements: :class:`Watermark`
(a promise that no tuple with a smaller timestamp will follow) and the
singleton :data:`END_OF_STREAM`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional


class StreamTuple:
    """A single data tuple flowing through a query.

    Parameters
    ----------
    ts:
        Event timestamp (seconds, monotone per stream).
    values:
        Mapping from attribute name to value.  The mapping is copied so the
        caller may reuse its dictionary.
    meta:
        Optional provenance metadata (set by instrumented operators).
    wall:
        Wall-clock arrival instant of the latest contributing source tuple.
    """

    __slots__ = ("ts", "values", "meta", "wall", "order_key", "__weakref__")

    def __init__(
        self,
        ts: float,
        values: Optional[Mapping[str, Any]] = None,
        meta: Any = None,
        wall: float = 0.0,
    ) -> None:
        self.ts = ts
        self.values: Dict[str, Any] = dict(values) if values else {}
        self.meta = meta
        self.wall = wall
        #: opaque comparable tag used by the keyed data-parallel machinery:
        #: a Partition stamps forwarded tuples with their stream sequence
        #: number, sharded Aggregate/Join replicas tag outputs with their
        #: sequential emission rank, and the order-restoring Merge sorts
        #: equal-timestamp tuples by it (then clears it).  None elsewhere.
        self.order_key = None

    # -- attribute access -------------------------------------------------
    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def __setitem__(self, key: str, value: Any) -> None:
        self.values[key] = value

    def __contains__(self, key: str) -> bool:
        return key in self.values

    def get(self, key: str, default: Any = None) -> Any:
        """Return attribute ``key`` or ``default`` when absent."""
        return self.values.get(key, default)

    def keys(self) -> Iterable[str]:
        """Return the attribute names of the tuple."""
        return self.values.keys()

    # -- fast construction --------------------------------------------------
    @classmethod
    def owned(
        cls,
        ts: float,
        values: Optional[Dict[str, Any]] = None,
        meta: Any = None,
        wall: float = 0.0,
    ) -> "StreamTuple":
        """Build a tuple that takes ownership of ``values`` without copying.

        The constructor defensively copies the ``values`` mapping so callers
        may reuse their dictionary; hot operators that build a *fresh* dict
        for every output tuple (Aggregate, Join, the SU/MU unfolders) pay for
        that copy without needing it.  ``owned`` skips the copy: the caller
        must hand over a plain ``dict`` it will not mutate afterwards.
        """
        self = cls.__new__(cls)
        self.ts = ts
        self.values = values if values is not None else {}
        self.meta = meta
        self.wall = wall
        self.order_key = None
        return self

    # -- derivation helpers ------------------------------------------------
    def derive(
        self,
        ts: Optional[float] = None,
        values: Optional[Mapping[str, Any]] = None,
        copy: bool = True,
    ) -> "StreamTuple":
        """Create a new tuple based on this one.

        The new tuple never shares the ``meta`` object (instrumented
        operators are responsible for setting it) but inherits the
        wall-clock arrival of this tuple.  With ``copy=False`` and an
        explicit ``values`` dict, the new tuple takes ownership of that dict
        instead of copying it (see :meth:`owned`).
        """
        if not copy and values is not None and type(values) is dict:
            return StreamTuple.owned(
                ts=self.ts if ts is None else ts,
                values=values,
                meta=None,
                wall=self.wall,
            )
        return StreamTuple(
            ts=self.ts if ts is None else ts,
            values=self.values if values is None else values,
            meta=None,
            wall=self.wall,
        )

    def copy(self) -> "StreamTuple":
        """Return a shallow copy (new values dict, same meta reference)."""
        duplicate = StreamTuple(
            ts=self.ts, values=self.values, meta=self.meta, wall=self.wall
        )
        duplicate.order_key = self.order_key
        return duplicate

    # -- comparison / debugging -------------------------------------------
    def same_payload(self, other: "StreamTuple") -> bool:
        """True when ``other`` carries the same timestamp and attributes."""
        return self.ts == other.ts and self.values == other.values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        attrs = ", ".join(f"{k}={v!r}" for k, v in self.values.items())
        return f"StreamTuple(ts={self.ts}, {attrs})"


#: the attribute names of Definition 6.2's flat unfolded tuple.
SINK_TS_FIELD = "sink_ts"
SINK_ID_FIELD = "sink_id"
ORIGIN_TS_FIELD = "ts_o"
ORIGIN_ID_FIELD = "id_o"
ORIGIN_TYPE_FIELD = "type_o"
SINK_PREFIX = "sink_"


class UnfoldedBlock(StreamTuple):
    """One sink tuple's unfolding: the element of an unfolded stream.

    ``values`` is the sink tuple's payload, held once; ``sources`` has one
    entry per originating tuple, already in :class:`ProvenanceRecord` form
    (the origin's payload plus ``ts_o`` / ``id_o`` / ``type_o``).  ``ts`` is
    the sink tuple's timestamp unless an MU raised it to an upstream block's;
    ``sink_ts`` keeps the sink tuple's own.  The block owns ``values`` and
    ``sources``: nothing mutates either after construction.
    """

    __slots__ = ("sink_ts", "sink_id", "sources")

    def __init__(
        self,
        ts: float,
        values: Dict[str, Any],
        sink_id: Any,
        sources: List[Dict[str, Any]],
        wall: float = 0.0,
        sink_ts: Optional[float] = None,
    ) -> None:
        self.ts = ts
        self.values = values
        self.meta = None
        self.wall = wall
        self.order_key = None
        self.sink_ts = ts if sink_ts is None else sink_ts
        self.sink_id = sink_id
        self.sources = sources

    def with_sources(
        self, sources: List[Dict[str, Any]], ts: Optional[float] = None
    ) -> "UnfoldedBlock":
        """The same sink tuple with other ``sources`` (and ``ts``)."""
        return UnfoldedBlock(
            self.ts if ts is None else ts, self.values, self.sink_id, sources,
            self.wall, self.sink_ts,
        )

    def derive(
        self,
        ts: Optional[float] = None,
        values: Optional[Mapping[str, Any]] = None,
        copy: bool = True,
    ) -> "StreamTuple":
        """A Multiplex copy of a block is a block of the same sources."""
        if values is not None:
            return super().derive(ts, values, copy)
        return self.with_sources(self.sources, ts)

    def copy(self) -> "UnfoldedBlock":
        """A shallow copy: the same sink payload and source entries."""
        return self.with_sources(self.sources)

    def rows(self) -> List[Dict[str, Any]]:
        """The flat Definition 6.2 view: one mapping per originating tuple.

        Sink attributes carry the ``sink_`` prefix, followed by ``sink_ts``,
        ``sink_id`` and one source entry.
        """
        base = {SINK_PREFIX + key: value for key, value in self.values.items()}
        base[SINK_TS_FIELD] = self.sink_ts
        base[SINK_ID_FIELD] = self.sink_id
        return [{**base, **entry} for entry in self.sources]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UnfoldedBlock(ts={self.ts}, id={self.sink_id!r}, sources={len(self.sources)})"


class Watermark:
    """A promise that no tuple with ``ts < watermark.ts`` will follow."""

    __slots__ = ("ts",)

    def __init__(self, ts: float) -> None:
        self.ts = ts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Watermark({self.ts})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Watermark) and other.ts == self.ts

    def __hash__(self) -> int:
        return hash(("Watermark", self.ts))


class _EndOfStream:
    """Singleton marker signalling that a stream is exhausted."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "END_OF_STREAM"


END_OF_STREAM = _EndOfStream()

#: Watermark value used once a stream has ended.
FINAL_WATERMARK = math.inf


def owned_values(values: Mapping[str, Any]) -> Dict[str, Any]:
    """Turn a user-returned attribute mapping into an engine-owned dict.

    Plain dicts are taken over as-is (user functions hand the mapping to the
    engine and must not mutate it afterwards); any other mapping type is
    copied into a fresh dict.
    """
    return values if type(values) is dict else dict(values)


def is_tuple(element: Any) -> bool:
    """Return True when ``element`` is a data tuple (not a control element)."""
    return isinstance(element, StreamTuple)
