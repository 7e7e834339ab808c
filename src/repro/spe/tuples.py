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
from typing import Any, Dict, Iterable, Mapping, Optional


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
