"""GeneaLog's fixed-size per-tuple metadata.

Each tuple processed under GeneaLog carries exactly four meta-attributes
(section 4): ``Type`` (which operator created the tuple), ``U1`` and ``U2``
(references to the contributing input tuples) and ``N`` (the "next" link used
to walk an Aggregate's window).  For inter-process provenance (section 6) a
fifth constant-size attribute, the unique ``ID``, is added.

**Encoding.**  Absent meta (``tup.meta is None``) *is* ``T = SOURCE`` with
every other attribute unset.  A :class:`GeneaLogMeta` block exists only for

* derived tuples (Map / Multiplex / Join / Aggregate outputs, Receive-side
  REMOTE tuples), which need ``T`` and their ``U1``/``U2`` pointers,
* window members that are ``N``-chained to their successor, and
* tuples that were assigned a unique ``ID`` (they reached an SU, an MU or a
  process boundary).

A source tuple that never contributes to anything -- e.g. one dropped by the
first Filter -- therefore carries zero provenance bytes, and every reader of
``StreamTuple.meta`` in :mod:`repro.core` handles ``None`` as a SOURCE leaf.

``U1``, ``U2`` and ``N`` are plain Python object references; the CPython
reference-counting collector plays the role the paper assigns to the
process's memory reclamation: a source tuple stays alive exactly as long as
some reachable tuple still points at it, and is reclaimed as soon as it can
no longer contribute to any output.
"""

from __future__ import annotations

from typing import Optional

from repro.core.types import TupleType
from repro.spe.tuples import StreamTuple


class GeneaLogMeta:
    """The fixed-size metadata block of a derived, chained or id-bearing tuple."""

    __slots__ = ("type", "u1", "u2", "n", "tuple_id")

    def __init__(
        self,
        type: TupleType,
        u1: Optional[StreamTuple] = None,
        u2: Optional[StreamTuple] = None,
        n: Optional[StreamTuple] = None,
        tuple_id: Optional[str] = None,
    ) -> None:
        self.type = type
        self.u1 = u1
        self.u2 = u2
        self.n = n
        self.tuple_id = tuple_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GeneaLogMeta(type={self.type}, id={self.tuple_id!r}, "
            f"u1={'set' if self.u1 is not None else None}, "
            f"u2={'set' if self.u2 is not None else None}, "
            f"n={'set' if self.n is not None else None})"
        )


def get_meta(tup: StreamTuple) -> Optional[GeneaLogMeta]:
    """Return the GeneaLog metadata block of ``tup``, or None when it has none.

    ``None`` means "``T = SOURCE``, no pointers, no id" (see the module
    docstring): callers must treat it as a source leaf, not as an error.
    Metadata of another technique (the baseline's annotation) also yields
    ``None``.
    """
    meta = tup.meta
    return meta if isinstance(meta, GeneaLogMeta) else None


#: Number of meta-attributes GeneaLog adds to a tuple (T, U1, U2, N, ID).
METADATA_FIELDS = 5
