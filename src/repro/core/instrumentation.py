"""GeneaLog's operator instrumentation (section 4.1 of the paper).

:class:`GeneaLogProvenance` implements the
:class:`~repro.spe.provenance_api.ProvenanceManager` hooks so that every
tuple created by an operator carries the fixed-size metadata of
:class:`~repro.core.meta.GeneaLogMeta`:

* Source      -> nothing: absent meta *is* ``T = SOURCE`` (no pointers), so
  a source tuple that never contributes carries zero provenance bytes,
* Map         -> ``T = MAP``, ``U1`` = contributing input,
* Multiplex   -> ``T = MULTIPLEX``, ``U1`` = contributing input,
* Join        -> ``T = JOIN``, ``U1`` = newer input, ``U2`` = older input,
* Aggregate   -> ``T = AGGREGATE``, ``U2`` = earliest window tuple,
  ``U1`` = latest window tuple, ``N`` chaining consecutive window tuples,
* Send        -> serialises ``T`` (downgraded to ``REMOTE`` unless it is
  ``SOURCE``) together with the tuple's unique ``ID``,
* Receive     -> re-attaches the serialised type and ``ID`` to the tuple
  object created on the receiving side.

Filter and Union forward tuples, so no hook exists for them.

Creation hooks never touch their *inputs'* metadata: a bare input is a
SOURCE leaf as it stands.  A block is materialised on an input only when it
needs an ``N`` link (Aggregate windows) or a unique ``ID`` (SU, MU, Send).
"""

from __future__ import annotations

import itertools
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.core.meta import GeneaLogMeta
from repro.core.traversal import find_provenance
from repro.core.types import TupleType
from repro.spe.provenance_api import ProvenanceManager
from repro.spe.tuples import StreamTuple

if TYPE_CHECKING:
    from repro.obs.tracer import SpanTracer


#: plain-dict views of the :class:`TupleType` enum for the per-tuple wire
#: hooks: member/value lookups through the enum machinery cost a property
#: descriptor call each, which is measurable at channel rates.
_TYPE_BY_VALUE = {member.value: member for member in TupleType}
_SOURCE = TupleType.SOURCE
_MAP = TupleType.MAP
_MULTIPLEX = TupleType.MULTIPLEX
_JOIN = TupleType.JOIN
_AGGREGATE = TupleType.AGGREGATE
_REMOTE = TupleType.REMOTE
_SOURCE_VALUE = TupleType.SOURCE.value
_REMOTE_VALUE = TupleType.REMOTE.value
#: the types an operator of this instance mints (Multiplex copies resolved).
_DERIVED = frozenset((_MAP, _JOIN, _AGGREGATE))


def _resolve(tup: StreamTuple) -> Tuple[StreamTuple, Optional[GeneaLogMeta]]:
    """Follow Multiplex copies to the tuple they copy; return it and its meta.

    A Multiplex copy is the same logical tuple as its input (it only exists
    so that two downstream branches get their own object), so ids, boundary
    types and the boundary SU's unfolding rule all resolve through it.  This
    is what makes the standard-operator SU composition of Figure 5B
    (Multiplex + unfolding Map) interchangeable with the fused SU: the copy
    fed to the Send/Sink and the copy fed to the unfolding Map report the
    same id.
    """
    meta: Optional[GeneaLogMeta] = tup.meta
    while meta is not None and meta.type is _MULTIPLEX and meta.u1 is not None:
        tup = meta.u1
        meta = tup.meta
    return tup, meta


class GeneaLogProvenance(ProvenanceManager):
    """GeneaLog instrumentation: fixed-size metadata, pointer-based linking.

    Parameters
    ----------
    node_id:
        Identifier of the SPE instance this manager is installed on.  It
        prefixes the unique tuple ``ID``\\ s so that ids remain unique across
        instances (footnote 2 of section 6).
    record_traversal_times:
        When True (the default), :meth:`unfold` records how long every
        contribution-graph traversal took; the benchmark's
        ``core.traversal.*`` rows read these samples (Figure 14).
    """

    name = "GL"

    #: telemetry span tracer.  A class attribute defaulting to None (same
    #: contract as Operator.tracer) so managers revived from a shipped plan
    #: stay silent until the worker-side obs layer opts them in.
    tracer: Optional["SpanTracer"] = None

    def __init__(self, node_id: str = "local", record_traversal_times: bool = True) -> None:
        self.node_id = node_id
        self.record_traversal_times = record_traversal_times
        self.traversal_times_s: List[float] = []
        self._id_counter = itertools.count()

    # -- id management -------------------------------------------------------
    def _new_id(self) -> str:
        return f"{self.node_id}:{next(self._id_counter)}"

    def tuple_id(self, tup: StreamTuple) -> str:
        # Ids are assigned lazily: only tuples that actually reach an SU, an
        # MU or a process boundary ever need one (section 6), so the common
        # per-tuple path stays as cheap as possible.  A bare (SOURCE) tuple
        # gets its metadata block here, to hold the id.
        meta = tup.meta
        if meta is None:
            tuple_id = self._new_id()
            tup.meta = GeneaLogMeta(_SOURCE, None, None, None, tuple_id)
            return tuple_id
        tup, meta = _resolve(tup)
        if meta is None:
            meta = tup.meta = GeneaLogMeta(_SOURCE)
        tuple_id = meta.tuple_id
        if tuple_id is None:
            tuple_id = meta.tuple_id = self._new_id()
        return tuple_id

    def derived_here(self, tup: StreamTuple) -> bool:
        """True when ``tup`` (Multiplex copies resolved) was derived on this instance.

        That is a MAP, JOIN or AGGREGATE tuple: the only kind that crosses a
        process boundary as ``REMOTE`` under an id minted here.  A boundary
        SU unfolds these alone -- a SOURCE crossing needs no upstream record
        (the MU forwards whatever derives from it as it is), and a received
        leaf passed straight through would unfold to its own identity.
        """
        meta = _resolve(tup)[1]
        return meta is not None and meta.type in _DERIVED

    # -- instrumented creation hooks -------------------------------------------
    def on_source_output(self, tup: StreamTuple) -> None:
        """Nothing to do: absent meta is ``T = SOURCE``."""

    def on_source_batch(self, batch: Sequence[StreamTuple]) -> None:
        """Nothing to do, once per batch instead of once per tuple."""

    def on_map_output(self, out_tuple: StreamTuple, in_tuple: StreamTuple) -> None:
        out_tuple.meta = GeneaLogMeta(_MAP, in_tuple)

    def on_multiplex_output(self, out_tuple: StreamTuple, in_tuple: StreamTuple) -> None:
        out_tuple.meta = GeneaLogMeta(_MULTIPLEX, in_tuple)

    def on_join_output(
        self, out_tuple: StreamTuple, newer: StreamTuple, older: StreamTuple
    ) -> None:
        out_tuple.meta = GeneaLogMeta(_JOIN, newer, older)

    def on_aggregate_output(
        self,
        out_tuple: StreamTuple,
        window: Sequence[StreamTuple],
        contributors: Optional[Sequence[StreamTuple]] = None,
    ) -> None:
        # Window-provenance optimisation (paper section 9, item i): when the
        # aggregate declares that only one or two window tuples actually
        # contributed (e.g. max/min, first/last), the output can reuse the
        # single-parent (MAP) or two-parent (JOIN) pointer layout instead of
        # chaining the whole window, so non-contributing tuples become
        # reclaimable immediately.  Larger subsets fall back to the full
        # window: the N chain is shared across overlapping windows, so a
        # partial chain could leak tuples from other windows into the
        # traversal.
        if contributors is not None and 0 < len(contributors) <= 2:
            ordered = sorted(contributors, key=lambda t: t.ts)
            if len(ordered) == 1:
                out_tuple.meta = GeneaLogMeta(_MAP, ordered[0])
            else:
                out_tuple.meta = GeneaLogMeta(_JOIN, ordered[-1], ordered[0])
            return
        if not window:
            out_tuple.meta = GeneaLogMeta(_AGGREGATE)
            return
        # N-chain the window in place.  Only a tuple with a successor needs
        # a block (to hold ``N``): the latest tuple -- and so the only tuple
        # of a single-tuple window -- stays as it is.
        it = iter(window)
        current = next(it)
        for following in it:
            meta = current.meta
            if meta is None:
                current.meta = GeneaLogMeta(_SOURCE, None, None, following)
            else:
                meta.n = following
            current = following
        out_tuple.meta = GeneaLogMeta(_AGGREGATE, current, window[0])

    # -- process boundary hooks ---------------------------------------------------
    def on_send(self, tup: StreamTuple) -> Dict[str, Any]:
        # :meth:`tuple_id`, inlined on this per-crossing hot path to keep the
        # resolved meta, whose type decides SOURCE or REMOTE.
        tup, meta = _resolve(tup)
        if meta is None:
            meta = tup.meta = GeneaLogMeta(_SOURCE)
        tuple_id = meta.tuple_id
        if tuple_id is None:
            tuple_id = meta.tuple_id = self._new_id()
        return {
            "type": _SOURCE_VALUE if meta.type is _SOURCE else _REMOTE_VALUE,
            "id": tuple_id,
        }

    def on_receive(self, tup: StreamTuple, payload: Dict[str, Any]) -> None:
        tuple_type = _TYPE_BY_VALUE.get(payload.get("type"), _REMOTE)
        tup.meta = GeneaLogMeta(tuple_type, None, None, None, payload.get("id"))

    # -- provenance retrieval --------------------------------------------------------
    def unfold(self, tup: StreamTuple) -> List[StreamTuple]:
        if not self.record_traversal_times and self.tracer is None:
            return find_provenance(tup)
        started = time.perf_counter()
        originating = find_provenance(tup)
        elapsed = time.perf_counter() - started
        if self.record_traversal_times:
            self.traversal_times_s.append(elapsed)
        if self.tracer is not None:
            # The interval is already measured; hand it over instead of
            # timing the traversal twice.
            self.tracer.record(
                "provenance.traversal",
                self.node_id,
                started,
                count=len(originating),
                duration=elapsed,
            )
        return originating
