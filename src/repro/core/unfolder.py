"""The single-stream unfolder (SU) operator of section 5.

The SU operator has one input stream and two output streams: ``SO`` is an
exact copy of the input (it keeps feeding the Sink), and ``U`` is the
*unfolded* stream (Definitions 4.1 and 5.1).  Definition 6.2 pairs every
tuple with each of its originating tuples; the SU emits those pairs grouped,
as one :class:`~repro.spe.tuples.UnfoldedBlock` per input tuple: the tuple's
ts, id and payload once, then one source entry (origin payload plus
``ts_o`` / ``id_o`` / ``type_o``) per originating tuple.  The collector, the
ledger, the MU and the wire codec consume blocks as they are;
:meth:`~repro.spe.tuples.UnfoldedBlock.rows` and
:func:`make_unfolded_values` give the flat Definition 6.2 view to a caller
that asks for one.

Two implementations are provided, as in the paper:

* :class:`SUOperator` -- the efficient "fused" user-defined operator,
* :func:`add_su` with ``fused=False`` -- the composition of standard
  operators of Figure 5B (a Multiplex feeding the Sink and an unfolding Map).

Both produce identical unfolded streams; a test asserts this equivalence.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.core.meta import GeneaLogMeta
from repro.core.types import TupleType
from repro.spe.errors import ReservedAttributeError
from repro.spe.operators.base import Operator, SingleInputOperator
from repro.spe.provenance_api import ProvenanceManager
from repro.spe.query import Query
from repro.spe.tuples import (
    ORIGIN_ID_FIELD,
    ORIGIN_TS_FIELD,
    ORIGIN_TYPE_FIELD,
    SINK_PREFIX,
    StreamTuple,
    UnfoldedBlock,
)


#: enum-member -> value string, bypassing the DynamicClassAttribute property
#: (one descriptor call per source entry adds up at provenance rates).
_TYPE_VALUE = {member: member.value for member in TupleType}
_SOURCE_VALUE = TupleType.SOURCE.value

#: the origin-identity names of a source entry.
_ORIGIN_IDENTITY = (ORIGIN_TS_FIELD, ORIGIN_ID_FIELD, ORIGIN_TYPE_FIELD)

#: attribute names already admitted per side (none of them reserved): one
#: C-level superset test per tuple, one scan per new name.
_SINK_NAMES: Set[str] = set()
_ORIGIN_NAMES: Set[str] = set()


def _reserved(operator: str, side: str, name: str) -> ReservedAttributeError:
    return ReservedAttributeError(
        f"unfolder {operator!r}: {side} attribute {name!r} collides with the "
        "unfolded schema (reserved: sink attributes 'ts' and 'id'; origin "
        f"attributes {SINK_PREFIX}*, {', '.join(_ORIGIN_IDENTITY)}); rename it "
        "upstream of the sink"
    )


def _admit(values: Dict[str, Any], sink: bool, operator: str) -> None:
    """Admit a schema's attribute names, or reject a reserved one.

    The flat Definition 6.2 view must split back unambiguously: a sink
    attribute ``ts`` / ``id`` would collide with ``sink_ts`` / ``sink_id``,
    and an origin attribute starting with ``sink_`` or named ``ts_o`` /
    ``id_o`` / ``type_o`` would be taken for the sink's or the identity's.
    """
    if sink:
        bad = [name for name in ("ts", "id") if name in values]
    else:
        bad = [n for n in values if n.startswith(SINK_PREFIX) or n in _ORIGIN_IDENTITY]
    if bad:
        raise _reserved(operator, "sink" if sink else "origin", bad[0])
    admitted = _SINK_NAMES if sink else _ORIGIN_NAMES
    if len(admitted) > 4096:  # degenerate dynamic schemas
        admitted.clear()
    admitted.update(values)


def origin_type_name(origin: StreamTuple) -> str:
    """The type (SOURCE or REMOTE) of an originating tuple, as a string.

    An origin without a GeneaLog metadata block (a bare tuple, or one
    annotated by another technique) is a SOURCE tuple.
    """
    meta = origin.meta
    return _TYPE_VALUE[meta.type] if isinstance(meta, GeneaLogMeta) else _SOURCE_VALUE


def unfold_block(
    unfolded_of: StreamTuple,
    origins: Sequence[StreamTuple],
    manager: ProvenanceManager,
    operator: str,
) -> UnfoldedBlock:
    """The block of ``unfolded_of`` and its originating tuples ``origins``.

    ``operator`` names the unfolder in the reserved-name error.  Ids are
    assigned sink first, then origins in order.
    """
    sink_values = unfolded_of.values
    if not _SINK_NAMES.issuperset(sink_values):
        _admit(sink_values, True, operator)
    tuple_id = manager.tuple_id
    sink_id = tuple_id(unfolded_of)
    sources = []
    append = sources.append
    for origin in origins:
        values = origin.values
        if not _ORIGIN_NAMES.issuperset(values):
            _admit(values, False, operator)
        meta = origin.meta
        # findProvenance returns SOURCE/REMOTE leaves only: a GeneaLog leaf
        # that holds an id needs no Multiplex resolution.
        if meta.__class__ is GeneaLogMeta and meta.tuple_id is not None:
            origin_id = meta.tuple_id
            origin_type = _TYPE_VALUE[meta.type]
        else:
            origin_id = tuple_id(origin)
            origin_type = origin_type_name(origin)
        append({
            **values,
            ORIGIN_TS_FIELD: origin.ts,
            ORIGIN_ID_FIELD: origin_id,
            ORIGIN_TYPE_FIELD: origin_type,
        })
    # An operator's output wall is the max over its inputs', so the sink
    # tuple's already covers every origin's.
    return UnfoldedBlock(unfolded_of.ts, sink_values, sink_id, sources, unfolded_of.wall)


def make_unfolded_values(
    unfolded_of: StreamTuple,
    origin: StreamTuple,
    manager: ProvenanceManager,
    operator: str = "make_unfolded_values",
) -> Dict[str, Any]:
    """Build the flat attribute mapping of one unfolded tuple (Definition 6.2).

    The tuple being unfolded contributes its attributes (prefixed with
    ``sink_``), ``sink_ts`` and ``sink_id``; the originating tuple its
    attributes and ``ts_o`` / ``id_o`` / ``type_o``.  ``operator`` names the
    caller in the error raised for a reserved attribute name.
    """
    return unfold_block(unfolded_of, (origin,), manager, operator).rows()[0]


def _to_unfold(
    batch: Sequence[StreamTuple], manager: ProvenanceManager, boundary: bool
) -> Sequence[StreamTuple]:
    """The tuples of ``batch`` an SU unfolds.

    A sink SU unfolds every tuple.  A boundary SU (spliced before a cut
    Send) unfolds only the tuples its own instance derived: any other
    crossing is a SOURCE leaf downstream, or a received leaf whose unfolding
    is its own identity, and the MU needs an upstream record for neither.
    """
    if not boundary:
        return batch
    derived_here = manager.derived_here
    return [tup for tup in batch if derived_here(tup)]


class UnfoldMapOperator(SingleInputOperator):
    """The Map of Figure 5B: expands each tuple into its originating tuples.

    For every input tuple ``t`` it applies ``findProvenance`` (through the
    installed provenance manager) and emits one block holding every
    originating tuple.  ``boundary`` applies the boundary SU's rule (see
    :func:`_to_unfold`).
    """

    max_inputs = 1
    max_outputs = 1

    def __init__(self, name: str, boundary: bool = False) -> None:
        super().__init__(name)
        self.boundary = boundary

    def process_batch(self, batch: Sequence[StreamTuple]) -> None:
        manager = self.provenance
        for tup in _to_unfold(batch, manager, self.boundary):
            origins = manager.unfold(tup)
            if origins:
                out = unfold_block(tup, origins, manager, self.name)
                manager.on_map_output(out, tup)
                self.emit(out)


class SUOperator(SingleInputOperator):
    """Fused single-stream unfolder (Definition 5.2, Figure 5A).

    Output port 0 is ``SO`` (the exact copy feeding the Sink), output port 1
    is ``U`` (the unfolded stream).  Connect the data consumer first and the
    provenance consumer second.

    Unfolded blocks leave without a metadata block: they carry their
    provenance in their source entries and are leaves for whatever consumes them
    (the provenance Sink, or a Send towards the MU).  The Figure 5B
    composition (:class:`UnfoldMapOperator`) is a standard Map and links its
    outputs like one; the blocks of the two are otherwise identical.
    ``boundary`` applies the boundary SU's rule (see :func:`_to_unfold`).
    """

    max_inputs = 1
    max_outputs = 2

    #: output port delivering the unmodified input stream.
    DATA_PORT = 0
    #: output port delivering the unfolded stream.
    UNFOLDED_PORT = 1

    def __init__(self, name: str, boundary: bool = False) -> None:
        super().__init__(name)
        self.boundary = boundary

    def process_batch(self, batch: Sequence[StreamTuple]) -> None:
        # One pass-through emit and one unfolded emit per input batch
        # (instead of one stream push + consumer wake per tuple).
        manager = self.provenance
        name = self.name
        unfold = manager.unfold
        unfolded: List[StreamTuple] = []
        append = unfolded.append
        tracer = self.tracer
        started = tracer.clock() if tracer is not None else 0.0
        for tup in _to_unfold(batch, manager, self.boundary):
            origins = unfold(tup)
            if origins:
                append(unfold_block(tup, origins, manager, name))
        if tracer is not None:
            tracer.record("provenance.unfold", self.name, started, count=len(unfolded))
        self.emit_many(batch, self.DATA_PORT)
        if unfolded:
            self.emit_many(unfolded, self.UNFOLDED_PORT)


def add_su(
    query: Query, name: str = "su", fused: bool = True, boundary: bool = False
) -> Tuple[Operator, Operator]:
    """Add an SU to ``query`` with its input left unconnected.

    Returns ``(data_operator, unfolded_operator)``: feed the stream to
    unfold into ``data_operator`` (e.g. with :meth:`Query.splice`), connect
    the Sink (or the Send feeding the next instance) to its next free output
    port, and the provenance consumer to ``unfolded_operator``.

    With ``fused=True`` a single :class:`SUOperator` is used; with
    ``fused=False`` the standard-operator composition of Figure 5B
    (Multiplex + unfolding Map) is built instead.  ``boundary=True`` marks
    an SU spliced before a cut Send rather than a Sink.
    """
    if fused:
        su = query.add(SUOperator(name, boundary))
        return su, su
    multiplex = query.add_multiplex(f"{name}_multiplex")
    unfold = query.add(UnfoldMapOperator(f"{name}_unfold", boundary))
    query.connect(multiplex, unfold)
    return multiplex, unfold


def attach_su(
    query: Query,
    producer: Operator,
    name: str = "su",
    fused: bool = True,
    boundary: bool = False,
) -> Tuple[Operator, Operator]:
    """Insert an SU fed by ``producer`` into ``query`` (see :func:`add_su`)."""
    data_out, unfolded_out = add_su(query, name=name, fused=fused, boundary=boundary)
    query.connect(producer, data_out)
    return data_out, unfolded_out
