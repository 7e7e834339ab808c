"""The single-stream unfolder (SU) operator of section 5.

The SU operator has one input stream and two output streams: ``SO`` is an
exact copy of the input (it keeps feeding the Sink), and ``U`` is the
*unfolded* stream in which every tuple is replaced by its originating tuples
combined with the tuple's own attributes (Definitions 4.1 and 5.1).

Two implementations are provided, as in the paper:

* :class:`SUOperator` -- the efficient "fused" user-defined operator,
* :func:`add_su` with ``fused=False`` -- the composition of standard
  operators of Figure 5B (a Multiplex feeding the Sink and an unfolding Map).

Both produce identical unfolded streams; a test asserts this equivalence.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, List, NamedTuple, Sequence, Set, Tuple

from repro.core.meta import GeneaLogMeta
from repro.core.types import TupleType
from repro.spe.errors import ReservedAttributeError
from repro.spe.operators.base import Operator, SingleInputOperator
from repro.spe.provenance_api import ProvenanceManager
from repro.spe.query import Query
from repro.spe.tuples import StreamTuple

#: attribute names added to every unfolded tuple.
SINK_TS_FIELD = "sink_ts"
SINK_ID_FIELD = "sink_id"
ORIGIN_TS_FIELD = "ts_o"
ORIGIN_ID_FIELD = "id_o"
ORIGIN_TYPE_FIELD = "type_o"
SINK_PREFIX = "sink_"


#: enum-member -> value string, bypassing the DynamicClassAttribute property
#: (one descriptor call per unfolded tuple adds up at provenance rates).
_TYPE_VALUE = {member: member.value for member in TupleType}
_SOURCE_VALUE = TupleType.SOURCE.value

#: schema tuple -> ``sink_``-prefixed schema tuple.  Unfolded tuples are
#: produced once per sink tuple / source tuple pair, and re-prefixing the
#: same handful of schemas each time is pure overhead.
_PREFIXED_KEYS: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

#: origin attribute names already admitted (none of them reserved): one C-level
#: superset test per unfolded tuple, one scan per new name.
_ORIGIN_NAMES: Set[str] = set()

#: the unfolded attributes that are neither sink nor origin payload.
_SINK_IDENTITY = (SINK_TS_FIELD, SINK_ID_FIELD)
_ORIGIN_IDENTITY = (ORIGIN_TS_FIELD, ORIGIN_ID_FIELD, ORIGIN_TYPE_FIELD)


class UnfoldedSchema(NamedTuple):
    """How one unfolded schema (Definition 6.2) splits into its two halves."""

    #: every ``sink_`` key, ``sink_ts`` / ``sink_id`` included, in schema
    #: order: what the MU keeps of a derived tuple.
    sink_part: Tuple[str, ...]
    #: every other key (origin payload plus ``ts_o`` / ``id_o`` / ``type_o``):
    #: what the MU takes from an upstream tuple, and one collector source.
    origin_part: Tuple[str, ...]
    #: ``(sink_<name>, <name>)`` per sink payload attribute.
    sink_attrs: Tuple[Tuple[str, str], ...]
    #: the origin payload attributes alone.
    origin_attrs: Tuple[str, ...]


@lru_cache(maxsize=1024)
def unfolded_schema(keys: Tuple[str, ...]) -> UnfoldedSchema:
    """Split an unfolded tuple's key tuple; the inverse of ``_PREFIXED_KEYS``.

    The one place that knows how Definition 6.2 lays sink and origin
    attributes out in a flat mapping.  Every consumer of the unfolded stream
    (MU, collector, ledger) reads the split from here, once per schema.
    """
    sink_part = tuple(key for key in keys if key.startswith(SINK_PREFIX))
    origin_part = tuple(key for key in keys if key not in sink_part)
    return UnfoldedSchema(
        sink_part,
        origin_part,
        tuple(
            (key, key[len(SINK_PREFIX):])
            for key in sink_part
            if key not in _SINK_IDENTITY
        ),
        tuple(key for key in origin_part if key not in _ORIGIN_IDENTITY),
    )


def _reserved(operator: str, side: str, name: str) -> ReservedAttributeError:
    return ReservedAttributeError(
        f"unfolder {operator!r}: {side} attribute {name!r} collides with the "
        "unfolded schema (reserved: sink attributes 'ts' and 'id'; origin "
        f"attributes {SINK_PREFIX}*, {', '.join(_ORIGIN_IDENTITY)}); rename it "
        "upstream of the sink"
    )


def _admit_origin_names(names: Tuple[str, ...], operator: str) -> None:
    """Admit an origin schema's attribute names, or reject a reserved one.

    Origin attributes must survive the split untouched: a name the split
    would file under the sink, or take for ts_o / id_o / type_o, is reserved.
    """
    payload = unfolded_schema(names).origin_attrs
    if len(payload) != len(names):
        raise _reserved(operator, "origin", next(n for n in names if n not in payload))
    if len(_ORIGIN_NAMES) > 4096:  # degenerate dynamic schemas
        _ORIGIN_NAMES.clear()
    _ORIGIN_NAMES.update(names)


def origin_type_name(origin: StreamTuple) -> str:
    """The type (SOURCE or REMOTE) of an originating tuple, as a string.

    An origin without a GeneaLog metadata block (a bare tuple, or one
    annotated by another technique) is a SOURCE tuple.
    """
    meta = origin.meta
    return _TYPE_VALUE[meta.type] if isinstance(meta, GeneaLogMeta) else _SOURCE_VALUE


def _sink_base_values(
    unfolded_of: StreamTuple, manager: ProvenanceManager, operator: str
) -> Dict[str, Any]:
    """The sink-side half of an unfolded tuple's attributes.

    This part is identical for every originating tuple of one unfolded
    tuple, so the unfolders compute it once per input tuple and copy it per
    origin.  ``operator`` names the unfolder in the reserved-name error.
    """
    sink_values = unfolded_of.values
    keys = tuple(sink_values)
    prefixed = _PREFIXED_KEYS.get(keys)
    if prefixed is None:
        for name in ("ts", "id"):  # would be overwritten by sink_ts / sink_id
            if name in sink_values:
                raise _reserved(operator, "sink", name)
        if len(_PREFIXED_KEYS) > 1024:  # degenerate dynamic schemas
            _PREFIXED_KEYS.clear()
        prefixed = _PREFIXED_KEYS[keys] = tuple(SINK_PREFIX + key for key in keys)
    base: Dict[str, Any] = dict(zip(prefixed, sink_values.values()))
    base[SINK_TS_FIELD] = unfolded_of.ts
    base[SINK_ID_FIELD] = manager.tuple_id(unfolded_of)
    return base


def _with_origin(
    base: Dict[str, Any], origin: StreamTuple, manager: ProvenanceManager, operator: str
) -> Dict[str, Any]:
    """One unfolded tuple's attributes: sink-side ``base`` plus one origin."""
    origin_values = origin.values
    if not _ORIGIN_NAMES.issuperset(origin_values):
        _admit_origin_names(tuple(origin_values), operator)
    values = dict(base)
    values.update(origin_values)
    values[ORIGIN_TS_FIELD] = origin.ts
    values[ORIGIN_ID_FIELD] = manager.tuple_id(origin)
    values[ORIGIN_TYPE_FIELD] = origin_type_name(origin)
    return values


def make_unfolded_values(
    unfolded_of: StreamTuple,
    origin: StreamTuple,
    manager: ProvenanceManager,
    operator: str = "make_unfolded_values",
) -> Dict[str, Any]:
    """Build the attribute mapping of one unfolded tuple.

    The unfolded tuple carries the attributes of the tuple being unfolded
    (prefixed with ``sink_``) together with the originating tuple's
    attributes and its timestamp / unique id / type (``ts_o`` / ``id_o`` /
    ``type_o``, Definition 6.2).  ``operator`` names the caller in the error
    raised for a reserved attribute name.
    """
    base = _sink_base_values(unfolded_of, manager, operator)
    return _with_origin(base, origin, manager, operator)


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
    installed provenance manager) and emits one unfolded tuple per
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
            if not origins:
                continue
            base = _sink_base_values(tup, manager, self.name)
            for origin in origins:
                out = StreamTuple.owned(
                    ts=tup.ts, values=_with_origin(base, origin, manager, self.name)
                )
                out.wall = max(tup.wall, origin.wall)
                manager.on_map_output(out, tup)
                self.emit(out)


class SUOperator(SingleInputOperator):
    """Fused single-stream unfolder (Definition 5.2, Figure 5A).

    Output port 0 is ``SO`` (the exact copy feeding the Sink), output port 1
    is ``U`` (the unfolded stream).  Connect the data consumer first and the
    provenance consumer second.

    Unfolded tuples leave without a metadata block: they carry their
    provenance in their attributes and are leaves for whatever consumes them
    (the provenance Sink, or a Send towards the MU).  The Figure 5B
    composition (:class:`UnfoldMapOperator`) is a standard Map and links its
    outputs like one; the unfolded *values* of the two are identical.
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
        owned = StreamTuple.owned
        unfolded: List[StreamTuple] = []
        append = unfolded.append
        tracer = self.tracer
        started = tracer.clock() if tracer is not None else 0.0
        for tup in _to_unfold(batch, manager, self.boundary):
            origins = unfold(tup)
            if not origins:
                continue
            ts = tup.ts
            wall = tup.wall
            base = _sink_base_values(tup, manager, name)
            for origin in origins:
                out = owned(ts=ts, values=_with_origin(base, origin, manager, name))
                origin_wall = origin.wall
                out.wall = wall if wall >= origin_wall else origin_wall
                append(out)
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
