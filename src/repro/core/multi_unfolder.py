"""The multi-stream unfolder (MU) operator of section 6.

The MU operator completes the unfolding of a *derived* stream (the unfolded
delivering stream of the local instance) using one or more *upstream*
unfolded delivering streams received from instances closer to the sources
(Definition 6.4):

* a derived tuple whose originating part is of type SOURCE is already
  complete and is forwarded unchanged;
* a derived tuple whose originating part is of type REMOTE is replaced by the
  upstream tuples whose (delivering) ``sink_id`` equals the derived tuple's
  ``id_o`` -- i.e. the upstream unfolding of the very tuple that crossed the
  process boundary.

The replacement is applied *recursively* by the fused MU: when the matched
upstream tuple's own originating part is still REMOTE (its producing instance
was itself fed across a process boundary, as happens with chained boundaries
-- e.g. key-sharded stages whose partition, replicas and merge live on
different instances), the combined tuple re-enters the derived path and keeps
resolving against deeper upstream streams until it bottoms out at SOURCE
tuples.

Two implementations are provided, as in the paper: the fused
:class:`MUOperator` and :func:`attach_mu` with ``fused=False``, the
composition of standard operators of Figure 8 (Union of the upstream
streams, a Join matching ``ID`` with ``IDO``, and a Multiplex/Filter/Union
bypass for SOURCE tuples in the derived stream).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Set, Tuple

from repro.core.types import TupleType
from repro.core.unfolder import (
    ORIGIN_ID_FIELD,
    ORIGIN_TYPE_FIELD,
    SINK_ID_FIELD,
    unfolded_schema,
)
from repro.spe.operators.base import MultiInputOperator, Operator
from repro.spe.query import Query
from repro.spe.tuples import StreamTuple


#: enum value aliases for the per-tuple matching below.
_SOURCE_VALUE = TupleType.SOURCE.value
_REMOTE_VALUE = TupleType.REMOTE.value


def combine_derived_and_upstream(
    derived: StreamTuple, upstream: StreamTuple
) -> Dict[str, Any]:
    """Merge a derived tuple's sink part with an upstream tuple's origin part.

    This implements the "replacement" of Definition 6.4: the REMOTE
    originating tuple carried by ``derived`` is substituted by the originating
    tuples that ``upstream`` (produced on the instance that created the REMOTE
    tuple) carries.
    """
    kept = derived.values
    values = {key: kept[key] for key in unfolded_schema(tuple(kept)).sink_part}
    taken = upstream.values
    for key in unfolded_schema(tuple(taken)).origin_part:
        values[key] = taken[key]
    return values


class MUOperator(MultiInputOperator):
    """Fused multi-stream unfolder (Definition 6.4, Figure 6).

    Input port 0 must carry the derived stream; every further input port is
    an upstream unfolded delivering stream.  ``retention`` bounds how far
    apart (in event time) a derived tuple and the matching upstream tuples
    can be; the paper sets it to the sum of the window sizes of the stateful
    operators deployed on the instance producing the derived stream.
    """

    max_inputs = None
    max_outputs = 1

    DERIVED_PORT = 0

    def __init__(self, name: str, retention: float) -> None:
        super().__init__(name)
        self.retention = float(retention)
        self._upstream_by_id: Dict[str, List[StreamTuple]] = {}
        self._upstream_order: Deque[StreamTuple] = deque()
        #: (sink_id, id_o) pairs already indexed; a logical tuple whose id
        #: crosses several process boundaries (e.g. multiplex copies, which
        #: share their input's id) ships the same unfolding record on every
        #: boundary's upstream stream, and double-matching it would duplicate
        #: sources in the final provenance.
        self._upstream_pairs: Set[Tuple[Any, Any]] = set()
        self._derived_by_origin: Dict[str, List[StreamTuple]] = {}
        self._derived_order: Deque[StreamTuple] = deque()

    # -- processing --------------------------------------------------------------
    def process_tuple(self, tup: StreamTuple, input_index: int) -> None:
        if input_index == self.DERIVED_PORT:
            self._process_derived(tup)
        else:
            self._process_upstream(tup)

    def _process_derived(self, derived: StreamTuple) -> None:
        values = derived.values
        if values.get(ORIGIN_TYPE_FIELD) == _SOURCE_VALUE:
            self.emit(derived)
            return
        origin_id = values.get(ORIGIN_ID_FIELD)
        for upstream in self._upstream_by_id.get(origin_id, ()):  # already received
            self._emit_combined(derived, upstream)
        self._derived_by_origin.setdefault(origin_id, []).append(derived)
        self._derived_order.append(derived)

    def _process_upstream(self, upstream: StreamTuple) -> None:
        values = upstream.values
        sink_id = values.get(SINK_ID_FIELD)
        if (
            sink_id == values.get(ORIGIN_ID_FIELD)
            and values.get(ORIGIN_TYPE_FIELD) == _REMOTE_VALUE
        ):
            # REMOTE identity record: a boundary SU unfolded a tuple that
            # merely *passed through* its instance (Receive -> forwarding
            # operators -> Send), so the unfolding is the tuple itself.  It
            # adds no provenance information -- the informative record for
            # this id comes from the boundary where the id was minted -- and
            # combining with it would loop the recursive replacement forever.
            # Pipeline-built deployments no longer send identity records (a
            # boundary SU unfolds only tuples its instance derived); the
            # guard stays for hand-built ones.  (SOURCE identity records are
            # kept: they terminate a chain by delivering the originating
            # source tuple's payload.)
            return
        pair = (sink_id, values.get(ORIGIN_ID_FIELD))
        if pair in self._upstream_pairs:
            return
        self._upstream_pairs.add(pair)
        self._upstream_by_id.setdefault(sink_id, []).append(upstream)
        self._upstream_order.append(upstream)
        for derived in self._derived_by_origin.get(sink_id, ()):  # waiting derived tuples
            self._emit_combined(derived, upstream)

    def _emit_combined(self, derived: StreamTuple, upstream: StreamTuple) -> None:
        out = StreamTuple.owned(
            ts=max(derived.ts, upstream.ts),
            values=combine_derived_and_upstream(derived, upstream),
        )
        out.wall = max(derived.wall, upstream.wall)
        newer, older = (derived, upstream) if derived.ts >= upstream.ts else (upstream, derived)
        self.provenance.on_join_output(out, newer, older)
        if out.values.get(ORIGIN_TYPE_FIELD) != _SOURCE_VALUE:
            # The upstream unfolding itself crossed a process boundary
            # (chained boundaries): the combined tuple still references a
            # REMOTE originating tuple, so it becomes a derived tuple again
            # and keeps resolving against the deeper upstream streams.  The
            # chain of unique ids is finite and acyclic (each hop moves one
            # instance closer to the sources), so this terminates.
            self._process_derived(out)
            return
        self.emit(out)

    # -- state management -----------------------------------------------------------
    def on_close(self) -> None:
        self._upstream_by_id.clear()
        self._upstream_order.clear()
        self._upstream_pairs.clear()
        self._derived_by_origin.clear()
        self._derived_order.clear()

    def on_watermark(self, watermark: float) -> None:
        if watermark == float("inf"):
            return
        horizon = watermark - self.retention
        for tup in self._purge(
            self._upstream_order, self._upstream_by_id, SINK_ID_FIELD, horizon
        ):
            self._upstream_pairs.discard(
                (tup.get(SINK_ID_FIELD), tup.get(ORIGIN_ID_FIELD))
            )
        self._purge(self._derived_order, self._derived_by_origin, ORIGIN_ID_FIELD, horizon)

    @staticmethod
    def _purge(
        order: Deque[StreamTuple],
        index: Dict[str, List[StreamTuple]],
        key_field: str,
        horizon: float,
    ) -> List[StreamTuple]:
        purged: List[StreamTuple] = []
        while order and order[0].ts < horizon:
            tup = order.popleft()
            purged.append(tup)
            key = tup.get(key_field)
            bucket = index.get(key)
            if not bucket:
                continue
            try:
                bucket.remove(tup)
            except ValueError:  # pragma: no cover - tuple already removed
                pass
            if not bucket:
                del index[key]
        return purged

    def buffered_tuples(self) -> int:
        """Number of tuples currently buffered while waiting for matches."""
        return len(self._upstream_order) + len(self._derived_order)


def attach_mu(
    query: Query,
    retention: float,
    upstream_count: int,
    name: str = "mu",
    fused: bool = True,
    derived_may_contain_sources: bool = True,
) -> "MUPorts":
    """Create an MU inside ``query`` and return its connection points.

    With ``fused=True`` a single :class:`MUOperator` is added.  With
    ``fused=False`` the standard-operator composition of Figure 8 is built: a
    Union merging the upstream streams (only when there are two or more), a
    Join matching upstream ``sink_id`` with derived ``id_o`` (keyed on those
    two fields, so each tuple probes only its id's bucket), and -- when the
    derived stream may contain SOURCE tuples -- a Multiplex plus two Filters
    and a final Union that bypass complete tuples around the Join.
    """
    if fused:
        mu = query.add(MUOperator(name, retention))
        return MUPorts(derived_entry=mu, upstream_entry=mu, output=mu, fused=True)

    join = query.add_join(
        f"{name}_join",
        window_size=retention,
        predicate=lambda upstream, derived: upstream.get(SINK_ID_FIELD)
        == derived.get(ORIGIN_ID_FIELD),
        combiner=lambda upstream, derived: combine_derived_and_upstream(derived, upstream),
        keys=(
            lambda upstream: upstream.get(SINK_ID_FIELD),
            lambda derived: derived.get(ORIGIN_ID_FIELD),
        ),
    )
    # The upstream union is always created (even for a single upstream
    # stream) so that the Join's left input is guaranteed to be the upstream
    # side regardless of the order in which the caller wires the streams.
    upstream_union = query.add_union(f"{name}_upstream_union")
    query.connect(upstream_union, join)
    upstream_entry: Operator = upstream_union

    if derived_may_contain_sources:
        multiplex = query.add_multiplex(f"{name}_multiplex")
        not_source = query.add_filter(
            f"{name}_filter_remote",
            lambda t: t.get(ORIGIN_TYPE_FIELD) != TupleType.SOURCE.value,
        )
        only_source = query.add_filter(
            f"{name}_filter_source",
            lambda t: t.get(ORIGIN_TYPE_FIELD) == TupleType.SOURCE.value,
        )
        output_union = query.add_union(f"{name}_output_union")
        query.connect(multiplex, not_source)
        query.connect(multiplex, only_source)
        query.connect(not_source, join)
        query.connect(only_source, output_union)
        query.connect(join, output_union)
        return MUPorts(
            derived_entry=multiplex,
            upstream_entry=upstream_entry,
            output=output_union,
            fused=False,
        )

    query_derived_entry = join
    return MUPorts(
        derived_entry=query_derived_entry,
        upstream_entry=upstream_entry,
        output=join,
        fused=False,
    )


class MUPorts:
    """Connection points of an MU created by :func:`attach_mu`.

    * connect the derived stream's producer (or Receive) to ``derived_entry``,
    * connect every upstream stream's producer (or Receive) to
      ``upstream_entry``,
    * connect ``output`` to the provenance Sink (or to a Send for deeper
      deployments).

    For the fused MU the derived stream must be connected **first** (it must
    own input port 0).  For the composed MU, the upstream side must be
    connected to the Join **before** the derived side (the Join's left input
    is the upstream union), which :func:`attach_mu` already guarantees.
    """

    def __init__(
        self,
        derived_entry: Operator,
        upstream_entry: Operator,
        output: Operator,
        fused: bool,
    ) -> None:
        self.derived_entry = derived_entry
        self.upstream_entry = upstream_entry
        self.output = output
        self.fused = fused
