"""The multi-stream unfolder (MU) operator of section 6.

The MU operator completes the unfolding of a *derived* stream (the unfolded
delivering stream of the local instance) using one or more *upstream*
unfolded delivering streams received from instances closer to the sources
(Definition 6.4).  Both carry :class:`~repro.spe.tuples.UnfoldedBlock`
elements, one per sink tuple:

* a derived block's SOURCE entries are already complete and are kept;
* each REMOTE entry is replaced by the entries of the upstream blocks whose
  ``sink_id`` equals the entry's ``id_o`` -- i.e. the upstream unfolding of
  the very tuple that crossed the process boundary.

The replacement is applied *recursively* by the fused MU: when a matched
upstream block's own entries are still REMOTE (its producing instance was
itself fed across a process boundary, as happens with chained boundaries
-- e.g. key-sharded stages whose partition, replicas and merge live on
different instances), the combined block re-enters the derived path and keeps
resolving against deeper upstream streams until it bottoms out at SOURCE
entries.  A derived block emits what resolves on arrival as one block; a
REMOTE entry whose upstream block arrives later emits one more block for the
same sink tuple, which the collector and the ledger merge by ``sink_id``.

Two implementations are provided, as in the paper: the fused
:class:`MUOperator` and :func:`attach_mu` with ``fused=False``, the
composition of standard operators of Figure 8 (a FlatMap splitting derived
blocks into one-entry blocks, a Union of the upstream streams, a Join
matching ``ID`` with ``IDO``, and a Multiplex/Filter/Union bypass for SOURCE
entries in the derived stream).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple, cast

from repro.core.types import TupleType
from repro.core.unfolder import ORIGIN_ID_FIELD, ORIGIN_TYPE_FIELD
from repro.spe.operators.base import MultiInputOperator, Operator
from repro.spe.query import Query
from repro.spe.tuples import StreamTuple, UnfoldedBlock


#: enum value aliases for the per-entry matching below.
_SOURCE_VALUE = TupleType.SOURCE.value
_REMOTE_VALUE = TupleType.REMOTE.value

#: buffered blocks in arrival order, each with the id it is indexed under.
_Order = Deque[Tuple[Any, UnfoldedBlock]]


def _replaced(derived: UnfoldedBlock, upstream: UnfoldedBlock) -> UnfoldedBlock:
    """``derived``'s sink tuple with ``upstream``'s entries (Definition 6.4)."""
    return derived.with_sources(upstream.sources, max(derived.ts, upstream.ts))


class MUOperator(MultiInputOperator):
    """Fused multi-stream unfolder (Definition 6.4, Figure 6).

    Input port 0 must carry the derived stream; every further input port is
    an upstream unfolded delivering stream.  ``retention`` bounds how far
    apart (in event time) a derived block and the matching upstream blocks
    can be; the paper sets it to the sum of the window sizes of the stateful
    operators deployed on the instance producing the derived stream.
    """

    max_inputs = None
    max_outputs = 1

    DERIVED_PORT = 0

    def __init__(self, name: str, retention: float) -> None:
        super().__init__(name)
        self.retention = float(retention)
        self._upstream_by_id: Dict[Any, List[UnfoldedBlock]] = {}
        self._upstream_order: _Order = deque()
        #: (sink_id, id_o) pairs already indexed; a logical tuple whose id
        #: crosses several process boundaries (e.g. multiplex copies, which
        #: share their input's id) ships the same unfolding on every
        #: boundary's upstream stream, and double-matching it would duplicate
        #: sources in the final provenance.
        self._upstream_pairs: Set[Tuple[Any, Any]] = set()
        #: derived blocks waiting for an upstream block, by REMOTE ``id_o``.
        self._derived_by_origin: Dict[Any, List[UnfoldedBlock]] = {}
        self._derived_order: _Order = deque()

    # -- processing --------------------------------------------------------------
    def process_tuple(self, tup: StreamTuple, input_index: int) -> None:
        block = cast(UnfoldedBlock, tup)  # both sides carry unfolded streams
        if input_index == self.DERIVED_PORT:
            self._emit_resolved(block)
        else:
            self._process_upstream(block)

    def _emit_resolved(self, block: UnfoldedBlock) -> None:
        sources = self._resolve(block)
        if sources is block.sources:
            self.emit(block)
        elif sources:
            self.emit(block.with_sources(sources))

    def _resolve(self, block: UnfoldedBlock) -> List[Dict[str, Any]]:
        """``block``'s entries, REMOTE ones replaced by the matches known so far.

        Returns ``block.sources`` itself when every entry is SOURCE.  Each
        REMOTE entry parks ``block`` under its ``id_o`` for upstream blocks
        still to come.
        """
        sources = block.sources
        resolved: Optional[List[Dict[str, Any]]] = None
        for index, entry in enumerate(sources):
            if entry[ORIGIN_TYPE_FIELD] == _SOURCE_VALUE:
                if resolved is not None:
                    resolved.append(entry)
                continue
            if resolved is None:
                resolved = sources[:index]
            origin_id = entry[ORIGIN_ID_FIELD]
            for upstream in self._upstream_by_id.get(origin_id, ()):  # already received
                resolved += self._resolve(_replaced(block, upstream))
            self._derived_by_origin.setdefault(origin_id, []).append(block)
            self._derived_order.append((origin_id, block))
        return sources if resolved is None else resolved

    def _process_upstream(self, upstream: UnfoldedBlock) -> None:
        sink_id = upstream.sink_id
        pairs = self._upstream_pairs
        # A REMOTE identity entry (sink_id == id_o) unfolds a tuple that only
        # *passed through* a boundary SU's instance: it adds nothing, and
        # replacing with it would loop the recursion forever.  Pipeline-built
        # deployments never send one (a boundary SU unfolds only what its
        # instance derived); the guard is for hand-built ones.  SOURCE
        # identity entries stay: they end a chain with the source payload.
        fresh = [
            entry
            for entry in upstream.sources
            if (sink_id, entry[ORIGIN_ID_FIELD]) not in pairs
            and not (
                entry[ORIGIN_ID_FIELD] == sink_id
                and entry[ORIGIN_TYPE_FIELD] == _REMOTE_VALUE
            )
        ]
        if not fresh:
            return
        pairs.update((sink_id, entry[ORIGIN_ID_FIELD]) for entry in fresh)
        if len(fresh) != len(upstream.sources):
            upstream = upstream.with_sources(fresh)
        self._upstream_by_id.setdefault(sink_id, []).append(upstream)
        self._upstream_order.append((sink_id, upstream))
        for derived in tuple(self._derived_by_origin.get(sink_id, ())):  # waiting blocks
            self._emit_resolved(_replaced(derived, upstream))

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
        for block in self._purge(self._upstream_order, self._upstream_by_id, horizon):
            self._upstream_pairs.difference_update(
                (block.sink_id, entry[ORIGIN_ID_FIELD]) for entry in block.sources
            )
        self._purge(self._derived_order, self._derived_by_origin, horizon)

    @staticmethod
    def _purge(
        order: _Order, index: Dict[Any, List[UnfoldedBlock]], horizon: float
    ) -> List[UnfoldedBlock]:
        purged: List[UnfoldedBlock] = []
        while order and order[0][1].ts < horizon:
            key, block = order.popleft()
            purged.append(block)
            bucket = index.get(key)
            if not bucket:
                continue
            try:
                bucket.remove(block)
            except ValueError:  # pragma: no cover - block already removed
                pass
            if not bucket:
                del index[key]
        return purged

    def buffered_tuples(self) -> int:
        """Number of blocks currently buffered while waiting for matches."""
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

    def remote_id(derived: UnfoldedBlock) -> Any:
        return derived.sources[0][ORIGIN_ID_FIELD]

    join = query.add_join(
        f"{name}_join",
        window_size=retention,
        predicate=lambda upstream, derived: upstream.sink_id == remote_id(derived),
        combiner=lambda upstream, derived: _replaced(derived, upstream),
        keys=(lambda upstream: upstream.sink_id, remote_id),
    )
    # Derived blocks enter one entry per block, the unit the Join matches.
    split = query.add_flatmap(
        f"{name}_split",
        lambda block: [block.with_sources([entry]) for entry in block.sources],
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
            lambda t: t.sources[0][ORIGIN_TYPE_FIELD] != _SOURCE_VALUE,
        )
        only_source = query.add_filter(
            f"{name}_filter_source",
            lambda t: t.sources[0][ORIGIN_TYPE_FIELD] == _SOURCE_VALUE,
        )
        output_union = query.add_union(f"{name}_output_union")
        query.connect(split, multiplex)
        query.connect(multiplex, not_source)
        query.connect(multiplex, only_source)
        query.connect(not_source, join)
        query.connect(only_source, output_union)
        query.connect(join, output_union)
        return MUPorts(
            derived_entry=split,
            upstream_entry=upstream_entry,
            output=output_union,
            fused=False,
        )

    query.connect(split, join)
    return MUPorts(
        derived_entry=split,
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
