"""Ariadne-style baseline provenance (the "BL" technique of the evaluation).

The baseline follows the state-of-the-art approach the paper compares
against (Glavic et al., "Efficient stream provenance via operator
instrumentation"): every tuple is annotated with the *variable-length list of
identifiers* of the source tuples that contributed to it, and all source
tuples are kept in a temporary store so that the annotation of a sink tuple
can later be joined back to the actual source data.

The two structural downsides the paper points out fall out of this
implementation directly:

* the annotation grows with the number of contributing source tuples (it is
  copied and concatenated at every operator), and
* the store retains *every* source tuple -- contributing or not -- because
  whether a source tuple contributed is only known once sink tuples are
  inspected.
"""

from __future__ import annotations

import itertools
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.spe.operators.base import MultiInputOperator
from repro.spe.provenance_api import ProvenanceManager
from repro.spe.tuples import StreamTuple


class BaselineAnnotation:
    """Variable-length provenance annotation carried by every tuple under BL."""

    __slots__ = ("tuple_id", "source_ids")

    def __init__(self, tuple_id: str, source_ids: Tuple[str, ...]) -> None:
        self.tuple_id = tuple_id
        self.source_ids = source_ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BaselineAnnotation(id={self.tuple_id!r}, sources={len(self.source_ids)})"


class AriadneBaselineProvenance(ProvenanceManager):
    """Annotation-list + source-store provenance (the paper's BL comparator)."""

    name = "BL"

    def __init__(self, node_id: str = "local", record_traversal_times: bool = True) -> None:
        self.node_id = node_id
        self.record_traversal_times = record_traversal_times
        self.traversal_times_s: List[float] = []
        #: every source tuple seen so far, keyed by its unique id.
        self.source_store: Dict[str, StreamTuple] = {}
        self.missing_sources = 0
        self._id_counter = itertools.count()

    # -- id management ---------------------------------------------------------
    def _new_id(self) -> str:
        return f"{self.node_id}:{next(self._id_counter)}"

    def tuple_id(self, tup: StreamTuple) -> Optional[str]:
        annotation = self._annotation(tup)
        return annotation.tuple_id if annotation is not None else None

    @staticmethod
    def _annotation(tup: StreamTuple) -> Optional[BaselineAnnotation]:
        meta = tup.meta
        return meta if isinstance(meta, BaselineAnnotation) else None

    def _require_annotation(self, tup: StreamTuple) -> BaselineAnnotation:
        annotation = self._annotation(tup)
        if annotation is None:
            # A tuple created outside instrumented operators is treated as a
            # source tuple, mirroring GeneaLog's behaviour for bare tuples.
            annotation = self._register_source(tup)
        return annotation

    def _register_source(self, tup: StreamTuple) -> BaselineAnnotation:
        tuple_id = self._new_id()
        annotation = BaselineAnnotation(tuple_id, (tuple_id,))
        tup.meta = annotation
        self.source_store[tuple_id] = tup
        return annotation

    # -- instrumented creation hooks -----------------------------------------------
    def on_source_output(self, tup: StreamTuple) -> None:
        self._register_source(tup)

    def on_map_output(self, out_tuple: StreamTuple, in_tuple: StreamTuple) -> None:
        parent = self._require_annotation(in_tuple)
        out_tuple.meta = BaselineAnnotation(self._new_id(), tuple(parent.source_ids))

    def on_multiplex_output(self, out_tuple: StreamTuple, in_tuple: StreamTuple) -> None:
        self.on_map_output(out_tuple, in_tuple)

    def on_join_output(
        self, out_tuple: StreamTuple, newer: StreamTuple, older: StreamTuple
    ) -> None:
        newer_annotation = self._require_annotation(newer)
        older_annotation = self._require_annotation(older)
        out_tuple.meta = BaselineAnnotation(
            self._new_id(), newer_annotation.source_ids + older_annotation.source_ids
        )

    def on_aggregate_output(
        self,
        out_tuple: StreamTuple,
        window: Sequence[StreamTuple],
        contributors: Optional[Sequence[StreamTuple]] = None,
    ) -> None:
        relevant = window if contributors is None else contributors
        combined: List[str] = []
        for window_tuple in relevant:
            combined.extend(self._require_annotation(window_tuple).source_ids)
        out_tuple.meta = BaselineAnnotation(self._new_id(), tuple(combined))

    # -- process boundary hooks ---------------------------------------------------------
    def on_send(self, tup: StreamTuple) -> Dict[str, Any]:
        annotation = self._require_annotation(tup)
        return {
            "id": annotation.tuple_id,
            "sources": list(annotation.source_ids),
            # A tuple that derives from exactly one source tuple still carries
            # that source tuple's payload (it was only copied or forwarded),
            # so the receiving side can use it to populate its source store.
            "is_source": len(annotation.source_ids) == 1,
        }

    def on_receive(self, tup: StreamTuple, payload: Dict[str, Any]) -> None:
        tuple_id = payload.get("id") or self._new_id()
        source_ids = tuple(payload.get("sources", ()))
        annotation = BaselineAnnotation(tuple_id, source_ids or (tuple_id,))
        tup.meta = annotation
        if payload.get("is_source") and source_ids:
            # Source tuples shipped to a provenance node are stored there so
            # that annotations of sink tuples can be joined back to them.
            self.source_store.setdefault(source_ids[0], tup)

    # -- provenance retrieval --------------------------------------------------------------
    def unfold(self, tup: StreamTuple) -> List[StreamTuple]:
        started = time.perf_counter() if self.record_traversal_times else 0.0
        annotation = self._require_annotation(tup)
        originating: List[StreamTuple] = []
        for source_id in annotation.source_ids:
            source = self.source_store.get(source_id)
            if source is None:
                self.missing_sources += 1
                continue
            originating.append(source)
        if self.record_traversal_times:
            self.traversal_times_s.append(time.perf_counter() - started)
        return originating

    # -- accounting ----------------------------------------------------------------------------
    def retained_items(self) -> int:
        return len(self.source_store)

    def retained_bytes(self) -> int:
        total = 0
        for tup in self.source_store.values():
            total += sys.getsizeof(tup.values)
            total += sum(sys.getsizeof(v) for v in tup.values.values())
        return total


class BaselineProvenanceResolver(MultiInputOperator):
    """Joins annotated sink tuples back to the shipped source store (BL, distributed).

    In the baseline's distributed deployment every source stream is shipped to
    the provenance node and every (annotated) sink tuple is shipped there too.
    This operator consumes both:

    * input port 0 -- the raw source stream(s); the tuples were already put
      into the local manager's store by the Receive operator, so they are
      simply dropped here (the port exists to drive the watermark),
    * input port 1 -- the annotated sink tuples; each one is buffered until
      the combined watermark guarantees that every source tuple it references
      has arrived (``sink.ts + retention``), and is then expanded into one
      unfolded block holding every referenced source tuple.
    """

    max_inputs = 2
    max_outputs = 1

    SOURCES_PORT = 0
    SINKS_PORT = 1

    def __init__(self, name: str, retention: float) -> None:
        super().__init__(name)
        self.retention = float(retention)
        self._pending: List[StreamTuple] = []

    def process_tuple(self, tup: StreamTuple, input_index: int) -> None:
        if input_index == self.SOURCES_PORT:
            return
        self._pending.append(tup)

    def on_watermark(self, watermark: float) -> None:
        self._resolve_up_to(watermark)

    def on_close(self) -> None:
        self._resolve_up_to(float("inf"))

    def _resolve_up_to(self, watermark: float) -> None:
        from repro.core.unfolder import unfold_block

        remaining: List[StreamTuple] = []
        for sink_tuple in self._pending:
            if watermark != float("inf") and sink_tuple.ts + self.retention > watermark:
                remaining.append(sink_tuple)
                continue
            origins = self.provenance.unfold(sink_tuple)
            if origins:
                self.emit(unfold_block(sink_tuple, origins, self.provenance, self.name))
        self._pending = remaining

    def output_watermark_for(self, input_watermark: float) -> float:
        if input_watermark == float("inf"):
            return input_watermark
        return input_watermark - self.retention

    def buffered_tuples(self) -> int:
        """Number of sink tuples waiting for their sources to arrive."""
        return len(self._pending)
