"""High-level provenance API.

This module is the entry point most users need:

* :class:`ProvenanceMode` selects the technique (``NONE``/NP, ``GENEALOG``/GL,
  ``BASELINE``/BL),
* :func:`create_manager` builds the corresponding
  :class:`~repro.spe.provenance_api.ProvenanceManager`,
* :class:`ProvenanceCollector` turns the unfolded stream reaching a
  provenance Sink into per-sink-tuple :class:`ProvenanceRecord` objects.

The :class:`~repro.api.pipeline.Pipeline` builder splices the capture itself:
an SU before each captured Sink when the plan has no cut edge (Theorem 5.3),
SUs before every cut plus an MU on a provenance instance when it has
(section 6); either way ``PipelineResult.collectors`` holds one collector
per captured Sink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Sequence

from repro.core.baseline import AriadneBaselineProvenance
from repro.core.instrumentation import GeneaLogProvenance
from repro.core.unfolder import ORIGIN_TS_FIELD
from repro.spe.provenance_api import NoProvenance, ProvenanceManager
from repro.spe.tuples import UnfoldedBlock


class ProvenanceMode(Enum):
    """Provenance technique selector, named as in the paper's evaluation."""

    #: no provenance capture at all (the paper's "NP").
    NONE = "NP"
    #: GeneaLog: fixed-size metadata + memory-reclamation based retention ("GL").
    GENEALOG = "GL"
    #: Ariadne-style annotation lists + source store ("BL").
    BASELINE = "BL"

    @classmethod
    def from_label(cls, label: str) -> "ProvenanceMode":
        """Parse "NP"/"GL"/"BL" (or enum member names) into a mode."""
        normalised = label.strip().upper()
        for mode in cls:
            if normalised in (mode.value, mode.name):
                return mode
        raise ValueError(f"unknown provenance mode {label!r}")

    @property
    def label(self) -> str:
        """The two-letter label used in the paper's figures."""
        return self.value


def create_manager(mode: ProvenanceMode, node_id: str = "local") -> ProvenanceManager:
    """Instantiate the provenance manager implementing ``mode``."""
    if mode is ProvenanceMode.NONE:
        return NoProvenance()
    if mode is ProvenanceMode.GENEALOG:
        return GeneaLogProvenance(node_id=node_id)
    if mode is ProvenanceMode.BASELINE:
        return AriadneBaselineProvenance(node_id=node_id)
    raise ValueError(f"unknown provenance mode {mode!r}")


@dataclass
class ProvenanceRecord:
    """The fine-grained provenance of one sink tuple."""

    #: timestamp of the sink tuple.
    sink_ts: float
    #: unique id of the sink tuple (None when ids are not assigned).
    sink_id: Optional[str]
    #: attributes of the sink tuple.
    sink_values: Dict[str, Any]
    #: one entry per originating source tuple: (ts, id, type, attributes).
    sources: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def source_count(self) -> int:
        """Number of source tuples contributing to the sink tuple."""
        return len(self.sources)

    def source_timestamps(self) -> List[float]:
        """Timestamps of the contributing source tuples, sorted."""
        return sorted(entry[ORIGIN_TS_FIELD] for entry in self.sources)


class ProvenanceCollector:
    """Turns unfolded blocks into :class:`ProvenanceRecord` objects.

    An instance of this class is attached to the provenance Sink as a tap
    (it has the shape of a :class:`~repro.provstore.tap.ProvenanceTap`) and
    consumes the unfolded stream one Sink batch at a time.  A record adopts
    its block's sink payload and source entries as they are; a later block
    for the same ``sink_id`` (an MU match that arrived late) extends it.  The
    paper stores the same information on disk; keeping it in memory makes it
    available to tests and to the benchmark.
    """

    def __init__(self, name: str = "provenance") -> None:
        self.name = name
        self._records: Dict[Any, ProvenanceRecord] = {}
        #: (sink tuple, source tuple) pairs consumed (Definition 6.2 tuples).
        self.unfolded_tuples = 0

    def add(self, unfolded: UnfoldedBlock) -> None:
        """Consume one unfolded block."""
        self.on_batch((unfolded,))

    def on_batch(self, batch: Sequence[UnfoldedBlock]) -> None:
        """Consume a batch of unfolded blocks, in stream order."""
        records = self._records
        pairs = 0
        for block in batch:
            sources = block.sources
            pairs += len(sources)
            sink_key = block.sink_id
            if sink_key is None:
                # an id-less sink tuple gets a record of its own (the
                # record count is unique; an object id can be reused).
                sink_key = (block.sink_ts, len(records))
            record = records.get(sink_key)
            if record is None:
                records[sink_key] = ProvenanceRecord(
                    block.sink_ts, block.sink_id, block.values, sources
                )
            else:  # a new list: the adopted one stays the first block's
                record.sources = record.sources + sources
        self.unfolded_tuples += pairs

    def on_watermark(self, watermark: float) -> None:
        """Tap protocol: records need no sealing."""

    def on_close(self) -> None:
        """Tap protocol: nothing to release."""

    def records(self) -> List[ProvenanceRecord]:
        """Every provenance record collected so far (one per sink tuple)."""
        return list(self._records.values())

    def record_for(self, sink_id: Any) -> Optional[ProvenanceRecord]:
        """The record of the sink tuple with unique id ``sink_id``."""
        return self._records.get(sink_id)

    def __len__(self) -> int:
        return len(self._records)
