"""Persistence backends of the provenance ledger.

A backend receives every *sealed* ledger record exactly once, in seal order:
source entries first (each key appended at most once, when first referenced
by a sealed mapping), then the sink mapping referencing them.  Two backends
are provided:

* :class:`MemoryLedgerBackend` -- the default; keeps the records in plain
  dictionaries, nothing survives the process.
* :class:`JsonlLedgerBackend` -- append-only JSONL segment files inside a
  directory, one compact JSON document per line.  A store directory
  survives the process and can be re-opened read-only with
  :func:`repro.provstore.ledger.open_provenance_store`; segments rotate
  after ``segment_records`` lines so long-running captures never grow one
  unbounded file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.provstore.entries import SinkMapping, SourceEntry
from repro.spe.errors import SerializationError, SPEError

#: JSONL segment file name pattern; the index keeps append order sortable.
SEGMENT_PATTERN = "segment-{index:05d}.jsonl"
SEGMENT_GLOB = "segment-*.jsonl"

#: format version written into every segment's leading meta record.
FORMAT_VERSION = 1


def dumps_document(document: Dict[str, Any]) -> str:
    """Serialise a ledger record into one compact JSON line.

    Payload values that are not JSON types (sets, datetimes, custom objects)
    degrade to their ``str`` form instead of failing the seal -- the store is
    a materialised report, not a transport that must round-trip exactly.
    """
    try:
        return json.dumps(document, separators=(",", ":"), default=str)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"cannot serialise document: {exc}") from exc


def loads_document(data: str) -> Dict[str, Any]:
    """Parse one serialised document line (inverse of :func:`dumps_document`)."""
    try:
        return json.loads(data)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"cannot deserialise document: {exc}") from exc


class LedgerError(SPEError):
    """The provenance ledger or one of its backends was used incorrectly."""


class LedgerBackend:
    """Interface every persistence backend implements."""

    #: True for stores opened from existing segments; appends are rejected.
    read_only = False

    def append_source(self, entry: SourceEntry) -> None:
        """Persist one source entry (called once per distinct key)."""
        raise NotImplementedError

    def append_mapping(self, mapping: SinkMapping) -> None:
        """Persist one sealed sink mapping."""
        raise NotImplementedError

    def load(self) -> Tuple[List[SourceEntry], List[SinkMapping]]:
        """Replay every persisted record, in append order."""
        raise NotImplementedError

    def flush(self) -> None:
        """Make everything appended so far durable (no-op by default)."""

    def close(self) -> None:
        """Release any resources held by the backend (no-op by default)."""

    def describe(self) -> str:
        """Short human-readable description used in ``repr`` and reports."""
        return type(self).__name__


class MemoryLedgerBackend(LedgerBackend):
    """Keep sealed records in memory (the default, non-durable backend)."""

    def __init__(self) -> None:
        self.sources: Dict[str, SourceEntry] = {}
        self.mappings: List[SinkMapping] = []

    def append_source(self, entry: SourceEntry) -> None:
        self.sources[entry.key] = entry

    def append_mapping(self, mapping: SinkMapping) -> None:
        self.mappings.append(mapping)

    def load(self) -> Tuple[List[SourceEntry], List[SinkMapping]]:
        return list(self.sources.values()), list(self.mappings)

    def describe(self) -> str:
        return f"memory({len(self.mappings)} mappings, {len(self.sources)} sources)"


class JsonlLedgerBackend(LedgerBackend):
    """Append-only JSONL segment files under ``path``.

    Record kinds, one JSON document per line:

    * ``{"kind": "meta", "version": 1, "segment": i}`` -- first line of
      every segment,
    * ``{"kind": "source", ...}`` -- a :class:`SourceEntry` document,
    * ``{"kind": "mapping", ...}`` -- a :class:`SinkMapping` document.
    """

    def __init__(
        self,
        path: Union[str, Path],
        segment_records: int = 100_000,
        read_only: bool = False,
    ) -> None:
        if segment_records < 1:
            raise LedgerError("segment_records must be at least 1")
        self.path = Path(path)
        self.segment_records = segment_records
        self.read_only = read_only
        self._handle: Optional[IO[str]] = None
        self._segment_index = 0
        self._records_in_segment = 0
        #: set by :meth:`load` when the newest segment ended in a torn
        #: (truncated, unparsable) trailing line -- the signature of a
        #: writer killed mid-append.  ``{"segment": name, "line": number}``.
        self.torn_tail: Optional[Dict[str, object]] = None
        if read_only:
            if not self.path.is_dir():
                raise LedgerError(f"no provenance store at {str(self.path)!r}")
        else:
            self.path.mkdir(parents=True, exist_ok=True)
            existing = self.segment_paths()
            if existing:
                raise LedgerError(
                    f"provenance store at {str(self.path)!r} already has "
                    f"{len(existing)} segment(s); open it read-only or point "
                    "the ledger at a fresh directory (segments are append-only)"
                )

    # -- segment management -------------------------------------------------
    def segment_paths(self) -> List[Path]:
        """Existing segment files, in append order."""
        return sorted(self.path.glob(SEGMENT_GLOB))

    def _writer(self) -> IO[str]:
        if self.read_only:
            raise LedgerError(
                f"provenance store at {str(self.path)!r} is open read-only"
            )
        if self._handle is None or self._records_in_segment >= self.segment_records:
            if self._handle is not None:
                self._handle.close()
                self._segment_index += 1
            segment = self.path / SEGMENT_PATTERN.format(index=self._segment_index)
            self._handle = segment.open("a", encoding="utf-8")
            self._records_in_segment = 0
            self._write(
                {"kind": "meta", "version": FORMAT_VERSION, "segment": self._segment_index}
            )
        return self._handle

    def _write(self, document: Dict) -> None:
        assert self._handle is not None
        self._handle.write(dumps_document(document) + "\n")
        self._records_in_segment += 1

    # -- appends ------------------------------------------------------------
    def append_source(self, entry: SourceEntry) -> None:
        self._writer()
        document = entry.to_document()
        document["kind"] = "source"
        self._write(document)

    def append_mapping(self, mapping: SinkMapping) -> None:
        self._writer()
        document = mapping.to_document()
        document["kind"] = "mapping"
        self._write(document)

    # -- replay ---------------------------------------------------------------
    def _documents(self) -> Iterator[Dict]:
        """Replay every record line, tolerating a torn tail in the newest segment.

        A writer killed between ``write`` and the line's newline leaves a
        truncated final JSONL line.  That is an expected crash signature,
        not corruption of the sealed history: the torn line is the *newest*
        record and everything before it is intact.  It is skipped and
        reported via :attr:`torn_tail` instead of refusing to open the
        store.  An unparsable line anywhere *else* (mid-file, or in an
        older segment) still raises: that indicates real corruption.
        """
        segments = self.segment_paths()
        for index, segment in enumerate(segments):
            newest_segment = index == len(segments) - 1
            torn: Optional[Dict[str, object]] = None
            with segment.open("r", encoding="utf-8") as handle:
                for number, raw in enumerate(handle):
                    line = raw.strip()
                    if not line:
                        continue
                    if torn is not None:
                        # A content line *follows* the unparsable one: that
                        # is mid-file corruption, not a torn tail.
                        raise LedgerError(
                            f"provenance store at {str(self.path)!r} has an "
                            f"unparsable record at {segment.name}:{torn['line']} "
                            "(not a torn tail; the store is corrupt)"
                        )
                    try:
                        document = loads_document(line)
                    except SerializationError as exc:
                        if newest_segment:
                            torn = {"segment": segment.name, "line": number + 1}
                            continue
                        raise LedgerError(
                            f"provenance store at {str(self.path)!r} has an "
                            f"unparsable record at {segment.name}:{number + 1} "
                            "(not a torn tail; the store is corrupt)"
                        ) from exc
                    yield document
            if torn is not None:
                self.torn_tail = torn

    def load(self) -> Tuple[List[SourceEntry], List[SinkMapping]]:
        sources: List[SourceEntry] = []
        mappings: List[SinkMapping] = []
        for document in self._documents():
            kind = document.get("kind")
            if kind == "source":
                sources.append(SourceEntry.from_document(document))
            elif kind == "mapping":
                mappings.append(SinkMapping.from_document(document))
            elif kind == "meta":
                version = document.get("version")
                if version != FORMAT_VERSION:
                    raise LedgerError(
                        f"provenance store at {str(self.path)!r} uses format "
                        f"version {version!r}; this build reads version "
                        f"{FORMAT_VERSION}"
                    )
            else:
                raise LedgerError(
                    f"provenance store at {str(self.path)!r} contains an "
                    f"unknown record kind {kind!r}"
                )
        return sources, mappings

    # -- lifecycle -------------------------------------------------------------
    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def describe(self) -> str:
        mode = "ro" if self.read_only else "rw"
        return f"jsonl({str(self.path)!r}, {mode})"
