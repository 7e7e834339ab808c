"""The benchmark's correctness oracle.

Every leg's output is reduced to two sha256 digests -- one over the sink
tuples, one over the provenance (sink tuple -> multiset of contributing
source tuples) -- and compared with the digests of a *reference computation*
done here in plain Python over the generated input, independent of the
engine.  The digests ignore arrival order and tuple ids (ids differ between
runtimes by design) but not content: a changed attribute, a missing source
or an extra sink tuple changes them.

The same reference serves every provenance mode, runtime and store leg of a
query, so a leg that disagrees with it is counted as failed.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Iterable, List, Mapping, Optional, Sequence, Tuple

#: (ts, values) of one tuple; (sink ts, sink values, contributing sources).
Row = Tuple[float, Mapping[str, Any]]
ProvenanceRow = Tuple[float, Mapping[str, Any], Sequence[Row]]

#: bookkeeping attributes of a provenance record's source entries (the
#: unfolded-tuple format of ``PipelineResult.provenance_records()``).
_ORIGIN_TS, _ORIGIN_ID, _ORIGIN_TYPE = "ts_o", "id_o", "type_o"


def canonical(ts: float, values: Mapping[str, Any]) -> str:
    """Order-insensitive text form of one tuple's content."""
    return repr((ts, sorted(values.items())))


def _sha256(lines: Iterable[str]) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def digest_sinks(rows: Iterable[Row]) -> str:
    """Digest of a multiset of sink tuples."""
    return _sha256(canonical(ts, values) for ts, values in rows)


def digest_provenance(rows: Iterable[ProvenanceRow]) -> str:
    """Digest of sink tuple -> sorted multiset of source tuples."""
    return _sha256(
        canonical(ts, values) + " <- " + " | ".join(sorted(canonical(*s) for s in sources))
        for ts, values, sources in rows
    )


# -- reference computations ---------------------------------------------------


def _reference_q1(tuples: Sequence) -> List[ProvenanceRow]:
    """Q1: cars with four zero-speed reports at one position in a 120 s window.

    Windows ``[s, s + 120)`` start at every multiple of 30 s; an alert is
    stamped with the window start and caused by the window's four reports.
    """
    size, advance = 120.0, 30.0
    stopped = defaultdict(list)
    for tup in tuples:
        if tup.values["speed"] == 0:
            stopped[tup.values["car_id"]].append(tup)
    rows: List[ProvenanceRow] = []
    for car, reports in stopped.items():
        stamps = [tup.ts for tup in reports]
        starts = set()
        for ts in stamps:
            start = math.floor(ts / advance) * advance - (size - advance)
            while start <= ts:
                starts.add(start)
                start += advance
        for start in starts:
            window = reports[bisect_left(stamps, start):bisect_left(stamps, start + size)]
            positions = {tup.values["pos"] for tup in window}
            if len(window) == 4 and len(positions) == 1:
                alert = {
                    "car_id": car,
                    "count": 4,
                    "dist_pos": 1,
                    "last_pos": window[-1].values["pos"],
                }
                rows.append((start, alert, [(tup.ts, tup.values) for tup in window]))
    return rows


def _reference_q4(tuples: Sequence) -> List[ProvenanceRow]:
    """Q4: midnight readings more than 200 away from the previous day's sum.

    The daily sum of day ``d`` is stamped with the day's end and joins the
    same meter's reading taken at that instant; the alert is caused by the
    day's readings plus the midnight one.
    """
    day = 86400.0
    by_meter_day = defaultdict(list)
    midnight = {}
    for tup in tuples:
        meter = tup.values["meter_id"]
        by_meter_day[(meter, math.floor(tup.ts / day))].append(tup)
        if tup.ts % day == 0:
            midnight[(meter, tup.ts)] = tup
    rows: List[ProvenanceRow] = []
    for (meter, index), window in by_meter_day.items():
        end = (index + 1) * day
        reading = midnight.get((meter, end))
        if reading is None:
            continue
        diff = abs(reading.values["cons"] - sum(tup.values["cons"] for tup in window))
        if diff > 200.0:
            sources = [(tup.ts, tup.values) for tup in window]
            sources.append((reading.ts, reading.values))
            rows.append((end, {"meter_id": meter, "cons_diff": diff}, sources))
    return rows


_REFERENCES = {"q1": _reference_q1, "q4": _reference_q4}


@dataclass(frozen=True)
class Expected:
    """What every leg of one query over one input must produce."""

    sinks: str
    provenance: str
    sink_count: int


def expected_for(query: str, tuples: Sequence) -> Expected:
    """Digests of the reference result of ``query`` over ``tuples``."""
    rows = _REFERENCES[query](tuples)
    return Expected(
        sinks=digest_sinks((ts, values) for ts, values, _ in rows),
        provenance=digest_provenance(rows),
        sink_count=len(rows),
    )


# -- what a leg produced -------------------------------------------------------


def sink_rows(result) -> List[Row]:
    """The data sink's tuples of a finished ``PipelineResult``."""
    return [(tup.ts, tup.values) for tup in result.sink.received]


def record_rows(result) -> List[ProvenanceRow]:
    """``result.provenance_records()`` without ids and bookkeeping fields."""
    rows = []
    for record in result.provenance_records():
        sources = [
            (
                entry[_ORIGIN_TS],
                {
                    key: value
                    for key, value in entry.items()
                    if key not in (_ORIGIN_TS, _ORIGIN_ID, _ORIGIN_TYPE)
                },
            )
            for entry in record.sources
        ]
        rows.append((record.sink_ts, record.sink_values, sources))
    return rows


def ledger_rows(store) -> List[ProvenanceRow]:
    """The sealed mappings of a ``ProvenanceLedger`` with their source entries."""
    return [
        (
            mapping.sink_ts,
            mapping.sink_values,
            [(entry.ts, entry.values) for entry in store.sources_of(mapping)],
        )
        for mapping in store.mappings()
    ]


def verify(expected: Expected, result, provenance: bool, store=None) -> Optional[str]:
    """Why ``result`` disagrees with ``expected``; ``None`` when it agrees."""
    if digest_sinks(sink_rows(result)) != expected.sinks:
        return (
            f"sink digest mismatch ({result.sink.count} sink tuples, "
            f"expected {expected.sink_count})"
        )
    if provenance and digest_provenance(record_rows(result)) != expected.provenance:
        return "provenance digest mismatch"
    if store is not None and digest_provenance(ledger_rows(store)) != expected.provenance:
        return "ledger digest mismatch"
    return None
