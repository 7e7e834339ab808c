"""Engine-independent reference results of Q1-Q4.

A run's result is a pure function of the source data (section 2), so the
oracle every execution is held to is a plain-Python computation over the
generated input -- not a second engine.  The Q1 / Q4 references and the
order- and id-insensitive sha256 digests are the benchmark's
(``perfbench/glbench/oracle.py``), imported rather than copied; Q2 and Q3
are defined here on top of them.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from pathlib import Path
from typing import List, Sequence

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from glbench.oracle import (  # noqa: E402 - perfbench/glbench/oracle.py
    Expected,
    ProvenanceRow,
    _reference_q1,
    _reference_q4,
    digest_provenance,
    digest_sinks,
    record_rows,
    verify,
)

__all__ = ["digest_provenance", "digest_sinks", "expected_for", "record_rows", "verify"]


def _reference_q2(tuples: Sequence) -> List[ProvenanceRow]:
    """Q2: two or more stopped cars at one position in a 30 s tumbling window.

    The input of the accident counter is Q1's alert stream grouped by
    ``last_pos``; an accident is stamped with the window start and caused by
    the reports behind every stopped-car alert in the window.
    """
    size = 30.0
    windows = defaultdict(list)
    for start, alert, sources in _reference_q1(tuples):
        windows[(math.floor(start / size) * size, alert["last_pos"])].append((alert, sources))
    rows: List[ProvenanceRow] = []
    for (start, pos), alerts in windows.items():
        cars = {alert["car_id"] for alert, _ in alerts}
        if len(cars) >= 2:
            sources = [source for _, reports in alerts for source in reports]
            rows.append((start, {"last_pos": pos, "count": len(cars)}, sources))
    return rows


def _reference_q3(tuples: Sequence) -> List[ProvenanceRow]:
    """Q3: more than seven meters whose consumption over a day sums to zero.

    The alert is stamped with the day's start and caused by every reading of
    every blacked-out meter that day.
    """
    day = 86400.0
    by_day_meter = defaultdict(list)
    for tup in tuples:
        by_day_meter[(math.floor(tup.ts / day), tup.values["meter_id"])].append(tup)
    blacked_out = defaultdict(list)
    for (index, _), window in by_day_meter.items():
        if sum(tup.values["cons"] for tup in window) == 0:
            blacked_out[index].append(window)
    return [
        (
            index * day,
            {"count": len(windows)},
            [(tup.ts, tup.values) for window in windows for tup in window],
        )
        for index, windows in blacked_out.items()
        if len(windows) > 7
    ]


_REFERENCES = {
    "q1": _reference_q1,
    "q2": _reference_q2,
    "q3": _reference_q3,
    "q4": _reference_q4,
}


def expected_for(query: str, tuples: Sequence) -> Expected:
    """Digests of the reference result of ``query`` over ``tuples``."""
    rows = _REFERENCES[query](tuples)
    return Expected(
        sinks=digest_sinks((ts, values) for ts, values, _ in rows),
        provenance=digest_provenance(rows),
        sink_count=len(rows),
    )
