"""Sample statistics and the end-to-end metric plug-ins.

A metric plug-in turns the legs the executor ran (:class:`glbench.cells.Run`)
into one :class:`Cell`: the reported value plus the quartiles and sample
count that say how far to trust it.  Names, units, directions and regression
bounds are declared in ``BENCHMARK.json`` (:mod:`glbench.report` joins them).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from .cells import Leg, Run


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def percentile(ordered: Sequence[float], share: float) -> float:
    """Linear-interpolated percentile (``share`` in 0..1) of a sorted sample."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass(frozen=True)
class Cell:
    """One metric x workload value with its dispersion."""

    value: float
    q1: float
    q3: float
    n: int

    @property
    def spread(self) -> float:
        """Inter-quartile range as a share of the value."""
        return (self.q3 - self.q1) / abs(self.value) if self.value else 0.0


def summarise(samples: Sequence[float]) -> Optional[Cell]:
    """Median cell of per-round samples; ``None`` when every leg failed."""
    if not samples:
        return None
    q1, median, q3 = quartiles(samples)
    return Cell(value=median, q1=q1, q3=q3, n=len(samples))


def _ok(run: Run, kind: str) -> List[Leg]:
    return [legs[kind] for legs in run.rounds if legs[kind].error is None]


def _tps(kind: str) -> Callable[[Run], Optional[Cell]]:
    return lambda run: summarise([leg.tps for leg in _ok(run, kind)])


def _setup(run: Run) -> Optional[Cell]:
    return summarise(
        [leg.setup_s for legs in run.rounds for leg in legs.values() if leg.error is None]
    )


def _ratio(run: Run) -> Optional[Cell]:
    """Per-round paired GL / NP throughput: both legs saw the same host state."""
    return summarise(
        [
            legs["gl"].tps / legs["np"].tps
            for legs in run.rounds
            if legs["gl"].error is None and legs["np"].error is None
        ]
    )


def _peak_heap(run: Run) -> Optional[Cell]:
    if run.heap is None or run.heap.error is not None:
        return None
    megabytes = run.heap.extra["peak_bytes"] / 1e6
    return Cell(value=megabytes, q1=megabytes, q3=megabytes, n=1)


#: end-to-end metric name -> plug-in.  ``failed_share`` is not in this table:
#: the contract's ``attempted`` / ``failed`` / ``correct`` fields carry it.
#: Sink latency was demoted to the layer table (``README.md`` has the spreads).
END_TO_END: Dict[str, Callable[[Run], Optional[Cell]]] = {
    "setup_s": _setup,
    "np_tps": _tps("np"),
    "gl_tps": _tps("gl"),
    "gl_np_tps_ratio": _ratio,
    "gl_store_tps": _tps("gl_store"),
    "gl_peak_heap_mb": _peak_heap,
}


def end_to_end(run: Run) -> Dict[str, Optional[Cell]]:
    """Every end-to-end metric of one workload run."""
    return {name: plugin(run) for name, plugin in END_TO_END.items()}
