"""Time-series metrics: fixed-bucket histograms and periodic samplers.

Two complementary shapes of runtime data:

* :class:`Histogram` -- fixed log-spaced buckets for latency-style
  distributions.  Recording is one bisect + one increment (no per-sample
  storage), and p50/p95/p99 are estimated by linear interpolation inside
  the covering bucket, the standard Prometheus ``histogram_quantile``
  scheme.  The default bounds (1 us doubling up to ~8 s) cover everything
  from a channel send to a full cluster round-trip at <= 2x relative error.
* :class:`TimeSeriesSampler` -- periodic rows of pipeline state sampled on
  the coordinator between scheduler passes: channel queue depth, watermark
  lag per stream, per-operator cumulative tuple counts (rates fall out of
  adjacent rows), and the tracemalloc heap when tracing is active.  Rows
  land in a bounded deque; sampling is throttled by wall interval so a hot
  scheduler loop is not taxed every pass.
"""

from __future__ import annotations

import time
import tracemalloc
from bisect import bisect_left
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

#: log-spaced seconds: 1us * 2^k for k in 0..23 (1 us .. ~8.4 s), + overflow.
DEFAULT_BOUNDS: Tuple[float, ...] = tuple(1e-6 * 2**k for k in range(24))


class Histogram:
    """Fixed-bucket histogram with interpolated percentile estimation.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything above the last edge.  The
    bucket layout matches Prometheus cumulative ``le`` semantics so the
    text exposition in :mod:`repro.obs.export` is a direct read-out.
    """

    __slots__ = ("bounds", "counts", "total", "sum_s")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum_s = 0.0

    def observe(self, value_s: float) -> None:
        self.counts[bisect_left(self.bounds, value_s)] += 1
        self.total += 1
        self.sum_s += value_s

    def observe_many(self, values_s: Sequence[float]) -> None:
        for value in values_s:
            self.observe(value)

    def percentile(self, q: float) -> float:
        """Estimate the q-quantile (``0 < q <= 1``) from bucket counts.

        Linear interpolation inside the covering bucket; values in the
        overflow bucket report the last finite edge (the estimate cannot
        exceed what the buckets resolve, same as Prometheus).
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.total == 0:
            return 0.0
        rank = q * self.total
        seen = 0
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            if seen + count >= rank:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index]
                return lower + (upper - lower) * ((rank - seen) / count)
            seen += count
        return self.bounds[-1]

    @property
    def mean_s(self) -> float:
        return self.sum_s / self.total if self.total else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.total,
            "mean_s": self.mean_s,
            "p50_s": self.percentile(0.50),
            "p95_s": self.percentile(0.95),
            "p99_s": self.percentile(0.99),
        }

    def export(self) -> Dict:
        """Plain-data form (mergeable across process boundaries)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "sum_s": self.sum_s,
        }

    @classmethod
    def from_export(cls, document: Dict) -> "Histogram":
        histogram = cls(document["bounds"])
        histogram.counts = list(document["counts"])
        histogram.total = document["total"]
        histogram.sum_s = document["sum_s"]
        return histogram

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.sum_s += other.sum_s


class TimeSeriesSampler:
    """Periodic pipeline-state sampler driven from the coordinator loop.

    :meth:`maybe_sample` is cheap to call often: it returns immediately
    unless ``interval_s`` has elapsed since the previous row.  Each row is
    a plain dict so the whole series exports as JSON without conversion.
    """

    __slots__ = ("interval_s", "rows", "_last_sample", "_heap_via_tracemalloc")

    def __init__(self, interval_s: float = 0.05, capacity: int = 4096) -> None:
        self.interval_s = interval_s
        self.rows: Deque[Dict] = deque(maxlen=capacity)
        #: monotonic instant of the previous row; None until the first one
        #: (the clock's origin is arbitrary -- boot time on Linux -- so no
        #: literal can stand in for "never").
        self._last_sample: Optional[float] = None
        self._heap_via_tracemalloc = tracemalloc.is_tracing()

    def maybe_sample(self, channels=(), operators=()) -> Optional[Dict]:
        now = time.monotonic()
        last = self._last_sample
        if last is not None and now - last < self.interval_s:
            return None
        self._last_sample = now
        return self.sample(channels, operators)

    def sample(self, channels=(), operators=()) -> Dict:
        """Take one row unconditionally (also used for the final snapshot)."""
        row: Dict = {"t_wall_s": time.time()}
        depths = {}
        watermarks = {}
        for channel in channels:
            depths[channel.name] = len(channel)
            watermark = getattr(channel, "watermark", None)
            # -inf (no watermark yet) / +inf (closed) are not JSON-exportable
            # and carry no lag information; only finite frontiers are sampled.
            if watermark is not None and watermark not in (float("inf"), float("-inf")):
                watermarks[channel.name] = watermark
        row["queue_depth"] = depths
        if watermarks:
            row["watermark"] = watermarks
        tuples = {}
        for operator in operators:
            tuples[operator.name] = {
                "in": operator.tuples_in,
                "out": operator.tuples_out,
            }
        row["operator_tuples"] = tuples
        if self._heap_via_tracemalloc and tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            row["heap_bytes"] = current
            row["heap_peak_bytes"] = peak
        self.rows.append(row)
        return row

    def export(self) -> List[Dict]:
        return list(self.rows)
