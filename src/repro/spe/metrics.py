"""A run's execution counters, snapshotted by ``PipelineResult.metrics()``.

Per-operator ``work_calls`` / ``tuples_in`` / ``tuples_out`` and
per-channel ``tuples_sent`` / ``bytes_sent`` are deterministic counts; the
timing, latency and memory side of a run is measured by :mod:`repro.obs`
(``Histogram``, ``TimeSeriesSampler``) and by the repository's benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Optional

if TYPE_CHECKING:
    from repro.spe.operators.base import Operator


@dataclass(frozen=True)
class OperatorCounters:
    """One operator's execution counters at snapshot time."""

    name: str
    #: SPE instance hosting the operator (None for intra-process queries).
    instance: Optional[str]
    #: operator class name (``FilterOperator``, ``SUOperator``, ...).
    kind: str
    #: scheduler ``work`` invocations.
    work_calls: int
    tuples_in: int
    tuples_out: int


@dataclass(frozen=True)
class ChannelCounters:
    """One inter-instance channel's traffic counters at snapshot time."""

    name: str
    tuples_sent: int
    bytes_sent: int


@dataclass(frozen=True)
class MetricsSnapshot:
    """A consolidated, read-only view of a run's execution counters.

    Built by :meth:`repro.api.pipeline.PipelineResult.metrics`, so callers
    (benchmarks, dashboards, tests) read one plain structure instead of
    reaching into runtime internals (operator objects, channel objects).
    Operators are keyed by their qualified name (``instance/operator`` on
    distributed deployments, the bare operator name intra-process).
    """

    operators: Dict[str, OperatorCounters]
    channels: Dict[str, ChannelCounters]

    @property
    def total_work_calls(self) -> int:
        """Scheduler ``work`` invocations summed over every operator."""
        return sum(op.work_calls for op in self.operators.values())

    @property
    def total_tuples_sent(self) -> int:
        """Tuples that crossed any inter-instance channel."""
        return sum(ch.tuples_sent for ch in self.channels.values())

    @property
    def total_bytes_sent(self) -> int:
        """Bytes that crossed any inter-instance channel."""
        return sum(ch.bytes_sent for ch in self.channels.values())

    def operators_named(self, prefix: str) -> Dict[str, OperatorCounters]:
        """The operators whose (unqualified) name starts with ``prefix``."""
        return {
            key: op
            for key, op in self.operators.items()
            if op.name.startswith(prefix)
        }

    def to_document(self) -> Dict[str, Dict]:
        """JSON-ready representation."""
        return {
            "operators": {
                key: {
                    "kind": op.kind,
                    "work_calls": op.work_calls,
                    "tuples_in": op.tuples_in,
                    "tuples_out": op.tuples_out,
                }
                for key, op in self.operators.items()
            },
            "channels": {
                key: {"tuples_sent": ch.tuples_sent, "bytes_sent": ch.bytes_sent}
                for key, ch in self.channels.items()
            },
        }


def snapshot_operators(
    operators: Iterable[Operator], instance: Optional[str] = None
) -> Dict[str, OperatorCounters]:
    """Snapshot an iterable of operators into qualified-name counters."""
    snapshot: Dict[str, OperatorCounters] = {}
    for operator in operators:
        qualified = f"{instance}/{operator.name}" if instance else operator.name
        snapshot[qualified] = OperatorCounters(
            name=operator.name,
            instance=instance,
            kind=type(operator).__name__,
            work_calls=operator.work_calls,
            tuples_in=operator.tuples_in,
            tuples_out=operator.tuples_out,
        )
    return snapshot
