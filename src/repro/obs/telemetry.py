"""The telemetry facade: configuration, hook installation, merged export.

One :class:`Telemetry` object accompanies one pipeline run.  The
:class:`~repro.api.pipeline.Pipeline` coerces its ``telemetry=`` argument
through :func:`coerce_telemetry` (``True`` / a :class:`TelemetryConfig` / a
ready :class:`Telemetry` / ``None``), installs the hooks appropriate for the
execution mode, and finalizes the object into
``PipelineResult.trace`` when the run completes.

Hook installation is execution-mode aware:

* **intra / inter in-process** (``event``): the coordinator's
  tracer is installed directly on the one scheduler, operators, channels,
  provenance managers and the ledger -- everything lives in this process.
  The scheduler records each wake-up span on its operator's query lane,
  so an inter deployment gets one timeline lane per instance.
* **process / cluster**: the coordinator deliberately installs *no*
  instance-side hooks (a forked or plan-shipped copy of the coordinator's
  tracer could never ship its records back).  Instead each worker calls
  :func:`enable_worker_telemetry` on its own deserialised/forked instance,
  and the resulting buffer rides home inside the worker's **ok** document
  (see :mod:`repro.spe.cluster`), where :meth:`Telemetry.merge_worker`
  aligns it onto the coordinator timeline via its clock anchor.  The
  coordinator's tracer records the home instance (where every Sink runs,
  on a ``home`` lane, while the workers run) and the ledger it feeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .export import chrome_trace, jsonl_events, prometheus_text
from .metrics import Histogram, TimeSeriesSampler
from .tracer import DEFAULT_CAPACITY, SpanRecord, SpanTracer, merge_exports


@dataclass
class TelemetryConfig:
    """Tuning knobs for one run's telemetry."""

    #: span ring capacity per tracer (coordinator and each worker).
    capacity: int = DEFAULT_CAPACITY
    #: minimum wall seconds between time-series rows.
    sample_interval_s: float = 0.05
    #: time-series rows kept (oldest evicted first).
    series_capacity: int = 4096


class Telemetry:
    """Collects one run's spans, time series and histograms; exports them."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config if config is not None else TelemetryConfig()
        self.tracer = SpanTracer("coordinator", capacity=self.config.capacity)
        self.sampler = TimeSeriesSampler(
            interval_s=self.config.sample_interval_s,
            capacity=self.config.series_capacity,
        )
        self.histograms: Dict[str, Histogram] = {}
        self._worker_exports: List[Dict] = []
        self._sampled_channels = ()
        self._sampled_operators = ()

    # -- hook installation -------------------------------------------------
    @staticmethod
    def _operators_of(result) -> List:
        operators = []
        if result.query is not None:
            operators.extend(result.query.operators)
        for instance in result.instances:
            operators.extend(instance.operators)
        return operators

    def attach(self, result, execution: str) -> None:
        """Install the in-process hooks appropriate for ``execution``.

        ``result`` is the built :class:`~repro.api.pipeline.PipelineResult`.
        For ``process`` / ``cluster`` no instance-side hook is installed
        here -- each worker opts its own copy in post-fork / post-ship (a
        copied coordinator tracer could never ship its buffer back); the
        sampler also stays empty for those modes because the coordinator's
        counters only materialise when the results are applied.
        """
        if result.store is not None:
            result.store.tracer = self.tracer
        if execution in ("process", "cluster"):
            return
        _install_tracer(
            self.tracer,
            self._operators_of(result),
            result.channels,
            result.managers.values(),
        )
        self._sampled_channels = tuple(result.channels)
        self._sampled_operators = tuple(self._operators_of(result))

    def wrap_callback(self, round_callback):
        """Chain the time-series sampler in front of ``round_callback``."""
        sampler = self.sampler
        channels = self._sampled_channels
        operators = self._sampled_operators

        def callback(round_index: int) -> None:
            sampler.maybe_sample(channels, operators)
            if round_callback is not None:
                round_callback(round_index)

        return callback

    # -- cross-boundary merge ----------------------------------------------
    def merge_worker(self, export: Optional[Dict]) -> None:
        """Adopt one worker's shipped tracer buffer (see ``SpanTracer.export``)."""
        if export:
            self._worker_exports.append(export)

    # -- finalization -------------------------------------------------------
    def finalize(self, result) -> None:
        """Derive histograms and the closing time-series row from ``result``."""
        latency = Histogram()
        for sink in result.sinks:
            latency.observe_many(sink.latencies)
        if latency.total:
            self.histograms["latency"] = latency
        traversal = Histogram()
        traversal.observe_many(result.traversal_times_s())
        if traversal.total:
            self.histograms["traversal"] = traversal
        self.sampler.sample(
            self._sampled_channels or result.channels,
            self._sampled_operators or self._operators_of(result),
        )

    # -- read-out -----------------------------------------------------------
    def spans(self) -> List[SpanRecord]:
        """Coordinator + all shipped worker records, one wall-clock timeline."""
        merged = self.tracer.spans()
        merged.extend(merge_exports(self._worker_exports))
        merged.sort(key=lambda span: span.start_s)
        return merged

    def timeline(self) -> List[SpanRecord]:
        """Alias of :meth:`spans` (the ``PipelineResult.timeline()`` surface)."""
        return self.spans()

    def nodes(self) -> List[str]:
        """Distinct timeline lanes, in first-appearance order."""
        seen: Dict[str, None] = {}
        for span in self.spans():
            seen.setdefault(span.node, None)
        return list(seen)

    # -- exporters -----------------------------------------------------------
    def to_chrome_trace(self) -> Dict:
        """Chrome trace-event document (Perfetto / ``chrome://tracing``)."""
        return chrome_trace(self.spans(), time_series=self.sampler.export())

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition of counters, gauges and histograms."""
        return prometheus_text(
            self.spans(), self.histograms, time_series=self.sampler.export()
        )

    def to_jsonl(self) -> str:
        """One JSON object per span record per line."""
        return jsonl_events(self.spans())


def coerce_telemetry(value) -> Optional[Telemetry]:
    """Normalise a ``Pipeline(telemetry=...)`` argument.

    ``None``/``False`` -> disabled, ``True`` -> default-configured
    :class:`Telemetry`, a :class:`TelemetryConfig` -> a fresh object with
    that configuration, a :class:`Telemetry` -> itself (callers may keep a
    handle to export after the run).
    """
    if value is None or value is False:
        return None
    if value is True:
        return Telemetry()
    if isinstance(value, TelemetryConfig):
        return Telemetry(value)
    if isinstance(value, Telemetry):
        return value
    raise ValueError(
        f"telemetry must be None/False, True, a TelemetryConfig or a "
        f"Telemetry object, got {value!r}"
    )


def enable_worker_telemetry(instance, scheduler, capacity: int = 0) -> SpanTracer:
    """Opt one worker-side instance into span recording; return its tracer.

    Called by a :mod:`repro.spe.cluster` worker session -- a forked child
    or a plan-shipped daemon session -- where every
    object reached here is the worker's own copy.  The tracer's node is the
    instance name, so the shipped buffer lands on its own timeline lane.
    """
    tracer = SpanTracer(
        node=instance.name, capacity=capacity or DEFAULT_CAPACITY
    )
    scheduler.tracer = tracer
    _install_tracer(
        tracer,
        instance.operators,
        instance.outgoing_channels() + instance.incoming_channels(),
        [getattr(operator, "provenance", None) for operator in instance.operators],
    )
    return tracer


def _install_tracer(tracer: SpanTracer, operators, channels, managers) -> None:
    """Point every operator, channel and provenance manager at ``tracer``.

    ``None`` managers are skipped, and so is a ``__slots__`` manager
    without the hook.
    """
    for operator in operators:
        operator.tracer = tracer
    for channel in channels:
        channel.tracer = tracer
    for manager in managers:
        if manager is None:
            continue
        try:
            manager.tracer = tracer
        except AttributeError:  # a __slots__ manager without the hook
            pass
