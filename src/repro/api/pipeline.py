"""The ``Pipeline`` facade: one entry point from dataflow to results.

A :class:`Pipeline` takes a :class:`~repro.api.dataflow.Dataflow`, a
provenance technique and an optional :class:`Placement`, and hides all the
deployment mechanics the examples used to hand-wire.  One builder lowers
every plan onto :class:`~repro.spe.instance.SPEInstance` objects:

* **no placement**: every stage lands on one instance named after the
  dataflow (``PipelineResult.query``).
* **a placement**: one instance per placed instance name, with a
  Send/Receive pair inserted on every edge that crosses instances.

Provenance capture follows the cut edges.  A plan without one captures in
place: an SU before each captured Sink feeds that Sink's provenance Sink
(Theorem 5.3).  A plan with cut edges splices GeneaLog's SU/MU machinery
(section 6) or the Ariadne-style baseline's source shipping, and appends a
dedicated provenance instance.  In process, one
:class:`~repro.spe.scheduler.Scheduler` runs every instance; out of
process, every Sink is cut onto a last, *home* instance
(:func:`~repro.spe.cluster.cut_home`) that the
:class:`~repro.spe.cluster.RemoteRuntime` drives itself while it runs one
worker per other instance.

Either way :meth:`Pipeline.run` returns a :class:`PipelineResult` bundling
the sinks, the collected provenance records and the transfer statistics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union, cast

from repro.analysis import AnalysisReport, PlanAnalysisWarning, analyze_plan
from repro.api.dataflow import Dataflow, DataflowError, _Edge
from repro.core.baseline import BaselineProvenanceResolver
from repro.core.multi_unfolder import attach_mu
from repro.core.provenance import (
    ProvenanceCollector,
    ProvenanceMode,
    ProvenanceRecord,
    create_manager,
)
from repro.core.unfolder import add_su
from repro.obs.telemetry import Telemetry, TelemetryConfig, coerce_telemetry
from repro.obs.tracer import SpanRecord
from repro.provstore.backends import JsonlLedgerBackend
from repro.provstore.ledger import ProvenanceLedger
from repro.provstore.tap import LedgerTap
from repro.spe.channels import Channel
from repro.spe.cluster import HOME_INSTANCE, LAUNCHERS, Hosts, RemoteRuntime, cut_home
from repro.spe.instance import SPEInstance, assign_ordering_values
from repro.spe.metrics import (
    ChannelCounters,
    MetricsSnapshot,
    OperatorCounters,
    snapshot_operators,
)
from repro.spe.operators.base import Operator
from repro.spe.operators.sink import SinkOperator
from repro.spe.operators.source import SourceOperator
from repro.spe.provenance_api import ProvenanceManager
from repro.spe.query import Query
from repro.spe.scheduler import Scheduler
from repro.spe.sockets import SocketTransport

#: name of the dedicated provenance instance of distributed deployments.
PROVENANCE_INSTANCE = "provenance_node"

#: channel labels the provenance splicing claims for itself.
_RESERVED_LABELS = frozenset({"derived", "annotated_sinks", "sources"})


def _label_reserved(label: str) -> bool:
    return (
        label in _RESERVED_LABELS
        or label.startswith("upstream_")
        or label.startswith("sources_")
    )


class Placement:
    """Maps dataflow stages onto named SPE instances.

    ``assignments`` is an ordered mapping ``instance name -> stage names``;
    every stage of the dataflow must be assigned to exactly one instance.
    ``links`` optionally names the edges that cross instance boundaries
    (``(upstream stage, downstream stage) -> label``); the label determines
    the channel / Send / Receive names (``send_<label>`` etc.).  Unnamed cut
    edges are labelled after their upstream stage.

    Key-parallel stages can be placed at two granularities: assigning the
    *logical* stage name (e.g. ``"stop_aggregate"`` declared with
    ``parallelism=4``) puts the whole partition/replicas/merge expansion on
    one instance, while assigning the member names directly (e.g.
    ``"stop_aggregate_shard2"``) spreads the replicas of one logical stage
    across SPE instances so shards can live on different nodes.
    """

    def __init__(
        self,
        assignments: Mapping[str, Sequence[str]],
        links: Optional[Mapping[Tuple[str, str], str]] = None,
    ) -> None:
        if not assignments:
            raise DataflowError("a placement needs at least one instance")
        for reserved, role in (
            (PROVENANCE_INSTANCE, "provenance instance"),
            (HOME_INSTANCE, "home instance out of process, where the Sinks run"),
        ):
            if reserved in assignments:
                raise DataflowError(
                    f"instance name {reserved!r} is reserved for the {role} "
                    "added by the pipeline"
                )
        self.assignments: Dict[str, Tuple[str, ...]] = {
            instance: tuple(stages) for instance, stages in assignments.items()
        }
        self.links: Dict[Tuple[str, str], str] = dict(links or {})

    def validate_against(self, dataflow: Dataflow) -> Dict[str, str]:
        """Check the placement fits ``dataflow`` exactly; return the owner map.

        Logical parallel-stage names are expanded to their member nodes.
        Unknown and duplicated assignments are reported *with the offending
        instance names*, so a typo'd or doubly-placed stage points straight
        at the instances to fix.  Every link must name an edge that crosses
        instances, with a unique label the provenance plumbing does not
        reserve.
        """
        owners: Dict[str, List[str]] = {}
        unknown: Dict[str, List[str]] = {}
        for instance, stages in self.assignments.items():
            for stage in stages:
                members = dataflow.members_of(stage)
                if members is None:
                    unknown.setdefault(stage, []).append(instance)
                    continue
                for member in members:
                    owners.setdefault(member, []).append(instance)
        if unknown:
            offenders = "; ".join(
                f"{stage!r} (assigned by instance(s) {instances!r})"
                for stage, instances in unknown.items()
            )
            raise DataflowError(
                f"placement assigns unknown stage(s) {offenders}; dataflow "
                f"{dataflow.name!r} declares {dataflow.node_names!r}"
                + (
                    f" and parallel stage(s) {dataflow.parallel_stage_names!r}"
                    if dataflow.parallel_stage_names
                    else ""
                )
            )
        duplicated = {
            stage: instances for stage, instances in owners.items() if len(instances) > 1
        }
        if duplicated:
            offenders = "; ".join(
                f"{stage!r} is assigned to both {instances[0]!r} and "
                f"{', '.join(repr(i) for i in instances[1:])}"
                for stage, instances in duplicated.items()
            )
            raise DataflowError(f"placement duplicates stage(s): {offenders}")
        missing = [name for name in dataflow.node_names if name not in owners]
        if missing:
            raise DataflowError(
                f"placement does not assign stage(s) {missing!r} of dataflow "
                f"{dataflow.name!r} to an instance"
            )
        owner = {stage: instances[0] for stage, instances in owners.items()}
        cut = {
            (edge.upstream, edge.downstream)
            for edge in dataflow.ordered_edges()
            if owner[edge.upstream] != owner[edge.downstream]
        }
        stale = [key for key in self.links if key not in cut]
        if stale:
            raise DataflowError(
                f"placement link(s) {stale!r} do not name any edge that "
                "crosses an instance boundary (check for typos or edges placed "
                "on a single instance)"
            )
        labels = list(self.links.values())
        reserved = [label for label in labels if _label_reserved(label)]
        if reserved:
            raise DataflowError(
                f"placement link label(s) {reserved!r} are reserved for the "
                "provenance plumbing ('derived', 'annotated_sinks', "
                "'sources*', 'upstream_*'); pick another label"
            )
        duplicated = sorted({label for label in labels if labels.count(label) > 1})
        if duplicated:
            raise DataflowError(
                f"placement link label(s) {duplicated!r} are used by more than "
                "one cut edge; labels must be unique"
            )
        return owner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Placement(instances={list(self.assignments)!r})"


@dataclass
class PipelineResult:
    """Everything a built (and possibly run) pipeline exposes."""

    mode: ProvenanceMode
    deployment: str  # "intra" or "inter"
    fused: bool
    #: the one instance of a deployment without a placement.
    query: Optional[Query] = None
    #: the lowered SPE instances (with a placement): the provenance
    #: instance last when a cut edge ships provenance, then, out of
    #: process, the home instance holding every Sink.
    instances: List[SPEInstance] = field(default_factory=list)
    #: the dataflow's declared Sources / data Sinks (not provenance sinks).
    sources: List[SourceOperator] = field(default_factory=list)
    sinks: List[SinkOperator] = field(default_factory=list)
    #: captured data-Sink name -> the collector of its provenance records
    #: (empty with mode NP).
    collectors: Dict[str, ProvenanceCollector] = field(default_factory=dict)
    #: instance name -> the provenance manager of its operators.
    managers: Dict[str, ProvenanceManager] = field(default_factory=dict)
    #: the inter-instance channels (the home instance's are not counted).
    channels: List[Channel] = field(default_factory=list)
    #: operator wake-ups executed (out of process: summed over the worker
    #: schedulers and the home's).
    wakeups: int = 0
    #: live provenance store attached via ``Pipeline(provenance_store=...)``.
    store: Optional[ProvenanceLedger] = None
    #: the run's telemetry (None unless ``Pipeline(telemetry=...)`` enabled
    #: it): merged spans, time series, histograms and the exporters.
    trace: Optional[Telemetry] = None

    # -- convenience -------------------------------------------------------------
    def timeline(self) -> List[SpanRecord]:
        """The run's merged span timeline (coordinator + shipped workers).

        Empty when telemetry was not enabled for the run.
        """
        if self.trace is None:
            return []
        return self.trace.timeline()

    @property
    def source(self) -> SourceOperator:
        """The single Source (raises when the dataflow declares several)."""
        (source,) = self.sources
        return source

    @property
    def sink(self) -> SinkOperator:
        """The single data Sink (raises when the dataflow declares several)."""
        (sink,) = self.sinks
        return sink

    def provenance_records(self) -> List[ProvenanceRecord]:
        """All provenance records, Sink by captured Sink."""
        return [
            record
            for collector in self.collectors.values()
            for record in collector.records()
        ]

    def traversal_times_s(self) -> List[float]:
        """Per-sink-tuple contribution-graph traversal times (seconds)."""
        return [
            sample
            for samples in self.traversal_times_by_instance().values()
            for sample in samples
        ]

    def traversal_times_by_instance(self) -> Dict[str, List[float]]:
        """Traversal times grouped by SPE instance."""
        times: Dict[str, List[float]] = {}
        for name, manager in self.managers.items():
            samples = list(getattr(manager, "traversal_times_s", []))
            if samples:
                times[name] = samples
        return times

    def bytes_transferred(self) -> int:
        """Bytes that crossed any inter-instance channel."""
        return sum(channel.bytes_sent for channel in self.channels)

    def tuples_transferred(self) -> int:
        """Tuples that crossed any inter-instance channel."""
        return sum(channel.tuples_sent for channel in self.channels)

    def metrics(self) -> MetricsSnapshot:
        """A consolidated snapshot of the run's execution counters.

        Per-operator ``work_calls`` / ``tuples_in`` / ``tuples_out`` (keyed
        ``instance/operator`` on distributed deployments) and per-channel
        ``tuples_sent`` / ``bytes_sent``, so callers never reach into the
        runtime internals.  Callable at any point; counters are cumulative.
        """
        operators: Dict[str, OperatorCounters] = {}
        if self.query is not None:
            operators.update(snapshot_operators(self.query.operators))
        for instance in self.instances:
            operators.update(
                snapshot_operators(instance.operators, instance=instance.name)
            )
        channels: Dict[str, ChannelCounters] = {}
        for channel in self.channels:
            tuples_sent, bytes_sent = channel.counters()
            channels[channel.name] = ChannelCounters(
                name=channel.name, tuples_sent=tuples_sent, bytes_sent=bytes_sent
            )
        return MetricsSnapshot(operators=operators, channels=channels)


class Pipeline:
    """Build and run a dataflow under one provenance technique and placement.

    ``provenance`` is ``"none"``/``"genealog"``/``"baseline"`` (or the
    paper's NP/GL/BL labels, or a :class:`ProvenanceMode`).  ``placement``
    selects the deployment: ``None`` runs everything on one SPE instance; a
    :class:`Placement` deploys onto several.  ``retention``
    (seconds of provenance the MU / baseline resolver must retain) defaults
    to the sum of the dataflow's window sizes.  ``execution`` selects where
    the event-driven scheduler runs: ``"event"`` (default) keeps everything
    in this process, one :class:`Scheduler` over the query or over every
    instance, ``"process"`` forks one OS process per SPE instance
    connected by socketpair channels, and ``"cluster"`` ships each SPE
    instance to a worker daemon with TCP channels (``hosts`` places the
    instances).  Both need a placement and run on the
    :class:`~repro.spe.cluster.RemoteRuntime` (its ``LAUNCHERS`` table), with
    every channel a :class:`~repro.spe.sockets.SocketTransport`.
    Inter-instance channels carry :mod:`repro.spe.codec` batch blobs under
    every ``execution``.
    ``telemetry`` enables runtime observability for the run (default off):
    ``True``, a :class:`~repro.obs.telemetry.TelemetryConfig` or a
    :class:`~repro.obs.telemetry.Telemetry` object -- the run's spans, time
    series and histograms surface as ``PipelineResult.trace`` /
    ``PipelineResult.timeline()``, with worker buffers shipped back and
    clock-aligned under ``execution="process"`` / ``"cluster"``.
    ``validate`` decides what :meth:`build` does with the analyzer's
    warnings (``"strict"`` raises, ``"warn"`` warns, ``"off"`` drops them);
    an error diagnostic refuses the plan whatever it says.
    """

    def __init__(
        self,
        dataflow: Dataflow,
        provenance: Union[str, ProvenanceMode] = "none",
        placement: Optional[Placement] = None,
        fused: bool = True,
        retention: Optional[float] = None,
        execution: str = "event",
        provenance_store: Union[ProvenanceLedger, str, None] = None,
        hosts: Hosts = None,
        telemetry: Union[None, bool, TelemetryConfig, Telemetry] = None,
        validate: str = "warn",
    ) -> None:
        if isinstance(provenance, ProvenanceMode):
            mode = provenance
        else:
            try:
                # NP/GL/BL, or the member names NONE/GENEALOG/BASELINE,
                # case-insensitively.
                mode = ProvenanceMode.from_label(provenance)
            except (AttributeError, ValueError):
                raise DataflowError(
                    f"unknown provenance mode {provenance!r}; expected 'none', "
                    "'genealog' or 'baseline' (or the paper's 'NP', 'GL', 'BL')"
                ) from None
        if validate not in ("strict", "warn", "off"):
            raise DataflowError(
                f"unknown validate mode {validate!r}; expected 'strict', "
                "'warn' or 'off'"
            )
        if execution != "event" and execution not in LAUNCHERS:
            raise DataflowError(
                f"unknown execution mode {execution!r}; expected 'event', "
                "'process' or 'cluster'"
            )
        if execution in LAUNCHERS and placement is None:
            raise DataflowError(
                f"execution={execution!r} runs each SPE instance in its own "
                "process and therefore needs a Placement (an inter-process "
                "deployment); pass placement=... or use execution='event'"
            )
        if hosts is not None and execution != "cluster":
            raise DataflowError(
                "hosts=... places SPE instances on cluster worker daemons and "
                "only applies to execution='cluster'"
            )
        self.dataflow = dataflow
        self.mode = mode
        self.placement = placement
        self.fused = fused
        self.retention = retention
        self.execution = execution
        self.hosts = hosts
        try:
            self.telemetry = coerce_telemetry(telemetry)
        except ValueError as exc:
            raise DataflowError(str(exc)) from None
        self.validate = validate
        self.store = self._resolve_store(provenance_store)
        self._result: Optional[PipelineResult] = None
        self._ran = False

    def _resolve_store(
        self, provenance_store: Union[ProvenanceLedger, str, None]
    ) -> Optional[ProvenanceLedger]:
        """Accept a ledger instance or a path (-> JSONL-backed ledger)."""
        if provenance_store is None:
            return None
        if self.mode is ProvenanceMode.NONE:
            raise DataflowError(
                "a provenance store needs provenance capture: pass "
                "provenance='genealog' or 'baseline' together with "
                "provenance_store=..."
            )
        if isinstance(provenance_store, ProvenanceLedger):
            store = provenance_store
        else:
            store = ProvenanceLedger(
                backend=JsonlLedgerBackend(provenance_store),
                name=str(provenance_store),
            )
        if store.read_only:
            raise DataflowError(
                f"provenance store {store.name!r} is open read-only and "
                "cannot ingest a run; open a writable ledger instead"
            )
        if store.retention is None:
            # The seal bound: the MU retention math (sum of window sizes),
            # or the pipeline's explicit override.
            store.retention = (
                self.retention
                if self.retention is not None
                else self.dataflow.retention_s()
            )
        return store

    # -- static analysis ---------------------------------------------------------
    def analyze(self) -> AnalysisReport:
        """Statically analyze the plan under this pipeline's deployment.

        Runs the :mod:`repro.analysis` rules over the deferred dataflow
        description -- graph/ordering/provenance verification, schema
        inference from ``source(schema=...)`` declarations, and the
        concurrency lint over user functions -- without lowering or
        executing anything.  :meth:`build` calls this once, before it
        lowers the plan, and refuses the plan on any error.
        """
        return analyze_plan(
            self.dataflow,
            placement=self.placement,
            mode=self.mode,
            execution=self.execution,
            retention=self.retention,
            store=self.store,
        )

    # -- building ----------------------------------------------------------------
    def build(self) -> PipelineResult:
        """Check the plan, lower it and splice provenance; idempotent.

        The analyzer is the plan's one checker: any error it reports raises
        :class:`~repro.analysis.PlanAnalysisError` before anything is
        lowered, whatever ``validate=`` says.  ``validate=`` decides what
        happens to warnings: ``"strict"`` raises them too, ``"warn"`` emits
        each as a :class:`~repro.analysis.PlanAnalysisWarning`, ``"off"``
        drops them.
        """
        if self._result is None:
            report = self.analyze()
            report.raise_for_errors(strict=self.validate == "strict")
            if self.validate != "off":
                for diagnostic in report.diagnostics:
                    warnings.warn(
                        f"plan {self.dataflow.name!r}: {diagnostic}",
                        PlanAnalysisWarning,
                        stacklevel=2,
                    )
            result = _Builder(self).build()
            if self.execution in LAUNCHERS:
                result.instances.append(cut_home(result.instances))
                assign_ordering_values(result.instances)
            self._result = result
        return self._result

    # -- running -----------------------------------------------------------------
    def run(
        self,
        round_callback: Optional[Callable[[int], None]] = None,
        callback_every: int = 16,
        max_rounds: int = 10_000_000,
    ) -> PipelineResult:
        """Build (if needed) and run to quiescence; return the result.

        In process (``execution="event"``, with or without a placement)
        ``max_rounds`` bounds the operator wake-ups and ``round_callback``
        is invoked every ``callback_every`` of them, e.g. for memory
        sampling; out of process ``max_rounds`` bounds each worker's
        wake-ups and the callback fires once per collected worker result.
        Like :meth:`build`, a second call returns the finished result
        without executing again (the sources are consumed).
        """
        if self._ran:
            return self.build()
        result = self.build()
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.attach(result, self.execution)
            result.trace = telemetry
            if self.execution == "event":
                # The in-process execution drives the time-series sampler
                # from the round callback; the out-of-process ones do not
                # (the coordinator's counters only materialise after the run).
                round_callback = telemetry.wrap_callback(round_callback)
        if self.execution in LAUNCHERS:
            runtime = RemoteRuntime(
                result.instances,
                execution=self.execution,
                hosts=self.hosts,
                max_rounds=max_rounds,
                round_callback=round_callback,
                telemetry=telemetry,
            )
            runtime.run()
            result.wakeups = runtime.total_wakeups()
        else:
            queries: Sequence[Query] = (
                [result.query] if result.query is not None else result.instances
            )
            scheduler = Scheduler(
                *queries,
                max_passes=max_rounds,
                pass_callback=round_callback,
                callback_every=callback_every,
            )
            if telemetry is not None:
                scheduler.tracer = telemetry.tracer
            scheduler.run()
            result.wakeups = scheduler.wakeups
        if telemetry is not None:
            telemetry.finalize(result)
        self._ran = True
        return result


class _Builder:
    """Lowers a dataflow onto SPE instances and splices provenance plumbing.

    Without a placement every stage lands on one instance named after the
    dataflow.  With one, it generalises the hand-written three-instance
    deployments of the paper's evaluation (Figures 7, 9C, 10C, 11C):
    Send/Receive pairs at every cut edge, SU operators in front of every
    Send and Sink under GeneaLog plus an MU on a dedicated provenance
    instance, and source/sink stream shipping to a source-store resolver
    under the Ariadne-style baseline.  A plan without a cut edge captures
    GL and BL alike in place: an SU before each captured Sink (Theorem 5.3).
    """

    def __init__(self, pipeline: Pipeline) -> None:
        self.dataflow = pipeline.dataflow
        self.placement = pipeline.placement
        self.mode = pipeline.mode
        self.fused = pipeline.fused
        self.store = pipeline.store
        self.retention = (
            pipeline.retention
            if pipeline.retention is not None
            else self.dataflow.retention_s()
        )
        #: out of process, every channel is a socket transport, detached
        #: until a launcher connects its ends.
        self.remote = pipeline.execution in LAUNCHERS
        self.owner: Dict[str, str] = {}
        self.instances: Dict[str, SPEInstance] = {}
        self.managers: Dict[str, ProvenanceManager] = {}
        self.channels: List[Channel] = []
        self.operators: Dict[str, Operator] = {}
        #: (instance, send, label) per cut edge, in declaration order.
        self._cut_sends: List[Tuple[SPEInstance, Operator, str]] = []
        self._upstream_channels: List[Channel] = []
        self._bl_source_channels: List[Channel] = []
        self.collectors: Dict[str, ProvenanceCollector] = {}

    # -- helpers -----------------------------------------------------------------
    def _channel(self, label: str) -> Channel:
        name = f"{self.dataflow.name}_{label}"
        channel = Channel(name, transport=SocketTransport(name) if self.remote else None)
        self.channels.append(channel)
        return channel

    def _new_instance(self, name: str, node_id: Optional[str] = None) -> SPEInstance:
        instance = SPEInstance(name)
        self.instances[name] = instance
        self.managers[name] = create_manager(self.mode, node_id=node_id or name)
        instance.set_provenance(self.managers[name])
        return instance

    def _owning(self, operator: Operator) -> SPEInstance:
        return self.instances[self.owner[operator.name]]

    def _provenance_sink(
        self, instance: SPEInstance, name: str, captured: str
    ) -> SinkOperator:
        """A provenance Sink that collects the records of Sink ``captured``."""
        collector = ProvenanceCollector(name=captured)
        self.collectors[captured] = collector
        provenance_sink = instance.add_sink(name, keep_tuples=False)
        provenance_sink.add_tap(collector)
        if self.store is not None:
            # One logical ledger fed by one tap per provenance Sink; it
            # seals on the minimum watermark across its taps.
            provenance_sink.add_tap(LedgerTap(self.store))
        return provenance_sink

    # -- lowering ----------------------------------------------------------------
    def _cut_label(self, edge: _Edge, used: Set[str]) -> str:
        """The channel label of a cut edge: its link label, or a fresh one.

        ``used`` holds every link label from the start, so an automatic
        label never takes one a later edge names explicitly.
        """
        assert self.placement is not None  # only a placement cuts edges
        explicit = self.placement.links.get((edge.upstream, edge.downstream))
        if explicit is not None:
            return explicit
        candidates = [
            edge.upstream,
            f"{edge.upstream}_{edge.downstream}",
            # the "link_" prefix can never collide with a reserved label.
            f"link_{edge.upstream}_{edge.downstream}",
        ]
        for label in candidates:
            if label not in used and not _label_reserved(label):
                return label
        suffix = 2
        while True:
            label = f"link_{edge.upstream}_{edge.downstream}_{suffix}"
            if label not in used:
                return label
            suffix += 1

    def build(self) -> PipelineResult:
        if self.placement is None:
            # The one instance's manager keeps the single-process node id,
            # which every sink id and ledger document carries.
            self._new_instance(self.dataflow.name, node_id="local")
            self.owner = dict.fromkeys(self.dataflow.node_names, self.dataflow.name)
            used_labels: Set[str] = set()
        else:
            self.owner = self.placement.validate_against(self.dataflow)
            for instance_name in self.placement.assignments:
                self._new_instance(instance_name)
            used_labels = set(self.placement.links.values())
        for node_name in self.dataflow.node_names:
            self.operators[node_name] = self.instances[self.owner[node_name]].add(
                self.dataflow._nodes[node_name].instantiate()
            )
        for edge in self.dataflow.ordered_edges():
            upstream_op = self.operators[edge.upstream]
            downstream_op = self.operators[edge.downstream]
            upstream_instance = self._owning(upstream_op)
            downstream_instance = self._owning(downstream_op)
            if upstream_instance is downstream_instance:
                upstream_instance.connect(
                    upstream_op,
                    downstream_op,
                    name=edge.stream_name,
                    sorted_stream=edge.sorted_stream,
                )
                continue
            label = self._cut_label(edge, used_labels)
            used_labels.add(label)
            channel = self._channel(label)
            send = upstream_instance.add_send(f"send_{label}", channel)
            upstream_instance.connect(
                upstream_op, send, sorted_stream=edge.sorted_stream
            )
            receive = downstream_instance.add_receive(f"receive_{label}", channel)
            downstream_instance.connect(
                receive, downstream_op, sorted_stream=edge.sorted_stream
            )
            self._cut_sends.append((upstream_instance, send, label))

        sources = [
            cast(SourceOperator, self.operators[n]) for n in self.dataflow.source_names()
        ]
        sinks = [cast(SinkOperator, self.operators[n]) for n in self.dataflow.sink_names()]

        if self.mode is not ProvenanceMode.NONE:
            if not self._cut_sends:
                self._capture_in_place()
            else:
                (sink,) = sinks  # provenance.capture-shape: one data Sink
                self._build_provenance_instance(
                    sink,
                    self._splice_genealog(sink)
                    if self.mode is ProvenanceMode.GENEALOG
                    else self._splice_baseline(sources, sink),
                )

        for instance in self.instances.values():
            # Operators spliced in after instance creation (SU, Send, MU, ...)
            # must also use the instance's provenance manager.
            instance.set_provenance(self.managers[instance.name])
            instance.validate()
        instances = list(self.instances.values())
        assign_ordering_values(instances)

        return PipelineResult(
            mode=self.mode,
            deployment="intra" if self.placement is None else "inter",
            fused=self.fused,
            query=instances[0] if self.placement is None else None,
            instances=[] if self.placement is None else instances,
            sources=sources,
            sinks=sinks,
            collectors=self.collectors,
            managers=self.managers,
            channels=self.channels,
            store=self.store,
        )

    def _capture_in_place(self) -> None:
        """No cut edge: an SU before each captured Sink feeds its
        ``provenance_<sink>`` on the same instance (Theorem 5.3)."""
        for name in self.dataflow.capture_sink_names():
            sink = self.operators[name]
            instance = self._owning(sink)
            unfolded_out = self._splice_su_before(
                instance, sink, f"su_{name}", boundary=False
            )
            instance.connect(
                unfolded_out, self._provenance_sink(instance, f"provenance_{name}", name)
            )

    # -- GeneaLog splicing (section 6) --------------------------------------------
    def _splice_su_before(
        self, instance: SPEInstance, consumer: Operator, su_name: str, boundary: bool
    ) -> Operator:
        """Re-route ``consumer``'s input through a fresh SU; return its U side.

        ``boundary`` marks an SU before a cut Send: it unfolds only what its
        instance derived (see :func:`~repro.core.unfolder.add_su`).
        """
        data_out, unfolded_out = add_su(
            instance, name=su_name, fused=self.fused, boundary=boundary
        )
        instance.splice(consumer.inputs[0], data_out, data_out)
        return unfolded_out

    def _splice_genealog(self, sink: SinkOperator) -> Channel:
        """Splice the SUs; return the channel of the Sink's derived stream."""
        for instance, send, label in self._cut_sends:
            unfolded_out = self._splice_su_before(
                instance, send, f"su_{label}", boundary=True
            )
            upstream_channel = self._channel(f"upstream_{label}")
            # Unfolded tuples carry their provenance in their attributes
            # (sink_id / id_o / type_o); the MU and the ledger never read the
            # re-attached wire metadata, so skip the per-tuple payload.
            upstream_send = instance.add_send(
                f"send_upstream_{label}", upstream_channel, ship_provenance=False
            )
            instance.connect(unfolded_out, upstream_send)
            self._upstream_channels.append(upstream_channel)
        instance = self._owning(sink)
        unfolded_out = self._splice_su_before(
            instance, sink, f"su_{sink.name}", boundary=False
        )
        derived_channel = self._channel("derived")
        derived_send = instance.add_send(
            "send_derived", derived_channel, ship_provenance=False
        )
        instance.connect(unfolded_out, derived_send)
        return derived_channel

    # -- baseline splicing ----------------------------------------------------------
    def _splice_baseline(
        self, sources: List[SourceOperator], sink: SinkOperator
    ) -> Channel:
        """Ship every Source and the Sink; return the annotated Sink's channel."""
        for index, source in enumerate(sources):
            instance = self._owning(source)
            label = "sources" if len(sources) == 1 else f"sources_{index}"
            multiplex = instance.add_multiplex(f"{label}_multiplex")
            # graph.dead-end / graph.arity: a Source feeds exactly one stream.
            instance.splice(source.outputs[0], multiplex, multiplex)
            channel = self._channel(label)
            send = instance.add_send(f"send_{label}", channel)
            instance.connect(multiplex, send)
            self._bl_source_channels.append(channel)
        instance = self._owning(sink)
        multiplex = instance.add_multiplex(f"{sink.name}_multiplex")
        instance.splice(sink.inputs[0], multiplex, multiplex)
        sink_channel = self._channel("annotated_sinks")
        instance.connect(multiplex, instance.add_send("send_annotated_sinks", sink_channel))
        return sink_channel

    # -- the provenance instance ----------------------------------------------------
    def _build_provenance_instance(self, sink: SinkOperator, sink_channel: Channel) -> None:
        """Append the provenance instance, fed by ``sink``'s ``sink_channel``
        (GL: its derived stream, BL: its annotated tuples).  The unfolded
        stream reaching its provenance Sink crossed the process boundaries
        serialised; the collector and the ledger read the payloads
        reconstructed on this (the receiving) instance."""
        instance = self._new_instance(PROVENANCE_INSTANCE)
        provenance_sink = self._provenance_sink(instance, "provenance_sink", sink.name)
        if self.mode is ProvenanceMode.GENEALOG:
            ports = attach_mu(
                instance,
                retention=self.retention,
                upstream_count=len(self._upstream_channels),
                name="mu",
                fused=self.fused,
            )
            derived_receive = instance.add_receive("receive_derived", sink_channel)
            instance.connect(derived_receive, ports.derived_entry)
            for index, channel in enumerate(self._upstream_channels):
                upstream_receive = instance.add_receive(
                    f"receive_upstream_{index}", channel
                )
                instance.connect(upstream_receive, ports.upstream_entry)
            instance.connect(ports.output, provenance_sink)
        else:  # BASELINE
            resolver = instance.add(
                BaselineProvenanceResolver("baseline_resolver", retention=self.retention)
            )
            if len(self._bl_source_channels) > 1:
                source_union = instance.add_union("source_union")
                instance.connect(source_union, resolver)
                for index, channel in enumerate(self._bl_source_channels):
                    receive = instance.add_receive(f"receive_sources_{index}", channel)
                    instance.connect(receive, source_union)
            else:
                receive = instance.add_receive(
                    "receive_sources_0", self._bl_source_channels[0]
                )
                instance.connect(receive, resolver)
            sink_receive = instance.add_receive("receive_annotated_sinks", sink_channel)
            instance.connect(sink_receive, resolver)
            instance.connect(resolver, provenance_sink)
        instance.set_provenance(self.managers[instance.name])
