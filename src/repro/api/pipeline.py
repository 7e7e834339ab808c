"""The ``Pipeline`` facade: one entry point from dataflow to results.

A :class:`Pipeline` takes a :class:`~repro.api.dataflow.Dataflow`, a
provenance technique and an optional :class:`Placement`, and hides all the
deployment mechanics the examples used to hand-wire:

* **intra-process** (no placement): the dataflow is lowered into one
  :class:`~repro.spe.query.Query`, provenance capture is spliced in with
  :func:`~repro.core.provenance.attach_intra_process_provenance` (an SU
  operator plus a provenance Sink per data Sink, Theorem 5.3), and the
  deterministic :class:`~repro.spe.scheduler.Scheduler` runs it.
* **inter-process** (with a placement): the dataflow is partitioned into
  :class:`~repro.spe.instance.SPEInstance` processes, Send/Receive pairs are
  inserted on every edge crossing a process boundary, and -- depending on the
  technique -- GeneaLog's SU/MU machinery (section 6) or the Ariadne-style
  baseline's source shipping is spliced in before a dedicated provenance
  instance is appended.  The :class:`~repro.spe.runtime.DistributedRuntime`
  runs the deployment.

Either way :meth:`Pipeline.run` returns a :class:`PipelineResult` bundling
the sinks, the collected provenance records and the transfer statistics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis import AnalysisReport, PlanAnalysisWarning, analyze_plan
from repro.api.dataflow import Dataflow, DataflowError
from repro.core.baseline import BaselineProvenanceResolver
from repro.core.multi_unfolder import attach_mu
from repro.core.provenance import (
    ProvenanceCapture,
    ProvenanceCollector,
    ProvenanceMode,
    ProvenanceRecord,
    attach_intra_process_provenance,
    create_manager,
)
from repro.core.unfolder import attach_su
from repro.obs.telemetry import Telemetry, coerce_telemetry
from repro.provstore.backends import JsonlLedgerBackend
from repro.provstore.ledger import ProvenanceLedger
from repro.provstore.tap import LedgerTap
from repro.spe.channels import Channel
from repro.spe.cluster import LAUNCHERS, RemoteRuntime
from repro.spe.instance import SPEInstance
from repro.spe.metrics import (
    ChannelCounters,
    MetricsSnapshot,
    snapshot_operators,
)
from repro.spe.operators.base import Operator
from repro.spe.operators.sink import SinkOperator
from repro.spe.operators.source import SourceOperator
from repro.spe.provenance_api import ProvenanceManager
from repro.spe.query import Query
from repro.spe.runtime import DistributedRuntime
from repro.spe.scheduler import Scheduler

#: name of the dedicated provenance instance of distributed deployments.
PROVENANCE_INSTANCE = "provenance_node"

def traversal_times_by_instance(
    managers: Mapping[str, ProvenanceManager],
) -> Dict[str, List[float]]:
    """Contribution-graph traversal samples grouped by SPE instance name."""
    times: Dict[str, List[float]] = {}
    for name, manager in managers.items():
        samples = list(getattr(manager, "traversal_times_s", []))
        if samples:
            times[name] = samples
    return times


def resolve_mode(provenance: Union[str, ProvenanceMode]) -> ProvenanceMode:
    """Accept ``"none"``/``"genealog"``/``"baseline"``, NP/GL/BL, or the enum."""
    if isinstance(provenance, ProvenanceMode):
        return provenance
    # from_label matches both the paper's NP/GL/BL labels and the
    # (case-insensitive) enum member names NONE/GENEALOG/BASELINE.
    return ProvenanceMode.from_label(provenance)


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
        if PROVENANCE_INSTANCE in assignments:
            raise DataflowError(
                f"instance name {PROVENANCE_INSTANCE!r} is reserved for the "
                "provenance instance added by the pipeline"
            )
        self.assignments: Dict[str, Tuple[str, ...]] = {
            instance: tuple(stages) for instance, stages in assignments.items()
        }
        self.links: Dict[Tuple[str, str], str] = dict(links or {})

    def instance_of(self) -> Dict[str, str]:
        """Stage name -> instance name; raise on double assignment."""
        owner: Dict[str, str] = {}
        for instance, stages in self.assignments.items():
            for stage in stages:
                if stage in owner:
                    raise DataflowError(
                        f"stage {stage!r} is assigned to both {owner[stage]!r} "
                        f"and {instance!r}"
                    )
                owner[stage] = instance
        return owner

    def validate_against(self, dataflow: Dataflow) -> Dict[str, str]:
        """Check the placement covers ``dataflow`` exactly; return the owner map.

        Logical parallel-stage names are expanded to their member nodes.
        Unknown and duplicated assignments are reported *with the offending
        instance names*, so a typo'd or doubly-placed stage points straight
        at the instances to fix.
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
        return {stage: instances[0] for stage, instances in owners.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Placement(instances={list(self.assignments)!r})"


@dataclass
class PipelineResult:
    """Everything a built (and possibly run) pipeline exposes."""

    mode: ProvenanceMode
    deployment: str  # "intra" or "inter"
    fused: bool
    #: the lowered query (intra-process deployments only).
    query: Optional[Query] = None
    #: the lowered SPE instances (inter-process; provenance instance last).
    instances: List[SPEInstance] = field(default_factory=list)
    #: the dataflow's declared Sources / data Sinks (not provenance sinks).
    sources: List[SourceOperator] = field(default_factory=list)
    sinks: List[SinkOperator] = field(default_factory=list)
    #: intra-process provenance capture (None for inter-process).
    capture: Optional[ProvenanceCapture] = None
    #: inter-process provenance collector (None intra / with mode NP).
    collector: Optional[ProvenanceCollector] = None
    managers: Dict[str, ProvenanceManager] = field(default_factory=dict)
    channels: List[Channel] = field(default_factory=list)
    #: operator wake-ups (intra) or instance wake-ups (inter) executed by
    #: :meth:`Pipeline.run`.
    rounds: int = 0
    #: operator wake-ups executed (intra: equals ``rounds``; inter: summed
    #: over all instance schedulers).
    wakeups: int = 0
    #: live provenance store attached via ``Pipeline(provenance_store=...)``.
    store: Optional[ProvenanceLedger] = None
    #: the run's telemetry (None unless ``Pipeline(telemetry=...)`` enabled
    #: it): merged spans, time series, histograms and the exporters.
    trace: Optional[Telemetry] = None

    # -- convenience -------------------------------------------------------------
    def timeline(self):
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
        """All provenance records, wherever they were collected."""
        if self.capture is not None:
            return self.capture.records()
        if self.collector is not None:
            return self.collector.records()
        return []

    def traversal_times_s(self) -> List[float]:
        """Per-sink-tuple contribution-graph traversal times (seconds)."""
        if self.capture is not None:
            return self.capture.traversal_times_s()
        return [
            sample
            for samples in self.traversal_times_by_instance().values()
            for sample in samples
        ]

    def traversal_times_by_instance(self) -> Dict[str, List[float]]:
        """Traversal times grouped by SPE instance (inter-process)."""
        return traversal_times_by_instance(self.managers)

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
        operators = {}
        if self.query is not None:
            operators.update(snapshot_operators(self.query.operators))
        for instance in self.instances:
            operators.update(
                snapshot_operators(instance.operators, instance=instance.name)
            )
        channels = {}
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
    selects the deployment: ``None`` runs everything in one process with the
    :class:`Scheduler`; a :class:`Placement` deploys onto several SPE
    instances run by the :class:`DistributedRuntime`.  ``retention`` (seconds
    of provenance the MU / baseline resolver must retain) defaults to the sum
    of the dataflow's window sizes.  ``execution`` selects where the
    event-driven scheduler runs: ``"event"`` (default) keeps everything in
    this process, ``"process"`` forks one OS process per SPE instance
    connected by pipe-backed channels, and ``"cluster"`` ships each SPE
    instance to a worker daemon over TCP with socket-backed channels
    (``hosts`` places the instances).  Both need a placement and run on the
    :class:`~repro.spe.cluster.RemoteRuntime`, whose ``LAUNCHERS`` table
    pairs each with its transport.  Inter-instance channels carry
    :mod:`repro.spe.codec` batch blobs under every ``execution``.
    ``telemetry`` enables runtime observability for the run (default off):
    ``True``, a :class:`~repro.obs.telemetry.TelemetryConfig` or a
    :class:`~repro.obs.telemetry.Telemetry` object -- the run's spans, time
    series and histograms surface as ``PipelineResult.trace`` /
    ``PipelineResult.timeline()``, with worker buffers shipped back and
    clock-aligned under ``execution="process"`` / ``"cluster"``.
    """

    def __init__(
        self,
        dataflow: Dataflow,
        provenance: Union[str, ProvenanceMode] = "none",
        placement: Optional[Placement] = None,
        fused: bool = True,
        retention: Optional[float] = None,
        keep_unfolded_tuples: bool = False,
        execution: str = "event",
        provenance_store: Union[ProvenanceLedger, str, None] = None,
        hosts=None,
        telemetry=None,
        validate: str = "warn",
    ) -> None:
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
        self.mode = resolve_mode(provenance)
        self.placement = placement
        self.fused = fused
        self.retention = retention
        self.keep_unfolded_tuples = keep_unfolded_tuples
        self.execution = execution
        self.hosts = hosts
        try:
            self.telemetry = coerce_telemetry(telemetry)
        except ValueError as exc:
            raise DataflowError(str(exc)) from None
        self.validate = validate
        self.store = self._resolve_store(provenance_store)
        self._result: Optional[PipelineResult] = None

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
        executing anything.  :meth:`run` calls this automatically unless
        the pipeline was built with ``validate="off"``.
        """
        return analyze_plan(
            self.dataflow,
            placement=self.placement,
            mode=self.mode,
            execution=self.execution,
            retention=self.retention,
            store=self.store,
        )

    def _gate(self) -> None:
        """Apply the ``validate=`` policy before a run."""
        if self.validate == "off":
            return
        report = self.analyze()
        if self.validate == "strict":
            report.raise_for_errors()
        for diagnostic in report.diagnostics:
            warnings.warn(
                f"plan {self.dataflow.name!r}: {diagnostic}",
                PlanAnalysisWarning,
                stacklevel=3,
            )

    # -- building ----------------------------------------------------------------
    def build(self) -> PipelineResult:
        """Lower, splice provenance and validate; idempotent."""
        if self._result is None:
            if self.placement is None:
                self._result = self._build_intra()
            else:
                self._result = self._build_inter()
        return self._result

    def _build_intra(self) -> PipelineResult:
        query = Query(self.dataflow.name)
        operators = self.dataflow.lower_into(query)
        sources = [operators[name] for name in self.dataflow.source_names()]
        sinks = [operators[name] for name in self.dataflow.sink_names()]
        capture = attach_intra_process_provenance(
            query,
            self.mode,
            fused=self.fused,
            keep_unfolded_tuples=self.keep_unfolded_tuples,
            only_sinks=self.dataflow.capture_sink_names(),
        )
        if self.store is not None:
            if not capture.provenance_sinks:
                raise DataflowError(
                    "a provenance store needs at least one captured sink; "
                    "every sink of dataflow "
                    f"{self.dataflow.name!r} opted out of provenance capture"
                )
            # One logical ledger fed by one tap per provenance Sink; the
            # ledger seals on the minimum watermark across its taps.
            for provenance_sink in capture.provenance_sinks.values():
                provenance_sink.add_tap(LedgerTap(self.store))
        query.validate()
        return PipelineResult(
            mode=self.mode,
            deployment="intra",
            fused=self.fused,
            query=query,
            sources=sources,
            sinks=sinks,
            capture=capture,
            managers={"local": capture.manager},
            store=self.store,
        )

    def _build_inter(self) -> PipelineResult:
        launcher = LAUNCHERS.get(self.execution)

        # Out of process, every channel gets the launcher's transport before
        # any worker starts (pipes exist before the fork; sockets start
        # detached and are wired on the workers' hosts).
        def channel_factory(name: str) -> Channel:
            if launcher is None:
                return Channel(name)
            return Channel(name, transport=launcher.new_transport(name))

        builder = _DistributedBuilder(
            self.dataflow,
            self.placement,
            self.mode,
            fused=self.fused,
            retention=self.retention,
            keep_unfolded_tuples=self.keep_unfolded_tuples,
            store=self.store,
            channel_factory=channel_factory,
        )
        return builder.build()

    # -- running -----------------------------------------------------------------
    def run(
        self,
        round_callback=None,
        callback_every: int = 16,
        max_rounds: int = 10_000_000,
    ) -> PipelineResult:
        """Build (if needed) and run to quiescence; return the result.

        ``round_callback`` is invoked every ``callback_every`` operator
        wake-ups (intra) / instance wake-ups (inter), e.g. for memory
        sampling; out of process it fires once per collected worker result.
        """
        self._gate()
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
        if result.deployment == "intra":
            scheduler = Scheduler(
                result.query,
                max_passes=max_rounds,
                pass_callback=round_callback,
                callback_every=callback_every,
            )
            if telemetry is not None:
                scheduler.tracer = telemetry.tracer
            scheduler.run()
            result.rounds = result.wakeups = scheduler.wakeups
        else:
            if self.execution in LAUNCHERS:
                runtime = RemoteRuntime(
                    result.instances,
                    execution=self.execution,
                    hosts=self.hosts,
                    max_rounds=max_rounds,
                    round_callback=round_callback,
                    telemetry=telemetry,
                )
            else:
                runtime = DistributedRuntime(
                    result.instances,
                    max_rounds=max_rounds,
                    round_callback=round_callback,
                    callback_every=callback_every,
                )
                if telemetry is not None:
                    runtime.install_tracer(telemetry.tracer)
            runtime.run()
            result.rounds = runtime.rounds
            result.wakeups = runtime.total_wakeups()
        if telemetry is not None:
            telemetry.finalize(result)
        return result


class _DistributedBuilder:
    """Lowers a dataflow onto SPE instances and splices provenance plumbing.

    Generalises the hand-written three-instance deployments of the paper's
    evaluation (Figures 7, 9C, 10C, 11C): Send/Receive pairs at every cut
    edge, SU operators in front of every Send and Sink under GeneaLog plus an
    MU on a dedicated provenance instance, and source/sink stream shipping to
    a source-store resolver under the Ariadne-style baseline.
    """

    def __init__(
        self,
        dataflow: Dataflow,
        placement: Placement,
        mode: ProvenanceMode,
        fused: bool,
        retention: Optional[float],
        keep_unfolded_tuples: bool = False,
        store: Optional[ProvenanceLedger] = None,
        channel_factory: Callable[[str], Channel] = Channel,
    ) -> None:
        self.dataflow = dataflow
        self.placement = placement
        self.mode = mode
        self.fused = fused
        self.channel_factory = channel_factory
        self.retention = (
            retention if retention is not None else dataflow.retention_s()
        )
        self.keep_unfolded_tuples = keep_unfolded_tuples
        self.store = store
        self.instances: Dict[str, SPEInstance] = {}
        self.managers: Dict[str, ProvenanceManager] = {}
        self.channels: List[Channel] = []
        self.operators: Dict[str, Operator] = {}
        #: (instance, send, label) per cut edge, in declaration order.
        self._cut_sends: List[Tuple[SPEInstance, Operator, str]] = []
        self._upstream_channels: List[Channel] = []
        self._derived_channel: Optional[Channel] = None
        self._bl_source_channels: List[Channel] = []
        self._bl_sink_channel: Optional[Channel] = None
        self.collector: Optional[ProvenanceCollector] = None

    # -- helpers -----------------------------------------------------------------
    def _channel(self, label: str) -> Channel:
        channel = self.channel_factory(f"{self.dataflow.name}_{label}")
        self.channels.append(channel)
        return channel

    def _new_instance(self, name: str) -> SPEInstance:
        instance = SPEInstance(name)
        self.instances[name] = instance
        self.managers[name] = create_manager(self.mode, node_id=name)
        instance.set_provenance(self.managers[name])
        return instance

    def _owning(self, operator: Operator) -> SPEInstance:
        for instance in self.instances.values():
            if operator.name in instance:
                return instance
        raise DataflowError(f"operator {operator.name!r} is not placed")  # pragma: no cover

    # -- lowering ----------------------------------------------------------------
    #: channel labels the provenance splicing claims for itself.
    _RESERVED_LABELS = frozenset({"derived", "annotated_sinks", "sources"})

    @classmethod
    def _label_reserved(cls, label: str) -> bool:
        return (
            label in cls._RESERVED_LABELS
            or label.startswith("upstream_")
            or label.startswith("sources_")
        )

    def _cut_label(self, edge, used: set) -> str:
        """The channel label of a cut edge; explicit labels must be unique."""
        explicit = self.placement.links.get((edge.upstream, edge.downstream))
        if explicit is not None:
            if self._label_reserved(explicit):
                raise DataflowError(
                    f"placement link label {explicit!r} is reserved for the "
                    "provenance plumbing ('derived', 'annotated_sinks', "
                    "'sources*', 'upstream_*'); pick another label"
                )
            if explicit in used:
                raise DataflowError(
                    f"placement link label {explicit!r} is used by more than "
                    "one cut edge; labels must be unique"
                )
            return explicit
        candidates = [
            edge.upstream,
            f"{edge.upstream}_{edge.downstream}",
            # the "link_" prefix can never collide with a reserved label.
            f"link_{edge.upstream}_{edge.downstream}",
        ]
        for label in candidates:
            if label not in used and not self._label_reserved(label):
                return label
        suffix = 2
        while True:
            label = f"link_{edge.upstream}_{edge.downstream}_{suffix}"
            if label not in used:
                return label
            suffix += 1

    def build(self) -> PipelineResult:
        owner = self.placement.validate_against(self.dataflow)
        for instance_name in self.placement.assignments:
            self._new_instance(instance_name)
        for node_name in self.dataflow.node_names:
            instance = self.instances[owner[node_name]]
            self.operators[node_name] = instance.add(
                self.dataflow._nodes[node_name].instantiate()
            )
        used_labels: set = set()
        cut_edges: set = set()
        for edge in self.dataflow.ordered_edges():
            upstream_instance = self.instances[owner[edge.upstream]]
            downstream_instance = self.instances[owner[edge.downstream]]
            upstream_op = self.operators[edge.upstream]
            downstream_op = self.operators[edge.downstream]
            if upstream_instance is downstream_instance:
                upstream_instance.connect(
                    upstream_op,
                    downstream_op,
                    name=edge.stream_name,
                    sorted_stream=edge.sorted_stream,
                )
                continue
            cut_edges.add((edge.upstream, edge.downstream))
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
        stale_links = [key for key in self.placement.links if key not in cut_edges]
        if stale_links:
            raise DataflowError(
                f"placement link(s) {stale_links!r} do not name any edge that "
                "crosses an instance boundary (check for typos or edges placed "
                "on a single instance)"
            )

        sources = [self.operators[name] for name in self.dataflow.source_names()]
        sinks = [self.operators[name] for name in self.dataflow.sink_names()]

        if self.mode is not ProvenanceMode.NONE:
            self._require_sink_captures(sinks)
        if self.mode is ProvenanceMode.GENEALOG:
            self._splice_genealog(sinks)
        elif self.mode is ProvenanceMode.BASELINE:
            self._splice_baseline(sources, sinks)
        self._build_provenance_instance()

        for instance in self.instances.values():
            # Operators spliced in after instance creation (SU, Send, MU, ...)
            # must also use the instance's provenance manager.
            instance.set_provenance(self.managers[instance.name])
            instance.validate()

        return PipelineResult(
            mode=self.mode,
            deployment="inter",
            fused=self.fused,
            instances=list(self.instances.values()),
            sources=sources,
            sinks=sinks,
            collector=self.collector,
            managers=self.managers,
            channels=self.channels,
            store=self.store,
        )

    def _require_sink_captures(self, sinks: List[SinkOperator]) -> None:
        """Distributed capture covers the single data Sink; honour the knob."""
        captured = set(self.dataflow.capture_sink_names())
        opted_out = [sink.name for sink in sinks if sink.name not in captured]
        if opted_out:
            raise DataflowError(
                f"distributed provenance capture requires the data Sink to "
                f"capture provenance, but sink(s) {opted_out!r} opted out "
                "(capture_provenance=False, or another sink opted in "
                "exclusively); run with provenance='none' instead"
            )

    # -- GeneaLog splicing (section 6) --------------------------------------------
    def _require_ordered(self, stream, producer: Operator) -> None:
        """Provenance operators need timestamp-ordered input (section 2).

        GeneaLog's guarantees rest on deterministic, timestamp-ordered
        processing; splicing SU/MU (or the baseline's source shipping) onto a
        stream with bounded disorder would feed them out-of-order tuples, so
        refuse at build time with guidance instead of crashing mid-run.
        """
        if not stream.enforce_order:
            raise DataflowError(
                f"cannot splice provenance capture onto the unordered stream "
                f"leaving {producer.name!r}: GeneaLog/baseline provenance "
                "requires timestamp-ordered streams; place the sort() stage "
                "before any instance boundary, Sink or shipped source stream"
            )

    @staticmethod
    def _restore_output_port(producer: Operator, port: int) -> None:
        """Move ``producer``'s newest output stream back to position ``port``.

        Splicing disconnects one of ``producer``'s output streams and
        reconnects a replacement, which ``connect`` appends at the end.  For
        port-sensitive producers (Router: output ``i`` carries predicate
        ``i``) the replacement must take the removed stream's slot.
        """
        producer.outputs.insert(port, producer.outputs.pop())

    def _splice_su_before(
        self, instance: SPEInstance, consumer: Operator, su_name: str
    ) -> Operator:
        """Re-route ``consumer``'s input through a fresh SU; return its U side."""
        stream = consumer.inputs[0]
        producer = instance.producer_of(stream)
        self._require_ordered(stream, producer)
        port = producer.outputs.index(stream)
        instance.disconnect(stream)
        data_out, unfolded_out = attach_su(
            instance, producer, name=su_name, fused=self.fused
        )
        self._restore_output_port(producer, port)
        instance.connect(data_out, consumer)
        return unfolded_out

    def _splice_genealog(self, sinks: List[SinkOperator]) -> None:
        for instance, send, label in self._cut_sends:
            unfolded_out = self._splice_su_before(instance, send, f"su_{label}")
            upstream_channel = self._channel(f"upstream_{label}")
            # Unfolded tuples carry their provenance in their attributes
            # (sink_id / id_o / type_o); the MU and the ledger never read the
            # re-attached wire metadata, so skip the per-tuple payload.
            upstream_send = instance.add_send(
                f"send_upstream_{label}", upstream_channel, ship_provenance=False
            )
            instance.connect(unfolded_out, upstream_send)
            self._upstream_channels.append(upstream_channel)
        if len(sinks) != 1:
            raise DataflowError(
                "distributed provenance capture needs exactly one data Sink; "
                f"dataflow {self.dataflow.name!r} declares {len(sinks)}"
            )
        sink = sinks[0]
        instance = self._owning(sink)
        unfolded_out = self._splice_su_before(instance, sink, f"su_{sink.name}")
        self._derived_channel = self._channel("derived")
        derived_send = instance.add_send(
            "send_derived", self._derived_channel, ship_provenance=False
        )
        instance.connect(unfolded_out, derived_send)

    # -- baseline splicing ----------------------------------------------------------
    def _splice_baseline(
        self, sources: List[SourceOperator], sinks: List[SinkOperator]
    ) -> None:
        if len(sinks) != 1:
            raise DataflowError(
                "distributed provenance capture needs exactly one data Sink; "
                f"dataflow {self.dataflow.name!r} declares {len(sinks)}"
            )
        if not sources:
            raise DataflowError(
                "baseline provenance needs at least one Source stage to ship "
                f"to the source store; dataflow {self.dataflow.name!r} "
                "declares none (Receive-fed fragments cannot use it)"
            )
        for index, source in enumerate(sources):
            instance = self._owning(source)
            label = "sources" if len(sources) == 1 else f"sources_{index}"
            multiplex = instance.add_multiplex(f"{label}_multiplex")
            if source.outputs:
                stream = source.outputs[0]
                self._require_ordered(stream, source)
                consumer = next(op for op in instance.operators if stream in op.inputs)
                # the re-routed stream must keep the consumer's input port
                # (the Join's left/right sides are positional).
                input_port = consumer.inputs.index(stream)
                instance.disconnect(stream)
                instance.connect(source, multiplex)
                instance.connect(multiplex, consumer)
                consumer.inputs.insert(input_port, consumer.inputs.pop())
            else:
                instance.connect(source, multiplex)
            channel = self._channel(label)
            send = instance.add_send(f"send_{label}", channel)
            instance.connect(multiplex, send)
            self._bl_source_channels.append(channel)
        sink = sinks[0]
        instance = self._owning(sink)
        stream = sink.inputs[0]
        producer = instance.producer_of(stream)
        port = producer.outputs.index(stream)
        instance.disconnect(stream)
        multiplex = instance.add_multiplex(f"{sink.name}_multiplex")
        instance.connect(producer, multiplex)
        self._restore_output_port(producer, port)
        instance.connect(multiplex, sink)
        self._bl_sink_channel = self._channel("annotated_sinks")
        sink_send = instance.add_send("send_annotated_sinks", self._bl_sink_channel)
        instance.connect(multiplex, sink_send)

    # -- the provenance instance ----------------------------------------------------
    def _build_provenance_instance(self) -> None:
        if self.mode is ProvenanceMode.NONE:
            return
        instance = self._new_instance(PROVENANCE_INSTANCE)
        self.collector = ProvenanceCollector(name=self.dataflow.name)
        provenance_sink = instance.add_sink(
            "provenance_sink", keep_tuples=self.keep_unfolded_tuples
        )
        provenance_sink.add_tap(self.collector)
        if self.store is not None:
            # The unfolded stream reaching this sink already crossed the
            # process boundaries serialised; the ledger ingests the payloads
            # reconstructed on this (the receiving) instance.
            provenance_sink.add_tap(LedgerTap(self.store))
        if self.mode is ProvenanceMode.GENEALOG:
            ports = attach_mu(
                instance,
                retention=self.retention,
                upstream_count=len(self._upstream_channels),
                name="mu",
                fused=self.fused,
            )
            derived_receive = instance.add_receive(
                "receive_derived", self._derived_channel
            )
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
            sink_receive = instance.add_receive(
                "receive_annotated_sinks", self._bl_sink_channel
            )
            instance.connect(sink_receive, resolver)
            instance.connect(resolver, provenance_sink)
        instance.set_provenance(self.managers[instance.name])
