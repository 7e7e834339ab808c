"""Frozen legacy ``add_*``/``connect`` constructions of Q1-Q4.

This module is the *oracle* for the fluent-DSL parity tests: it preserves,
verbatim, the imperative query constructions that ``repro.workloads.queries``
used before it was rewritten on top of the :mod:`repro.api` surface.  Each
builder returns the built deployment as a
:class:`~repro.api.pipeline.PipelineResult`, the one handle on a built query.  The
tests in ``tests/unit/test_dataflow_dsl.py`` and
``tests/integration/test_pipeline.py`` assert that the DSL-built queries are
operator-for-operator identical to these and produce identical sink output
and provenance records in all three provenance modes.

Do not "modernise" this module -- its value is that it does NOT use the DSL.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.api.pipeline import PipelineResult
from repro.core.baseline import BaselineProvenanceResolver
from repro.core.multi_unfolder import attach_mu
from repro.core.provenance import (
    ProvenanceCollector,
    ProvenanceMode,
    create_manager,
)
from repro.core.unfolder import attach_su
from repro.spe.channels import Channel
from repro.spe.instance import SPEInstance
from repro.spe.operators.aggregate import WindowSpec
from repro.spe.operators.base import Operator
from repro.spe.operators.sink import SinkOperator
from repro.spe.operators.source import SourceOperator
from repro.spe.provenance_api import ProvenanceManager
from repro.spe.query import Query
from repro.workloads.queries import (
    accident_aggregate,
    accident_alert,
    anomaly_alert,
    blackout_alert,
    blackout_count_aggregate,
    consumption_difference,
    daily_consumption_aggregate,
    midnight_measurement,
    same_meter,
    stopped_car_aggregate,
    stopped_car_alert,
    zero_consumption,
)
from repro.workloads.smart_grid import SECONDS_PER_DAY, SECONDS_PER_HOUR

#: query name -> sum of the window sizes of its stateful operators (seconds),
#: the MU / resolver retention of the three-instance deployments (frozen; the
#: DSL derives it with ``Dataflow.retention_s()``).
QUERY_WINDOW_SUMS: Dict[str, float] = {
    "q1": 120.0,
    "q2": 150.0,
    "q3": 2 * SECONDS_PER_DAY,
    "q4": SECONDS_PER_DAY + SECONDS_PER_HOUR,
}


# ---------------------------------------------------------------------------
# intra-process (single SPE instance) builders
# ---------------------------------------------------------------------------


def _finish_intra(
    query: Query,
    source: SourceOperator,
    sink: SinkOperator,
    mode: ProvenanceMode,
    fused: bool,
) -> PipelineResult:
    manager = create_manager(mode)
    collectors: Dict[str, ProvenanceCollector] = {}
    if mode is not ProvenanceMode.NONE:
        # Theorem 5.3 by hand: the Sink's producer feeds an SU whose data
        # side feeds the Sink and whose unfolded side feeds a provenance Sink.
        producer, _ = query.disconnect(sink.inputs[0])
        data_out, unfolded_out = attach_su(
            query, producer, name=f"su_{sink.name}", fused=fused
        )
        query.connect(data_out, sink)
        collector = collectors[sink.name] = ProvenanceCollector(name=sink.name)
        provenance_sink = query.add_sink(
            f"provenance_{sink.name}", callback=collector.add, keep_tuples=False
        )
        query.connect(unfolded_out, provenance_sink)
    query.set_provenance(manager)
    query.validate()
    return PipelineResult(
        mode=mode,
        deployment="intra",
        fused=fused,
        query=query,
        sources=[source],
        sinks=[sink],
        collectors=collectors,
        managers={query.name: manager},
    )


def build_q1(
    supplier,
    mode: ProvenanceMode = ProvenanceMode.NONE,
    fused: bool = True,
) -> PipelineResult:
    """Q1 - detecting broken-down cars (Figure 1)."""
    query = Query("q1")
    source = query.add_source("source", supplier)
    stopped = query.add_filter("stopped_filter", lambda t: t["speed"] == 0)
    aggregate = query.add_aggregate(
        "stop_aggregate",
        WindowSpec(size=120.0, advance=30.0),
        stopped_car_aggregate,
        key_function=lambda t: t["car_id"],
    )
    alert = query.add_filter("alert_filter", stopped_car_alert)
    sink = query.add_sink("sink")
    query.connect(source, stopped)
    query.connect(stopped, aggregate)
    query.connect(aggregate, alert)
    query.connect(alert, sink)
    return _finish_intra(query, source, sink, mode, fused)


def build_q2(
    supplier,
    mode: ProvenanceMode = ProvenanceMode.NONE,
    fused: bool = True,
) -> PipelineResult:
    """Q2 - detecting accidents (Figure 9A)."""
    query = Query("q2")
    source = query.add_source("source", supplier)
    stopped = query.add_filter("stopped_filter", lambda t: t["speed"] == 0)
    aggregate = query.add_aggregate(
        "stop_aggregate",
        WindowSpec(size=120.0, advance=30.0),
        stopped_car_aggregate,
        key_function=lambda t: t["car_id"],
    )
    alert = query.add_filter("stopped_alert_filter", stopped_car_alert)
    accident = query.add_aggregate(
        "accident_aggregate",
        WindowSpec(size=30.0, advance=30.0),
        accident_aggregate,
        key_function=lambda t: t["last_pos"],
    )
    accident_filter = query.add_filter("accident_alert_filter", accident_alert)
    sink = query.add_sink("sink")
    query.connect(source, stopped)
    query.connect(stopped, aggregate)
    query.connect(aggregate, alert)
    query.connect(alert, accident)
    query.connect(accident, accident_filter)
    query.connect(accident_filter, sink)
    return _finish_intra(query, source, sink, mode, fused)


def build_q3(
    supplier,
    mode: ProvenanceMode = ProvenanceMode.NONE,
    fused: bool = True,
) -> PipelineResult:
    """Q3 - long-term blackout detection (Figure 10A)."""
    query = Query("q3")
    source = query.add_source("source", supplier)
    daily = query.add_aggregate(
        "daily_aggregate",
        WindowSpec(size=SECONDS_PER_DAY, advance=SECONDS_PER_DAY),
        daily_consumption_aggregate,
        key_function=lambda t: t["meter_id"],
    )
    zero = query.add_filter("zero_filter", zero_consumption)
    count = query.add_aggregate(
        "blackout_aggregate",
        WindowSpec(size=SECONDS_PER_DAY, advance=SECONDS_PER_DAY),
        blackout_count_aggregate,
    )
    alert = query.add_filter("blackout_alert_filter", blackout_alert)
    sink = query.add_sink("sink")
    query.connect(source, daily)
    query.connect(daily, zero)
    query.connect(zero, count)
    query.connect(count, alert)
    query.connect(alert, sink)
    return _finish_intra(query, source, sink, mode, fused)


def build_q4(
    supplier,
    mode: ProvenanceMode = ProvenanceMode.NONE,
    fused: bool = True,
) -> PipelineResult:
    """Q4 - meter anomaly detection (Figure 11A)."""
    query = Query("q4")
    source = query.add_source("source", supplier)
    multiplex = query.add_multiplex("multiplex")
    daily = query.add_aggregate(
        "daily_aggregate",
        WindowSpec(size=SECONDS_PER_DAY, advance=SECONDS_PER_DAY, emit_at="end"),
        daily_consumption_aggregate,
        key_function=lambda t: t["meter_id"],
    )
    midnight = query.add_filter("midnight_filter", midnight_measurement)
    join = query.add_join(
        "anomaly_join",
        window_size=SECONDS_PER_HOUR,
        predicate=same_meter,
        combiner=consumption_difference,
    )
    alert = query.add_filter("anomaly_alert_filter", anomaly_alert)
    sink = query.add_sink("sink")
    query.connect(source, multiplex)
    query.connect(multiplex, daily)
    query.connect(multiplex, midnight)
    query.connect(daily, join)
    query.connect(midnight, join)
    query.connect(join, alert)
    query.connect(alert, sink)
    return _finish_intra(query, source, sink, mode, fused)


LEGACY_QUERY_BUILDERS: Dict[str, Callable[..., PipelineResult]] = {
    "q1": build_q1,
    "q2": build_q2,
    "q3": build_q3,
    "q4": build_q4,
}


def build_query(
    name: str,
    supplier,
    mode: ProvenanceMode = ProvenanceMode.NONE,
    fused: bool = True,
) -> PipelineResult:
    """Legacy intra-process construction of query ``name`` ("q1".."q4")."""
    return LEGACY_QUERY_BUILDERS[name.lower()](supplier, mode=mode, fused=fused)


# ---------------------------------------------------------------------------
# inter-process (three SPE instances) builders
# ---------------------------------------------------------------------------


class _DistributedAssembler:
    """Shared plumbing for the three-instance deployments of Q1-Q4."""

    def __init__(self, query_name: str, mode: ProvenanceMode, fused: bool) -> None:
        self.query_name = query_name
        self.mode = mode
        self.fused = fused
        self.retention = QUERY_WINDOW_SUMS[query_name]
        self.instances: List[SPEInstance] = []
        self.managers: Dict[str, ProvenanceManager] = {}
        self.channels: List[Channel] = []
        self.collector: Optional[ProvenanceCollector] = None
        self.provenance_instance: Optional[SPEInstance] = None
        self._upstream_channels: List[Channel] = []
        self._derived_channel: Optional[Channel] = None
        self._bl_source_channels: List[Channel] = []
        self._bl_sink_channel: Optional[Channel] = None

    # -- instances --------------------------------------------------------------
    def new_instance(self, name: str) -> SPEInstance:
        instance = SPEInstance(name)
        manager = create_manager(self.mode, node_id=name)
        self.managers[name] = manager
        self.instances.append(instance)
        instance.set_provenance(manager)
        return instance

    def channel(self, name: str) -> Channel:
        channel = Channel(f"{self.query_name}_{name}")
        self.channels.append(channel)
        return channel

    # -- provenance-aware wiring helpers -------------------------------------------
    def connect_to_send(
        self, instance: SPEInstance, producer: Operator, channel: Channel, label: str
    ) -> None:
        """Wire ``producer`` to a Send, inserting an SU first under GeneaLog."""
        send = instance.add_send(f"send_{label}", channel)
        if self.mode is ProvenanceMode.GENEALOG:
            data_out, unfolded_out = attach_su(
                instance, producer, name=f"su_{label}", fused=self.fused
            )
            instance.connect(data_out, send)
            upstream_channel = self.channel(f"upstream_{label}")
            upstream_send = instance.add_send(f"send_upstream_{label}", upstream_channel)
            instance.connect(unfolded_out, upstream_send)
            self._upstream_channels.append(upstream_channel)
        else:
            instance.connect(producer, send)

    def connect_to_sink(
        self, instance: SPEInstance, producer: Operator, sink_name: str = "sink"
    ) -> SinkOperator:
        """Wire ``producer`` to the data Sink, adding provenance plumbing."""
        sink = instance.add_sink(sink_name)
        if self.mode is ProvenanceMode.GENEALOG:
            data_out, unfolded_out = attach_su(
                instance, producer, name=f"su_{sink_name}", fused=self.fused
            )
            instance.connect(data_out, sink)
            derived_channel = self.channel("derived")
            derived_send = instance.add_send("send_derived", derived_channel)
            instance.connect(unfolded_out, derived_send)
            self._derived_channel = derived_channel
        elif self.mode is ProvenanceMode.BASELINE:
            multiplex = instance.add_multiplex(f"{sink_name}_multiplex")
            instance.connect(producer, multiplex)
            instance.connect(multiplex, sink)
            sink_channel = self.channel("annotated_sinks")
            sink_send = instance.add_send("send_annotated_sinks", sink_channel)
            instance.connect(multiplex, sink_send)
            self._bl_sink_channel = sink_channel
        else:
            instance.connect(producer, sink)
        return sink

    def ship_source_stream(
        self, instance: SPEInstance, source: SourceOperator, label: str = "sources"
    ) -> Operator:
        """Under BL, copy the raw source stream towards the provenance node."""
        if self.mode is not ProvenanceMode.BASELINE:
            return source
        multiplex = instance.add_multiplex(f"{label}_multiplex")
        instance.connect(source, multiplex)
        channel = self.channel(label)
        send = instance.add_send(f"send_{label}", channel)
        instance.connect(multiplex, send)
        self._bl_source_channels.append(channel)
        return multiplex

    # -- provenance instance ------------------------------------------------------------
    def build_provenance_instance(self) -> None:
        """Create the third ("provenance") instance, if the mode needs one."""
        if self.mode is ProvenanceMode.NONE:
            return
        instance = self.new_instance("provenance_node")
        self.provenance_instance = instance
        self.collector = ProvenanceCollector(name=self.query_name)
        provenance_sink = instance.add_sink(
            "provenance_sink", callback=self.collector.add, keep_tuples=False
        )
        if self.mode is ProvenanceMode.GENEALOG:
            ports = attach_mu(
                instance,
                retention=self.retention,
                upstream_count=len(self._upstream_channels),
                name="mu",
                fused=self.fused,
            )
            derived_receive = instance.add_receive("receive_derived", self._derived_channel)
            instance.connect(derived_receive, ports.derived_entry)
            for index, channel in enumerate(self._upstream_channels):
                upstream_receive = instance.add_receive(f"receive_upstream_{index}", channel)
                instance.connect(upstream_receive, ports.upstream_entry)
            instance.connect(ports.output, provenance_sink)
        else:  # BASELINE
            resolver = instance.add(
                BaselineProvenanceResolver("baseline_resolver", retention=self.retention)
            )
            source_entry: Operator = resolver
            if len(self._bl_source_channels) > 1:
                source_union = instance.add_union("source_union")
                instance.connect(source_union, resolver)
                source_entry = source_union
                for index, channel in enumerate(self._bl_source_channels):
                    receive = instance.add_receive(f"receive_sources_{index}", channel)
                    instance.connect(receive, source_union)
            else:
                receive = instance.add_receive("receive_sources_0", self._bl_source_channels[0])
                instance.connect(receive, resolver)
            sink_receive = instance.add_receive("receive_annotated_sinks", self._bl_sink_channel)
            instance.connect(sink_receive, resolver)
            instance.connect(resolver, provenance_sink)
        instance.set_provenance(self.managers[instance.name])

    def finish(self, source: SourceOperator, sink: SinkOperator) -> PipelineResult:
        self.build_provenance_instance()
        for instance in self.instances:
            instance.set_provenance(self.managers[instance.name])
            instance.validate()
        return PipelineResult(
            mode=self.mode,
            deployment="inter",
            fused=self.fused,
            instances=self.instances,
            sources=[source],
            sinks=[sink],
            collectors={} if self.collector is None else {sink.name: self.collector},
            managers=self.managers,
            channels=self.channels,
        )


def build_q1_distributed(
    supplier, mode: ProvenanceMode = ProvenanceMode.NONE, fused: bool = True
) -> PipelineResult:
    """Q1 deployed on three SPE instances (Figure 7)."""
    assembler = _DistributedAssembler("q1", mode, fused)

    spe1 = assembler.new_instance("spe1")
    source = spe1.add_source("source", supplier)
    upstream_of_filter = assembler.ship_source_stream(spe1, source)
    stopped = spe1.add_filter("stopped_filter", lambda t: t["speed"] == 0)
    spe1.connect(upstream_of_filter, stopped)
    data_channel = assembler.channel("data")
    assembler.connect_to_send(spe1, stopped, data_channel, label="data")

    spe2 = assembler.new_instance("spe2")
    receive = spe2.add_receive("receive_data", data_channel)
    aggregate = spe2.add_aggregate(
        "stop_aggregate",
        WindowSpec(size=120.0, advance=30.0),
        stopped_car_aggregate,
        key_function=lambda t: t["car_id"],
    )
    alert = spe2.add_filter("alert_filter", stopped_car_alert)
    spe2.connect(receive, aggregate)
    spe2.connect(aggregate, alert)
    sink = assembler.connect_to_sink(spe2, alert)

    return assembler.finish(source, sink)


def build_q2_distributed(
    supplier, mode: ProvenanceMode = ProvenanceMode.NONE, fused: bool = True
) -> PipelineResult:
    """Q2 deployed on three SPE instances (Figure 9C)."""
    assembler = _DistributedAssembler("q2", mode, fused)

    spe1 = assembler.new_instance("spe1")
    source = spe1.add_source("source", supplier)
    upstream_of_filter = assembler.ship_source_stream(spe1, source)
    stopped = spe1.add_filter("stopped_filter", lambda t: t["speed"] == 0)
    aggregate = spe1.add_aggregate(
        "stop_aggregate",
        WindowSpec(size=120.0, advance=30.0),
        stopped_car_aggregate,
        key_function=lambda t: t["car_id"],
    )
    alert = spe1.add_filter("stopped_alert_filter", stopped_car_alert)
    spe1.connect(upstream_of_filter, stopped)
    spe1.connect(stopped, aggregate)
    spe1.connect(aggregate, alert)
    data_channel = assembler.channel("data")
    assembler.connect_to_send(spe1, alert, data_channel, label="data")

    spe2 = assembler.new_instance("spe2")
    receive = spe2.add_receive("receive_data", data_channel)
    accident = spe2.add_aggregate(
        "accident_aggregate",
        WindowSpec(size=30.0, advance=30.0),
        accident_aggregate,
        key_function=lambda t: t["last_pos"],
    )
    accident_filter = spe2.add_filter("accident_alert_filter", accident_alert)
    spe2.connect(receive, accident)
    spe2.connect(accident, accident_filter)
    sink = assembler.connect_to_sink(spe2, accident_filter)

    return assembler.finish(source, sink)


def build_q3_distributed(
    supplier, mode: ProvenanceMode = ProvenanceMode.NONE, fused: bool = True
) -> PipelineResult:
    """Q3 deployed on three SPE instances (Figure 10C)."""
    assembler = _DistributedAssembler("q3", mode, fused)

    spe1 = assembler.new_instance("spe1")
    source = spe1.add_source("source", supplier)
    upstream_of_daily = assembler.ship_source_stream(spe1, source)
    daily = spe1.add_aggregate(
        "daily_aggregate",
        WindowSpec(size=SECONDS_PER_DAY, advance=SECONDS_PER_DAY),
        daily_consumption_aggregate,
        key_function=lambda t: t["meter_id"],
    )
    zero = spe1.add_filter("zero_filter", zero_consumption)
    spe1.connect(upstream_of_daily, daily)
    spe1.connect(daily, zero)
    data_channel = assembler.channel("data")
    assembler.connect_to_send(spe1, zero, data_channel, label="data")

    spe2 = assembler.new_instance("spe2")
    receive = spe2.add_receive("receive_data", data_channel)
    count = spe2.add_aggregate(
        "blackout_aggregate",
        WindowSpec(size=SECONDS_PER_DAY, advance=SECONDS_PER_DAY),
        blackout_count_aggregate,
    )
    alert = spe2.add_filter("blackout_alert_filter", blackout_alert)
    spe2.connect(receive, count)
    spe2.connect(count, alert)
    sink = assembler.connect_to_sink(spe2, alert)

    return assembler.finish(source, sink)


def build_q4_distributed(
    supplier, mode: ProvenanceMode = ProvenanceMode.NONE, fused: bool = True
) -> PipelineResult:
    """Q4 deployed on three SPE instances (Figure 11C)."""
    assembler = _DistributedAssembler("q4", mode, fused)

    spe1 = assembler.new_instance("spe1")
    source = spe1.add_source("source", supplier)
    upstream_of_multiplex = assembler.ship_source_stream(spe1, source)
    multiplex = spe1.add_multiplex("multiplex")
    spe1.connect(upstream_of_multiplex, multiplex)
    daily = spe1.add_aggregate(
        "daily_aggregate",
        WindowSpec(size=SECONDS_PER_DAY, advance=SECONDS_PER_DAY, emit_at="end"),
        daily_consumption_aggregate,
        key_function=lambda t: t["meter_id"],
    )
    midnight = spe1.add_filter("midnight_filter", midnight_measurement)
    spe1.connect(multiplex, daily)
    spe1.connect(multiplex, midnight)
    daily_channel = assembler.channel("daily")
    midnight_channel = assembler.channel("midnight")
    assembler.connect_to_send(spe1, daily, daily_channel, label="daily")
    assembler.connect_to_send(spe1, midnight, midnight_channel, label="midnight")

    spe2 = assembler.new_instance("spe2")
    receive_daily = spe2.add_receive("receive_daily", daily_channel)
    receive_midnight = spe2.add_receive("receive_midnight", midnight_channel)
    join = spe2.add_join(
        "anomaly_join",
        window_size=SECONDS_PER_HOUR,
        predicate=same_meter,
        combiner=consumption_difference,
    )
    alert = spe2.add_filter("anomaly_alert_filter", anomaly_alert)
    spe2.connect(receive_daily, join)
    spe2.connect(receive_midnight, join)
    spe2.connect(join, alert)
    sink = assembler.connect_to_sink(spe2, alert)

    return assembler.finish(source, sink)


LEGACY_DISTRIBUTED_BUILDERS: Dict[str, Callable[..., PipelineResult]] = {
    "q1": build_q1_distributed,
    "q2": build_q2_distributed,
    "q3": build_q3_distributed,
    "q4": build_q4_distributed,
}


def build_distributed_query(
    name: str,
    supplier,
    mode: ProvenanceMode = ProvenanceMode.NONE,
    fused: bool = True,
) -> PipelineResult:
    """Legacy three-instance construction of query ``name`` ("q1".."q4")."""
    return LEGACY_DISTRIBUTED_BUILDERS[name.lower()](supplier, mode=mode, fused=fused)
