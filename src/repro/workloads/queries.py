"""The four evaluation queries of the paper (Q1-Q4), built with the fluent API.

Each query is described once as a :class:`~repro.api.dataflow.Dataflow`
(:func:`query_dataflow`); :func:`query_pipeline` deploys it through the
:class:`~repro.api.pipeline.Pipeline` facade in one of two ways, mirroring
section 7 (``.build()`` or ``.run()`` it for a
:class:`~repro.api.pipeline.PipelineResult`):

* **intra-process** (``deployment="intra"``): every operator in one SPE
  instance; provenance capture (when enabled) is spliced in by the pipeline
  (an SU operator in front of every Sink, Theorem 5.3).
* **inter-process** (``deployment="inter"``): the three-instance
  deployments of Figures 7, 9C, 10C and 11C, expressed as a
  :class:`~repro.api.pipeline.Placement` (:data:`QUERY_PLACEMENTS`) -- two
  processing instances plus one provenance instance hosting the MU operator
  (GeneaLog) or the source-store join (baseline).  Under "no provenance"
  only the two processing instances exist.

The queries themselves:

* **Q1** - broken-down cars (Linear Road): Filter(speed==0) ->
  Aggregate(count, distinct pos; WS=120s, WA=30s, group by car) ->
  Filter(count==4 and dist_pos==1).
* **Q2** - accidents (Linear Road): Q1 followed by Aggregate(count distinct
  cars; WS=WA=30s, group by position) -> Filter(count>=2).
* **Q3** - long-term blackout (Smart Grid): Aggregate(sum cons; daily, group
  by meter) -> Filter(sum==0) -> Aggregate(count; daily) -> Filter(count>7).
* **Q4** - meter anomaly (Smart Grid): Multiplex -> {daily Aggregate,
  Filter(midnight)} -> Join(same meter, WS=1h) -> Filter(|diff|>200).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Optional, Sequence, Union

from repro.api.dataflow import Dataflow
from repro.api.pipeline import Pipeline, Placement
from repro.core.provenance import ProvenanceMode
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.spe.cluster import Hosts
from repro.spe.operators.aggregate import WindowSpec
from repro.spe.tuples import StreamTuple
from repro.workloads.smart_grid import SECONDS_PER_DAY, SECONDS_PER_HOUR

#: names of the supported queries.
QUERY_NAMES = ("q1", "q2", "q3", "q4")

#: anomaly threshold of Q4 (consumption difference units).
ANOMALY_THRESHOLD = 200.0

#: field set of the Linear Road position reports (:mod:`repro.workloads.linear_road`).
LINEAR_ROAD_SCHEMA = ("car_id", "speed", "pos")

#: field set of the Smart Grid measurements (:mod:`repro.workloads.smart_grid`).
SMART_GRID_SCHEMA = ("meter_id", "cons")

#: what a query's Source reads: tuples, or a callable returning fresh ones.
Supplier = Union[Iterable[StreamTuple], Callable[[], Iterable[StreamTuple]]]


# ---------------------------------------------------------------------------
# aggregate / join functions of the queries
# ---------------------------------------------------------------------------

def stopped_car_aggregate(window: Sequence[StreamTuple], key: Hashable) -> Dict[str, object]:
    """Q1/Q2 first Aggregate: per-car count and distinct positions."""
    # direct ``.values`` access: this runs once per car per window flush and
    # the ``__getitem__`` indirection is measurable at benchmark rates.
    return {
        "car_id": key,
        "count": len(window),
        "dist_pos": len({t.values["pos"] for t in window}),
        "last_pos": window[-1].values["pos"],
    }


def stopped_car_alert(tup: StreamTuple) -> bool:
    """Q1/Q2 alert condition: four reports, all at the same position."""
    values = tup.values
    return values["count"] == 4 and values["dist_pos"] == 1


def accident_aggregate(window: Sequence[StreamTuple], key: Hashable) -> Dict[str, object]:
    """Q2 second Aggregate: number of distinct stopped cars per position."""
    return {
        "last_pos": key,
        "count": len({t["car_id"] for t in window}),
    }


def accident_alert(tup: StreamTuple) -> bool:
    """Q2 alert condition: at least two stopped cars at the same position."""
    return tup["count"] >= 2


def daily_consumption_aggregate(window: Sequence[StreamTuple], key: Hashable) -> Dict[str, object]:
    """Q3/Q4 first Aggregate: daily consumption sum per meter."""
    return {
        "meter_id": key,
        "cons_sum": sum(t["cons"] for t in window),
    }


def zero_consumption(tup: StreamTuple) -> bool:
    """Q3 Filter: meters whose daily consumption is exactly zero."""
    return tup["cons_sum"] == 0


def blackout_count_aggregate(window: Sequence[StreamTuple], key: Hashable) -> Dict[str, object]:
    """Q3 second Aggregate: number of zero-consumption meters in a day."""
    return {"count": len(window)}


def blackout_alert(tup: StreamTuple) -> bool:
    """Q3 alert condition: more than seven blacked-out meters."""
    return tup["count"] > 7


def midnight_measurement(tup: StreamTuple) -> bool:
    """Q4 Filter: only the measurements taken exactly at midnight."""
    return tup.ts % SECONDS_PER_DAY == 0


def same_meter(left: StreamTuple, right: StreamTuple) -> bool:
    """Q4 Join predicate: pair the daily aggregate with the same meter's reading."""
    return left["meter_id"] == right["meter_id"]


def consumption_difference(left: StreamTuple, right: StreamTuple) -> Dict[str, object]:
    """Q4 Join combiner: absolute difference between reading and daily sum."""
    return {
        "meter_id": left["meter_id"],
        "cons_diff": abs(right["cons"] - left["cons_sum"]),
    }


def anomaly_alert(tup: StreamTuple) -> bool:
    """Q4 alert condition: the difference exceeds the anomaly threshold."""
    return tup["cons_diff"] > ANOMALY_THRESHOLD


# ---------------------------------------------------------------------------
# the queries as fluent dataflows
# ---------------------------------------------------------------------------


def q1_dataflow(supplier: Supplier, parallelism: int = 1) -> Dataflow:
    """Q1 - detecting broken-down cars (Figure 1).

    ``parallelism > 1`` shards the per-car Aggregate across key-disjoint
    replicas (hash-partitioned on ``car_id``, re-united by an
    order-restoring Merge); results are identical to the sequential plan.
    """
    df = Dataflow("q1")
    (df.source("source", supplier, schema=LINEAR_ROAD_SCHEMA)
       .filter(lambda t: t.values["speed"] == 0, name="stopped_filter")
       .aggregate(
           WindowSpec(size=120.0, advance=30.0),
           stopped_car_aggregate,
           key_function=lambda t: t["car_id"],
           name="stop_aggregate",
           parallelism=parallelism,
       )
       .filter(stopped_car_alert, name="alert_filter")
       .sink("sink"))
    return df


def q2_dataflow(supplier: Supplier, parallelism: int = 1) -> Dataflow:
    """Q2 - detecting accidents (Figure 9A).

    ``parallelism > 1`` shards both Aggregates: the stop counter on
    ``car_id`` and the accident counter on ``last_pos``.
    """
    df = Dataflow("q2")
    (df.source("source", supplier, schema=LINEAR_ROAD_SCHEMA)
       .filter(lambda t: t.values["speed"] == 0, name="stopped_filter")
       .aggregate(
           WindowSpec(size=120.0, advance=30.0),
           stopped_car_aggregate,
           key_function=lambda t: t["car_id"],
           name="stop_aggregate",
           parallelism=parallelism,
       )
       .filter(stopped_car_alert, name="stopped_alert_filter")
       .aggregate(
           WindowSpec(size=30.0, advance=30.0),
           accident_aggregate,
           key_function=lambda t: t["last_pos"],
           name="accident_aggregate",
           parallelism=parallelism,
       )
       .filter(accident_alert, name="accident_alert_filter")
       .sink("sink"))
    return df


def q3_dataflow(supplier: Supplier, parallelism: int = 1) -> Dataflow:
    """Q3 - long-term blackout detection (Figure 10A).

    ``parallelism > 1`` shards the per-meter daily Aggregate on
    ``meter_id``; the blackout counter aggregates the whole (filtered)
    stream into one group and therefore stays sequential.
    """
    df = Dataflow("q3")
    (df.source("source", supplier, schema=SMART_GRID_SCHEMA)
       .aggregate(
           WindowSpec(size=SECONDS_PER_DAY, advance=SECONDS_PER_DAY),
           daily_consumption_aggregate,
           key_function=lambda t: t["meter_id"],
           name="daily_aggregate",
           parallelism=parallelism,
       )
       .filter(zero_consumption, name="zero_filter")
       .aggregate(
           WindowSpec(size=SECONDS_PER_DAY, advance=SECONDS_PER_DAY),
           blackout_count_aggregate,
           name="blackout_aggregate",
       )
       .filter(blackout_alert, name="blackout_alert_filter")
       .sink("sink"))
    return df


def q4_dataflow(supplier: Supplier, parallelism: int = 1) -> Dataflow:
    """Q4 - meter anomaly detection (Figure 11A).

    ``parallelism > 1`` shards the daily Aggregate *and* the Join, both on
    ``meter_id`` (the join predicate pairs same-meter tuples only, so keyed
    sharding preserves the pair set).
    """
    meter_key = lambda t: t["meter_id"]  # noqa: E731 - the queries use lambdas throughout
    df = Dataflow("q4")
    split = df.source("source", supplier, schema=SMART_GRID_SCHEMA).split(name="multiplex")
    daily = split.aggregate(
        WindowSpec(size=SECONDS_PER_DAY, advance=SECONDS_PER_DAY, emit_at="end"),
        daily_consumption_aggregate,
        key_function=meter_key,
        name="daily_aggregate",
        parallelism=parallelism,
    )
    midnight = split.filter(midnight_measurement, name="midnight_filter")
    (daily.key_by(meter_key).join(
         midnight.key_by(meter_key),
         window_size=SECONDS_PER_HOUR,
         predicate=same_meter,
         combiner=consumption_difference,
         name="anomaly_join",
         parallelism=parallelism,
     )
     .filter(anomaly_alert, name="anomaly_alert_filter")
     .sink("sink"))
    return df


#: query name -> fluent dataflow factory.
QUERY_DATAFLOWS: Dict[str, Callable[..., Dataflow]] = {
    "q1": q1_dataflow,
    "q2": q2_dataflow,
    "q3": q3_dataflow,
    "q4": q4_dataflow,
}

#: query name -> the three-instance placement of Figures 7, 9C, 10C and 11C.
QUERY_PLACEMENTS: Dict[str, Placement] = {
    "q1": Placement(
        {
            "spe1": ("source", "stopped_filter"),
            "spe2": ("stop_aggregate", "alert_filter", "sink"),
        },
        links={("stopped_filter", "stop_aggregate"): "data"},
    ),
    "q2": Placement(
        {
            "spe1": ("source", "stopped_filter", "stop_aggregate", "stopped_alert_filter"),
            "spe2": ("accident_aggregate", "accident_alert_filter", "sink"),
        },
        links={("stopped_alert_filter", "accident_aggregate"): "data"},
    ),
    "q3": Placement(
        {
            "spe1": ("source", "daily_aggregate", "zero_filter"),
            "spe2": ("blackout_aggregate", "blackout_alert_filter", "sink"),
        },
        links={("zero_filter", "blackout_aggregate"): "data"},
    ),
    "q4": Placement(
        {
            "spe1": ("source", "multiplex", "daily_aggregate", "midnight_filter"),
            "spe2": ("anomaly_join", "anomaly_alert_filter", "sink"),
        },
        links={
            ("daily_aggregate", "anomaly_join"): "daily",
            ("midnight_filter", "anomaly_join"): "midnight",
        },
    ),
}


def query_dataflow(name: str, supplier: Supplier, parallelism: int = 1) -> Dataflow:
    """The fluent dataflow of query ``name`` ("q1".."q4") over ``supplier``.

    ``parallelism`` shards the keyed stateful stages (see each query factory);
    ``1`` is the exact sequential plan of the paper.
    """
    try:
        factory = QUERY_DATAFLOWS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown query {name!r}; expected one of {QUERY_NAMES}") from None
    return factory(supplier, parallelism=parallelism)


def query_placement(name: str) -> Placement:
    """The paper's three-instance placement of query ``name``."""
    try:
        return QUERY_PLACEMENTS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown query {name!r}; expected one of {QUERY_NAMES}") from None


def query_parallel_placement(name: str, parallelism: int) -> Placement:
    """A placement spreading each replica shard onto its own SPE instance.

    Extends the paper's two processing instances with one ``shard<i>``
    instance per replica: ``spe1`` keeps the sources/filters and the hash
    Partition(s), every replica of a parallel stage runs on its own
    ``shard<i>`` instance, and ``spe2`` hosts the order-restoring Merge and
    the rest of the query (chained parallel stages co-locate their replicas
    shard-wise, so ``shard<i>`` carries replica ``i`` of every stage).
    """
    query = name.lower()
    shard_names = [f"shard{i}" for i in range(parallelism)]
    if query == "q1":
        assignments = {
            "spe1": ["source", "stopped_filter", "stop_aggregate_partition"],
            **{s: [f"stop_aggregate_shard{i}"] for i, s in enumerate(shard_names)},
            "spe2": ["stop_aggregate_merge", "alert_filter", "sink"],
        }
    elif query == "q2":
        # The two parallel stages are chained, so their shards need distinct
        # instance tiers: routing the second stage back through the first
        # stage's shard instances would create an instance-graph cycle.
        assignments = {
            "spe1": ["source", "stopped_filter", "stop_aggregate_partition"],
            **{s: [f"stop_aggregate_shard{i}"] for i, s in enumerate(shard_names)},
            "spe2": [
                "stop_aggregate_merge",
                "stopped_alert_filter",
                "accident_aggregate_partition",
            ],
            **{
                f"accident_{s}": [f"accident_aggregate_shard{i}"]
                for i, s in enumerate(shard_names)
            },
            "spe3": [
                "accident_aggregate_merge",
                "accident_alert_filter",
                "sink",
            ],
        }
    elif query == "q3":
        assignments = {
            "spe1": ["source", "daily_aggregate_partition"],
            **{s: [f"daily_aggregate_shard{i}"] for i, s in enumerate(shard_names)},
            "spe2": [
                "daily_aggregate_merge",
                "zero_filter",
                "blackout_aggregate",
                "blackout_alert_filter",
                "sink",
            ],
        }
    elif query == "q4":
        # Like q2, the sharded Join is downstream of the sharded Aggregate,
        # so the join replicas get their own instance tier.
        assignments = {
            "spe1": [
                "source",
                "multiplex",
                "midnight_filter",
                "daily_aggregate_partition",
            ],
            **{s: [f"daily_aggregate_shard{i}"] for i, s in enumerate(shard_names)},
            "spe2": [
                "daily_aggregate_merge",
                "anomaly_join_left_partition",
                "anomaly_join_right_partition",
            ],
            **{
                f"join_{s}": [f"anomaly_join_shard{i}"]
                for i, s in enumerate(shard_names)
            },
            "spe3": ["anomaly_join_merge", "anomaly_alert_filter", "sink"],
        }
    else:
        raise ValueError(f"unknown query {name!r}; expected one of {QUERY_NAMES}")
    return Placement(assignments)


def query_pipeline(
    name: str,
    supplier: Supplier,
    mode: ProvenanceMode = ProvenanceMode.NONE,
    deployment: str = "intra",
    fused: bool = True,
    execution: str = "event",
    parallelism: int = 1,
    hosts: Hosts = None,
    telemetry: Union[None, bool, TelemetryConfig, Telemetry] = None,
) -> Pipeline:
    """A ready-to-run :class:`Pipeline` for query ``name``.

    ``deployment`` is ``"intra"`` (single process, deterministic Scheduler)
    or ``"inter"`` (the paper's three-instance deployment).
    ``execution`` is ``"event"`` (everything in this process, default),
    ``"process"`` (one OS process per SPE instance, inter only) or
    ``"cluster"`` (worker daemons over TCP, inter only; ``hosts`` places the
    instances -- see :class:`~repro.spe.cluster.RemoteRuntime`).  ``parallelism``
    shards the keyed stateful stages; inter-process deployments then use
    :func:`query_parallel_placement`, spreading each replica onto its own
    SPE instance.
    """
    if deployment not in ("intra", "inter"):
        raise ValueError(f"unknown deployment {deployment!r}; expected 'intra' or 'inter'")
    placement: Optional[Placement] = None
    if deployment == "inter":
        placement = (
            query_parallel_placement(name, parallelism)
            if parallelism > 1
            else query_placement(name)
        )
    return Pipeline(
        query_dataflow(name, supplier, parallelism=parallelism),
        provenance=mode,
        placement=placement,
        fused=fused,
        execution=execution,
        hosts=hosts,
        telemetry=telemetry,
    )
