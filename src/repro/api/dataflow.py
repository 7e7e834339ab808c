"""Fluent dataflow DSL: build operator DAGs without ``add_*``/``connect``.

A :class:`Dataflow` is a *deferred* description of a query: every stage call
records a node (what operator to create) and an edge (how to wire it) instead
of mutating a :class:`~repro.spe.query.Query` directly.  The description is
lowered onto the existing ``Query``/``Operator`` layer by
:class:`~repro.api.pipeline.Pipeline`, after the static analyzer has
checked it (:meth:`Dataflow.lower_into` is the raw, unchecked lowering).
That keeps the imperative surface as the single execution substrate while
the DSL becomes the primary authoring surface::

    df = Dataflow("accidents")
    (df.source("reports", supplier)
       .filter(lambda t: t["speed"] == 0, name="stopped")
       .aggregate(WindowSpec(size=120, advance=30), count_stops,
                  key_function=lambda t: t["car_id"])
       .filter(lambda t: t["count"] == 4)
       .sink("alerts"))

Non-linear DAGs use :meth:`StreamBuilder.split` (Multiplex),
:meth:`StreamBuilder.router` (predicate-routed ports),
:meth:`StreamBuilder.union` and :meth:`StreamBuilder.join`.  Because the
graph is deferred, the same :class:`Dataflow` can be lowered many times --
once per provenance technique, or split across several SPE instances by a
:class:`~repro.api.pipeline.Placement`.

Keyed data-parallelism: :meth:`StreamBuilder.key_by` declares the key of the
next stateful stage, and ``parallelism=N`` on :meth:`StreamBuilder.aggregate`
/ :meth:`StreamBuilder.join` expands that stage into a hash
:class:`~repro.spe.operators.partition.PartitionOperator`, ``N`` key-disjoint
replica shards and an order-restoring
:class:`~repro.spe.operators.merge.MergeOperator`, whose output stream is
byte-identical to the sequential stage's (see :class:`ParallelStage`)::

    (df.source("reports", supplier)
       .key_by(lambda t: t["car_id"])
       .aggregate(WindowSpec(size=120, advance=30), count_stops,
                  key_function=lambda t: t["car_id"], parallelism=4)
       .sink("alerts"))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.spe.errors import QueryValidationError
from repro.spe.operators.aggregate import AggregateOperator, WindowSpec
from repro.spe.operators.base import Operator
from repro.spe.operators.filter import FilterOperator
from repro.spe.operators.join import JoinOperator
from repro.spe.operators.map import FlatMapOperator, MapOperator
from repro.spe.operators.merge import MergeOperator
from repro.spe.operators.multiplex import MultiplexOperator
from repro.spe.operators.partition import PartitionOperator
from repro.spe.operators.router import RouterOperator
from repro.spe.operators.sink import SinkOperator
from repro.spe.operators.sort import SortOperator
from repro.spe.operators.source import SourceOperator
from repro.spe.operators.union import UnionOperator
from repro.spe.query import Query
from repro.spe.tuples import StreamTuple


class DataflowError(QueryValidationError):
    """The dataflow description is malformed or used inconsistently."""


@dataclass
class _Node:
    """One deferred operator of the dataflow."""

    name: str
    factory: Callable[[], Operator]
    kind: str
    #: seconds of state the operator retains (window sizes); summed by the
    #: Pipeline to derive the MU retention of distributed deployments.
    retention_s: float = 0.0
    #: True for sources emitting with bounded disorder; edges leaving the
    #: node disable the stream order check (feed them into ``.sort()``).
    unordered: bool = False
    #: set when the node wraps a concrete Operator instance, which can only
    #: be lowered once.
    instance: Optional[Operator] = None
    #: non-empty when the node can only be lowered once; explains why.
    single_use_reason: str = ""
    #: sinks only: opt this sink in (True) / out (False) of provenance
    #: capture; None keeps the default (capture at every sink).
    capture_provenance: Optional[bool] = None
    #: declarative description of the stage (user functions, windows,
    #: declared schemas) consumed by :mod:`repro.analysis` -- the
    #: static analyzer must inspect a plan without instantiating it.
    meta: Dict[str, object] = field(default_factory=dict)
    _instantiated: bool = False

    def instantiate(self) -> Operator:
        if self.single_use_reason and self._instantiated:
            raise DataflowError(
                f"node {self.name!r} can only be lowered once: "
                f"{self.single_use_reason}"
            )
        self._instantiated = True
        if self.instance is not None:
            return self.instance
        return self.factory()


@dataclass
class _Edge:
    """One deferred stream of the dataflow."""

    upstream: str
    downstream: str
    stream_name: str = ""
    sorted_stream: bool = True
    #: output-port rank on the upstream operator (routers); None = declaration order.
    out_port: Optional[int] = None


@dataclass(frozen=True)
class ParallelStage:
    """The expansion of one logical key-parallel stage.

    ``parallelism=N`` on an aggregate or join does not create a node named
    after the stage; it creates ``N + 2`` (aggregates) or ``N + 3`` (joins)
    member nodes -- partition(s), replica shards, merge -- recorded here so
    deployment code can address the logical stage as a whole (a
    :class:`~repro.api.pipeline.Placement` assignment naming the logical
    stage expands to every member) or spread the replicas across SPE
    instances individually.
    """

    #: the logical stage name the user declared.
    name: str
    #: the hash-partition node(s): one for aggregates, (left, right) for joins.
    partitions: Tuple[str, ...]
    #: the key-disjoint replica shard nodes, in shard order.
    replicas: Tuple[str, ...]
    #: the order-restoring merge node.
    merge: str

    @property
    def members(self) -> Tuple[str, ...]:
        """Every member node of the stage, partition(s) first, merge last."""
        return self.partitions + self.replicas + (self.merge,)


class Dataflow:
    """A deferred DAG of streaming operators, authored fluently."""

    def __init__(self, name: str = "dataflow") -> None:
        self.name = name
        self._nodes: Dict[str, _Node] = {}
        self._edges: List[_Edge] = []
        self._counters: Dict[str, int] = {}
        self._parallel: Dict[str, ParallelStage] = {}

    # -- node bookkeeping -----------------------------------------------------
    def _fresh_name(self, kind: str) -> str:
        while True:
            self._counters[kind] = self._counters.get(kind, 0) + 1
            name = f"{kind}_{self._counters[kind]}"
            if name not in self._nodes:
                return name

    def _add_node(
        self,
        kind: str,
        name: Optional[str],
        factory: Callable[[], Operator],
        retention_s: float = 0.0,
        unordered: bool = False,
        instance: Optional[Operator] = None,
        single_use_reason: str = "",
        meta: Optional[Dict[str, object]] = None,
    ) -> "StreamBuilder":
        node_name = name or self._fresh_name(kind)
        if node_name in self._nodes:
            raise DataflowError(
                f"dataflow {self.name!r} already has a stage named {node_name!r}"
            )
        if node_name in self._parallel:
            raise DataflowError(
                f"dataflow {self.name!r} already uses {node_name!r} as the "
                "logical name of a parallel stage"
            )
        if instance is not None and not single_use_reason:
            single_use_reason = (
                "it wraps a concrete operator instance; pass a factory to "
                "lower repeatedly"
            )
        self._nodes[node_name] = _Node(
            name=node_name,
            factory=factory,
            kind=kind,
            retention_s=retention_s,
            unordered=unordered,
            instance=instance,
            single_use_reason=single_use_reason,
            meta=dict(meta) if meta else {},
        )
        return StreamBuilder(self, node_name)

    def _add_edge(
        self,
        upstream: str,
        downstream: str,
        stream_name: str = "",
        out_port: Optional[int] = None,
    ) -> None:
        sorted_stream = not self._nodes[upstream].unordered
        self._edges.append(
            _Edge(
                upstream=upstream,
                downstream=downstream,
                stream_name=stream_name,
                sorted_stream=sorted_stream,
                out_port=out_port,
            )
        )

    # -- entry points -----------------------------------------------------------
    def source(
        self,
        name: str,
        supplier,
        batch_size: int = 256,
        enforce_order: bool = True,
        schema: Optional[Sequence[str]] = None,
    ) -> "StreamBuilder":
        """Start a stream from ``supplier`` (iterable or callable).

        Pass ``enforce_order=False`` for suppliers with bounded disorder and
        follow with :meth:`StreamBuilder.sort`.

        ``schema`` optionally declares the value-field names the supplier's
        tuples carry; the static analyzer propagates it downstream to flag
        accesses to fields no upstream stage can produce.
        """
        # A bare iterator is exhausted by its first lowering; a second one
        # would silently read nothing, so fail loudly instead.  Lists and
        # callables stay re-lowerable.
        single_use_reason = (
            "its supplier is a one-shot iterator (exhausted by the first "
            "run); pass a list or a callable returning a fresh iterable"
            if hasattr(supplier, "__next__")
            else ""
        )
        return self._add_node(
            "source",
            name,
            lambda: SourceOperator(
                name, supplier, batch_size=batch_size, enforce_order=enforce_order
            ),
            unordered=not enforce_order,
            single_use_reason=single_use_reason,
            meta={
                "supplier": supplier,
                "enforce_order": enforce_order,
                "schema": tuple(schema) if schema is not None else None,
            },
        )

    def stage(self, operator, name: Optional[str] = None) -> "StreamBuilder":
        """Register a custom input-less operator (instance or factory)."""
        return self._custom_node(operator, name)

    def _custom_node(self, operator, name: Optional[str]) -> "StreamBuilder":
        if isinstance(operator, Operator):
            return self._add_node(
                "custom", name or operator.name, lambda: operator, instance=operator
            )
        if not callable(operator):
            raise DataflowError(
                "custom stages take an Operator instance or a zero-argument factory"
            )
        return self._add_node("custom", name, operator)

    def _register_parallel(self, stage: ParallelStage) -> None:
        if stage.name in self._nodes:
            raise DataflowError(
                f"dataflow {self.name!r} already has a stage named {stage.name!r}"
            )
        if stage.name in self._parallel:
            raise DataflowError(
                f"dataflow {self.name!r} already has a parallel stage named "
                f"{stage.name!r}"
            )
        self._parallel[stage.name] = stage

    # -- introspection ----------------------------------------------------------
    @property
    def node_names(self) -> List[str]:
        """Names of every stage, in declaration order."""
        return list(self._nodes)

    @property
    def parallel_stage_names(self) -> List[str]:
        """Logical names of the key-parallel stages, in declaration order."""
        return list(self._parallel)

    def parallel_stage(self, name: str) -> ParallelStage:
        """The :class:`ParallelStage` expansion of logical stage ``name``."""
        try:
            return self._parallel[name]
        except KeyError:
            raise DataflowError(
                f"dataflow {self.name!r} has no parallel stage named {name!r}"
            ) from None

    def members_of(self, stage: str) -> Optional[Tuple[str, ...]]:
        """The concrete node names ``stage`` refers to.

        A plain stage maps to itself, a logical parallel stage to its
        partition / replica / merge members; unknown names map to ``None``.
        """
        if stage in self._nodes:
            return (stage,)
        parallel = self._parallel.get(stage)
        if parallel is not None:
            return parallel.members
        return None

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def builder(self, name: str) -> "StreamBuilder":
        """A :class:`StreamBuilder` positioned on an existing stage."""
        if name not in self._nodes:
            raise DataflowError(f"dataflow {self.name!r} has no stage named {name!r}")
        return StreamBuilder(self, name)

    def retention_s(self) -> float:
        """Total seconds of operator state (sum of all window sizes)."""
        return sum(node.retention_s for node in self._nodes.values())

    def sink_names(self) -> List[str]:
        """Names of the declared Sink stages, in declaration order."""
        return [n.name for n in self._nodes.values() if n.kind == "sink"]

    def capture_sink_names(self) -> List[str]:
        """Names of the Sinks provenance capture should splice onto.

        Sinks marked ``capture_provenance=True`` win: when any sink opts in
        explicitly, only those are captured.  Otherwise every sink is
        captured except the ones that opted out with
        ``capture_provenance=False`` (the historical all-sinks default).
        """
        sinks = [n for n in self._nodes.values() if n.kind == "sink"]
        marked = [n.name for n in sinks if n.capture_provenance]
        if marked:
            return marked
        return [n.name for n in sinks if n.capture_provenance is not False]

    def source_names(self) -> List[str]:
        """Names of the declared Source stages, in declaration order."""
        return [n.name for n in self._nodes.values() if n.kind == "source"]

    # -- lowering ---------------------------------------------------------------
    def ordered_edges(self) -> List[_Edge]:
        """Edges in an order consistent with declared input and output ports.

        Input ports follow edge declaration order (the SPE convention: the
        Join's left input is the first ``connect``); output ports follow
        ``out_port`` where set (router ports), declaration order otherwise.
        """
        edges = list(self._edges)
        indices = {id(edge): index for index, edge in enumerate(edges)}
        before: Dict[int, List[_Edge]] = {id(edge): [] for edge in edges}
        # (a) same downstream: declaration order defines input ports.
        by_downstream: Dict[str, List[_Edge]] = {}
        for edge in edges:
            by_downstream.setdefault(edge.downstream, []).append(edge)
        for group in by_downstream.values():
            for earlier, later in zip(group, group[1:]):
                before[id(later)].append(earlier)
        # (b) same upstream with explicit ports: port rank defines output ports.
        by_upstream: Dict[str, List[_Edge]] = {}
        for edge in edges:
            if edge.out_port is not None:
                by_upstream.setdefault(edge.upstream, []).append(edge)
        for group in by_upstream.values():
            ranked = sorted(group, key=lambda e: (e.out_port, indices[id(e)]))
            for earlier, later in zip(ranked, ranked[1:]):
                before[id(later)].append(earlier)
        # Stable Kahn over the edge-precedence graph.
        remaining = {id(edge): len(before[id(edge)]) for edge in edges}
        dependants: Dict[int, List[_Edge]] = {id(edge): [] for edge in edges}
        for edge in edges:
            for dependency in before[id(edge)]:
                dependants[id(dependency)].append(edge)
        ready = [edge for edge in edges if remaining[id(edge)] == 0]
        ordered: List[_Edge] = []
        while ready:
            ready.sort(key=lambda e: indices[id(e)])
            edge = ready.pop(0)
            ordered.append(edge)
            for dependant in dependants[id(edge)]:
                remaining[id(dependant)] -= 1
                if remaining[id(dependant)] == 0:
                    ready.append(dependant)
        if len(ordered) != len(edges):
            raise DataflowError(
                f"dataflow {self.name!r} declares conflicting port orders"
            )
        return ordered

    def lower_into(self, query: Query) -> Dict[str, Operator]:
        """Instantiate every stage into ``query``; return name -> operator."""
        operators = {
            node.name: query.add(node.instantiate()) for node in self._nodes.values()
        }
        for edge in self.ordered_edges():
            query.connect(
                operators[edge.upstream],
                operators[edge.downstream],
                name=edge.stream_name,
                sorted_stream=edge.sorted_stream,
            )
        return operators

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataflow(name={self.name!r}, stages={len(self._nodes)}, "
            f"edges={len(self._edges)})"
        )


@dataclass(frozen=True)
class StreamBuilder:
    """A position in the dataflow: the output of one stage.

    Every method appends a stage downstream of this position and returns a
    new builder on the added stage, so calls chain.  Calling two methods on
    the *same* builder fans the stream out (only valid on stages with
    multiple output ports, e.g. :meth:`split`).
    """

    dataflow: Dataflow
    node: str
    #: output-port rank used when the stage routes by port (see :meth:`router`).
    out_port: Optional[int] = None
    #: key declared by :meth:`key_by` for the next stateful stage.
    key: Optional[Callable[[StreamTuple], object]] = None

    # -- plumbing ---------------------------------------------------------------
    def _then(
        self,
        kind: str,
        name: Optional[str],
        factory: Callable[[], Operator],
        retention_s: float = 0.0,
        stream_name: str = "",
        meta: Optional[Dict[str, object]] = None,
    ) -> "StreamBuilder":
        builder = self.dataflow._add_node(
            kind, name, factory, retention_s=retention_s, meta=meta
        )
        self.dataflow._add_edge(
            self.node, builder.node, stream_name=stream_name, out_port=self.out_port
        )
        return builder

    def key_by(self, key_function) -> "StreamBuilder":
        """Declare the key of the stream for the next stateful stage.

        Returns a builder at the same position carrying ``key_function``.
        The key serves three purposes on the stage that consumes it:

        * it is the default ``key_function`` of an :meth:`aggregate` that
          does not pass one explicitly,
        * it makes a :meth:`join` whose inputs are both keyed an equi-join
          on the two keys at every parallelism (its predicate must imply key
          equality), whose windows are indexed by key, and
        * it is the **partition key** when the stage runs with
          ``parallelism > 1`` -- tuples are hash-routed so every key's
          tuples land on one replica shard.  When a finer group-by
          ``key_function`` is also given, the ``key_by`` key must be a
          function of it (each group must live entirely on one shard).
        """
        return StreamBuilder(
            self.dataflow, self.node, out_port=self.out_port, key=key_function
        )

    def to(self, other: "StreamBuilder", stream_name: str = "") -> "StreamBuilder":
        """Wire this stream into an already-declared stage (e.g. a union)."""
        if other.dataflow is not self.dataflow:
            raise DataflowError("cannot connect stages of different dataflows")
        self.dataflow._add_edge(
            self.node, other.node, stream_name=stream_name, out_port=self.out_port
        )
        return other

    # -- stateless stages -------------------------------------------------------
    def map(self, function, name: Optional[str] = None) -> "StreamBuilder":
        """Apply a one-to-one transformation."""
        stage = name or self.dataflow._fresh_name("map")
        return self._then(
            "map", stage, lambda: MapOperator(stage, function),
            meta={"function": function},
        )

    def flat_map(self, function, name: Optional[str] = None) -> "StreamBuilder":
        """Apply a one-to-many transformation."""
        stage = name or self.dataflow._fresh_name("flatmap")
        return self._then(
            "flatmap", stage, lambda: FlatMapOperator(stage, function),
            meta={"function": function},
        )

    def filter(self, predicate, name: Optional[str] = None) -> "StreamBuilder":
        """Keep only the tuples satisfying ``predicate``."""
        stage = name or self.dataflow._fresh_name("filter")
        return self._then(
            "filter", stage, lambda: FilterOperator(stage, predicate),
            meta={"predicate": predicate},
        )

    def sort(
        self, slack: float, drop_violations: bool = False, name: Optional[str] = None
    ) -> "StreamBuilder":
        """Re-order a stream with bounded disorder (place after unordered sources)."""
        stage = name or self.dataflow._fresh_name("sort")
        return self._then(
            "sort",
            stage,
            lambda: SortOperator(stage, slack, drop_violations=drop_violations),
            meta={"slack": slack},
        )

    # -- windowed stages ---------------------------------------------------------
    def aggregate(
        self,
        window: WindowSpec,
        aggregate_function,
        key_function=None,
        contributors_function=None,
        name: Optional[str] = None,
        parallelism: int = 1,
    ) -> "StreamBuilder":
        """Aggregate over a sliding window, optionally grouped by key.

        ``key_function`` defaults to the :meth:`key_by` key of this builder.
        With ``parallelism > 1`` the stage is expanded into a hash Partition,
        ``parallelism`` key-disjoint replica aggregates and an
        order-restoring Merge; the merged output stream (tuples, order,
        provenance) is identical to the sequential stage's.
        """
        key_function = key_function if key_function is not None else self.key
        stage = name or self.dataflow._fresh_name("aggregate")
        stage_meta = {
            "window": window,
            "function": aggregate_function,
            "key_function": key_function,
            "contributors_function": contributors_function,
        }
        if parallelism <= 1:
            return self._then(
                "aggregate",
                stage,
                lambda: AggregateOperator(
                    stage,
                    window,
                    aggregate_function,
                    key_function,
                    contributors_function=contributors_function,
                ),
                retention_s=window.size,
                meta=stage_meta,
            )
        if key_function is None:
            raise DataflowError(
                f"stage {stage!r}: a parallel aggregate needs a group-by key "
                "(pass key_function= or declare it with .key_by(...)); an "
                "unkeyed aggregate sees the whole stream and cannot be sharded"
            )
        partition_key = self.key if self.key is not None else key_function

        def replica_factory(shard_name):
            return lambda: AggregateOperator(
                shard_name,
                window,
                aggregate_function,
                key_function,
                contributors_function=contributors_function,
                tag_order_key=True,
            )

        return self._expand_parallel(
            stage,
            parallelism,
            upstreams=[(self, partition_key, f"{stage}_partition", False)],
            replica_kind="aggregate",
            replica_factory=replica_factory,
            retention_s=window.size,
            replica_meta=stage_meta,
        )

    def join(
        self,
        other: "StreamBuilder",
        window_size: float,
        predicate,
        combiner,
        name: Optional[str] = None,
        parallelism: int = 1,
    ) -> "StreamBuilder":
        """Windowed join; ``self`` is the left input, ``other`` the right.

        When both inputs declare their key with :meth:`key_by`, the stage is
        an equi-join on those keys at every parallelism: the predicate must
        imply key equality, and each tuple probes only the other input's
        window bucket of its own key (see
        :class:`~repro.spe.operators.join.JoinOperator`).  ``parallelism > 1``
        requires both keys; both sides are then hash-routed to
        ``parallelism`` key-disjoint replica joins and re-united by an
        order-restoring Merge whose output matches the sequential stage's.
        """
        if other.dataflow is not self.dataflow:
            raise DataflowError("cannot join stages of different dataflows")
        stage = name or self.dataflow._fresh_name("join")
        stage_meta = {
            "window_size": window_size,
            "predicate": predicate,
            "combiner": combiner,
        }
        keys = None if self.key is None or other.key is None else (self.key, other.key)
        if parallelism <= 1:
            builder = self._then(
                "join",
                stage,
                lambda: JoinOperator(stage, window_size, predicate, combiner, keys=keys),
                retention_s=window_size,
                meta=stage_meta,
            )
            self.dataflow._add_edge(other.node, builder.node, out_port=other.out_port)
            return builder
        if keys is None:
            raise DataflowError(
                f"stage {stage!r}: a parallel join needs both inputs keyed -- "
                "declare the partition keys with .key_by(...) on the left and "
                "right builders (the join predicate must imply key equality)"
            )

        def replica_factory(shard_name):
            return lambda: JoinOperator(
                shard_name, window_size, predicate, combiner, keys=keys, tag_order_key=True
            )

        return self._expand_parallel(
            stage,
            parallelism,
            upstreams=[
                (self, self.key, f"{stage}_left_partition", True),
                (other, other.key, f"{stage}_right_partition", True),
            ],
            replica_kind="join",
            replica_factory=replica_factory,
            retention_s=window_size,
            replica_meta=stage_meta,
        )

    def _expand_parallel(
        self,
        stage: str,
        parallelism: int,
        upstreams,
        replica_kind: str,
        replica_factory,
        retention_s: float,
        replica_meta: Optional[Dict[str, object]] = None,
    ) -> "StreamBuilder":
        """Expand a logical stage into partition(s) -> replicas -> merge.

        ``upstreams`` lists ``(builder, key_function, partition_name,
        stamp_sequence)`` per input; partition ``p``'s output port ``i``
        feeds replica ``i``'s input port ``p`` (so a join's left partition
        stays its replicas' left input).
        """
        dataflow = self.dataflow
        for builder, _, _, _ in upstreams:
            upstream_node = dataflow._nodes[builder.node]
            if upstream_node.unordered:
                raise DataflowError(
                    f"stage {stage!r}: cannot key-partition the unordered "
                    f"stream leaving {builder.node!r}; the order-restoring "
                    "merge (and the sharded operators) need timestamp-ordered "
                    "input -- place .sort() before the parallel stage"
                )
        partitions = []
        for builder, key_function, partition_name, stamp in upstreams:
            builder._then(
                "partition",
                partition_name,
                _partition_factory(partition_name, key_function, stamp),
                meta={"key_function": key_function, "stamp_sequence": stamp},
            )
            partitions.append(partition_name)
        replicas = []
        for index in range(parallelism):
            shard = f"{stage}_shard{index}"
            dataflow._add_node(
                replica_kind, shard, replica_factory(shard), meta=replica_meta
            )
            for partition_name in partitions:
                dataflow._add_edge(partition_name, shard, out_port=index)
            replicas.append(shard)
        merge = f"{stage}_merge"
        # The logical stage retains one window's worth of state regardless of
        # the replica count (each key lives on exactly one shard), so the
        # stage's retention is recorded once -- on the merge node -- keeping
        # Dataflow.retention_s() (the default MU / baseline-resolver
        # retention) identical to the sequential plan's.
        dataflow._add_node("merge", merge, _merge_factory(merge), retention_s=retention_s)
        for shard in replicas:
            dataflow._add_edge(shard, merge)
        dataflow._register_parallel(
            ParallelStage(
                name=stage,
                partitions=tuple(partitions),
                replicas=tuple(replicas),
                merge=merge,
            )
        )
        return StreamBuilder(dataflow, merge)

    # -- fan-out / fan-in ---------------------------------------------------------
    def split(self, name: Optional[str] = None) -> "StreamBuilder":
        """Copy the stream to several consumers (Multiplex).

        Chain several stages off the returned builder; each gets its own copy.
        """
        stage = name or self.dataflow._fresh_name("multiplex")
        return self._then("multiplex", stage, lambda: MultiplexOperator(stage))

    def router(
        self,
        predicates: Sequence[Optional[Callable[[StreamTuple], bool]]],
        name: Optional[str] = None,
    ) -> Tuple["StreamBuilder", ...]:
        """Route by predicate (fused Multiplex + Filters).

        Returns one builder per predicate; builder ``i`` carries the tuples
        satisfying ``predicates[i]`` (``None`` = pass everything).
        """
        stage = name or self.dataflow._fresh_name("router")
        predicates = list(predicates)
        builder = self._then(
            "router",
            stage,
            lambda: RouterOperator(stage, predicates),
            meta={"predicates": tuple(predicates)},
        )
        return tuple(
            StreamBuilder(self.dataflow, builder.node, out_port=port)
            for port in range(len(predicates))
        )

    def union(self, *others: "StreamBuilder", name: Optional[str] = None) -> "StreamBuilder":
        """Merge this stream with ``others`` into one timestamp-ordered stream."""
        stage = name or self.dataflow._fresh_name("union")
        builder = self._then("union", stage, lambda: UnionOperator(stage))
        for other in others:
            if other.dataflow is not self.dataflow:
                raise DataflowError("cannot union stages of different dataflows")
            self.dataflow._add_edge(other.node, builder.node, out_port=other.out_port)
        return builder

    # -- custom stages ------------------------------------------------------------
    def pipe(self, operator, name: Optional[str] = None) -> "StreamBuilder":
        """Insert a custom operator (an instance or a zero-argument factory)."""
        builder = self.dataflow._custom_node(operator, name)
        self.dataflow._add_edge(self.node, builder.node, out_port=self.out_port)
        return builder

    # -- terminals ---------------------------------------------------------------
    def sink(
        self,
        name: Optional[str] = None,
        callback: Optional[Callable[[StreamTuple], None]] = None,
        keep_tuples: bool = True,
        capture_provenance: Optional[bool] = None,
    ) -> "StreamBuilder":
        """Terminate the stream in a Sink collecting (or forwarding) results.

        ``capture_provenance`` opts this sink in (``True``) or out
        (``False``) of provenance capture: when any sink of the dataflow
        opts in explicitly, only the opted-in sinks get an SU spliced in
        front of them (and feed an attached provenance store); the default
        ``None`` keeps capture at every sink.
        """
        stage = name or self.dataflow._fresh_name("sink")
        builder = self._then(
            "sink",
            stage,
            lambda: SinkOperator(stage, callback=callback, keep_tuples=keep_tuples),
            meta={"callback": callback},
        )
        self.dataflow._nodes[stage].capture_provenance = capture_provenance
        return builder

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        port = f", port={self.out_port}" if self.out_port is not None else ""
        keyed = ", keyed" if self.key is not None else ""
        return f"StreamBuilder({self.dataflow.name!r} @ {self.node!r}{port}{keyed})"


def _partition_factory(name: str, key_function, stamp_sequence: bool):
    """A fresh-per-lowering factory with the loop variables bound."""
    return lambda: PartitionOperator(
        name, key_function, stamp_sequence=stamp_sequence
    )


def _merge_factory(name: str):
    return lambda: MergeOperator(name)
