"""Query: the DAG of operators that makes up a continuous query."""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.spe.channels import Channel
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
from repro.spe.operators.send_receive import ReceiveOperator, SendOperator
from repro.spe.operators.sink import SinkOperator
from repro.spe.operators.sort import SortOperator
from repro.spe.operators.source import SourceOperator
from repro.spe.operators.union import UnionOperator
from repro.spe.provenance_api import ProvenanceManager
from repro.spe.streams import Stream
from repro.spe.tuples import StreamTuple


class Query:
    """Builder and container for a DAG of streaming operators.

    Operators are added with the ``add_*`` helpers (or :meth:`add` for custom
    operators) and wired with :meth:`connect`.  :meth:`validate` checks the
    graph is a DAG with correctly-arity'd operators, and
    :meth:`topological_order` yields the deterministic execution order used
    by the scheduler.
    """

    def __init__(self, name: str = "query") -> None:
        self.name = name
        self.operators: List[Operator] = []
        self.streams: List[Stream] = []
        self._edges: List[Tuple[Operator, Operator]] = []
        self._by_name: Dict[str, Operator] = {}

    # -- generic registration -------------------------------------------------
    def add(self, operator: Operator) -> Operator:
        """Register ``operator`` with the query and return it."""
        if operator.name in self._by_name:
            raise QueryValidationError(
                f"query {self.name!r} already has an operator named {operator.name!r}"
            )
        self.operators.append(operator)
        self._by_name[operator.name] = operator
        return operator

    def __getitem__(self, name: str) -> Operator:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    # -- convenience constructors ------------------------------------------------
    def add_source(
        self, name: str, supplier, batch_size: int = 256, enforce_order: bool = True
    ) -> SourceOperator:
        """Add a Source fed by ``supplier`` (iterable or callable).

        Pass ``enforce_order=False`` for suppliers with bounded disorder and
        place a :meth:`add_sort` operator right after the source.
        """
        return self.add(
            SourceOperator(name, supplier, batch_size=batch_size, enforce_order=enforce_order)
        )

    def add_sort(self, name: str, slack: float, drop_violations: bool = False) -> SortOperator:
        """Add a Sort operator re-ordering a stream with bounded disorder."""
        return self.add(SortOperator(name, slack, drop_violations=drop_violations))

    def add_sink(
        self,
        name: str,
        callback: Optional[Callable[[StreamTuple], None]] = None,
        keep_tuples: bool = True,
    ) -> SinkOperator:
        """Add a Sink collecting the query results."""
        return self.add(SinkOperator(name, callback=callback, keep_tuples=keep_tuples))

    def add_map(self, name: str, function) -> MapOperator:
        """Add a one-to-one Map operator."""
        return self.add(MapOperator(name, function))

    def add_flatmap(self, name: str, function) -> FlatMapOperator:
        """Add a one-to-many Map operator."""
        return self.add(FlatMapOperator(name, function))

    def add_filter(self, name: str, predicate) -> FilterOperator:
        """Add a Filter operator."""
        return self.add(FilterOperator(name, predicate))

    def add_multiplex(self, name: str) -> MultiplexOperator:
        """Add a Multiplex operator (one output port per later ``connect``)."""
        return self.add(MultiplexOperator(name))

    def add_router(
        self, name: str, predicates: Sequence[Optional[Callable[[StreamTuple], bool]]]
    ) -> RouterOperator:
        """Add a Router (fused Multiplex + Filters) operator."""
        return self.add(RouterOperator(name, predicates))

    def add_union(self, name: str) -> UnionOperator:
        """Add a Union operator merging several streams."""
        return self.add(UnionOperator(name))

    def add_partition(
        self,
        name: str,
        key_function,
        partitioner=None,
        stamp_sequence: bool = False,
    ) -> PartitionOperator:
        """Add a Partition hash-routing tuples to one shard output per ``connect``."""
        return self.add(
            PartitionOperator(
                name, key_function, partitioner=partitioner, stamp_sequence=stamp_sequence
            )
        )

    def add_merge(self, name: str) -> MergeOperator:
        """Add an order-restoring Merge re-uniting key-sharded streams."""
        return self.add(MergeOperator(name))

    def add_aggregate(
        self,
        name: str,
        window: WindowSpec,
        aggregate_function,
        key_function=None,
        contributors_function=None,
    ) -> AggregateOperator:
        """Add a windowed (optionally grouped) Aggregate operator."""
        return self.add(
            AggregateOperator(
                name,
                window,
                aggregate_function,
                key_function,
                contributors_function=contributors_function,
            )
        )

    def add_join(
        self, name: str, window_size: float, predicate, combiner, keys=None
    ) -> JoinOperator:
        """Add a windowed Join operator (left = first connect, right = second).

        ``keys`` are the ``(left, right)`` key extractors of an equi-join.
        """
        return self.add(JoinOperator(name, window_size, predicate, combiner, keys=keys))

    def add_send(
        self, name: str, channel: Channel, ship_provenance: bool = True
    ) -> SendOperator:
        """Add a Send operator writing to ``channel``.

        ``ship_provenance=False`` omits the provenance payload from the wire
        format; use it on streams whose consumers never read the re-attached
        metadata (the GeneaLog unfolded streams feeding the MU, whose tuples
        carry their provenance inside their attributes).
        """
        return self.add(SendOperator(name, channel, ship_provenance=ship_provenance))

    def add_receive(self, name: str, channel: Channel) -> ReceiveOperator:
        """Add a Receive operator reading from ``channel``."""
        return self.add(ReceiveOperator(name, channel))

    # -- wiring --------------------------------------------------------------------
    def connect(
        self,
        upstream: Operator,
        downstream: Operator,
        name: str = "",
        sorted_stream: bool = True,
    ) -> Stream:
        """Create a stream from ``upstream`` to ``downstream`` and return it.

        ``sorted_stream=False`` disables the timestamp-order check on the
        stream; it is meant for the connection between an out-of-order Source
        and its SortOperator.
        """
        missing = [
            op.name
            for op in (upstream, downstream)
            if self._by_name.get(op.name) is not op
        ]
        if missing:
            raise QueryValidationError(
                f"cannot connect {upstream.name!r} -> {downstream.name!r}: "
                f"operator(s) {', '.join(repr(name) for name in missing)} "
                f"not added to query {self.name!r}"
            )
        if upstream is downstream:
            raise QueryValidationError(
                f"cannot connect operator {upstream.name!r} to itself "
                f"(self-loops are not allowed in query {self.name!r})"
            )
        stream = Stream(
            name=name or f"{upstream.name}->{downstream.name}",
            enforce_order=sorted_stream,
        )
        upstream.add_output(stream)
        downstream.add_input(stream)
        self.streams.append(stream)
        self._edges.append((upstream, downstream))
        return stream

    def disconnect(self, stream: Stream) -> Tuple[Operator, Operator]:
        """Remove ``stream`` from the query; return its (producer, consumer).

        :meth:`splice` builds on it to re-route a stream through new
        operators.
        """
        producer = consumer = None
        for op in self.operators:
            if stream in op.outputs:
                producer = op
                op.outputs.remove(stream)
            if stream in op.inputs:
                consumer = op
                op.inputs.remove(stream)
        if producer is None or consumer is None:
            raise QueryValidationError("stream is not part of this query")
        stream.consumer = None  # stop waking the detached operator
        self.streams.remove(stream)
        self._edges.remove((producer, consumer))
        return producer, consumer

    def splice(self, stream: Stream, head: Operator, tail: Optional[Operator]) -> None:
        """Re-route ``stream`` through the added operators ``head`` .. ``tail``.

        The producer feeds ``head`` on the stream's output port (a Router's
        output ``i`` carries predicate ``i``), under the stream's name and
        order flag; ``tail`` feeds the consumer on the stream's input port (a
        Join's left/right side).  ``tail=None`` leaves the consumer unfed,
        for a caller that moves or removes it.
        """
        producer = self.producer_of(stream)
        (consumer,) = [op for op in self.operators if stream in op.inputs]
        out_port = producer.outputs.index(stream)
        in_port = consumer.inputs.index(stream)
        self.disconnect(stream)
        self.connect(producer, head, name=stream.name, sorted_stream=stream.enforce_order)
        producer.outputs.insert(out_port, producer.outputs.pop())
        if tail is not None:
            self.connect(tail, consumer)
            consumer.inputs.insert(in_port, consumer.inputs.pop())

    def remove(self, operator: Operator) -> None:
        """Disconnect every stream of ``operator`` and unregister it."""
        for stream in operator.inputs + operator.outputs:
            self.disconnect(stream)
        self.operators.remove(operator)
        del self._by_name[operator.name]

    def producer_of(self, stream: Stream) -> Operator:
        """Return the operator writing to ``stream``."""
        for op in self.operators:
            if stream in op.outputs:
                return op
        raise QueryValidationError("stream has no producer in this query")

    # -- analysis --------------------------------------------------------------------
    def sources(self) -> List[SourceOperator]:
        """Every Source operator of the query."""
        return [op for op in self.operators if isinstance(op, SourceOperator)]

    def sinks(self) -> List[SinkOperator]:
        """Every Sink operator of the query."""
        return [op for op in self.operators if isinstance(op, SinkOperator)]

    def receives(self) -> List[ReceiveOperator]:
        """Every Receive operator of the query."""
        return [op for op in self.operators if isinstance(op, ReceiveOperator)]

    def sends(self) -> List[SendOperator]:
        """Every Send operator of the query."""
        return [op for op in self.operators if isinstance(op, SendOperator)]

    def topological_order(self) -> List[Operator]:
        """Operators sorted so that every producer precedes its consumers."""
        indegree: Dict[Operator, int] = {op: 0 for op in self.operators}
        adjacency: Dict[Operator, List[Operator]] = {op: [] for op in self.operators}
        for upstream, downstream in self._edges:
            adjacency[upstream].append(downstream)
            indegree[downstream] += 1
        ready = deque(op for op in self.operators if indegree[op] == 0)
        ordered: List[Operator] = []
        while ready:
            op = ready.popleft()
            ordered.append(op)
            for succ in adjacency[op]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(ordered) != len(self.operators):
            raise QueryValidationError(f"query {self.name!r} contains a cycle")
        return ordered

    def validate(self) -> None:
        """Check the query graph is well formed; raise on any problem."""
        self.topological_order()
        for op in self.operators:
            op.validate()
            if not isinstance(op, (SourceOperator, ReceiveOperator)) and not op.inputs:
                raise QueryValidationError(f"operator {op.name!r} has no input stream")
            if (
                not isinstance(op, (SinkOperator, SendOperator))
                and op.max_outputs != 0
                and not op.outputs
            ):
                raise QueryValidationError(f"operator {op.name!r} has no output stream")

    # -- provenance ---------------------------------------------------------------------
    def set_provenance(self, manager: ProvenanceManager) -> None:
        """Install ``manager`` on every operator of the query."""
        for op in self.operators:
            op.set_provenance(manager)

    # -- statistics ------------------------------------------------------------------------
    def buffered_tuples(self) -> int:
        """Tuples currently buffered in streams and in stateful operator state."""
        queued = sum(len(stream) for stream in self.streams)
        state = sum(
            op.buffered_tuples()
            for op in self.operators
            if hasattr(op, "buffered_tuples")
        )
        return queued + state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Query(name={self.name!r}, operators={len(self.operators)})"
