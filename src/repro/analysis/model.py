"""The analyzer's view of a plan: nodes, edges and deployment context.

A :class:`PlanModel` is built from a :class:`~repro.api.dataflow.Dataflow`'s
*declarative* description (node kinds, recorded ``meta``, edges) without ever
calling ``instantiate()`` -- instantiating would consume single-use stages
and exhaust one-shot suppliers, and the whole point of the analyzer is to
verify a plan **without executing it**.  The model also carries the
deployment context the plan would run under (provenance mode, placement,
execution core, retention override), because several rules are
only violations in some deployments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.provenance import ProvenanceMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports us)
    from repro.api.dataflow import Dataflow

#: node kinds that emit a timestamp-ordered stream regardless of input order.
ORDER_RESTORING_KINDS = ("sort", "aggregate", "join", "union", "merge")


@dataclass
class PlanNode:
    """One stage of the analyzed plan."""

    name: str
    kind: str
    meta: Dict[str, object] = field(default_factory=dict)
    retention_s: float = 0.0
    unordered: bool = False
    capture_provenance: Optional[bool] = None
    #: logical parallel stage this node is a member of, if any.
    parallel_stage: Optional[str] = None
    #: ``"partition"`` / ``"replica"`` / ``"merge"`` within the stage.
    parallel_role: Optional[str] = None
    #: replica count of the enclosing parallel stage (1 = sequential).
    parallelism: int = 1
    #: owning SPE instance under the placement, when one resolved.
    instance: Optional[str] = None


@dataclass
class PlanEdge:
    """One stream of the analyzed plan."""

    upstream: str
    downstream: str
    sorted_stream: bool = True
    out_port: Optional[int] = None
    in_port: int = 0
    #: True when the edge crosses SPE instances under the placement.
    cut: bool = False


@dataclass
class PlanModel:
    """A plan plus the deployment context it is analyzed under."""

    name: str
    nodes: Dict[str, PlanNode]
    edges: List[PlanEdge]
    deployment: str = "intra"
    mode: ProvenanceMode = ProvenanceMode.NONE
    execution: str = "event"
    #: the pipeline's explicit retention override (None = derived).
    retention: Optional[float] = None
    #: True when a provenance store is attached.
    stored: bool = False
    #: the attached provenance store's retention bound, if any.
    store_retention: Optional[float] = None
    #: sum of the plan's window sizes (the default retention bound).
    window_sum: float = 0.0
    #: sinks provenance capture would splice onto.
    capture_sinks: List[str] = field(default_factory=list)
    #: error message raised by ``placement.validate_against``, if it failed.
    placement_error: Optional[str] = None

    # -- construction -------------------------------------------------------
    @classmethod
    def from_dataflow(
        cls,
        dataflow: "Dataflow",
        *,
        placement: Optional[object] = None,
        mode: ProvenanceMode = ProvenanceMode.NONE,
        execution: str = "event",
        retention: Optional[float] = None,
        store: Optional[object] = None,
    ) -> "PlanModel":
        nodes: Dict[str, PlanNode] = {}
        for node in dataflow._nodes.values():
            nodes[node.name] = PlanNode(
                name=node.name,
                kind=node.kind,
                meta=dict(node.meta),
                retention_s=node.retention_s,
                unordered=node.unordered,
                capture_provenance=node.capture_provenance,
            )
        for stage in dataflow._parallel.values():
            members = (
                [(name, "partition") for name in stage.partitions]
                + [(name, "replica") for name in stage.replicas]
                + [(stage.merge, "merge")]
            )
            for member, role in members:
                if member in nodes:
                    nodes[member].parallel_stage = stage.name
                    nodes[member].parallel_role = role
                    nodes[member].parallelism = len(stage.replicas)
        edges: List[PlanEdge] = []
        in_ports: Dict[str, int] = {}
        for edge in dataflow.ordered_edges():
            port = in_ports.get(edge.downstream, 0)
            in_ports[edge.downstream] = port + 1
            edges.append(
                PlanEdge(
                    upstream=edge.upstream,
                    downstream=edge.downstream,
                    sorted_stream=edge.sorted_stream,
                    out_port=edge.out_port,
                    in_port=port,
                )
            )
        placement_error: Optional[str] = None
        if placement is not None:
            try:
                owner = placement.validate_against(dataflow)
            except Exception as exc:  # DataflowError, reported as a diagnostic
                placement_error = str(exc)
            else:
                for name, instance in owner.items():
                    if name in nodes:
                        nodes[name].instance = instance
                for edge in edges:
                    up = nodes[edge.upstream].instance
                    down = nodes[edge.downstream].instance
                    edge.cut = up is not None and down is not None and up != down
        store_retention = getattr(store, "retention", None) if store is not None else None
        return cls(
            name=dataflow.name,
            nodes=nodes,
            edges=edges,
            deployment="inter" if placement is not None else "intra",
            mode=mode,
            execution=execution,
            retention=retention,
            stored=store is not None,
            store_retention=store_retention,
            window_sum=dataflow.retention_s(),
            capture_sinks=list(dataflow.capture_sink_names()),
            placement_error=placement_error,
        )

    @property
    def cut(self) -> bool:
        """True when the placement cuts an edge: provenance then ships to a
        provenance instance instead of being captured in place."""
        return any(edge.cut for edge in self.edges)

    # -- graph helpers ------------------------------------------------------
    def in_edges(self, name: str) -> List[PlanEdge]:
        return [edge for edge in self.edges if edge.downstream == name]

    def out_edges(self, name: str) -> List[PlanEdge]:
        return [edge for edge in self.edges if edge.upstream == name]

    def predecessors(self, name: str) -> List[str]:
        return [edge.upstream for edge in self.in_edges(name)]

    def successors(self, name: str) -> List[str]:
        return [edge.downstream for edge in self.out_edges(name)]

    def roots(self) -> List[str]:
        """Nodes with no inputs (sources and custom generators)."""
        with_inputs = {edge.downstream for edge in self.edges}
        return [name for name in self.nodes if name not in with_inputs]

    def topological_order(self) -> Optional[List[str]]:
        """Node names topologically sorted, or ``None`` when cyclic."""
        indegree = {name: 0 for name in self.nodes}
        for edge in self.edges:
            indegree[edge.downstream] += 1
        ready = [name for name, degree in indegree.items() if degree == 0]
        order: List[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for successor in self.successors(name):
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    ready.append(successor)
        if len(order) != len(self.nodes):
            return None
        return order

    def cycle_members(self) -> List[str]:
        """Nodes that sit on a directed cycle (empty for acyclic plans)."""
        order = self.topological_order()
        if order is not None:
            return []
        leftover = set(self.nodes) - set(order or [])
        # Kahn's leftover includes nodes merely downstream of a cycle; keep
        # only the ones that can reach themselves.
        members: List[str] = []
        for name in self.nodes:
            if name not in leftover:
                continue
            seen = set()
            frontier = list(self.successors(name))
            on_cycle = False
            while frontier:
                current = frontier.pop()
                if current == name:
                    on_cycle = True
                    break
                if current in seen:
                    continue
                seen.add(current)
                frontier.extend(self.successors(current))
            if on_cycle:
                members.append(name)
        return members

    def ordered_outputs(self) -> Dict[str, bool]:
        """Per node: can its output stream be promised timestamp-ordered?

        Sources promise order unless declared ``enforce_order=False``;
        order-restoring operators (sort, windowed stages, merges) promise it
        regardless of input; everything else passes its inputs' promise
        through.  Cyclic plans conservatively report every node ordered (the
        cycle rule owns that diagnostic).
        """
        order = self.topological_order()
        promised: Dict[str, bool] = {name: True for name in self.nodes}
        if order is None:
            return promised
        for name in order:
            node = self.nodes[name]
            if node.kind in ("source",):
                promised[name] = not node.unordered
            elif node.kind in ORDER_RESTORING_KINDS:
                promised[name] = True
            elif node.kind == "custom":
                # custom operators are opaque -- assume the author keeps the
                # stream contract.
                promised[name] = not node.unordered
            else:
                inputs = self.predecessors(name)
                promised[name] = all(promised[up] for up in inputs) if inputs else True
        return promised

    def instance_graph(self) -> Dict[str, List[str]]:
        """Directed instance-level graph induced by the cut edges."""
        graph: Dict[str, List[str]] = {}
        for edge in self.edges:
            up = self.nodes[edge.upstream].instance
            down = self.nodes[edge.downstream].instance
            if up is None or down is None or up == down:
                continue
            graph.setdefault(up, [])
            graph.setdefault(down, [])
            if down not in graph[up]:
                graph[up].append(down)
        return graph

