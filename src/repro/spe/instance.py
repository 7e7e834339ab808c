"""SPE instances: the unit of deployment for distributed queries.

Each SPE instance represents a single process (section 2): operators inside
an instance share memory (so GeneaLog can use plain object references), while
tuples travelling between instances go through Send/Receive operators and are
serialised (so only explicitly serialised metadata survives).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set

from repro.spe.channels import Channel
from repro.spe.errors import SchedulingError
from repro.spe.query import Query


class SPEInstance(Query):
    """A :class:`Query` fragment deployed as one process.

    The paper classifies instances by their position in the instance graph:

    * a *source* instance hosts Sources and has no Receive operators,
    * a *sink* instance hosts Sinks and has no Send operators,
    * every other instance is *intermediate*.

    The *ordering value* of an instance is the longest path from a source
    instance to it; :func:`assign_ordering_values` computes it.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name=name)
        #: longest path from a source instance (see assign_ordering_values).
        self.ordering_value: Optional[int] = None

    # -- classification ------------------------------------------------------
    @property
    def is_source_instance(self) -> bool:
        """True when the instance is fed only by its own Sources."""
        return bool(self.sources()) and not self.receives()

    @property
    def is_sink_instance(self) -> bool:
        """True when the instance hosts Sinks and sends nothing downstream."""
        return bool(self.sinks()) and not self.sends()

    @property
    def is_intermediate_instance(self) -> bool:
        """True when the instance is neither a source nor a sink instance."""
        return not self.is_source_instance and not self.is_sink_instance

    # -- connectivity -----------------------------------------------------------
    def outgoing_channels(self) -> List[Channel]:
        """Channels written to by this instance's Send operators."""
        return [send.channel for send in self.sends()]

    def incoming_channels(self) -> List[Channel]:
        """Channels read by this instance's Receive operators."""
        return [receive.channel for receive in self.receives()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SPEInstance(name={self.name!r}, operators={len(self.operators)}, "
            f"ordering_value={self.ordering_value})"
        )


def assign_ordering_values(instances: Sequence[SPEInstance]) -> None:
    """Set each instance's ordering value (longest path from a source).

    Raises :class:`SchedulingError` when the instance graph (one edge per
    channel, producer to consumer) contains a cycle.
    """
    producers: Dict[Channel, SPEInstance] = {}
    for instance in instances:
        for channel in instance.outgoing_channels():
            producers[channel] = instance
    edges: Dict[SPEInstance, Set[SPEInstance]] = {i: set() for i in instances}
    for instance in instances:
        for channel in instance.incoming_channels():
            producer = producers.get(channel)
            if producer is not None:
                edges[producer].add(instance)
    indegree: Dict[SPEInstance, int] = {i: 0 for i in instances}
    for downstream_set in edges.values():
        for downstream in downstream_set:
            indegree[downstream] += 1
    order: List[SPEInstance] = [i for i in instances if indegree[i] == 0]
    values: Dict[SPEInstance, int] = {i: 0 for i in order}
    queue = deque(order)
    while queue:
        instance = queue.popleft()
        for downstream in edges[instance]:
            candidate = values[instance] + 1
            if candidate > values.get(downstream, -1):
                values[downstream] = candidate
            indegree[downstream] -= 1
            if indegree[downstream] == 0:
                queue.append(downstream)
    if len(values) != len(instances):
        raise SchedulingError("instance graph contains a cycle")
    for instance in instances:
        instance.ordering_value = values[instance]
