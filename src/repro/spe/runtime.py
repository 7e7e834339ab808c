"""Distributed runtime: executes several SPE instances connected by channels.

The runtime plays the role of the multi-node deployment in the paper's
evaluation (three Odroid boards connected by a switch).  Each
:class:`~repro.spe.instance.SPEInstance` keeps its own event-driven
scheduler; instead of interleaving round-robin passes over all instances,
the runtime reacts to *channel readiness*: a Send flushing tuples (or a
watermark / close) onto a channel signals the Receive operator on the other
side, which wakes its instance's scheduler, which in turn enqueues the
instance at the runtime level.  Idle instances are never touched.  Because
every channel is a serialising boundary, this execution model exercises
exactly the inter-process mechanisms of section 6 (lost pointers, ``REMOTE``
tuples, unique IDs, the MU operator) while remaining fully deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.spe.channels import Channel
from repro.spe.errors import SchedulingError
from repro.spe.instance import SPEInstance
from repro.spe.scheduler import Scheduler


class _RuntimeBase:
    """What both runtimes (in-process, and the out-of-process
    :class:`~repro.spe.cluster.RemoteRuntime`) share: the instance list, its
    ordering values and the channel traffic statistics."""

    def __init__(self, instances: List[SPEInstance]) -> None:
        if not instances:
            raise SchedulingError("a distributed runtime needs at least one instance")
        self.instances = list(instances)
        self._assign_ordering_values()

    # -- instance graph ---------------------------------------------------------
    def _instance_edges(self) -> Dict[SPEInstance, Set[SPEInstance]]:
        producers: Dict[Channel, SPEInstance] = {}
        for instance in self.instances:
            for channel in instance.outgoing_channels():
                producers[channel] = instance
        edges: Dict[SPEInstance, Set[SPEInstance]] = {i: set() for i in self.instances}
        for instance in self.instances:
            for channel in instance.incoming_channels():
                producer = producers.get(channel)
                if producer is not None:
                    edges[producer].add(instance)
        return edges

    def _assign_ordering_values(self) -> None:
        """Compute each instance's ordering value (longest path from a source)."""
        edges = self._instance_edges()
        indegree: Dict[SPEInstance, int] = {i: 0 for i in self.instances}
        for downstream_set in edges.values():
            for downstream in downstream_set:
                indegree[downstream] += 1
        order: List[SPEInstance] = [i for i in self.instances if indegree[i] == 0]
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
        if len(values) != len(self.instances):
            raise SchedulingError("instance graph contains a cycle")
        for instance in self.instances:
            instance.ordering_value = values[instance]

    # -- statistics ----------------------------------------------------------------
    def channels(self) -> List[Channel]:
        """Every channel used by the deployment (deduplicated)."""
        seen: List[Channel] = []
        for instance in self.instances:
            for channel in instance.outgoing_channels():
                if channel not in seen:
                    seen.append(channel)
        return seen

    def total_bytes_transferred(self) -> int:
        """Bytes that crossed any inter-instance channel."""
        return sum(channel.bytes_sent for channel in self.channels())

    def total_tuples_transferred(self) -> int:
        """Tuples that crossed any inter-instance channel."""
        return sum(channel.tuples_sent for channel in self.channels())


class DistributedRuntime(_RuntimeBase):
    """Readiness-driven coordination of a set of SPE instances.

    ``rounds`` counts instance wake-ups (one wake-up = one full drain of an
    instance's ready queue); ``round_callback`` fires every
    ``callback_every`` wake-ups.
    """

    def __init__(
        self,
        instances: List[SPEInstance],
        max_rounds: int = 10_000_000,
        round_callback: Optional[Callable[[int], None]] = None,
        callback_every: int = 16,
    ) -> None:
        super().__init__(instances)
        self.max_rounds = max_rounds
        self.round_callback = round_callback
        self.callback_every = max(1, callback_every)
        self.rounds = 0
        self._schedulers = [Scheduler(instance) for instance in self.instances]
        self._ready: Deque[Scheduler] = deque()
        self._queued: Set[Scheduler] = set()
        self._seeded = False
        for scheduler in self._schedulers:
            scheduler.on_wake = self._on_scheduler_wake

    # -- readiness ---------------------------------------------------------------
    def _on_scheduler_wake(self, scheduler: Scheduler) -> None:
        if scheduler not in self._queued:
            self._queued.add(scheduler)
            self._ready.append(scheduler)

    def _ensure_seeded(self) -> None:
        """Validate and enqueue every instance once, in declaration order.

        Afterwards only channel activity (or carried-over ready work)
        re-enqueues an instance.
        """
        if self._seeded:
            return
        for instance in self.instances:
            instance.validate()
        self._seeded = True
        for scheduler in self._schedulers:
            self._on_scheduler_wake(scheduler)

    # -- execution -------------------------------------------------------------
    def step(self) -> bool:
        """Drain one ready instance; return True if it made progress."""
        self._ensure_seeded()
        if not self._ready:
            return False
        scheduler = self._ready.popleft()
        self._queued.discard(scheduler)
        progress = scheduler.step()
        self.rounds += 1
        if self.round_callback is not None and self.rounds % self.callback_every == 0:
            self.round_callback(self.rounds)
        return progress

    def run(self) -> int:
        """Run every instance to quiescence; return the instance wake-up count."""
        self._ensure_seeded()
        while self._ready:
            if self.rounds >= self.max_rounds:
                raise SchedulingError(
                    f"distributed deployment did not finish within "
                    f"{self.max_rounds} rounds"
                )
            self.step()
        if not self.finished:
            stuck = "; ".join(
                f"{scheduler.query.name} -> {', '.join(scheduler.unfinished_operators())}"
                for scheduler in self._schedulers
                if not scheduler.finished
            )
            raise SchedulingError(
                "distributed deployment made no progress before completion; "
                f"unfinished operators by instance: {stuck}"
            )
        return self.rounds

    @property
    def finished(self) -> bool:
        """True once every instance has finished."""
        return all(scheduler.finished for scheduler in self._schedulers)

    # -- introspection ------------------------------------------------------------
    def total_wakeups(self) -> int:
        """Operator wake-ups / ``work`` calls summed over all instances."""
        return sum(scheduler.wakeups for scheduler in self._schedulers)

    # -- telemetry ------------------------------------------------------------------
    def install_tracer(self, tracer) -> None:
        """Record every instance's wake-up spans into ``tracer``.

        Each scheduler keeps its own ``trace_node`` (the instance name), so
        one coordinator-resident tracer yields per-instance timeline lanes --
        the in-process analogue of the per-worker tracers the
        :class:`~repro.spe.cluster.RemoteRuntime` workers ship back.
        """
        for scheduler in self._schedulers:
            scheduler.tracer = tracer
