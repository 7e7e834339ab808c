"""The deterministic single-process scheduler.

One SPE instance is a single process whose threads share memory (section 2).
Because every operator consumes its inputs in deterministic timestamp-merged
order, the result of a run is a pure function of the source data regardless
of how ``work`` calls interleave -- the determinism property GeneaLog
requires.  :class:`Scheduler` exploits that freedom by being
**event-driven**: streams and channels signal their consumer operator on
every push / watermark advance / close, and the scheduler drains a FIFO
ready-queue of runnable operators.  Idle operators cost nothing, quiescence
is detected incrementally (an operator leaves the *unfinished* set the
moment its ``work`` call finishes it), and each wake-up hands the operator a
whole batch of consumable input.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Set

from repro.spe.errors import SchedulingError
from repro.spe.operators.base import Operator
from repro.spe.query import Query


class Scheduler:
    """Event-driven execution of a :class:`~repro.spe.query.Query`.

    The ready queue is seeded with every operator (in topological order) so
    pre-filled inputs and sources run at least once; afterwards operators
    are only enqueued when one of their input streams or channels signals
    them, or when they ask to be rescheduled (Sources that still have
    supplier data).  ``max_passes`` bounds the number of operator wake-ups;
    ``pass_callback`` is invoked every ``callback_every`` wake-ups (the
    telemetry sampler is built on it).
    """

    def __init__(
        self,
        query: Query,
        max_passes: int = 10_000_000,
        pass_callback: Optional[Callable[[int], None]] = None,
        callback_every: int = 16,
    ) -> None:
        self.query = query
        self.max_passes = max_passes
        self.pass_callback = pass_callback
        self.callback_every = max(1, callback_every)
        #: number of operator wake-ups executed so far.
        self.wakeups = 0
        #: telemetry span tracer (None = disabled; installed by the obs layer).
        self.tracer = None
        #: timeline lane the wake-up spans are recorded under (the instance
        #: name for distributed deployments, the query name intra-process).
        self.trace_node = query.name
        self._ready: Deque[Operator] = deque()
        self._unfinished: Set[Operator] = set()
        self._started = False
        self._draining = False
        #: hook invoked with ``self`` when the ready queue becomes non-empty
        #: (installed by the DistributedRuntime to wake this instance).
        self.on_wake: Optional[Callable[["Scheduler"], None]] = None

    # -- wiring -----------------------------------------------------------------
    def _enqueue(self, operator: Operator) -> None:
        was_idle = not self._ready
        self._ready.append(operator)
        # While step() drains the queue, the newly enqueued operator will be
        # processed by the ongoing drain -- no need to wake the runtime.
        if was_idle and not self._draining and self.on_wake is not None:
            self.on_wake(self)

    def _start(self) -> None:
        if self._started:
            return
        self.query.validate()
        order = self.query.topological_order()
        self._unfinished = {op for op in order if not op.finished}
        for operator in order:
            operator._waker = self._enqueue
            operator._queued = False
        self._started = True
        # Seed every operator once, in topological order: sources produce
        # their first batch, and operators over pre-filled streams/channels
        # drain them even though no push will ever signal them.
        for operator in order:
            operator.signal()

    # -- execution --------------------------------------------------------------
    def step(self) -> bool:
        """Drain the ready queue once; return True if any operator progressed.

        One ``step`` processes every signal-driven wake-up transitively (a
        push cascades through the whole downstream chain), but an operator
        that *reschedules itself* (a Source with supplier data left) is
        deferred to the next ``step``.  That bounds the work -- and, for a
        distributed deployment, the channel buffering -- of one step to one
        source batch plus its full propagation, instead of running sources to
        exhaustion while downstream instances wait.
        """
        self._start()
        progress = False
        ready = self._ready
        rescheduled = []
        tracer = self.tracer
        self._draining = True
        try:
            while ready:
                if self.wakeups >= self.max_passes:
                    raise SchedulingError(
                        f"query {self.query.name!r} did not finish within "
                        f"{self.max_passes} wake-ups"
                    )
                operator = ready.popleft()
                operator._queued = False
                operator.work_calls += 1
                if tracer is None:
                    if operator.work():
                        progress = True
                else:
                    started = tracer.clock()
                    worked = operator.work()
                    tracer.record(
                        "operator.work", operator.name, started, node=self.trace_node
                    )
                    if worked:
                        progress = True
                self.wakeups += 1
                if (
                    self.pass_callback is not None
                    and self.wakeups % self.callback_every == 0
                ):
                    self.pass_callback(self.wakeups)
                if operator.finished:
                    self._unfinished.discard(operator)
                elif operator.self_reschedule:
                    rescheduled.append(operator)
        finally:
            self._draining = False
        for operator in rescheduled:
            operator.signal()
        return progress

    def run(self) -> int:
        """Run until quiescence; return the number of operator wake-ups."""
        self._start()
        while self._ready:
            self.step()
        if self._unfinished:
            # The ready queue is empty but the query is not finished: the
            # graph is stuck (e.g. a Receive waiting on a channel that is
            # fed by another instance).  The caller (DistributedRuntime)
            # handles that case; in a standalone run it is an error.
            raise SchedulingError(
                f"query {self.query.name!r} made no progress before completion; "
                f"unfinished operators: {', '.join(self.unfinished_operators())}"
            )
        return self.wakeups

    # -- introspection ------------------------------------------------------------
    def unfinished_operators(self) -> List[str]:
        """Sorted names of the operators that have not finished yet."""
        operators = self._unfinished if self._started else self.query.operators
        return sorted(op.name for op in operators if not op.finished)

    @property
    def has_ready_work(self) -> bool:
        """True when at least one operator is queued to run."""
        return bool(self._ready)

    @property
    def finished(self) -> bool:
        """True once every operator of the query has finished."""
        if self._started:
            return not self._unfinished
        return all(op.finished for op in self.query.operators)
