"""The deterministic event-driven scheduler: the one in-process engine loop.

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

The same freedom makes an in-process multi-instance deployment (section 6)
one scheduler over several queries: ``Scheduler(*instances)`` keeps one
ready-queue over every instance's operators, and a Send flushing onto an
in-memory channel signals the Receive on the other side like any stream
push would.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Set

from repro.spe.errors import SchedulingError
from repro.spe.operators.base import Operator
from repro.spe.query import Query

if TYPE_CHECKING:
    from repro.obs.tracer import SpanTracer


class Scheduler:
    """Event-driven execution of one or more :class:`~repro.spe.query.Query`.

    The ready queue is seeded with every operator (query by query, each in
    topological order) so pre-filled inputs and sources run at least once;
    afterwards operators are only enqueued when one of their input streams
    or channels signals them, or when they ask to be rescheduled (Sources
    that still have supplier data).  ``max_passes`` bounds the number of
    operator wake-ups; ``pass_callback`` is invoked every ``callback_every``
    wake-ups (the telemetry sampler is built on it).
    """

    def __init__(
        self,
        *queries: Query,
        max_passes: int = 10_000_000,
        pass_callback: Optional[Callable[[int], None]] = None,
        callback_every: int = 16,
    ) -> None:
        if not queries:
            raise SchedulingError("a scheduler needs at least one query")
        self.queries = queries
        self.max_passes = max_passes
        self.pass_callback = pass_callback
        self.callback_every = max(1, callback_every)
        #: number of operator wake-ups executed so far.
        self.wakeups = 0
        #: telemetry span tracer (None = disabled; installed by the obs layer).
        self.tracer: Optional[SpanTracer] = None
        names = ", ".join(repr(query.name) for query in queries)
        self._subject = f"query {names}" if len(queries) == 1 else f"queries {names}"
        self._ready: Deque[Operator] = deque()
        self._unfinished: Set[Operator] = set()
        #: operator -> the timeline lane of its wake-up spans (its query's name).
        self._lanes: Dict[Operator, str] = {}
        self._started = False

    # -- wiring -----------------------------------------------------------------
    def _start(self) -> None:
        if self._started:
            return
        for query in self.queries:
            query.validate()
        order: List[Operator] = []
        for query in self.queries:
            for operator in query.topological_order():
                order.append(operator)
                self._lanes[operator] = query.name
        self._unfinished = {op for op in order if not op.finished}
        enqueue = self._ready.append
        for operator in order:
            operator._waker = enqueue
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
        push cascades through the whole downstream chain, across in-memory
        channels too), but an operator that *reschedules itself* (a Source
        with supplier data left) is deferred to the next ``step``.  That
        bounds the work -- and, for a distributed deployment, the channel
        buffering -- of one step to one source batch plus its full
        propagation, instead of running sources to exhaustion while
        downstream operators wait.
        """
        self._start()
        progress = False
        ready = self._ready
        rescheduled: List[Operator] = []
        tracer = self.tracer
        while ready:
            if self.wakeups >= self.max_passes:
                raise self._max_passes_error()
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
                    "operator.work", operator.name, started, node=self._lanes[operator]
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
        for operator in rescheduled:
            operator.signal()
        return progress

    def run(self) -> int:
        """Run until quiescence; return the number of operator wake-ups."""
        self._start()
        while self._ready:
            self.step()
        if self._unfinished:
            # The ready queue is empty but some operator is not finished:
            # the graph is stuck (e.g. a Receive waiting on a channel that no
            # scheduled query feeds).
            raise SchedulingError(
                f"{self._subject} made no progress before completion; "
                f"unfinished operators: {', '.join(self.unfinished_operators())}"
            )
        return self.wakeups

    def _max_passes_error(self) -> SchedulingError:
        message = f"{self._subject} did not finish within {self.max_passes} wake-ups"
        if len(self.queries) > 1:
            message += f"; unfinished operators: {', '.join(self.unfinished_operators())}"
        return SchedulingError(message)

    # -- introspection ------------------------------------------------------------
    def unfinished_operators(self) -> List[str]:
        """Sorted names of the operators that have not finished yet, as
        ``query/operator`` when the scheduler runs several queries."""
        qualified = len(self.queries) > 1
        return sorted(
            f"{query.name}/{op.name}" if qualified else op.name
            for query in self.queries
            for op in query.operators
            if not op.finished
        )

    @property
    def has_ready_work(self) -> bool:
        """True when at least one operator is queued to run."""
        return bool(self._ready)

    @property
    def finished(self) -> bool:
        """True once every operator of every query has finished."""
        if self._started:
            return not self._unfinished
        return all(op.finished for query in self.queries for op in query.operators)
