"""Operator base classes and the deterministic input-merge machinery."""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Sequence

from repro.spe.errors import QueryValidationError
from repro.spe.provenance_api import NoProvenance, ProvenanceManager
from repro.spe.streams import Stream
from repro.spe.tuples import StreamTuple

_operator_ids = itertools.count()


class Operator:
    """Base class for every streaming operator.

    An operator owns a list of input and output :class:`Stream` objects.  The
    scheduler calls :meth:`work`, which consumes whatever input is available
    (respecting the deterministic merge rules), emits output tuples and
    propagates watermarks.  ``work`` returns ``True`` when any progress was
    made.

    Readiness: every input stream registers the operator as its consumer, so
    pushes / watermark advances / closes on that stream call :meth:`signal`.
    When an event-driven scheduler is attached (it installs itself as the
    *waker*), a signal enqueues the operator exactly once until it next runs;
    without a scheduler the signal is a no-op, which keeps operators usable
    in isolation (unit tests drive ``work`` directly).
    """

    #: maximum number of input streams (None means unbounded).
    max_inputs: Optional[int] = 1
    #: maximum number of output streams (None means unbounded).
    max_outputs: Optional[int] = 1
    #: telemetry span tracer.  A *class* attribute defaulting to None so
    #: unpickled plan operators carry no instance state; the obs layer sets
    #: it per instance when telemetry is enabled.
    tracer = None

    def __init__(self, name: str) -> None:
        self.name = name
        self.operator_id = next(_operator_ids)
        self.inputs: List[Stream] = []
        self.outputs: List[Stream] = []
        self.provenance: ProvenanceManager = NoProvenance()
        self.tuples_in = 0
        self.tuples_out = 0
        #: ``work`` invocations by a scheduler (its wake-ups of this
        #: operator); surfaced per operator by ``PipelineResult.metrics()``.
        self.work_calls = 0
        self._in_watermark = float("-inf")
        self._out_watermark = float("-inf")
        self._outputs_closed = False
        self._progress = False
        #: callback installed by the event-driven scheduler; receives ``self``.
        self._waker: Optional[Callable[["Operator"], None]] = None
        #: True while the operator sits in its scheduler's ready queue.
        self._queued = False

    # -- readiness ----------------------------------------------------------
    def signal(self) -> None:
        """Mark the operator runnable (no-op without an attached scheduler).

        The ``_queued`` flag deduplicates wake-ups: however many tuples,
        watermarks or closes arrive before the operator next runs, it is
        enqueued at most once.  The scheduler clears the flag immediately
        before calling :meth:`work`, so a signal arriving *during* ``work``
        (e.g. from another thread feeding a channel) re-enqueues the operator
        and can never be lost.
        """
        if self._waker is not None and not self._queued:
            self._queued = True
            self._waker(self)

    @property
    def self_reschedule(self) -> bool:
        """True when the operator wants another wake-up it cannot be signalled
        for (Sources: their input is an iterator, not a stream)."""
        return False

    # -- wiring --------------------------------------------------------------
    def add_input(self, stream: Stream) -> None:
        """Attach ``stream`` as the next input port."""
        if self.max_inputs is not None and len(self.inputs) >= self.max_inputs:
            raise QueryValidationError(
                f"operator {self.name!r} accepts at most {self.max_inputs} input(s)"
            )
        self.inputs.append(stream)
        stream.consumer = self

    def add_output(self, stream: Stream) -> None:
        """Attach ``stream`` as the next output port."""
        if self.max_outputs is not None and len(self.outputs) >= self.max_outputs:
            raise QueryValidationError(
                f"operator {self.name!r} accepts at most {self.max_outputs} output(s)"
            )
        self.outputs.append(stream)

    def set_provenance(self, manager: ProvenanceManager) -> None:
        """Install the provenance manager used by this operator."""
        self.provenance = manager

    def validate(self) -> None:
        """Check the operator is correctly wired.  Called by the query."""
        if self.max_inputs is not None and len(self.inputs) > self.max_inputs:
            raise QueryValidationError(f"operator {self.name!r} has too many inputs")
        if self.max_outputs is not None and len(self.outputs) > self.max_outputs:
            raise QueryValidationError(f"operator {self.name!r} has too many outputs")

    # -- execution -------------------------------------------------------------
    def work(self) -> bool:
        """Make as much progress as possible; return True if anything happened."""
        raise NotImplementedError

    def emit(self, tup: StreamTuple, port: int = 0) -> None:
        """Push ``tup`` to output ``port``."""
        self.tuples_out += 1
        self.outputs[port].push(tup)
        self._progress = True

    def emit_many(self, tuples: Sequence[StreamTuple], port: int = 0) -> None:
        """Push a batch of tuples to output ``port`` with one wake-up."""
        if not tuples:
            return
        self.tuples_out += len(tuples)
        self.outputs[port].push_many(tuples)
        self._progress = True

    def output_watermark_for(self, input_watermark: float) -> float:
        """Translate an input watermark into the watermark safe to emit.

        Stateless operators forward the watermark unchanged; windowed
        operators hold it back by their window size.
        """
        return input_watermark

    def on_watermark(self, watermark: float) -> None:
        """Hook invoked when the (merged) input watermark advances."""

    def on_close(self) -> None:
        """Hook invoked once, when every input is closed and drained."""

    # -- helpers used by concrete operators --------------------------------------
    def _advance_outputs(self, output_watermark: float) -> None:
        if output_watermark > self._out_watermark:
            self._out_watermark = output_watermark
            for stream in self.outputs:
                stream.advance_watermark(output_watermark)
            self._progress = True

    def _close_outputs(self) -> None:
        if not self._outputs_closed:
            for stream in self.outputs:
                stream.close()
            self._outputs_closed = True
            self._progress = True

    def _inputs_exhausted(self) -> bool:
        return all(stream.closed and len(stream) == 0 for stream in self.inputs)

    @property
    def finished(self) -> bool:
        """True once the operator has nothing left to do."""
        return self._outputs_closed or (not self.outputs and self._inputs_exhausted())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class SingleInputOperator(Operator):
    """Base class for operators with exactly one input stream."""

    max_inputs = 1

    def process_tuple(self, tup: StreamTuple) -> None:
        """Process one input tuple (possibly emitting output tuples)."""
        raise NotImplementedError

    def process_batch(self, batch: Sequence[StreamTuple]) -> None:
        """Process a batch of consumable input tuples.

        A concrete operator implements exactly one of the two hooks: stateful
        operators define :meth:`process_tuple` and inherit this loop over it;
        stateless ones override this method to amortise per-tuple overheads
        and define no :meth:`process_tuple`.
        """
        process = self.process_tuple
        for tup in batch:
            process(tup)

    def work(self) -> bool:
        self._progress = False
        if not self.inputs:
            return False
        stream = self.inputs[0]
        batch = stream.pop_ready()
        if batch:
            self.tuples_in += len(batch)
            tracer = self.tracer
            if tracer is None:
                self.process_batch(batch)
            else:
                started = tracer.clock()
                self.process_batch(batch)
                tracer.record("operator.batch", self.name, started, count=len(batch))
            self._progress = True
        watermark = stream.watermark
        if watermark > self._in_watermark:
            self._in_watermark = watermark
            self.on_watermark(watermark)
            self._advance_outputs(self.output_watermark_for(watermark))
        if self._inputs_exhausted() and not self._outputs_closed:
            self.on_close()
            self._close_outputs()
        return self._progress


class MultiInputOperator(Operator):
    """Base class for operators that deterministically merge several inputs.

    A head tuple from input ``i`` may only be consumed once its timestamp is
    not larger than the *frontier* (head timestamp, or watermark when empty)
    of every other input.  Ties are broken by the input index, which makes the
    consumption order -- and therefore the whole query execution -- a pure
    function of the input streams.
    """

    max_inputs: Optional[int] = None

    def process_tuple(self, tup: StreamTuple, input_index: int) -> None:
        """Process one input tuple taken from input ``input_index``."""
        raise NotImplementedError

    def _drain_merged(self) -> None:
        """Consume every currently-consumable tuple in merged order.

        Only *empty* inputs can block consumption: the selected head is the
        timestamp-minimum over all non-empty heads (ties to the lowest
        index), so a non-empty input can never hold a strictly earlier tuple.
        An empty input ``j`` with watermark ``w`` blocks a candidate
        ``(ts, i)`` exactly when ``(ts, i) >= (w, j)`` lexicographically --
        equal timestamps must go to the lower index first.  The barrier (the
        lexicographic minimum ``(w, j)`` over empty inputs) therefore only
        changes when an input *becomes* empty, so the whole wake-up needs one
        pass over the inputs up front plus O(#inputs) work per consumed tuple
        for the head minimum.

        Watermarks cannot move during the drain: stream producers live in
        the same instance and never run concurrently with this operator.
        """
        inputs = self.inputs
        queues = [stream._queue for stream in inputs]
        watermarks = [stream.watermark for stream in inputs]
        barrier_ts = float("inf")
        barrier_index = float("inf")
        for index, queue in enumerate(queues):
            if not queue:
                watermark = watermarks[index]
                if watermark < barrier_ts:
                    barrier_ts = watermark
                    barrier_index = index
        consumed = 0
        process = self.process_tuple
        while True:
            best_index = -1
            best_ts = float("inf")
            for index, queue in enumerate(queues):
                if queue:
                    head_ts = queue[0].ts
                    if head_ts < best_ts:
                        best_ts = head_ts
                        best_index = index
            if best_index < 0:
                break
            if best_ts > barrier_ts or (
                best_ts == barrier_ts and best_index > barrier_index
            ):
                break
            queue = queues[best_index]
            tup = queue.popleft()
            consumed += 1
            process(tup, best_index)
            if not queue:
                watermark = watermarks[best_index]
                if watermark < barrier_ts or (
                    watermark == barrier_ts and best_index < barrier_index
                ):
                    barrier_ts = watermark
                    barrier_index = best_index
        if consumed:
            self.tuples_in += consumed
            self._progress = True

    def work(self) -> bool:
        self._progress = False
        inputs = self.inputs
        if not inputs:
            return False
        if len(inputs) == 1:
            # Degenerate merge: a single input is a plain FIFO drain.
            batch = inputs[0].pop_ready()
            if batch:
                self.tuples_in += len(batch)
                process = self.process_tuple
                for tup in batch:
                    process(tup, 0)
                self._progress = True
            watermark = inputs[0].watermark
        else:
            tracer = self.tracer
            if tracer is None:
                self._drain_merged()
            else:
                started = tracer.clock()
                before = self.tuples_in
                self._drain_merged()
                consumed = self.tuples_in - before
                if consumed:
                    tracer.record(
                        "operator.batch", self.name, started, count=consumed
                    )
            watermark = min(stream.watermark for stream in inputs)
        if watermark > self._in_watermark:
            self._in_watermark = watermark
            self.on_watermark(watermark)
            self._advance_outputs(self.output_watermark_for(watermark))
        if self._inputs_exhausted() and not self._outputs_closed:
            self.on_close()
            self._close_outputs()
        return self._progress
