"""True multi-process execution: one OS process per SPE instance.

The paper runs each SPE instance as a separate process (Odroid boards linked
by a switch); the cooperative :class:`~repro.spe.runtime.DistributedRuntime`
only *simulates* that inside one Python process, so the architecture's
parallelism is lost.  :class:`MultiprocessRuntime` closes that gap: every
:class:`~repro.spe.instance.SPEInstance` is driven by the event-driven
:class:`~repro.spe.scheduler.Scheduler` inside its own child process, and
the instances communicate exclusively through channels backed by
:class:`~repro.spe.channels.ProcessTransport` pipes carrying
:mod:`repro.spe.codec` batch blobs plus watermark advances and close markers
(under GL/BL the blobs also carry the cross-boundary provenance payloads,
decoded and re-ingested on the provenance instance's process).

Because each instance still consumes its inputs in deterministic
timestamp-merged order, the results are identical to the cooperative
execution -- the multiprocess equivalence suite asserts byte-identical sink
outputs and id-canonicalised provenance against ``execution="event"``.

**Result shipping.**  Sink tuples, per-tuple latencies, per-operator and
per-channel counters, contribution-graph traversal samples and the sink
observer streams all materialise in the child processes; each worker ships
them back to the coordinator over a result pipe when its instance reaches
quiescence.  The coordinator then replays every sink's observed stream into
the *coordinator-side* sink objects -- invoking their callbacks and their
attached :class:`~repro.provstore.tap.ProvenanceTap`-shaped observers (the
:class:`~repro.core.provenance.ProvenanceCollector`, the
:class:`~repro.provstore.tap.LedgerTap` feeding a provenance store) -- and
copies the counters onto the coordinator-side operators and channels.  A
:class:`~repro.api.pipeline.PipelineResult` is therefore indistinguishable
from a cooperative run, except that sink callbacks and ledger ingestion
happen *after* the processes finish rather than streaming during the run.

**Start method.**  Workers are forked, not spawned from scratch: operator
logic (map functions, predicates, source suppliers) is arbitrary Python --
closures and generators included -- and need not be picklable.  ``fork`` is
required; platforms without it (Windows) cannot use this runtime.

**Failure handling.**  A worker that raises ships the error (with its
traceback) back to the coordinator, which immediately signals every other
worker to stop, joins them, and re-raises the *original* failure first,
instead of letting healthy workers park until the timeout and masking the
root cause.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
import traceback
from multiprocessing import connection
from typing import Dict, List, Optional, Tuple

from repro.spe.channels import ProcessTransport
from repro.spe.errors import SchedulingError
from repro.spe.instance import SPEInstance
from repro.spe.runtime import _RuntimeBase
from repro.spe.scheduler import Scheduler
from repro.spe.shipping import (
    apply_instance_result,
    collect_result,
    prepare_sinks,
    require_unique_channel_names,
)

#: how long an idle worker blocks on its input pipes before re-checking the
#: stop event (a safety net; pipe readiness is the primary wake-up signal).
_WAIT_TIMEOUT_S = 0.05

logger = logging.getLogger(__name__)


def _run_worker(
    instance: SPEInstance,
    stop_event,
    result_conn,
    max_passes: int,
    telemetry_capacity: int = 0,
) -> None:
    """Child-process entry point: drive one instance to quiescence.

    ``telemetry_capacity`` > 0 opts this worker into span recording: the
    forked instance builds its *own* tracer (a forked copy of a
    coordinator-side tracer could never ship its buffer back) and the ring
    rides home inside the result document.
    """
    try:
        taps = prepare_sinks(instance)
        scheduler = Scheduler(instance, max_passes=max_passes)
        if telemetry_capacity > 0:
            from repro.obs.telemetry import enable_worker_telemetry

            enable_worker_telemetry(instance, scheduler, telemetry_capacity)
        waitable = {}
        for receive in instance.receives():
            transport = receive.channel.transport
            if isinstance(transport, ProcessTransport):
                waitable[transport.reader] = receive
        passes = 0
        while not stop_event.is_set():
            progressed = scheduler.step()
            passes += 1
            if scheduler.finished:
                break
            if progressed or scheduler.has_ready_work:
                continue
            if not waitable:
                raise SchedulingError(
                    f"instance {instance.name!r} made no progress before completion"
                )
            # Park on the input pipes: a send / watermark / close from an
            # upstream worker makes the read end ready, and signalling the
            # Receive puts it on this scheduler's ready queue.
            for conn in connection.wait(list(waitable), timeout=_WAIT_TIMEOUT_S):
                waitable[conn].signal()
        if not scheduler.finished:
            result_conn.send(("stopped", {"instance": instance.name}))
            return
        result_conn.send(("ok", collect_result(instance, scheduler, passes, taps)))
    except BaseException as exc:  # noqa: BLE001 - shipped to the coordinator
        try:
            result_conn.send(
                (
                    "error",
                    {
                        "instance": instance.name,
                        "error": repr(exc),
                        "traceback": traceback.format_exc(),
                    },
                )
            )
        except Exception:  # pragma: no cover - result pipe gone with coordinator
            pass
    finally:
        result_conn.close()


class _Worker:
    """Coordinator-side handle of one child process."""

    __slots__ = ("instance", "process", "result_conn", "outcome")

    def __init__(self, instance: SPEInstance, process, result_conn) -> None:
        self.instance = instance
        self.process = process
        self.result_conn = result_conn
        #: ("ok" | "error" | "stopped" | "died", document) once known.
        self.outcome: Optional[Tuple[str, Dict]] = None


class MultiprocessRuntime(_RuntimeBase):
    """Runs a distributed deployment with one OS process per SPE instance.

    Every inter-instance channel must be backed by a
    :class:`~repro.spe.channels.ProcessTransport` (the
    :class:`~repro.api.pipeline.Pipeline` builds them that way under
    ``execution="process"``).  ``max_rounds`` bounds each worker's scheduler
    wake-ups; ``round_callback`` fires once per collected worker result
    (``callback_every`` is accepted for interface parity but not applied --
    there are never more results than instances).
    """

    def __init__(
        self,
        instances: List[SPEInstance],
        timeout_s: float = 300.0,
        start_method: str = "fork",
        max_rounds: int = 10_000_000,
        round_callback=None,
        callback_every: int = 16,
        telemetry=None,
    ) -> None:
        super().__init__(instances)
        #: the run's :class:`repro.obs.telemetry.Telemetry` (None = off);
        #: workers record their own spans, the coordinator records the
        #: collect/apply phases, and the shipped buffers merge on apply.
        self.telemetry = telemetry
        if start_method not in multiprocessing.get_all_start_methods():
            raise SchedulingError(
                f"multiprocess execution needs the {start_method!r} start "
                "method (operator logic is arbitrary Python and cannot be "
                "pickled for spawn); this platform offers "
                f"{multiprocessing.get_all_start_methods()!r}"
            )
        self._ctx = multiprocessing.get_context(start_method)
        self.timeout_s = timeout_s
        self.max_rounds = max_rounds
        self.round_callback = round_callback
        self.callback_every = max(1, callback_every)
        #: instance wake-up ("pass") counts summed over all workers.
        self.rounds = 0
        self._wakeups = 0
        self.workers: List[_Worker] = []
        #: instance name -> shipped result document (after a successful run).
        self.results: Dict[str, Dict] = {}
        require_unique_channel_names(self.channels(), "multiprocess")
        for channel in self.channels():
            if not isinstance(channel.transport, ProcessTransport):
                raise SchedulingError(
                    f"channel {channel.name!r} is not process-backed; build "
                    "the deployment with process transports (e.g. "
                    "Pipeline(execution='process'))"
                )

    # -- execution -------------------------------------------------------------
    def run(self) -> int:
        """Run every instance to quiescence; return the worker pass count."""
        for instance in self.instances:
            instance.validate()
        stop_event = self._ctx.Event()
        self._stop_event = stop_event
        self.workers = []
        telemetry = self.telemetry
        capacity = telemetry.config.capacity if telemetry is not None else 0
        for instance in self.instances:
            recv_conn, send_conn = self._ctx.Pipe(duplex=False)
            process = self._ctx.Process(
                target=_run_worker,
                args=(instance, stop_event, send_conn, self.max_rounds, capacity),
                name=f"spe-{instance.name}",
                daemon=True,
            )
            self.workers.append(_Worker(instance, process, recv_conn))
        logger.debug(
            "starting %d worker process(es): %s",
            len(self.workers),
            [worker.instance.name for worker in self.workers],
        )
        for worker in self.workers:
            worker.process.start()
        tracer = telemetry.tracer if telemetry is not None else None
        try:
            if tracer is None:
                self._collect(stop_event)
            else:
                started = tracer.clock()
                self._collect(stop_event)
                tracer.record("process.collect", "workers", started)
        finally:
            stop_event.set()
            for worker in self.workers:
                worker.process.join(timeout=5.0)
            for worker in self.workers:
                if worker.process.is_alive():  # pragma: no cover - last resort
                    logger.warning(
                        "terminating unresponsive worker %r", worker.instance.name
                    )
                    worker.process.terminate()
                    worker.process.join(timeout=5.0)
        self._raise_on_failure()
        if tracer is None:
            self._apply_results()
        else:
            started = tracer.clock()
            self._apply_results()
            tracer.record("process.apply", "results", started)
        return self.rounds

    def _collect(self, stop_event) -> None:
        """Wait for every worker's result (or death), within the deadline."""
        deadline = time.monotonic() + self.timeout_s
        pending = {worker.result_conn: worker for worker in self.workers}
        sentinels = {worker.process.sentinel: worker for worker in self.workers}
        collected = 0
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            waitable = list(pending) + [
                worker.process.sentinel for worker in pending.values()
            ]
            ready = connection.wait(waitable, timeout=min(remaining, 0.25))
            for item in ready:
                worker = pending.get(item) or sentinels.get(item)
                if worker is None or worker.outcome is not None:
                    continue
                if worker.result_conn.poll():
                    try:
                        worker.outcome = worker.result_conn.recv()
                    except EOFError:
                        worker.outcome = ("died", {"instance": worker.instance.name})
                elif not worker.process.is_alive():
                    worker.outcome = ("died", {"instance": worker.instance.name})
                else:
                    # Sentinel raced ahead of the result payload; re-check on
                    # the next wait round.
                    continue
                pending.pop(worker.result_conn, None)
                collected += 1
                # The coordinator has no scheduler rounds of its own; the
                # callback fires once per collected worker result (there are
                # never more results than instances, so callback_every-style
                # thinning would typically mean zero invocations).
                if self.round_callback is not None:
                    self.round_callback(collected)
                if worker.outcome[0] in ("error", "died"):
                    # Fail fast: stop the healthy workers instead of letting
                    # them park until the deadline masks the real failure.
                    logger.warning(
                        "worker %r reported %s; stopping the deployment",
                        worker.instance.name,
                        worker.outcome[0],
                    )
                    stop_event.set()

    def _raise_on_failure(self) -> None:
        errors = [w for w in self.workers if w.outcome and w.outcome[0] == "error"]
        if errors:
            worker = errors[0]
            document = worker.outcome[1]
            raise SchedulingError(
                f"instance {document['instance']!r} failed: {document['error']}\n"
                f"{document.get('traceback', '')}"
            )
        died = [w for w in self.workers if w.outcome and w.outcome[0] == "died"]
        if died:
            worker = died[0]
            raise SchedulingError(
                f"instance {worker.instance.name!r} worker process died "
                f"without a result (exit code {worker.process.exitcode})"
            )
        unfinished = [
            w for w in self.workers if w.outcome is None or w.outcome[0] == "stopped"
        ]
        if unfinished:
            names = [w.instance.name for w in unfinished]
            raise SchedulingError(
                f"instance(s) {names!r} did not finish within {self.timeout_s} seconds"
            )

    # -- result application ------------------------------------------------------
    def _apply_results(self) -> None:
        """Copy shipped counters / sink streams onto the coordinator objects."""
        by_channel = {channel.name: channel for channel in self.channels()}
        for worker in self.workers:
            document = worker.outcome[1]
            self.results[worker.instance.name] = document
            self.rounds += document["passes"]
            self._wakeups += document["wakeups"]
            apply_instance_result(
                worker.instance, document, by_channel, telemetry=self.telemetry
            )

    # -- introspection ------------------------------------------------------------
    def total_wakeups(self) -> int:
        """Operator wake-ups summed over all worker schedulers."""
        return self._wakeups

    @property
    def finished(self) -> bool:
        """True once every worker shipped a successful result."""
        return bool(self.workers) and all(
            worker.outcome is not None and worker.outcome[0] == "ok"
            for worker in self.workers
        )


def run_multiprocess(
    instances: List[SPEInstance],
    timeout_s: float = 300.0,
    start_method: str = "fork",
) -> MultiprocessRuntime:
    """Convenience wrapper: build a :class:`MultiprocessRuntime`, run it, return it."""
    runtime = MultiprocessRuntime(instances, timeout_s=timeout_s, start_method=start_method)
    runtime.run()
    return runtime
