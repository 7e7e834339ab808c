"""The executor: workloads, input materialisation, legs and rounds.

A *leg* is one operation of the benchmark: materialise the input, build one
pipeline, run it to quiescence, check its output against the oracle.  The
timed region is ``Pipeline.run()`` only.  This module knows how to run legs
and nothing about the metrics derived from them (:mod:`glbench.metrics`,
:mod:`glbench.layers`).

The replay is *saturated* (closed loop): the Source pulls the materialised
input as fast as the scheduler lets it, from this one generator process.
"""

from __future__ import annotations

import gc
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from repro.api import Pipeline
from repro.provstore import ProvenanceLedger
from repro.workloads import (
    LinearRoadConfig,
    LinearRoadGenerator,
    SmartGridConfig,
    SmartGridGenerator,
    query_dataflow,
    query_placement,
)

from . import oracle

#: the repository checkout this benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parents[2]

#: a leg that runs longer than this is abandoned and counted as failed.
LEG_TIMEOUT_S = 60.0

#: measured rounds per run, however many ``--seconds`` would admit.
MAX_ROUNDS = 12

#: instance names of the paper's three-instance placement under provenance;
#: the first two exist under "no provenance" as well.
INSTANCES = ("spe1", "spe2", "provenance_node")


@dataclass(frozen=True)
class Workload:
    """One set of inputs plus the deployment it runs on."""

    name: str
    query: str
    #: ``"event"`` (one process), ``"process"`` (pipes) or ``"cluster"`` (TCP).
    execution: str
    #: generator parameters per scale (``seed`` is added from ``--seed``).
    full: Mapping[str, Any]
    smoke: Mapping[str, Any]

    @property
    def inter(self) -> bool:
        return self.execution != "event"


#: Sizes are chosen on a 2-core host so that one ``np -> gl -> gl_store``
#: round takes 3-4 s and five rounds fit the contract's per-run budget.
#: Why each workload exists is recorded in ``BENCHMARK.json`` / ``README.md``.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "q1_intra", "q1", "event",
            full={"n_cars": 500, "duration_s": 6 * 3600.0},
            smoke={"n_cars": 40, "duration_s": 3600.0},
        ),
        Workload(
            "q4_intra", "q4", "event",
            full={"n_meters": 200, "n_days": 21},
            smoke={"n_meters": 20, "n_days": 10},
        ),
        Workload(
            "q1_inter_pipe", "q1", "process",
            full={"n_cars": 400, "duration_s": 5.5 * 3600.0},
            smoke={"n_cars": 40, "duration_s": 3600.0},
        ),
        Workload(
            "q1_inter_tcp", "q1", "cluster",
            full={"n_cars": 200, "duration_s": 4 * 3600.0},
            smoke={"n_cars": 40, "duration_s": 3600.0},
        ),
    )
}


def generate(workload: Workload, scale: str, seed: int) -> List:
    """The workload's source tuples: the same seed gives the same input."""
    params = dict(workload.full if scale == "full" else workload.smoke, seed=seed)
    if workload.query == "q1":
        return list(LinearRoadGenerator(LinearRoadConfig(**params)).tuples())
    return list(SmartGridGenerator(SmartGridConfig(**params)).tuples())


@dataclass(frozen=True)
class LegPlan:
    """Everything that selects what one leg builds and runs."""

    query: str
    #: ``"none"`` (NP), ``"genealog"`` (GL) or ``"baseline"`` (BL).
    mode: str = "none"
    #: attach a live in-memory ``ProvenanceLedger``.
    store: bool = False
    #: deploy on the paper's three-instance placement.
    inter: bool = False
    execution: str = "event"
    #: instance name -> ``host:port`` of a worker daemon (``"cluster"`` only).
    hosts: Optional[Mapping[str, str]] = None
    telemetry: Any = None


#: the three legs of one end-to-end round, in their base order.
LEG_KINDS = ("np", "gl", "gl_store")


def plan_for(workload: Workload, kind: str, hosts: Optional[Mapping[str, str]]) -> LegPlan:
    """The end-to-end leg ``kind`` of ``workload`` on its own deployment."""
    plan = LegPlan(
        query=workload.query,
        mode="none" if kind == "np" else "genealog",
        store=kind == "gl_store",
        inter=workload.inter,
        execution=workload.execution,
    )
    if workload.execution == "cluster":
        # "no provenance" deploys no provenance instance.
        names = INSTANCES[:2] if kind == "np" else INSTANCES
        plan = replace(plan, hosts={name: hosts[name] for name in names})
    return plan


@dataclass
class Leg:
    """The outcome of one leg."""

    plan: LegPlan
    source_tuples: int
    setup_s: float = 0.0
    analyze_s: float = 0.0
    build_s: float = 0.0
    run_s: float = 0.0
    #: sink latencies (seconds) as measured where the sink ran.
    latencies: List[float] = field(default_factory=list)
    #: whatever the caller's ``inspect`` hook extracted from the result.
    extra: Dict[str, Any] = field(default_factory=dict)
    #: why the leg failed (raised, timed out, missed the oracle); None = ok.
    error: Optional[str] = None

    @property
    def tps(self) -> float:
        return self.source_tuples / self.run_s


class LegTimeout(Exception):
    """A leg exceeded :data:`LEG_TIMEOUT_S`."""


@contextmanager
def _deadline(seconds: float) -> Iterator[None]:
    """Raise :class:`LegTimeout` in the main thread after ``seconds``."""

    def on_alarm(signum, frame):
        raise LegTimeout(f"leg still running after {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def instance_cpus(count: int) -> List[int]:
    """The CPU each of ``count`` SPE instances is pinned to, in instance order.

    Every instance gets its own CPU while CPUs last; the rest share the last
    one (2 CPUs: ``spe1`` alone, ``spe2`` with ``provenance_node``).  Left to
    the OS, wake-affinity stacks the pipe-coupled workers on one core for
    seconds at a time and throughput flips between regimes 2x apart from
    leg to leg; a fixed placement is the paper's one-instance-per-board
    deployment as far as this host allows.  Empty where pinning is unsupported.
    """
    if not hasattr(os, "sched_setaffinity"):
        return []
    cpus = sorted(os.sched_getaffinity(0))
    return [cpus[min(index, len(cpus) - 1)] for index in range(count)]


class _ForkPinning:
    """While entered, pins each process forked from this one (fork order = instance order).

    ``execution="process"`` forks its workers inside ``Pipeline.run()``, so
    the only place the harness can reach them is an at-fork hook; the hook
    stays registered for the life of the process and is inert when not entered.
    """

    def __init__(self) -> None:
        self._cpus: List[int] = []
        self._forked = 0
        self._registered = False

    def __enter__(self) -> None:
        if not self._registered:
            os.register_at_fork(after_in_parent=self._count, after_in_child=self._pin)
            self._registered = True
        self._cpus = instance_cpus(len(INSTANCES))
        self._forked = 0

    def __exit__(self, *exc_info) -> None:
        self._cpus = []

    def _count(self) -> None:
        self._forked += 1

    def _pin(self) -> None:
        if self._forked < len(self._cpus):
            os.sched_setaffinity(0, {self._cpus[self._forked]})


_fork_pinning = _ForkPinning()


def run_leg(
    plan: LegPlan,
    tuples: Sequence,
    expected: Optional[oracle.Expected],
    before_run: Optional[Callable[[Any], None]] = None,
    inspect: Optional[Callable[[Any, Any], Dict[str, Any]]] = None,
) -> Leg:
    """Run one leg; failures are recorded on the returned :class:`Leg`.

    ``before_run(result)`` sees the built pipeline just before the timed
    region; ``inspect(result, store)`` extracts what the caller needs from
    the finished run (the result itself is dropped: it pins the input copy).
    """
    leg = Leg(plan=plan, source_tuples=len(tuples))
    store = ProvenanceLedger() if plan.store else None
    try:
        with _deadline(LEG_TIMEOUT_S):
            gc.collect()
            started = time.perf_counter()
            # Every leg gets fresh tuple objects: the Source stamps them and
            # provenance links them.  No collector pass can free anything
            # while copying, so spare the copy its generation scans.
            gc.disable()
            try:
                supplier = [tup.copy() for tup in tuples]
            finally:
                gc.enable()
            # The harness keeps whole inputs alive, which a streaming source
            # never would; left tracked, those objects are re-scanned by every
            # full collection the *program* triggers (+20 % on GL legs).
            # Frozen objects are still freed by reference counting.
            gc.freeze()
            pipeline = Pipeline(
                query_dataflow(plan.query, supplier),
                provenance=plan.mode,
                placement=query_placement(plan.query) if plan.inter else None,
                execution=plan.execution,
                provenance_store=store,
                hosts=plan.hosts,
                telemetry=plan.telemetry,
                # analysed explicitly below so that its cost is set-up time.
                validate="off",
            )
            analyzed = time.perf_counter()
            pipeline.analyze().raise_for_errors()
            built = time.perf_counter()
            result = pipeline.build()
            ready = time.perf_counter()
            leg.setup_s = ready - started
            leg.analyze_s = built - analyzed
            leg.build_s = ready - built
            if before_run is not None:
                before_run(result)
            started = time.perf_counter()
            with _fork_pinning:  # only execution="process" forks in here
                pipeline.run()
            leg.run_s = time.perf_counter() - started
            leg.latencies = list(result.sink.latencies)
            if inspect is not None:
                leg.extra = inspect(result, store)
            if expected is not None:
                leg.error = oracle.verify(expected, result, plan.mode != "none", store)
    except Exception as exc:  # noqa: BLE001 - any failure fails the leg, not the run
        leg.error = f"{type(exc).__name__}: {exc}".splitlines()[0][:300]
    return leg


def run_rounds(
    workload: Workload,
    tuples: Sequence,
    expected: oracle.Expected,
    hosts: Optional[Mapping[str, str]],
    seconds: float,
    min_rounds: int,
) -> List[Dict[str, Leg]]:
    """Measured rounds of ``np -> gl -> gl_store``, leg order rotated per round.

    Runs at least ``min_rounds`` and then as many more as finish within
    ``seconds`` of the first one starting.
    """
    rounds: List[Dict[str, Leg]] = []
    started = time.perf_counter()
    while len(rounds) < MAX_ROUNDS:
        elapsed = time.perf_counter() - started
        if len(rounds) >= min_rounds and elapsed * (1 + 1 / len(rounds)) > seconds:
            break
        shift = len(rounds) % len(LEG_KINDS)
        order = LEG_KINDS[shift:] + LEG_KINDS[:shift]
        legs = {kind: run_leg(plan_for(workload, kind, hosts), tuples, expected) for kind in order}
        rounds.append(legs)
    return rounds


# -- cluster worker daemons ----------------------------------------------------


@contextmanager
def worker_daemons(names: Sequence[str]) -> Iterator[Dict[str, str]]:
    """One ``repro.spe.cluster`` worker daemon per name, reaped on exit.

    Yields ``name -> "host:port"``.  Real subprocesses, not in-process
    loopback workers: those share the generator's interpreter lock.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-m", "repro.spe.cluster", "--serve", "127.0.0.1:0"]
    processes: List[subprocess.Popen] = []
    drains: List[threading.Thread] = []
    try:
        addresses = {}
        cpus = instance_cpus(len(names))
        for index in range(len(names)):
            process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True
            )
            processes.append(process)
            if cpus:
                # before the daemon starts any thread: they inherit the mask.
                os.sched_setaffinity(process.pid, {cpus[index]})
        for name, process in zip(names, processes):
            match = None
            for _ in range(20):
                line = process.stdout.readline()
                match = re.search(r"serving on (\S+)", line)
                if match or not line:
                    break
            if not match:
                raise RuntimeError(f"worker daemon for {name!r} did not report its address")
            addresses[name] = match.group(1)
            # keep draining the daemon's log so that it never blocks on a full pipe.
            drains.append(threading.Thread(target=process.stdout.read, daemon=True))
            drains[-1].start()
        yield addresses
    finally:
        for process in processes:
            process.terminate()
        for process in processes:
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        for drain in drains:
            drain.join(timeout=5)
        for process in processes:
            process.stdout.close()


@contextmanager
def deployment(workload: Workload) -> Iterator[Optional[Dict[str, str]]]:
    """Whatever must outlive the legs of ``workload``: its worker daemons."""
    if workload.execution == "cluster":
        with worker_daemons(INSTANCES) as hosts:
            yield hosts
    else:
        yield None


# -- one end-to-end run of one workload ----------------------------------------

#: the peak-heap leg replays at most this many tuples (tracemalloc slows
#: the run 3-4x); window state has plateaued and sink records have grown by
#: then, and every workload collects enough alerts for seeds to agree.
HEAP_PREFIX_TUPLES = 130_000


@dataclass
class Run:
    """Every leg of one end-to-end run of one workload."""

    workload: str
    source_tuples: int
    #: the discarded first round (empty at smoke scale).
    warmup: Dict[str, Leg]
    rounds: List[Dict[str, Leg]]
    #: the separate untimed GL leg under ``tracemalloc`` (``extra["peak_bytes"]``).
    heap: Optional[Leg]

    def legs(self) -> List[Leg]:
        """Every leg attempted, measured or not."""
        legs = list(self.warmup.values())
        for round_legs in self.rounds:
            legs.extend(round_legs.values())
        if self.heap is not None:
            legs.append(self.heap)
        return legs


def measure_peak_heap(workload: Workload, tuples: Sequence) -> Leg:
    """``tracemalloc`` peak across ``run()`` of one GL leg on an input prefix.

    Inter workloads run the same plan on the in-process runtime, so the peak
    covers operator state, provenance metadata and channel buffers of every
    instance.
    """
    prefix = tuples[:HEAP_PREFIX_TUPLES]
    plan = LegPlan(query=workload.query, mode="genealog", inter=workload.inter)

    def peak(result, store) -> Dict[str, Any]:
        return {"peak_bytes": tracemalloc.get_traced_memory()[1]}

    try:
        return run_leg(
            plan,
            prefix,
            oracle.expected_for(workload.query, prefix),
            before_run=lambda result: tracemalloc.start(),
            inspect=peak,
        )
    finally:
        tracemalloc.stop()


def run_end_to_end(workload: Workload, scale: str, seed: int, seconds: float) -> Run:
    """Generate the input, warm up, measure rounds for ``seconds``, then the heap leg.

    At ``smoke`` scale there is no warm-up and exactly one round.
    """
    tuples = generate(workload, scale, seed)
    expected = oracle.expected_for(workload.query, tuples)
    full = scale == "full"
    with deployment(workload) as hosts:
        warmup = run_rounds(workload, tuples, expected, hosts, 0.0, 1)[0] if full else {}
        rounds = run_rounds(
            workload, tuples, expected, hosts, seconds if full else 0.0, 3 if full else 1
        )
    return Run(
        workload=workload.name,
        source_tuples=len(tuples),
        warmup=warmup,
        rounds=rounds,
        heap=measure_peak_heap(workload, tuples),
    )
