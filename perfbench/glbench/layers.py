"""The per-layer probes behind ``--trace 1``: where a workload's time goes.

Layers are named after the modules of ``src/repro``.  Time is attributed
*from outside* the program, four ways:

* a **timing shim** the harness sets on every built operator's ``work()``
  for one NP and one GL leg on the in-process runtime (busy seconds per
  operator; the scheduler's share is the remainder),
* **differential legs** -- the same input on a runtime with one layer fewer
  (own runtime -> in-process three-instance -> one instance), so a
  difference of two walls prices the layer in between,
* the program's existing ``telemetry=True`` export, read through
  ``PipelineResult.trace`` after one GL leg (per-instance busy share,
  shipping phases) -- spans stay in memory until the leg ends,
* **microbenches** of single calls on tuples taken from the workload.

Rows of a runtime the workload does not run (pipes on an intra workload)
are 0: that layer did no work here.  A probe whose target was renamed or
removed yields ``None`` for its rows (reported as ``null`` +
``probe_missing``) instead of failing the run.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.api import Pipeline, TelemetryConfig
from repro.workloads import query_dataflow, query_placement

from . import oracle
from .cells import (
    INSTANCES,
    ROOT,
    Leg,
    LegPlan,
    Workload,
    deployment,
    generate,
    plan_for,
    run_leg,
)
from .metrics import percentile

#: wall seconds each microbench loops for.
MICRO_S = 0.15

#: the Ariadne-baseline leg replays this share of the input (it is 5-10x
#: slower than GL on the three-instance plan).
BASELINE_PREFIX_SHARE = 0.25

#: operator class -> layer row of ``spe.operators.*`` / ``core.*``.
_KINDS = {
    "SourceOperator": "source",
    "FilterOperator": "filter",
    "AggregateOperator": "aggregate",
    "JoinOperator": "join",
    "SinkOperator": "sink",
    "SendOperator": "send",
    "ReceiveOperator": "receive",
    "SUOperator": "unfolder",
    "UnfoldMapOperator": "unfolder",
    "MUOperator": "multi_unfolder",
}
_SPE_KINDS = ("source", "filter", "aggregate", "join", "sink", "send", "receive")


# -- what a traced leg keeps of its result --------------------------------------


def _operators(result) -> Dict[str, Any]:
    """Qualified name (as in ``result.metrics()``) -> built operator."""
    operators = {}
    if result.query is not None:
        operators.update({op.name: op for op in result.query.operators})
    for instance in result.instances:
        operators.update({f"{instance.name}/{op.name}": op for op in instance.operators})
    return operators


class WorkShim:
    """Times every operator's ``work()`` from outside (busy seconds by name)."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = {}

    def install(self, result) -> None:
        clock = time.perf_counter
        busy = self.busy
        for name, operator in _operators(result).items():
            busy[name] = 0.0

            def timed(work=operator.work, name=name) -> bool:
                started = clock()
                try:
                    return work()
                finally:
                    busy[name] += clock() - started

            operator.work = timed


def _inspect(result, store) -> Dict[str, Any]:
    """Plain data a traced leg keeps (the result itself pins the input copy)."""
    snapshot = result.metrics()
    kept: Dict[str, Any] = {
        "wakeups": result.wakeups,
        "operators": {
            name: (counters.kind, counters.work_calls, counters.tuples_in, counters.tuples_out)
            for name, counters in snapshot.operators.items()
        },
        "wire_bytes": result.bytes_transferred(),
        "traversal_s": list(result.traversal_times_s()),
        "graph_nodes": sum(len(record.sources) for record in result.provenance_records()),
        "sink_tuples": result.sink.count,
    }
    if result.trace is not None:
        kept["spans"] = [
            (span.kind, span.node, span.duration_s) for span in result.trace.spans()
        ]
    if store is not None:
        kept["store"] = {
            "ingested": store.ingested_tuples,
            "dedup_ratio": store.dedup_ratio,
            "sealed": store.sealed_count,
        }
    return kept


def _row(name: str, counters: tuple) -> str:
    """The layer row of one operator: its kind, or the provenance plumbing."""
    kind = _KINDS.get(counters[0], "other")
    if kind == "sink" and name.rsplit("/", 1)[-1].startswith("provenance_"):
        return "collector"
    return kind


# -- the traced run ------------------------------------------------------------


@dataclass
class Trace:
    """Every leg and every row of one traced run of one workload."""

    workload: str
    source_tuples: int
    legs: Dict[str, Leg] = field(default_factory=dict)
    #: row name -> value (``None`` = probe missing).
    rows: Dict[str, Optional[float]] = field(default_factory=dict)
    #: probe name -> why it produced nothing.
    probe_missing: Dict[str, str] = field(default_factory=dict)


def _traced_legs(workload: Workload, tuples: Sequence, hosts) -> Dict[str, Leg]:
    """One rep of every leg the rows are computed from."""
    expected = oracle.expected_for(workload.query, tuples)
    own = {kind: plan_for(workload, kind, hosts) for kind in ("np", "gl", "gl_store")}
    inproc = LegPlan(query=workload.query, inter=True)
    intra = LegPlan(query=workload.query)
    shape = inproc if workload.inter else intra
    legs: Dict[str, Leg] = {}

    def leg(key: str, plan: LegPlan, data=tuples, want=expected, shim=False) -> None:
        if shim:
            work_shim = WorkShim()

            def inspect(result, store) -> Dict[str, Any]:
                return dict(_inspect(result, store), busy=work_shim.busy)

            legs[key] = run_leg(plan, data, want, before_run=work_shim.install, inspect=inspect)
        else:
            legs[key] = run_leg(plan, data, want, inspect=_inspect)

    leg("warmup", own["gl"])  # first reps run 20-40 % off; its numbers are not used
    leg("own_np", own["np"])
    leg("own_gl", own["gl"])
    leg("own_store", own["gl_store"])
    leg("own_obs", replace(own["gl"], telemetry=TelemetryConfig(capacity=1 << 21)))
    leg("shim_np", shape, shim=True)
    leg("shim_gl", replace(shape, mode="genealog"), shim=True)
    if workload.inter:
        leg("inproc_np", inproc)
        leg("inproc_gl", replace(inproc, mode="genealog"))
        leg("intra_np", intra)
        leg("intra_gl", replace(intra, mode="genealog"))
        empty = tuples[:0]
        leg("launch", own["np"], data=empty, want=oracle.expected_for(workload.query, empty))
    else:
        legs["intra_np"], legs["intra_gl"] = legs["own_np"], legs["own_gl"]
        leg("inproc_np", inproc)
        leg("inproc_gl", replace(inproc, mode="genealog"))
    prefix = tuples[: max(1, int(len(tuples) * BASELINE_PREFIX_SHARE))]
    leg(
        "own_bl",
        replace(own["gl"], mode="baseline"),
        data=prefix,
        want=oracle.expected_for(workload.query, prefix),
    )
    return legs


def run_trace(workload: Workload, scale: str, seed: int) -> Trace:
    """The traced run: legs first, then every probe over them."""
    started = time.perf_counter()
    tuples = generate(workload, scale, seed)
    generate_s = time.perf_counter() - started
    trace = Trace(workload.name, len(tuples))
    with deployment(workload) as hosts:
        trace.legs = _traced_legs(workload, tuples, hosts)
        context = _Context(workload, tuples, trace.legs, generate_s, hosts, trace.rows)
        for probe in PROBES:
            try:
                trace.rows.update(probe(context))
            except Exception as exc:  # noqa: BLE001 - a moved target must not fail the run
                trace.probe_missing[probe.__name__] = f"{type(exc).__name__}: {exc}"[:200]
    return trace


# -- probes ----------------------------------------------------------------------


@dataclass
class _Context:
    workload: Workload
    tuples: Sequence
    legs: Mapping[str, Leg]
    generate_s: float
    hosts: Optional[Mapping[str, str]]
    #: the rows earlier probes produced.
    rows: Mapping[str, Optional[float]]

    def leg(self, key: str) -> Leg:
        """A leg that ran and matched the oracle (else the probe is void)."""
        leg = self.legs[key]
        if leg.error is not None:
            raise RuntimeError(f"leg {key} failed: {leg.error}")
        return leg

    def sample(self, count: int = 512) -> List:
        """Fresh copies of the first tuples sharing one timestamp."""
        first = self.tuples[0].ts
        return [tup.copy() for tup in self.tuples[:count] if tup.ts == first]


def _per_call_ns(call: Callable[[], Any], calls_per_loop: int = 1) -> float:
    """Nanoseconds per call of ``call`` looped for :data:`MICRO_S`."""
    loops = 0
    clock = time.perf_counter
    started = clock()
    deadline = started + MICRO_S
    while True:
        call()
        loops += 1
        now = clock()
        if now >= deadline:
            return (now - started) * 1e9 / (loops * calls_per_loop)


def _busy_by_row(leg: Leg) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for name, counters in leg.extra["operators"].items():
        row = _row(name, counters)
        totals[row] = totals.get(row, 0.0) + leg.extra["busy"][name]
    return totals


def probe_setup(ctx: _Context) -> Dict[str, float]:
    ok = [leg for leg in ctx.legs.values() if leg.error is None and leg.source_tuples]
    return {
        "workloads.generate_tps": len(ctx.tuples) / ctx.generate_s,
        "api.build_s": statistics.median(leg.build_s for leg in ok),
        "api.analyze_s": statistics.median(leg.analyze_s for leg in ok),
    }


def probe_operators(ctx: _Context) -> Dict[str, float]:
    """``spe.operators.*`` from the shimmed NP leg on the in-process runtime."""
    leg = ctx.leg("shim_np")
    busy = _busy_by_row(leg)
    rows: Dict[str, float] = {}
    for kind in _SPE_KINDS:
        counters = [c for name, c in leg.extra["operators"].items() if _row(name, c) == kind]
        rows[f"spe.operators.{kind}.busy_s"] = busy.get(kind, 0.0)
        rows[f"spe.operators.{kind}.tuples_in"] = sum(c[2] for c in counters)
        rows[f"spe.operators.{kind}.tuples_out"] = sum(c[3] for c in counters)
    work_done = sum(c[2] for c in leg.extra["operators"].values())
    rows["spe.scheduler.wakeups"] = leg.extra["wakeups"]
    rows["spe.scheduler.tuples_per_wake"] = work_done / leg.extra["wakeups"]
    rows["spe.scheduler.overhead_s"] = leg.run_s - sum(leg.extra["busy"].values())
    return rows


def probe_latency(ctx: _Context) -> Dict[str, float]:
    ordered = sorted(ctx.leg("own_gl").latencies)
    return {
        "spe.operators.sink.latency_p50_ms": percentile(ordered, 0.5) * 1e3,
        "spe.operators.sink.latency_p95_ms": percentile(ordered, 0.95) * 1e3,
        "spe.operators.sink.latency_p99_ms": percentile(ordered, 0.99) * 1e3,
    }


def probe_provenance(ctx: _Context) -> Dict[str, float]:
    """``core.*`` busy rows: the shimmed GL leg against the shimmed NP leg."""
    np_leg, gl_leg = ctx.leg("shim_np"), ctx.leg("shim_gl")
    np_busy, gl_busy = np_leg.extra["busy"], gl_leg.extra["busy"]
    rows = _busy_by_row(gl_leg)
    gl_operators = gl_leg.extra["operators"]
    plumbing = sum(
        seconds
        for name, seconds in gl_busy.items()
        if name not in np_busy and _row(name, gl_operators[name]) in ("send", "receive")
    )
    unfolded = sum(c[2] for name, c in gl_operators.items() if _row(name, c) == "collector")
    return {
        # operators that exist without provenance: what capturing costs them.
        "core.instrumentation.tax_s": sum(gl_busy[name] - np_busy[name] for name in np_busy),
        "core.unfolder.busy_s": rows.get("unfolder", 0.0),
        "core.unfolder.unfolded_tuples": unfolded,
        "core.multi_unfolder.busy_s": rows.get("multi_unfolder", 0.0),
        "core.provenance.collector_busy_s": rows.get("collector", 0.0),
        "core.provenance.channel_busy_s": plumbing,
    }


def probe_traversal(ctx: _Context) -> Dict[str, float]:
    leg = ctx.leg("own_gl")
    ordered = sorted(leg.extra["traversal_s"])
    total = sum(ordered)
    return {
        "core.traversal.total_s": total,
        "core.traversal.p50_us": percentile(ordered, 0.5) * 1e6,
        "core.traversal.p95_us": percentile(ordered, 0.95) * 1e6,
        "core.traversal.graph_size_mean": leg.extra["graph_nodes"] / leg.extra["sink_tuples"],
        "core.traversal.ns_per_node": total * 1e9 / leg.extra["graph_nodes"],
    }


def probe_differential(ctx: _Context) -> Dict[str, float]:
    """Walls of the same input with one layer fewer each."""
    own_np, own_gl = ctx.leg("own_np"), ctx.leg("own_gl")
    inproc_np, inproc_gl = ctx.leg("inproc_np"), ctx.leg("inproc_gl")
    intra_gl = ctx.leg("intra_gl")
    tuples = len(ctx.tuples)
    transport_tax = own_gl.run_s - inproc_gl.run_s if ctx.workload.inter else 0.0
    runtime = {"process": "spe.multiprocess", "cluster": "spe.cluster"}
    rows = {
        "spe.codec.wire_bytes_per_tuple.np": own_np.extra["wire_bytes"] / tuples,
        "spe.codec.wire_bytes_per_tuple.gl": own_gl.extra["wire_bytes"] / tuples,
        "spe.runtime.inmemory_inter.np_tps": inproc_np.tps,
        "spe.runtime.inmemory_inter.gl_tps": inproc_gl.tps,
        # codec + Send/Receive + MU with no OS transport.
        "spe.runtime.boundary_tax_s": inproc_gl.run_s - intra_gl.run_s,
    }
    for execution, layer in runtime.items():
        mine = ctx.workload.execution == execution
        rows[f"{layer}.transport_tax_s"] = transport_tax if mine else 0.0
        rows[f"{layer}.launch_collect_s"] = ctx.leg("launch").run_s if mine else 0.0
    return rows


def probe_telemetry(ctx: _Context) -> Dict[str, float]:
    """Rows read from the program's own span export (one GL leg)."""
    plain, traced = ctx.leg("own_gl"), ctx.leg("own_obs")
    busy: Dict[str, float] = {}
    phases: Dict[str, float] = {}
    for kind, node, duration in traced.extra["spans"]:
        if kind == "operator.work":
            busy[node] = busy.get(node, 0.0) + duration
        elif kind.endswith((".collect", ".apply")):
            phases[kind.rsplit(".", 1)[-1]] = duration
    shares = {node: seconds / traced.run_s for node, seconds in busy.items()}
    rows = {
        "obs.enabled_overhead_ratio": traced.run_s / plain.run_s,
        "obs.span_coverage": statistics.mean(shares.values()),
        # result shipping: workers' sink streams collected, then replayed.
        "spe.shipping.collect_s": phases.get("collect", 0.0),
        "spe.shipping.apply_s": phases.get("apply", 0.0),
    }
    for execution, layer in (("process", "spe.multiprocess"), ("cluster", "spe.cluster")):
        for instance in INSTANCES:
            mine = ctx.workload.execution == execution
            rows[f"{layer}.instance_busy_share.{instance}"] = shares[instance] if mine else 0.0
    return rows


def probe_store(ctx: _Context) -> Dict[str, float]:
    plain, stored = ctx.leg("own_gl"), ctx.leg("own_store")
    store = stored.extra["store"]
    tax = stored.run_s - plain.run_s
    return {
        "provstore.ledger.store_tax_s": tax,
        "provstore.ledger.ingest_ns_per_unfolded": tax * 1e9 / store["ingested"],
        "provstore.ledger.dedup_ratio": store["dedup_ratio"],
        "provstore.ledger.mappings_sealed": store["sealed"],
    }


def probe_baseline(ctx: _Context) -> Dict[str, float]:
    """The Ariadne comparator: visible, never gated."""
    leg = ctx.leg("own_bl")
    return {
        "core.baseline.bl_tps": leg.tps,
        "core.baseline.bl_np_tps_ratio": leg.tps / ctx.leg("own_np").tps,
        "core.baseline.bl_wire_bytes_per_tuple": leg.extra["wire_bytes"] / leg.source_tuples,
    }


def probe_trace_quality(ctx: _Context) -> Dict[str, float]:
    """How much the shim costs and how much wall the rows leave unexplained."""
    shimmed = ctx.leg("shim_gl")
    plain = ctx.leg("inproc_gl" if ctx.workload.inter else "intra_gl")
    empty_wake_s = ctx.rows["spe.scheduler.empty_wake_ns"] / 1e9
    explained = sum(shimmed.extra["busy"].values()) + shimmed.extra["wakeups"] * empty_wake_s
    return {
        "trace.overhead_ratio": shimmed.run_s / plain.run_s,
        "trace.unattributed_share": (shimmed.run_s - explained) / shimmed.run_s,
    }


# -- microbenches on tuples taken from the workload -----------------------------------


def micro_scheduler(ctx: _Context) -> Dict[str, float]:
    """Cost of waking an operator that has nothing to do."""
    from repro.spe.scheduler import Scheduler

    query = Pipeline(query_dataflow(ctx.workload.query, []), validate="off").build().query
    scheduler = Scheduler(query)
    scheduler.run()
    idle = next(op for op in query.operators if type(op).__name__ == "FilterOperator")

    def wake() -> None:
        idle.signal()
        scheduler.step()

    return {"spe.scheduler.empty_wake_ns": _per_call_ns(wake)}


def micro_streams(ctx: _Context) -> Dict[str, float]:
    from repro.spe.streams import Stream

    stream = Stream("bench")
    batch = ctx.sample()

    def push_pop() -> None:
        stream.push_many(batch)
        stream.pop_ready()

    return {"spe.streams.push_pop_ns_per_tuple": _per_call_ns(push_pop, len(batch))}


def micro_hooks(ctx: _Context) -> Dict[str, float]:
    """GeneaLog's per-tuple hooks and the metadata they allocate."""
    from repro.core.instrumentation import GeneaLogProvenance

    manager = GeneaLogProvenance(node_id="bench")
    batch = ctx.sample()
    out, newer, older = batch[0], batch[1], batch[2]
    window = batch[: 4 if ctx.workload.query == "q1" else 24]

    def sources() -> None:
        for tup in batch:
            manager.on_source_output(tup)

    rows = {
        "core.instrumentation.hook_ns.source": _per_call_ns(sources, len(batch)),
        "core.instrumentation.hook_ns.map": _per_call_ns(
            lambda: manager.on_map_output(out, newer)
        ),
        "core.instrumentation.hook_ns.aggregate": _per_call_ns(
            lambda: manager.on_aggregate_output(out, window)
        ),
        "core.instrumentation.hook_ns.join": _per_call_ns(
            lambda: manager.on_join_output(out, newer, older)
        ),
    }
    for tup in batch:
        tup.meta = None
    tracemalloc.start()
    try:
        sources()
        rows["core.meta.gl_extra_heap_bytes_per_tuple"] = (
            tracemalloc.get_traced_memory()[0] / len(batch)
        )
    finally:
        tracemalloc.stop()
    return rows


def _wire_batches(ctx: _Context, batches: int = 16, size: int = 512) -> List[tuple]:
    """``(tuples, GL provenance payloads)`` batches of the workload's first tuples."""
    wire = []
    for start in range(0, min(batches * size, len(ctx.tuples)), size):
        batch = ctx.tuples[start:start + size]
        payloads = [
            {"type": "SOURCE", "id": f"spe1:{start + offset}"} for offset in range(len(batch))
        ]
        wire.append((batch, payloads))
    return wire


def _encode(wire: Sequence[tuple]) -> List[bytes]:
    from repro.spe.codec import BinaryChannelEncoder

    encoder = BinaryChannelEncoder("bench")
    return [encoder.encode_batch(batch, payloads) for batch, payloads in wire]


def micro_codec(ctx: _Context) -> Dict[str, float]:
    from repro.spe.codec import BinaryChannelDecoder

    wire = _wire_batches(ctx)
    count = sum(len(batch) for batch, _ in wire)
    blobs = _encode(wire)

    def decode() -> None:
        decoder = BinaryChannelDecoder("bench")
        for blob in blobs:
            decoder.decode_batch(blob)

    return {
        "spe.codec.encode_ns_per_tuple": _per_call_ns(lambda: _encode(wire), count),
        "spe.codec.decode_ns_per_tuple": _per_call_ns(decode, count),
    }


def _roundtrip(channel, payload: bytes) -> Callable[[], None]:
    def call() -> None:
        channel.send_block(payload, 1)
        while not channel.receive_all():
            pass

    return call


def micro_transports(ctx: _Context) -> Dict[str, float]:
    """One blob through each transport and back out, within this process."""
    from repro.spe.channels import Channel, ProcessTransport
    from repro.spe.sockets import FrameDecoder, SocketTransport, encode_frame

    blob = _encode(_wire_batches(ctx, batches=1))[0]
    bulk = bytes(32 * 1024)
    memory = Channel("bench_memory")
    pipe = Channel("bench_pipe", transport=ProcessTransport())
    sock = Channel("bench_socket", transport=SocketTransport("bench_socket"))
    try:
        rows = {
            "spe.channels.inmemory.roundtrip_us": _per_call_ns(_roundtrip(memory, blob)) / 1e3,
            "spe.channels.pipe.roundtrip_us": _per_call_ns(_roundtrip(pipe, blob)) / 1e3,
            "spe.channels.pipe.mb_per_s": len(bulk) * 1e3 / _per_call_ns(_roundtrip(pipe, bulk)),
            "spe.sockets.roundtrip_us": _per_call_ns(_roundtrip(sock, blob)) / 1e3,
            "spe.sockets.mb_per_s": len(bulk) * 1e3 / _per_call_ns(_roundtrip(sock, bulk)),
        }
    finally:
        sock.transport.close_sockets()
    frames = encode_frame(blob) * 64
    decoder = FrameDecoder("bench")
    rows["spe.sockets.frame_decode_ns_per_frame"] = _per_call_ns(lambda: decoder.feed(frames), 64)
    return rows


def micro_plan(ctx: _Context) -> Dict[str, float]:
    """Serialising the source instance's plan: the input ships by value."""
    if ctx.workload.execution != "cluster":
        return {"spe.plan.serialize_ms": 0.0, "spe.plan.bytes": 0}
    from repro.spe.plan import serialize_plan

    plan = plan_for(ctx.workload, "np", ctx.hosts)
    pipeline = Pipeline(
        query_dataflow(plan.query, [tup.copy() for tup in ctx.tuples]),
        placement=query_placement(plan.query),
        execution="cluster",
        hosts=plan.hosts,
        validate="off",
    )
    source_instance = pipeline.build().instances[0]
    started = time.perf_counter()
    data = serialize_plan(source_instance)
    return {
        "spe.plan.serialize_ms": (time.perf_counter() - started) * 1e3,
        "spe.plan.bytes": len(data),
    }


def micro_backend(ctx: _Context) -> Dict[str, float]:
    from repro.provstore import JsonlLedgerBackend, SinkMapping

    work = ROOT / "perfbench" / ".work"
    work.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(dir=work)
    try:
        backend = JsonlLedgerBackend(directory)
        keys = tuple(f"spe1:{index}" for index in range(4))
        values = dict(ctx.tuples[0].values)
        counter = iter(range(1 << 62))
        try:
            ns = _per_call_ns(
                lambda: backend.append_mapping(
                    SinkMapping(f"spe2:{next(counter)}", 0.0, values, keys)
                )
            )
            backend.flush()
        finally:
            backend.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {"provstore.backends.jsonl_append_us_per_mapping": ns / 1e3}


#: every probe, in table order; each returns ``row name -> value``.
PROBES: List[Callable[[_Context], Dict[str, float]]] = [
    probe_setup,
    probe_operators,
    micro_scheduler,
    micro_streams,
    probe_latency,
    probe_provenance,
    micro_hooks,
    probe_traversal,
    micro_codec,
    probe_differential,
    micro_transports,
    probe_telemetry,
    micro_plan,
    probe_store,
    micro_backend,
    probe_baseline,
    probe_trace_quality,
]
