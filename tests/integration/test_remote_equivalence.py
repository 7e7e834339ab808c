"""Out-of-process equivalence: forked and daemon workers reproduce event execution.

The :class:`~repro.spe.cluster.RemoteRuntime` runs each SPE instance in its
own worker process -- forked, with socketpair channels
(``execution="process"``), or shipped as a plan to a worker daemon over TCP
(``execution="cluster"``; localhost workers stand in for hosts, but the
plans still round-trip through the serialiser and every channel crosses a
real socket).  The paper's determinism property (section 2) demands that be
*unobservable*: for Q1-Q4 x {NP, GL, BL} x inter x parallelism {1, 2}, under
both launchers, these tests compare against ``execution="event"``:

* sink outputs -- byte-identical,
* provenance records -- identical after canonicalising the opaque tuple ids,
* data-channel transfer counts -- identical per channel, GL's unfold
  channels excluded (byte volumes are not compared: the stateful binary
  codec frames one blob per Send flush, and flush sizes follow OS
  scheduling).

The canonicalisers, workloads and ``run_cell`` are :mod:`tests.equivalence`'s.
Further blocks hold both launchers to the rest of the contract -- every Sink
running in the coordinator's home instance, fed over the data plane (a live
provenance store included), worker-measured latencies, fail-fast on a
crashing upstream and on a worker killed mid-run (blamed on that worker, not
on the downstream or the home that lost its input), rejection of a channel
that is not a socket transport, no data-plane file descriptor left in the
coordinator -- and cover the cluster-only parts: host placement, connection
robustness (hello frames included) and standalone ``python -m
repro.spe.cluster --serve`` daemons.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import pickle
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.api import Dataflow, DataflowError, Pipeline, Placement
from repro.core.provenance import ProvenanceMode
from repro.provstore import ProvenanceTap, open_provenance_store
from repro.spe.cluster import (
    HOME_INSTANCE,
    ClusterWorker,
    RemoteRuntime,
    _DataListener,
    _encode_control,
    _recv_control,
    _send_hello,
    _Session,
    _forked_worker,
    _WorkerSession,
    parse_address,
)
from repro.spe.errors import SchedulingError
from repro.spe.sockets import FrameDecoder, SocketTransport, encode_frame
from repro.spe.tuples import StreamTuple
from repro.workloads.queries import query_dataflow, query_pipeline, query_placement
from tests.equivalence import (  # noqa: F401
    ALL_MODES,
    ALL_QUERIES,
    assert_same_store,
    data_channel_counts,
    deterministic_wall,  # noqa: F401 - autouse fixture: deterministic source wall clocks
    provenance_bytes,
    run_cell,
    run_q1_with_store,
    sink_bytes,
    workload_for,
)
from tests.optest import exploding_supplier, two_instances

fork_required = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="execution='process' forks its workers",
)

PARALLELISMS = (1, 2)


@pytest.fixture(params=[pytest.param("process", marks=fork_required), "cluster"])
def execution(request):
    return request.param


class TestRemoteEquivalence:
    """Q1-Q4 x NP/GL/BL x inter x parallelism {1,2}: process/cluster == event."""

    @pytest.mark.parametrize("parallelism", PARALLELISMS)
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.name)
    @pytest.mark.parametrize("query_name", ALL_QUERIES)
    def test_identical_outputs_provenance_and_transfers(
        self, execution, query_name, mode, parallelism
    ):
        event = run_cell(query_name, mode, parallelism)
        remote = run_cell(query_name, mode, parallelism, execution=execution)

        assert remote.sink.count == event.sink.count
        assert sink_bytes(remote.sink) == sink_bytes(event.sink)
        assert provenance_bytes(remote.provenance_records()) == provenance_bytes(
            event.provenance_records()
        )
        assert data_channel_counts(remote.channels) == data_channel_counts(
            event.channels
        )
        if mode is ProvenanceMode.NONE:
            # Wire bytes follow OS-timed flush sizes, so they are not
            # comparable cell-by-cell; every data channel must still have
            # moved actual payload bytes.
            for result in (remote, event):
                assert all(c.bytes_sent > 0 for c in result.channels if c.tuples_sent)
        # the shipped counters populate the consolidated metrics snapshot.
        snapshot = remote.metrics()
        assert snapshot.total_work_calls > 0
        assert snapshot.total_tuples_sent == remote.tuples_transferred()
        assert remote.wakeups > 0 and remote.rounds > 0

    def test_store_matches_event_execution(self, execution):
        # the provenance Sink feeding the ledger runs in the home instance.
        assert_same_store(run_q1_with_store(execution), run_q1_with_store("event"))

    @pytest.mark.parametrize(
        "execution",
        ["event", pytest.param("process", marks=fork_required), "cluster"],
    )
    def test_sink_latencies_measured_in_the_workers(self, execution):
        # out of process, the Sends standing in for the Sinks measure them.
        def sinks(result):
            return [result.sink, sink_named(result, "provenance_sink")]

        result = run_cell("q1", ProvenanceMode.GENEALOG, execution=execution)
        event = run_cell("q1", ProvenanceMode.GENEALOG)
        for sink, event_sink in zip(sinks(result), sinks(event)):
            assert sink.count == event_sink.count > 0
            assert len(sink.latencies) == sink.count
            assert all(latency != 0.0 for latency in sink.latencies)


def sink_named(result, name):
    """The Sink called ``name``, wherever the build placed it."""
    (sink,) = (instance[name] for instance in result.instances if name in instance)
    return sink


class TestHomeInstance:
    """Out of process, every Sink runs in the coordinator's home instance."""

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.name)
    def test_build_cuts_every_sink_onto_the_home_last(self, execution, mode):
        result = query_pipeline(
            "q1", workload_for("q1"), mode=mode, deployment="inter", execution=execution
        ).build()
        *workers, home = result.instances
        assert home.name == HOME_INSTANCE
        assert not any(worker.sinks() for worker in workers)
        assert result.sink in home.sinks()
        assert len(home.sinks()) == (1 if mode is ProvenanceMode.NONE else 2)
        # the paper's inter-instance traffic excludes the hop home.
        assert not set(home.incoming_channels()) & set(result.channels)
        for sink in home.sinks():
            (send,) = (
                send for worker in workers for send in worker.sends()
                if send.channel.name == f"home:{sink.name}"
            )
            # the Send took over the Sink's clock; the Sink keeps none.
            assert send.latency_clock is time.perf_counter
            assert sink._wall_clock is None
            assert send.ship_provenance is False

    def test_home_instance_name_reserved(self):
        with pytest.raises(DataflowError, match="reserved for the home instance"):
            Placement({HOME_INSTANCE: ("src",)})

    def test_sink_callbacks_never_travel_to_a_daemon(self):
        # a generator cannot be pickled: a worker plan dragging the Sink
        # along (say, through a channel's consumer) would fail to ship.
        unpicklable = (n for n in range(1))
        seen = []
        df = Dataflow("callbacks")
        df.source(
            "src", [StreamTuple(ts=float(ts), values={"v": ts}) for ts in range(20)]
        ).map(lambda t: t, name="m").sink(
            "out", callback=lambda tup: seen.append((tup["v"], unpicklable))
        )
        placement = Placement({"spe1": ("src",), "spe2": ("m", "out")})
        Pipeline(df, placement=placement, execution="cluster").run()
        assert [v for v, _ in seen] == list(range(20))

    def test_event_builds_no_home(self):
        result = query_pipeline(
            "q1", workload_for("q1"), mode=ProvenanceMode.GENEALOG, deployment="inter"
        ).build()
        assert HOME_INSTANCE not in [instance.name for instance in result.instances]

    def test_runtime_cuts_a_hand_built_deployment(self, execution):
        upstream, downstream = two_instances(
            lambda: [StreamTuple(ts=float(ts), values={"v": ts}) for ts in range(40)],
            SocketTransport("a_to_b"),
        )
        sink = downstream["sink"]
        runtime = RemoteRuntime([upstream, downstream], execution=execution)
        assert runtime.instances == [upstream, downstream]
        assert runtime.home.sinks() == [sink]
        runtime.run()
        assert [tup["v"] for tup in sink.received] == list(range(40))
        assert len(sink.latencies) == sink.count == 40

    @pytest.mark.parametrize("supplier", ("complete", "exploding"))
    def test_the_home_sink_never_reads_its_clock(self, execution, supplier):
        # the Send standing in for the Sink measures with the Sink's clock,
        # in the worker; at home, on the coordinator, nothing calls it.
        calls = []

        def clock():
            calls.append(None)
            return time.perf_counter()

        upstream, downstream = two_instances(
            exploding_supplier if supplier == "exploding"
            else lambda: [StreamTuple(ts=float(ts), values={"v": ts}) for ts in range(40)],
            SocketTransport("a_to_b"),
        )
        sink = downstream["sink"]
        sink._wall_clock = clock
        runtime = RemoteRuntime([upstream, downstream], execution=execution, timeout_s=60.0)
        if supplier == "exploding":
            with pytest.raises(SchedulingError, match="upstream exploded mid-stream"):
                runtime.run()
            assert sink.latencies == []
        else:
            runtime.run()
            assert len(sink.latencies) == sink.count == 40
        assert calls == []

    def test_a_failing_sink_callback_is_the_homes_failure(self, execution):
        def exploding_callback(tup):
            raise RuntimeError("sink callback exploded")

        upstream, downstream = two_instances(
            lambda: [StreamTuple(ts=float(ts), values={"v": ts}) for ts in range(400)],
            SocketTransport("a_to_b"),
        )
        downstream["sink"]._callback = exploding_callback
        runtime = RemoteRuntime([upstream, downstream], execution=execution, timeout_s=60.0)
        with pytest.raises(SchedulingError, match="instance 'home' failed.*sink callback exploded"):
            runtime.run()
        assert multiprocessing.active_children() == []


class FirstBatch(ProvenanceTap):
    """Calls ``on_first`` with the first batch its sink delivers."""

    def __init__(self, on_first):
        self.on_first = on_first

    def on_batch(self, batch):
        if self.on_first is not None:
            self.on_first, on_first = None, self.on_first
            on_first(batch)


class TestSinkStreamsComeHomeDuringTheRun:
    """The home's Sinks see their streams while the workers still run."""

    def test_sink_sees_its_first_batch_before_every_worker_answered(
        self, execution, tmp_path
    ):
        # The order comes from the protocol, not from timing: spe1's source
        # holds back its last tuple until the home Sink saw its first batch,
        # so spe1 -- and spe2 and the provenance worker, which wait for its
        # streams to close -- cannot have answered by then.
        released = tmp_path / "first_batch"
        q1 = workload_for("q1")

        def held_back_supplier():
            tuples = list(q1())
            yield from tuples[:-1]
            deadline = time.monotonic() + 30.0
            while not released.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            yield tuples[-1]

        pipeline = Pipeline(
            query_dataflow("q1", held_back_supplier),
            provenance=ProvenanceMode.GENEALOG,
            placement=query_placement("q1"),
            execution=execution,
        )
        result = pipeline.build()
        answered = []  # one entry per collected worker result
        answered_at_first_batch = []

        def first_batch(batch):
            answered_at_first_batch.append(len(answered))
            released.write_text("seen")

        result.sink.add_tap(FirstBatch(first_batch))
        pipeline.run(round_callback=answered.append)
        workers = [i for i in result.instances if i.name != HOME_INSTANCE]
        assert len(answered) == len(workers) == 3
        assert answered_at_first_batch == [0]

    @fork_required
    def test_killed_provenance_worker_leaves_delivered_provenance_and_a_store(
        self, tmp_path
    ):
        # spe1's source holds back its last tuple until the provenance worker
        # is dead, so that worker cannot finish first; it is SIGKILLed once
        # a first provenance batch reached the home's provenance Sink.
        released = tmp_path / "killed"

        def held_back_supplier():
            tuples = list(workload_for("q1")())
            yield from tuples[:-1]
            deadline = time.monotonic() + 30.0
            while not released.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            yield tuples[-1]

        store_dir = tmp_path / "store"
        pipeline = Pipeline(
            query_dataflow("q1", held_back_supplier),
            provenance=ProvenanceMode.GENEALOG,
            placement=query_placement("q1"),
            execution="process",
            provenance_store=str(store_dir),
        )
        result = pipeline.build()

        def kill_provenance_node(batch):
            (victim,) = (
                child for child in multiprocessing.active_children()
                if child.name == "spe-provenance_node"
            )
            os.kill(victim.pid, signal.SIGKILL)
            released.write_text(str(victim.pid))

        home = result.instances[-1]
        home["provenance_sink"].add_tap(FirstBatch(kill_provenance_node))
        with pytest.raises(SchedulingError) as info:
            pipeline.run()
        assert released.exists(), "no provenance batch reached the home"
        # blamed: the dead worker, not the home's lost input from it.
        assert re.search(
            r"instance 'provenance_node' worker process \d+ .*died", str(info.value)
        ), info.value
        # What reached the home before the failure stays, as it would in process.
        assert result.store.ingested_tuples > 0
        assert multiprocessing.active_children() == []
        reopened = open_provenance_store(store_dir)
        assert reopened.sealed_count <= result.store.sealed_count


class TestSecondRun:
    """A second ``Pipeline.run()`` returns the finished result untouched.

    Out of process, the workers consume their own copies of the sources, so
    the coordinator's copies still hold data; re-running would fork or ship
    them again and double every count.
    """

    @pytest.mark.parametrize(
        "execution",
        ["event", pytest.param("process", marks=fork_required), "cluster"],
    )
    def test_second_run_does_not_execute_again(self, execution):
        pipeline = query_pipeline(
            "q1", workload_for("q1"), mode=ProvenanceMode.GENEALOG,
            deployment="inter", execution=execution,
        )

        def observed(result):
            return (
                result.sink.count,
                len(result.sink.latencies),
                result.rounds,
                result.wakeups,
                len(result.provenance_records()),
            )

        first = pipeline.run()
        before = observed(first)
        assert before[0] > 0
        second = pipeline.run()
        assert second is first
        assert observed(second) == before


def stalling_deployment(marker, transport):
    """Upstream writes its pid into ``marker`` at tuple 50 of 200, then crawls."""

    def stalling_supplier():
        for ts in range(200):
            if ts == 50:
                marker.with_suffix(".tmp").write_text(str(os.getpid()))
                os.replace(marker.with_suffix(".tmp"), marker)
            if ts > 50:
                time.sleep(0.05)
            yield StreamTuple(ts=float(ts), values={"v": ts})

    return two_instances(stalling_supplier, transport)


def run_killing_mid_run(runtime, marker):
    """Run ``runtime``, SIGKILLing the process named in ``marker`` once it
    appears; return the raised error's text and the seconds ``run()`` took."""

    def kill_when_mid_run():
        deadline = time.monotonic() + 30.0
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        if marker.exists():
            os.kill(int(marker.read_text()), signal.SIGKILL)

    threading.Thread(target=kill_when_mid_run, daemon=True).start()
    started = time.monotonic()
    with pytest.raises(SchedulingError) as info:
        runtime.run()
    return str(info.value), time.monotonic() - started


#: worker result documents for the blame-ranking cases.
ERROR = {"instance": "upstream", "error": "RuntimeError('boom')", "lost_peer": False}
LOST_INPUT = (
    "error",
    {"instance": "downstream", "error": "ProducerLostError('a_to_b')", "lost_peer": True},
)


class TestRemoteFailFast:
    def test_original_error_surfaces_fast_not_the_timeout(self, execution):
        runtime = RemoteRuntime(
            two_instances(exploding_supplier, SocketTransport("a_to_b")),
            execution=execution,
            timeout_s=60.0,
        )
        started = time.monotonic()
        with pytest.raises(SchedulingError, match="upstream exploded mid-stream"):
            runtime.run()
        # the downstream worker was stopped immediately instead of parking
        # until the 60s deadline turned the crash into a timeout.
        assert time.monotonic() - started < 20.0
        assert multiprocessing.active_children() == []

    @staticmethod
    def _serve_one(instance, *tags):
        """Send ``tags`` (default: start) in one write to an in-thread worker
        session running ``instance``; return its answer."""
        coordinator, worker = socket.socketpair()
        coordinator.sendall(b"".join(_encode_control(tag, None) for tag in tags or ("start",)))
        threading.Thread(target=_WorkerSession(worker, instance=instance).run, daemon=True).start()
        coordinator.settimeout(10.0)
        try:
            return _recv_control(coordinator, FrameDecoder())
        finally:
            coordinator.close()

    def test_stop_arriving_with_start_is_honoured(self):
        # a worker that failed fast upstream makes the coordinator send
        # "stop" right behind "start"; one read can carry both frames.
        transport = SocketTransport("a_to_b")
        transport.pair()  # what the fork launcher does before forking
        _, downstream = two_instances(exploding_supplier, transport)
        try:
            assert self._serve_one(downstream, "start", "stop")[0] == "stopped"
        finally:
            transport.close_sockets()

    @pytest.mark.parametrize("side", ["upstream", "downstream"])
    def test_forked_child_keeps_only_its_own_data_ends(self, side):
        # Only the producing child may hold a channel's producer end, so
        # that its death is an EOF at the consumer; run in-thread here, with
        # a stop queued so the session returns at once.
        transport = SocketTransport("a_to_b")
        transport.pair()
        upstream, downstream = two_instances(exploding_supplier, transport)
        instance = upstream if side == "upstream" else downstream
        coordinator, worker = socket.socketpair()
        coordinator.sendall(_encode_control("stop", None))
        try:
            _forked_worker(instance, worker, [], upstream.outgoing_channels(), 1)
            assert (transport._producer_sock is not None) == (side == "upstream")
            assert (transport.consumer_socket is not None) == (side == "downstream")
        finally:
            coordinator.close()
            transport.close_sockets()

    def test_worker_reports_a_lost_input(self):
        transport = SocketTransport("a_to_b")
        transport.pair()
        _, downstream = two_instances(exploding_supplier, transport)
        transport.close_sockets(keep_consumer=True)  # the producing worker is gone
        try:
            tag, document = self._serve_one(downstream)
        finally:
            transport.close_sockets()
        assert tag == "error" and document["lost_peer"] is True
        assert "ProducerLostError" in document["error"]

    def test_worker_reports_a_lost_output(self):
        transport = SocketTransport("a_to_b")
        transport.pair()
        upstream, _ = two_instances(
            lambda: [StreamTuple(ts=float(ts), values={"v": ts}) for ts in range(40)],
            transport,
        )
        transport.close_sockets(keep_producer=True)  # the consuming worker is gone
        try:
            tag, document = self._serve_one(upstream)
        finally:
            transport.close_sockets()
        assert tag == "error" and document["lost_peer"] is True
        assert "ConsumerLostError" in document["error"]

    def test_worker_reports_its_own_error_as_the_root(self):
        transport = SocketTransport("a_to_b")
        transport.pair()
        upstream, _ = two_instances(exploding_supplier, transport)
        try:
            tag, document = self._serve_one(upstream)
        finally:
            transport.close_sockets()
        assert tag == "error" and document["lost_peer"] is False
        assert "upstream exploded mid-stream" in document["error"]

    @pytest.mark.parametrize("reverse", [False, True], ids=["upstream_first", "downstream_first"])
    @pytest.mark.parametrize(
        "upstream, downstream, blamed",
        [
            (("died", {}), LOST_INPUT, r"'upstream' worker at h:1 died"),
            (("error", ERROR), LOST_INPUT, r"'upstream' failed: RuntimeError"),
            (("stopped", {}), LOST_INPUT, r"'downstream' failed: ProducerLostError"),
            (("died", {}), ("error", dict(ERROR, instance="downstream")), r"'downstream' failed"),
        ],
        ids=[
            "death_over_lost_input",
            "error_over_lost_input",
            "lost_input_alone",
            "error_over_death",
        ],
    )
    def test_root_failure_is_blamed_whatever_the_arrival_order(
        self, upstream, downstream, blamed, reverse
    ):
        runtime = RemoteRuntime(
            two_instances(exploding_supplier, SocketTransport("a_to_b")), execution="cluster"
        )
        runtime.sessions = [_Session(i, None, address=("h", 1)) for i in runtime.instances]
        for session, outcome in zip(runtime.sessions, (upstream, downstream)):
            session.outcome = outcome
        if reverse:
            runtime.sessions.reverse()
        with pytest.raises(SchedulingError, match=blamed):
            runtime._raise_on_failure()

    def test_a_lost_input_at_home_is_blamed_after_the_dead_worker(self):
        runtime = RemoteRuntime(
            two_instances(exploding_supplier, SocketTransport("a_to_b")), execution="cluster"
        )
        runtime.sessions = [_Session(i, None, address=("h", 1)) for i in runtime.instances]
        runtime.sessions[0].outcome = ("died", {})
        runtime.sessions[1].outcome = LOST_INPUT
        runtime._home_failure = (
            "error",
            {"instance": "home", "error": "ProducerLostError('home:sink')", "lost_peer": True},
        )
        with pytest.raises(SchedulingError, match=r"'upstream' worker at h:1 died"):
            runtime._raise_on_failure()

    def test_rejects_channels_of_another_transport(self, execution):
        with pytest.raises(SchedulingError, match="InMemoryTransport, not the SocketTransport"):
            RemoteRuntime(two_instances(exploding_supplier), execution=execution)

    @fork_required
    def test_process_worker_killed_mid_run_fails_fast(self, tmp_path):
        marker = tmp_path / "mid_run"
        runtime = RemoteRuntime(
            stalling_deployment(marker, SocketTransport("a_to_b")),
            execution="process",
            timeout_s=60.0,
        )
        error, elapsed = run_killing_mid_run(runtime, marker)
        # the child's control socket reached EOF: the coordinator stopped the
        # downstream worker and named the dead one -- not the downstream that
        # saw its input end early -- well before the deadline.
        assert re.search(r"instance 'upstream' worker process \d+ .*died", error), error
        assert elapsed < 30.0
        assert multiprocessing.active_children() == []


@fork_required
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/fd")
class TestForkLauncherDescriptors:
    @staticmethod
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    def test_coordinator_holds_no_data_plane_descriptor(self):
        # Channels stay detached until the launcher pairs them, and the
        # coordinator closes every data end it held for the fork -- the
        # home's consumer ends once the run is over: a held result pins no
        # descriptor.
        gc.collect()
        baseline = self.open_fds()
        pipeline = query_pipeline(
            "q1",
            workload_for("q1"),
            mode=ProvenanceMode.GENEALOG,
            deployment="inter",
            execution="process",
        )
        pipeline.build()
        assert self.open_fds() == baseline
        result = pipeline.run()
        assert result.sink.count > 0
        assert self.open_fds() == baseline

    def test_failed_run_leaves_no_data_plane_descriptor(self):
        def failing_supplier():
            tuples = list(workload_for("q1")())
            yield from tuples[: len(tuples) // 2]
            raise RuntimeError("source failed mid-run")

        gc.collect()
        baseline = self.open_fds()
        pipeline = Pipeline(
            query_dataflow("q1", failing_supplier),
            provenance=ProvenanceMode.GENEALOG,
            placement=query_placement("q1"),
            execution="process",
        )
        with pytest.raises(SchedulingError, match="source failed mid-run"):
            pipeline.run()
        assert multiprocessing.active_children() == []
        assert self.open_fds() == baseline


class TestClusterHostPlacement:
    """hosts=... places instances on explicit daemons (here: one local one)."""

    def _run_on(self, hosts):
        return query_pipeline(
            "q1",
            workload_for("q1"),
            mode=ProvenanceMode.NONE,
            deployment="inter",
            execution="cluster",
            hosts=hosts,
        ).run()

    def test_round_robin_over_one_daemon(self):
        worker = ClusterWorker().start()
        try:
            host, port = worker.address
            result = self._run_on([f"{host}:{port}"])
            event = run_cell("q1", ProvenanceMode.NONE)
            assert sink_bytes(result.sink) == sink_bytes(event.sink)
        finally:
            worker.close()

    def test_explicit_instance_mapping(self):
        worker = ClusterWorker().start()
        try:
            address = "%s:%d" % worker.address
            result = self._run_on({"spe1": address, "spe2": address})
            assert result.sink.count > 0
        finally:
            worker.close()

    def test_missing_instance_in_mapping_is_reported(self):
        worker = ClusterWorker().start()
        try:
            with pytest.raises(SchedulingError, match="spe2"):
                self._run_on({"spe1": "%s:%d" % worker.address})
        finally:
            worker.close()


def socket_deployment():
    return two_instances(exploding_supplier, SocketTransport("a_to_b"))


class TestClusterConnectionRobustness:
    def test_unreachable_worker_names_host_and_port(self):
        listener = socket.create_server(("127.0.0.1", 0))
        dead_port = listener.getsockname()[1]
        listener.close()  # guaranteed refused from here on
        runtime = RemoteRuntime(
            socket_deployment(),
            execution="cluster",
            hosts=[f"127.0.0.1:{dead_port}"],
            connect_retries=2,
            connect_backoff_s=0.01,
        )
        with pytest.raises(SchedulingError) as excinfo:
            runtime.run()
        assert f"127.0.0.1:{dead_port}" in str(excinfo.value.__cause__)

    def test_worker_dying_during_setup_is_reported(self):
        # a fake "daemon" that accepts the control connection and hangs up
        # before answering the plan: the coordinator must not hang.
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def accept_and_hang_up():
            control, _ = listener.accept()
            control.close()

        thread = threading.Thread(target=accept_and_hang_up, daemon=True)
        thread.start()
        runtime = RemoteRuntime(
            socket_deployment(),
            execution="cluster",
            hosts={"upstream": f"127.0.0.1:{port}", "downstream": f"127.0.0.1:{port}"},
            timeout_s=10.0,
        )
        try:
            with pytest.raises(SchedulingError, match="went away|hung up"):
                runtime.run()
        finally:
            listener.close()

    def test_silent_connection_does_not_block_channel_wiring(self):
        # a connection that never sends its hello frame must not stall the
        # accept loop: the real producer behind it still gets bound.
        listener = _DataListener("127.0.0.1", ["x"])
        idle = socket.create_connection(listener.address)
        producer = socket.create_connection(listener.address)
        try:
            _send_hello(producer, "x")
            assert set(listener.wait_for(timeout_s=2.0)) == {"x"}
        finally:
            idle.close()
            producer.close()
            listener.close()

    def test_a_pickled_hello_is_never_unpickled(self, tmp_path):
        # anyone can connect to a data port: its hello must not run code.
        marker = tmp_path / "executed"

        class Payload:
            def __reduce__(self):
                return (open, (str(marker), "w"))

        listener = _DataListener("127.0.0.1", ["x"])
        foreign = socket.create_connection(listener.address)
        producer = socket.create_connection(listener.address)
        try:
            foreign.sendall(encode_frame(pickle.dumps(("h", Payload()))))
            _send_hello(producer, "x")
            assert set(listener.wait_for(timeout_s=2.0)) == {"x"}
            foreign.settimeout(2.0)
            assert foreign.recv(1) == b""  # dropped
            assert not marker.exists()
        finally:
            foreign.close()
            producer.close()
            listener.close()

    @pytest.mark.parametrize("name", ["x", "unknown"])
    def test_a_second_claim_does_not_displace_the_bound_producer(self, name):
        listener = _DataListener("127.0.0.1", ["x"])
        producer = socket.create_connection(listener.address)
        intruder = socket.create_connection(listener.address)
        try:
            _send_hello(producer, "x")
            bound = listener.wait_for(timeout_s=2.0)["x"]
            _send_hello(intruder, name)
            intruder.settimeout(2.0)
            assert intruder.recv(1) == b""  # dropped, not bound
            assert listener.wait_for(timeout_s=2.0) == {"x": bound}
            producer.sendall(b"ping")
            bound.settimeout(2.0)
            assert bound.recv(4) == b"ping"
        finally:
            producer.close()
            intruder.close()
            listener.close()


@contextlib.contextmanager
def spawned_daemon():
    """A ``--serve`` daemon subprocess: yields ``(process, (host, port))``.

    Terminated and reaped on exit (``wait`` raises if one is left behind).
    """
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.spe.cluster", "--serve", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    try:
        # skip interpreter noise (e.g. runpy's found-in-sys.modules
        # warning) until the daemon reports its bound address.
        match = None
        for _ in range(10):
            banner = process.stdout.readline()
            match = re.search(r"serving on (\S+)", banner)
            if match or not banner:
                break
        assert match, f"daemon did not report its address: {banner!r}"
        yield process, parse_address(match.group(1))
    finally:
        process.terminate()
        process.wait(timeout=10)
        process.stdout.close()


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX subprocess handling")
class TestClusterStandaloneDaemon:
    """``python -m repro.spe.cluster --serve``: a genuinely foreign worker.

    Nothing is forked or inherited here -- the daemon is a fresh interpreter
    and the plan (closures included) must really travel over the wire.
    """

    @pytest.fixture()
    def daemon(self):
        with spawned_daemon() as daemon:
            yield daemon

    @pytest.fixture()
    def two_daemons(self):
        with spawned_daemon() as first, spawned_daemon() as second:
            yield first, second

    def test_full_run_on_a_daemon_subprocess(self, daemon):
        process, (host, port) = daemon
        result = query_pipeline(
            "q1",
            workload_for("q1"),
            mode=ProvenanceMode.GENEALOG,
            deployment="inter",
            execution="cluster",
            hosts=[f"{host}:{port}"],
        ).run()
        event = run_cell("q1", ProvenanceMode.GENEALOG)
        assert sink_bytes(result.sink) == sink_bytes(event.sink)
        assert provenance_bytes(result.provenance_records()) == provenance_bytes(
            event.provenance_records()
        )

    def test_daemon_killed_mid_run_fails_fast(self, daemon, tmp_path):
        # The source runs *inside* the daemon, so the pid it writes is the
        # daemon's: killing it must fail the whole deployment promptly.
        process, (host, port) = daemon
        marker = tmp_path / "mid_run"
        runtime = RemoteRuntime(
            stalling_deployment(marker, SocketTransport("a_to_b")),
            execution="cluster",
            hosts=[f"{host}:{port}"],
            timeout_s=60.0,
        )
        error, elapsed = run_killing_mid_run(runtime, marker)
        assert re.search("died|went away|hung up", error), error
        assert elapsed < 30.0

    def test_killed_upstream_daemon_is_blamed_not_its_downstream(self, two_daemons, tmp_path):
        # Killing upstream's daemon ends the a_to_b socket early, so the
        # downstream daemon reports a lost input too -- possibly before the
        # coordinator sees upstream's control socket close.  The death is
        # the root failure and must be the one raised.
        (upstream_daemon, upstream_at), (_, downstream_at) = two_daemons
        marker = tmp_path / "mid_run"
        runtime = RemoteRuntime(
            stalling_deployment(marker, SocketTransport("a_to_b")),
            execution="cluster",
            hosts={"upstream": "%s:%d" % upstream_at, "downstream": "%s:%d" % downstream_at},
            timeout_s=60.0,
        )
        error, elapsed = run_killing_mid_run(runtime, marker)
        assert re.search(r"instance 'upstream' worker at \S+ died", error), error
        assert elapsed < 30.0
        assert upstream_daemon.wait(timeout=10) == -signal.SIGKILL
