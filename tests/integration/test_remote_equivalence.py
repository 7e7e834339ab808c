"""Out-of-process equivalence: forked and daemon workers reproduce event execution.

The :class:`~repro.spe.cluster.RemoteRuntime` runs each SPE instance in its
own worker process -- forked, with pipe-backed channels
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
Further blocks hold both launchers to the rest of the contract -- a live
provenance store fed through shipped ledger entries, worker-measured
latencies, fail-fast on a crashing upstream and on a worker killed mid-run,
rejection of a channel with another launcher's transport -- and cover the
cluster-only parts: host placement, connection robustness and a standalone
``python -m repro.spe.cluster --serve`` daemon.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core.provenance import ProvenanceMode
from repro.spe.channels import ProcessTransport
from repro.spe.cluster import (
    LAUNCHERS,
    ClusterWorker,
    RemoteRuntime,
    _DataListener,
    _encode_control,
    _recv_control,
    _WorkerSession,
    parse_address,
)
from repro.spe.errors import SchedulingError
from repro.spe.sockets import FrameDecoder, SocketTransport
from repro.spe.tuples import StreamTuple
from repro.workloads.queries import query_pipeline
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
        # ledger entries produced on the workers ship back to the coordinator.
        assert_same_store(run_q1_with_store(execution), run_q1_with_store("event"))

    def test_sink_latencies_measured_in_the_workers(self, execution):
        result = run_cell("q1", ProvenanceMode.NONE, execution=execution)
        assert len(result.sink.latencies) == result.sink.count
        assert all(latency != 0.0 for latency in result.sink.latencies)


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


class TestRemoteFailFast:
    def test_original_error_surfaces_fast_not_the_timeout(self, execution):
        transport = LAUNCHERS[execution].new_transport("a_to_b")
        runtime = RemoteRuntime(
            two_instances(exploding_supplier, transport), execution=execution, timeout_s=60.0
        )
        started = time.monotonic()
        with pytest.raises(SchedulingError, match="upstream exploded mid-stream"):
            runtime.run()
        # the downstream worker was stopped immediately instead of parking
        # until the 60s deadline turned the crash into a timeout.
        assert time.monotonic() - started < 20.0
        assert multiprocessing.active_children() == []

    def test_stop_arriving_with_start_is_honoured(self):
        # a worker that failed fast upstream makes the coordinator send
        # "stop" right behind "start"; one read can carry both frames.
        _, downstream = two_instances(exploding_supplier, ProcessTransport())
        coordinator, worker = socket.socketpair()
        coordinator.sendall(_encode_control("start", None) + _encode_control("stop", None))
        threading.Thread(
            target=_WorkerSession(worker, instance=downstream).run, daemon=True
        ).start()
        coordinator.settimeout(10.0)
        try:
            assert _recv_control(coordinator, FrameDecoder())[0] == "stopped"
        finally:
            coordinator.close()

    def test_rejects_channels_of_another_transport(self, execution):
        wanted = LAUNCHERS[execution].transport.__name__
        with pytest.raises(SchedulingError, match=f"InMemoryTransport, not the {wanted}"):
            RemoteRuntime(two_instances(exploding_supplier), execution=execution)

    @fork_required
    def test_process_worker_killed_mid_run_fails_fast(self, tmp_path):
        marker = tmp_path / "mid_run"
        runtime = RemoteRuntime(
            stalling_deployment(marker, ProcessTransport()), execution="process", timeout_s=60.0
        )
        error, elapsed = run_killing_mid_run(runtime, marker)
        # the child's control socket reached EOF: the coordinator stopped the
        # downstream worker and named the dead one, well before the deadline.
        assert re.search(r"instance 'upstream' worker process \d+ .*died", error), error
        assert elapsed < 30.0
        assert multiprocessing.active_children() == []


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
        listener = _DataListener("127.0.0.1")
        idle = socket.create_connection(listener.address)
        producer = socket.create_connection(listener.address)
        try:
            producer.sendall(_encode_control("h", "x"))
            assert set(listener.wait_for(["x"], timeout_s=2.0)) == {"x"}
        finally:
            idle.close()
            producer.close()
            listener.close()


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX subprocess handling")
class TestClusterStandaloneDaemon:
    """``python -m repro.spe.cluster --serve``: a genuinely foreign worker.

    Nothing is forked or inherited here -- the daemon is a fresh interpreter
    and the plan (closures included) must really travel over the wire.
    """

    @pytest.fixture()
    def daemon(self):
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
