"""Cluster equivalence: TCP worker execution reproduces event execution.

The :class:`~repro.spe.cluster.ClusterRuntime` ships each SPE instance to a
worker daemon and wires the channels host-to-host over real TCP sockets, but
the paper's determinism property (section 2) demands the change be
*unobservable* in every result.  For Q1-Q4 x {NP, GL, BL} x inter x
parallelism {1, 2} these tests run ``execution="cluster"`` (localhost
workers standing in for hosts -- the plans still round-trip through the
serialiser and every channel crosses a real socket) against
``execution="event"`` and compare sink outputs byte-identically, provenance
records under id-canonicalisation, and per-channel transfer counts -- the
same :mod:`tests.equivalence` oracle the multiprocess suite uses, so the two
cannot drift apart.

Further blocks cover the rest of the cluster contract: a live provenance
store fed through shipped ledger entries must seal the same mappings as the
cooperative run; a standalone ``python -m repro.spe.cluster --serve`` daemon
(a genuinely foreign process -- nothing is inherited, the plan must really
travel) hosts a full run; connection failures name the unreachable
``host:port``; and a worker crashing mid-run stops the whole deployment
with the original error first, the multiprocess fail-fast contract.
"""

from __future__ import annotations

import os
import re
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core.provenance import ProvenanceMode
from repro.spe.channels import Channel
from repro.spe.cluster import ClusterRuntime, ClusterWorker, parse_address
from repro.spe.errors import SchedulingError
from repro.spe.instance import SPEInstance
from repro.spe.sockets import SocketTransport
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
from tests.optest import tup

PARALLELISMS = (1, 2)


class TestClusterEquivalence:
    """Q1-Q4 x NP/GL/BL x inter x parallelism {1,2}: cluster == event."""

    @pytest.mark.parametrize("parallelism", PARALLELISMS)
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.name)
    @pytest.mark.parametrize("query_name", ALL_QUERIES)
    def test_identical_outputs_provenance_and_transfers(
        self, query_name, mode, parallelism
    ):
        event = run_cell(query_name, mode, parallelism)
        cluster = run_cell(query_name, mode, parallelism, execution="cluster")

        assert cluster.sink.count == event.sink.count
        assert sink_bytes(cluster.sink) == sink_bytes(event.sink)
        assert provenance_bytes(cluster.provenance_records()) == provenance_bytes(
            event.provenance_records()
        )
        assert data_channel_counts(cluster.channels) == data_channel_counts(
            event.channels
        )
        if mode is ProvenanceMode.NONE:
            # NP traffic carries no opaque ids, but the stateful binary codec
            # frames one blob per Send flush, and flush sizes follow OS
            # scheduling across runtimes -- so wire bytes are not comparable
            # cell-by-cell.  Every data channel must still have moved actual
            # payload bytes.
            assert all(
                c.bytes_sent > 0 for c in cluster.channels if c.tuples_sent
            )
            assert all(
                c.bytes_sent > 0 for c in event.channels if c.tuples_sent
            )
        # the shipped counters populate the consolidated metrics snapshot.
        snapshot = cluster.metrics()
        assert snapshot.total_work_calls > 0
        assert snapshot.total_tuples_sent == cluster.tuples_transferred()
        assert cluster.wakeups > 0 and cluster.rounds > 0

    def test_sink_latencies_measured_in_the_workers(self):
        result = run_cell("q1", ProvenanceMode.NONE, execution="cluster")
        assert len(result.sink.latencies) == result.sink.count
        assert all(latency != 0.0 for latency in result.sink.latencies)


class TestClusterProvenanceStore:
    """Ledger entries produced on the workers ship back to the coordinator."""

    def test_store_matches_event_execution(self):
        assert_same_store(run_q1_with_store("cluster"), run_q1_with_store("event"))


class TestHostPlacement:
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


def crashing_cluster_deployment():
    """Upstream crashes mid-stream; downstream would park forever without
    the fail-fast contract (mirrors the fault-path suite's deployment)."""
    channel = Channel("a_to_b", transport=SocketTransport("a_to_b"))

    def exploding_supplier():
        for ts in range(1000):
            if ts == 200:
                raise RuntimeError("upstream exploded mid-stream")
            yield tup(float(ts), v=ts)

    upstream = SPEInstance("upstream")
    source = upstream.add_source("source", exploding_supplier, batch_size=16)
    send = upstream.add_send("send", channel)
    upstream.connect(source, send)

    downstream = SPEInstance("downstream")
    receive = downstream.add_receive("receive", channel)
    sink = downstream.add_sink("sink")
    downstream.connect(receive, sink)
    return [upstream, downstream]


class TestClusterFailFast:
    def test_original_error_surfaces_fast_not_the_timeout(self):
        runtime = ClusterRuntime(crashing_cluster_deployment(), timeout_s=60.0)
        started = time.monotonic()
        with pytest.raises(SchedulingError, match="upstream exploded mid-stream"):
            runtime.run()
        elapsed = time.monotonic() - started
        # the downstream worker was stopped immediately instead of parking
        # until the 60s deadline turned the crash into a timeout.
        assert elapsed < 20.0

    def test_rejects_non_socket_channels(self):
        channel = Channel("a_to_b")  # in-memory transport
        upstream = SPEInstance("upstream")
        source = upstream.add_source("source", lambda: iter(()))
        send = upstream.add_send("send", channel)
        upstream.connect(source, send)
        downstream = SPEInstance("downstream")
        receive = downstream.add_receive("receive", channel)
        sink = downstream.add_sink("sink")
        downstream.connect(receive, sink)
        with pytest.raises(SchedulingError, match="not socket-backed"):
            ClusterRuntime([upstream, downstream])


class TestConnectionRobustness:
    def test_unreachable_worker_names_host_and_port(self):
        listener = socket.create_server(("127.0.0.1", 0))
        dead_port = listener.getsockname()[1]
        listener.close()  # guaranteed refused from here on
        runtime = ClusterRuntime(
            crashing_cluster_deployment(),
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
        runtime = ClusterRuntime(
            crashing_cluster_deployment(),
            hosts={"upstream": f"127.0.0.1:{port}", "downstream": f"127.0.0.1:{port}"},
            timeout_s=10.0,
        )
        try:
            with pytest.raises(SchedulingError, match="went away|hung up"):
                runtime.run()
        finally:
            listener.close()


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX subprocess handling")
class TestStandaloneDaemon:
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
        # Deterministic mid-run death: the source (running *inside* the
        # daemon) drops a marker file once it is mid-stream and then crawls;
        # the test kills the daemon on seeing the marker, and the socket EOF
        # must fail the whole deployment promptly -- not at the deadline.
        process, (host, port) = daemon
        marker = str(tmp_path / "mid_run")
        channel = Channel("a_to_b", transport=SocketTransport("a_to_b"))

        def stalling_supplier():
            from repro.spe.tuples import StreamTuple

            for ts in range(200):
                if ts == 50:
                    with open(marker, "w"):
                        pass
                if ts > 50:
                    time.sleep(0.05)
                yield StreamTuple(ts=float(ts), values={"v": ts})

        upstream = SPEInstance("upstream")
        source = upstream.add_source("source", stalling_supplier, batch_size=16)
        send = upstream.add_send("send", channel)
        upstream.connect(source, send)
        downstream = SPEInstance("downstream")
        receive = downstream.add_receive("receive", channel)
        sink = downstream.add_sink("sink")
        downstream.connect(receive, sink)

        address = f"{host}:{port}"
        runtime = ClusterRuntime(
            [upstream, downstream], hosts=[address], timeout_s=60.0
        )

        def kill_when_mid_run():
            deadline = time.monotonic() + 30.0
            while not os.path.exists(marker) and time.monotonic() < deadline:
                time.sleep(0.01)
            process.kill()

        threading.Thread(target=kill_when_mid_run, daemon=True).start()
        started = time.monotonic()
        with pytest.raises(SchedulingError, match="died|went away|hung up"):
            runtime.run()
        assert time.monotonic() - started < 30.0
