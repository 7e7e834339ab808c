"""The out-of-process runtime: one coordinator, two launchers, one worker loop.

The paper deploys every SPE instance as its own process (Odroid boards on a
switch), joined by Send/Receive channels, with the MU on a provenance
instance.  :class:`RemoteRuntime` is the coordinator of that deployment.  A
*launcher* gets each instance into a worker process; ``Pipeline(execution=)``
picks one from :data:`LAUNCHERS`.  The coordinator drives one more instance
itself, the **home** (:func:`cut_home`): every Sink runs there, fed over the
data plane like any other instance boundary, so sink callbacks, the
provenance collector and a provenance store run in the coordinator and see
their streams while the workers run.  Under both launchers every channel is
a :class:`~repro.spe.sockets.SocketTransport`; only how its ends get
connected differs:

* ``"process"`` -- the **fork** launcher.  The coordinator pairs every
  channel over one ``socket.socketpair()``, then forks one child per
  instance, in instance order.  The child inherits its instance (closures,
  generators and the socket ends included), so nothing is serialised, and
  keeps only the producer ends of its Sends and the consumer ends of its
  Receives; after the last fork the coordinator closes its ends, except
  the consumer ends of the home's channels.  A dead producer is thus an
  EOF at its consumer.
* ``"cluster"`` -- the **daemon** launcher.  Instances run inside
  :class:`ClusterWorker` daemons reachable over TCP (``python -m
  repro.spe.cluster --serve host:port``, or in-process loopback workers for
  ``hosts=None``), and channels are TCP connections between them.  Two
  setup steps come first, one control connection per instance:

  1. **plan** -- the instance is serialised with :mod:`repro.spe.plan`
     (closures ship by value) and sent with a Python/format version stamp,
     which the worker checks before unpickling.  The worker opens an
     ephemeral *data listener* and answers **ready** with its address.
  2. **wire** -- the coordinator opens a data listener for the home's
     channels and broadcasts the channel map (a channel's address is its
     consumer's data listener).  Each worker connects one data socket per
     outgoing channel, announcing the channel in a hello frame (its name in
     UTF-8), while its listener binds one socket per incoming channel; then
     it answers **wired**, and the coordinator binds the home's channels.

From **start** on, both launchers are the same protocol over one control
socket per worker: a forked child holds one end of a ``socket.socketpair()``
(the coordinator closes its copy of the child's end right after the fork,
and the child closes every control end that is not its own), a daemon
session holds its TCP control connection.

* **start** carries the telemetry options.  The worker drives its instance
  with the event-driven :class:`~repro.spe.scheduler.Scheduler` in the one
  worker loop (:meth:`_WorkerSession._drive`), parking on one selector over
  the consumer sockets of its channels and its control socket, so a
  **stop** interrupts an idle worker.  The coordinator's collect loop
  (:meth:`RemoteRuntime._collect`) drives the home the same way, parking
  on the home's consumer sockets and every control socket.
* At quiescence the worker answers **ok** with its result document
  (counters, the sink latencies its home-bound Sends measured, traversal
  samples, its span buffer), which the coordinator copies onto its
  objects; a raising worker answers **error** with its traceback, a
  stopped one **stopped**.

Every instance still consumes its inputs in timestamp-merged order, so sinks
are byte-identical to ``execution="event"``.  Failure is one contract: the
first error -- or death, which is EOF on the control socket whether a forked
child or a daemon died -- makes the coordinator stop every other worker and
re-raise the root failure, naming the instance: a lost peer (an input
socket ending before its close marker, at a worker or at the home, or a
send to a consumer that is gone) only echoes that peer's failure, so it is
blamed after every other error and death.  What reached the home's Sinks
before a failure stays in the sinks, the collector and the store, as it
would have in process.
"""

from __future__ import annotations

import argparse
import logging
import multiprocessing
import pickle
import selectors
import socket
import sys
import threading
import time
import traceback
from multiprocessing.process import BaseProcess
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from repro.spe.channels import Channel
from repro.spe.errors import (
    ChannelError,
    ConsumerLostError,
    ProducerLostError,
    SchedulingError,
    SerializationError,
)
from repro.spe.instance import SPEInstance, assign_ordering_values
from repro.spe.operators.send_receive import ReceiveOperator, SendOperator
from repro.spe.operators.sink import SinkOperator
from repro.spe.plan import (
    check_plan_version,
    deserialize_plan,
    plan_version,
    serialize_plan,
)
from repro.spe.scheduler import Scheduler
from repro.spe.sockets import (
    FRAME_HEADER,
    FrameDecoder,
    SocketTransport,
    connect_with_retry,
    encode_frame,
    recv_frame,
    send_frame,
)

#: how long an idle worker parks on its selector before re-checking state.
_WAIT_TIMEOUT_S = 0.05

#: how long the wire step waits for every inbound data socket to appear.
_WIRE_TIMEOUT_S = 30.0

#: how long a data listener waits for an accepted connection's hello frame.
#: Producers send it right after connecting; a connection that stays silent
#: is dropped so the producers queued behind it still get bound.
_HELLO_TIMEOUT_S = 1.0

#: the longest channel name (UTF-8 bytes) a hello frame may announce.
_MAX_HELLO_BYTES = 4096

#: name of the coordinator's own SPE instance, where every Sink runs.
HOME_INSTANCE = "home"

logger = logging.getLogger(__name__)

#: address of a worker daemon.
Address = Tuple[str, int]

#: how a worker ended: ("ok" | "error" | "stopped" | "died", document).
Outcome = Tuple[str, Dict[str, Any]]


# -- control-plane codec -----------------------------------------------------
#
# Control messages (plans, channel maps, result documents) are pickled --
# they carry arbitrary Python payloads (the plan bytes, span buffers) -- and
# framed exactly like the data plane.  The *plan bytes inside* are the
# version-checked part; the envelope itself uses a protocol both ends of any
# supported interpreter pair can read.

_CONTROL_PICKLE_PROTOCOL = 4


def _encode_control(tag: str, body: Any) -> bytes:
    return encode_frame(pickle.dumps((tag, body), protocol=_CONTROL_PICKLE_PROTOCOL))


def _decode_control(payload: bytes) -> Tuple[str, Any]:
    try:
        tag, body = pickle.loads(payload)
    except Exception as exc:
        raise SerializationError(f"malformed control frame: {exc}") from exc
    return tag, body


def _send_control(sock: socket.socket, tag: str, body: Any) -> None:
    send_frame(sock, _encode_control(tag, body))


def _recv_control(sock: socket.socket, decoder: FrameDecoder) -> Optional[Tuple[str, Any]]:
    frame = recv_frame(sock, decoder)
    if frame is None:
        return None
    return _decode_control(frame)


def parse_address(text: str) -> Address:
    """Parse a ``host:port`` string (the CLI / ``hosts=`` syntax).

    Raises :class:`ValueError` (naming the offending text) on anything a
    socket could not bind or connect to later: missing/empty host or port,
    a non-numeric port, or a port outside 0-65535.
    """
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"expected 'host:port', got {text!r}")
    port_number = int(port)
    if port_number > 65535:
        raise ValueError(
            f"port {port_number} of {text!r} is out of range (expected 0-65535)"
        )
    return host, port_number


# -- the home instance ---------------------------------------------------------

def cut_home(instances: Sequence[SPEInstance]) -> SPEInstance:
    """Move every Sink of ``instances`` into a new home instance; return it.

    Each Sink's input edge is cut like any other instance boundary: a Send
    takes the Sink's place on its instance, and a Receive in the home feeds
    the Sink over a :class:`~repro.spe.sockets.SocketTransport` channel
    named ``home:<sink>``.  The Sink object itself moves, with its callback,
    kept tuples and taps, so none of them ever travels to a worker.  The
    Send ships no provenance payload (nothing at home reads re-attached
    metadata) and takes over the Sink's clock: it measures the Sink's
    latencies in the worker, where the tuples reach the Sink's place, so the
    hop home and the coordinator's queue stay out of them, and the Sink at
    home measures nothing.
    """
    home = SPEInstance(HOME_INSTANCE)
    for instance in instances:
        instance.validate()  # every Sink has its one input stream
        for sink in instance.sinks():
            name = f"home:{sink.name}"
            channel = Channel(name, transport=SocketTransport(name))
            send = instance.add(
                SendOperator(
                    f"send_{name}",
                    channel,
                    ship_provenance=False,
                    latency_clock=sink._wall_clock,
                )
            )
            sink._wall_clock = None
            send.set_provenance(sink.provenance)
            instance.splice(sink.inputs[0], send, None)
            instance.remove(sink)
            home.add(sink)
            home.connect(home.add_receive(f"receive_{name}", channel), sink)
    return home


def require_unique_channel_names(channels: List[Channel], runtime: str) -> None:
    """Shipping counters back by name needs channel names to be unique."""
    names = [channel.name for channel in channels]
    duplicated = {name for name in names if names.count(name) > 1}
    if duplicated:
        raise SchedulingError(
            f"channel name(s) {sorted(duplicated)!r} are not unique; the "
            f"{runtime} runtime ships per-channel counters back by name"
        )


# -- data-plane wiring ---------------------------------------------------------

def _send_hello(sock: socket.socket, channel_name: str) -> None:
    """Announce the channel a fresh data connection carries."""
    send_frame(sock, encode_frame(channel_name.encode("utf-8")))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    data = bytearray()
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise ChannelError("connection closed inside its hello frame")
        data += chunk
    return bytes(data)


def _recv_hello(sock: socket.socket) -> str:
    """Read exactly one hello frame; return the channel name it announces.

    Plain UTF-8, never unpickled: anyone can connect to a data port.
    Raises on an oversized, torn or undecodable hello.
    """
    (length,) = FRAME_HEADER.unpack(_recv_exact(sock, FRAME_HEADER.size))
    if length > _MAX_HELLO_BYTES:
        raise ValueError(f"hello frame of {length} bytes")
    return _recv_exact(sock, length).decode("utf-8")


class _DataListener:
    """An inbound data endpoint: accepts producers, binds channels.

    Listens on an ephemeral port; every accepted connection announces which
    channel it carries in a hello frame (:func:`_recv_hello`), after which
    the socket is handed to that channel's
    :class:`~repro.spe.sockets.SocketTransport` consumer side.  Only the
    ``expected`` channel names bind, each to its first claimant; a silent,
    torn, unknown or duplicate hello is dropped.  Accepting runs in a daemon
    thread so producers connecting early (while this worker is still wiring
    its own outputs) are never refused.  A worker daemon opens one for its
    instance's incoming channels, the daemon launcher's coordinator one for
    the home's.
    """

    def __init__(self, host: str, expected: Iterable[str]) -> None:
        self._listener = socket.create_server((host, 0))
        self._host = host
        self._port: int = self._listener.getsockname()[1]
        self._expected = frozenset(expected)
        self._accepted: Dict[str, socket.socket] = {}
        self._condition = threading.Condition()
        self._closed = False
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"spe-data-{self._port}", daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> Address:
        return self._host, self._port

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # listener closed
                return
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.settimeout(_HELLO_TIMEOUT_S)
                name = _recv_hello(sock)
                sock.settimeout(None)
            except (OSError, ValueError, ChannelError):  # silent, torn or foreign
                sock.close()
                continue
            with self._condition:
                if self._closed:
                    sock.close()
                    return
                if name not in self._expected or name in self._accepted:
                    sock.close()
                    continue
                self._accepted[name] = sock
                self._condition.notify_all()

    def wait_for(self, timeout_s: float) -> Dict[str, socket.socket]:
        """Block until a producer connected for every expected channel."""
        deadline = time.monotonic() + timeout_s
        with self._condition:
            while len(self._accepted) < len(self._expected):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    missing = sorted(self._expected - set(self._accepted))
                    raise ChannelError(
                        f"data listener on {self._host}:{self._port} never "
                        f"heard from the producer(s) of channel(s) {missing!r} "
                        f"within {timeout_s} seconds"
                    )
                self._condition.wait(timeout=min(remaining, 0.25))
            return dict(self._accepted)

    def close(self) -> None:
        with self._condition:
            self._closed = True
            leftovers = list(self._accepted.values())
            self._accepted.clear()
        for sock in leftovers:
            try:
                sock.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


class _Waiter:
    """One selector over an instance's Receive sockets and control sockets.

    The worker loop and the coordinator's collect loop both park here.  A
    readable Receive socket signals its Receive, which puts it on its
    scheduler's ready queue; a Receive whose channel closed is unregistered
    (a drained socket at EOF would stay readable forever).
    """

    def __init__(self, instance: SPEInstance) -> None:
        self._selector = selectors.DefaultSelector()
        self._receives: Dict[socket.socket, ReceiveOperator] = {}
        for receive in instance.receives():
            endpoint = cast(SocketTransport, receive.channel.transport).consumer_socket
            assert endpoint is not None, f"channel {receive.channel.name!r} is not wired"
            self._receives[endpoint] = receive
            self._selector.register(endpoint, selectors.EVENT_READ, receive)

    @property
    def receiving(self) -> bool:
        """True while some Receive's channel is still open."""
        return bool(self._receives)

    def watch(self, sock: socket.socket, data: Any) -> None:
        """Also wake up when ``sock`` is readable; :meth:`wait` returns ``data``."""
        self._selector.register(sock, selectors.EVENT_READ, data)

    def unwatch(self, sock: socket.socket) -> None:
        self._selector.unregister(sock)

    def stop_receiving(self) -> None:
        """Wake up no more for the Receives (their instance stopped)."""
        for endpoint in self._receives:
            self._selector.unregister(endpoint)
        self._receives.clear()

    def wait(self, timeout_s: float) -> List[Any]:
        """Park until a socket is readable; return the watched sockets' data."""
        readable: List[Any] = []
        for key, _ in self._selector.select(timeout=timeout_s):
            if isinstance(key.data, ReceiveOperator):
                key.data.signal()
            else:
                readable.append(key.data)
        for endpoint, receive in list(self._receives.items()):
            if receive.channel.closed:
                self._selector.unregister(endpoint)
                del self._receives[endpoint]
        return readable

    def close(self) -> None:
        self._selector.close()


def _manager(instance: SPEInstance) -> Any:
    """The provenance manager installed on ``instance``'s operators."""
    return instance.operators[0].provenance if instance.operators else None


def _result_document(instance: SPEInstance, scheduler: Scheduler, passes: int) -> Dict[str, Any]:
    """What the coordinator needs of a finished worker (its **ok** body)."""
    tracer = scheduler.tracer
    return {
        "instance": instance.name,
        "passes": passes,
        "wakeups": scheduler.wakeups,
        "operators": {
            op.name: (op.work_calls, op.tuples_in, op.tuples_out)
            for op in instance.operators
        },
        "channels": {
            channel.name: channel.counters() for channel in instance.outgoing_channels()
        },
        # home channel name -> the latencies of the Sink it feeds.
        "latencies": {
            send.channel.name: send.latencies
            for send in instance.sends()
            if send.latency_clock is not None
        },
        "traversal_times_s": list(getattr(_manager(instance), "traversal_times_s", ())),
        # The worker's span ring + clock anchor (None when telemetry is off);
        # the coordinator aligns it onto the merged timeline.
        "telemetry": tracer.export() if tracer is not None else None,
    }


def _failure_document(instance_name: str, exc: BaseException) -> Dict[str, Any]:
    """An **error** body: what failed where, and whether it only echoes a peer."""
    return {
        "instance": instance_name,
        "error": repr(exc),
        "traceback": traceback.format_exc(),
        # a peer died (an input's producer or an output's consumer): the
        # root failure is over there.
        "lost_peer": isinstance(exc, (ProducerLostError, ConsumerLostError)),
    }


class _StopRequested(Exception):
    """The coordinator asked this worker to stop (or went away)."""


class _WorkerSession:
    """A worker's side of the control protocol: [plan, wire,] start, result.

    A daemon session starts empty and receives its instance as a plan; a
    forked child already holds its instance and goes straight to start.
    """

    def __init__(
        self,
        control: socket.socket,
        host: str = "",
        instance: Optional[SPEInstance] = None,
        max_passes: int = 10_000_000,
    ) -> None:
        self._control = control
        self._host = host
        self._decoder = FrameDecoder("worker-control")
        self._instance = instance
        self._max_passes = max_passes
        self._listener: Optional[_DataListener] = None
        self._data_socks: List[socket.socket] = []

    # -- protocol steps ----------------------------------------------------
    def run(self) -> None:
        try:
            if self._instance is None:
                self._handle_plan()
                self._handle_wire()
            self._handle_start()
        except _StopRequested:
            self._reply("stopped", {"instance": self._name()})
        except BaseException as exc:  # noqa: BLE001 - shipped to the coordinator
            self._reply("error", _failure_document(self._name(), exc))
        finally:
            self.close()

    def _name(self) -> str:
        return self._instance.name if self._instance is not None else "?"

    def _reply(self, tag: str, body: Dict[str, Any]) -> None:
        try:
            _send_control(self._control, tag, body)
        except OSError:  # coordinator already gone
            pass

    def _expect(self, expected: str) -> Any:
        message = _recv_control(self._control, self._decoder)
        if message is None:
            raise ChannelError(
                f"coordinator hung up before sending {expected!r}"
            )
        tag, body = message
        if tag == "stop":
            raise _StopRequested()
        if tag != expected:
            raise SerializationError(
                f"protocol error: expected {expected!r}, got {tag!r}"
            )
        return body

    def _handle_plan(self) -> None:
        body = self._expect("plan")
        check_plan_version(body.get("version"))
        instance = deserialize_plan(body["plan"])
        self._instance = instance
        self._max_passes = int(body.get("max_passes", self._max_passes))
        logger.debug(
            "session on %s: received plan for instance %r (%d bytes)",
            self._host,
            instance.name,
            len(body["plan"]),
        )
        self._listener = _DataListener(
            self._host, [channel.name for channel in instance.incoming_channels()]
        )
        host, port = self._listener.address
        _send_control(
            self._control,
            "ready",
            {"instance": instance.name, "data_host": host, "data_port": port},
        )

    def _handle_wire(self) -> None:
        body = self._expect("wire")
        instance = self._instance
        assert instance is not None and self._listener is not None
        addresses: Dict[str, Address] = {
            name: (host, port) for name, (host, port) in body["channels"].items()
        }
        # Outgoing: connect one data socket per Send channel and announce it.
        for send in instance.sends():
            channel = send.channel
            host, port = addresses[channel.name]
            sock = connect_with_retry(
                host, port, what=f"data listener of channel {channel.name!r}"
            )
            _send_hello(sock, channel.name)
            cast(SocketTransport, channel.transport).attach_producer(sock)
            self._data_socks.append(sock)
        # Incoming: the listener thread accepted the producers' connections.
        self._data_socks.extend(_bind_consumers(instance, self._listener))
        _send_control(self._control, "wired", {"instance": instance.name})

    def _handle_start(self) -> None:
        body = self._expect("start")
        instance = self._instance
        assert instance is not None
        scheduler = Scheduler(instance, max_passes=self._max_passes)
        # The start body opts this worker into telemetry: the worker's copy
        # of the instance builds its *own* tracer (a forked or plan-shipped
        # one could never ship its buffer back) and the ring rides home
        # inside the result document.
        telemetry_options = (body or {}).get("telemetry")
        if telemetry_options:
            from repro.obs.telemetry import enable_worker_telemetry

            enable_worker_telemetry(
                instance, scheduler, int(telemetry_options.get("capacity", 0))
            )
        logger.debug("session on %s: starting instance %r", self._host, instance.name)
        passes = self._drive(instance, scheduler)
        logger.debug(
            "session on %s: instance %r finished after %d passes",
            self._host,
            instance.name,
            passes,
        )
        _send_control(self._control, "ok", _result_document(instance, scheduler, passes))

    def _poll_stop(self) -> bool:
        """Non-blocking check for a coordinator stop (or a dead coordinator).

        A stop may already sit in the decoder: sent right behind ``start``,
        it arrives in the same read that :meth:`_expect` consumed.
        """
        ready = self._decoder.ready
        data: Optional[bytes] = None
        try:
            data = self._control.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            return True
        if data == b"":
            return True  # coordinator gone: stop quietly
        if data:
            ready.extend(self._decoder.feed(data))
        if not ready:
            return False
        stop = any(_decode_control(frame)[0] == "stop" for frame in ready)
        ready.clear()
        return stop

    def _drive(self, instance: SPEInstance, scheduler: Scheduler) -> int:
        """The worker loop: step the scheduler to quiescence; return the passes.

        Idle, it parks on a :class:`_Waiter` over the consumer sockets and
        the control socket: a frame from an upstream worker wakes its
        Receive; a stop (or EOF) on the control socket ends the run.
        """
        self._control.setblocking(False)
        waiter = _Waiter(instance)
        waiter.watch(self._control, None)
        passes = 0
        try:
            while True:
                progressed = scheduler.step()
                passes += 1
                if scheduler.finished:
                    return passes
                if self._poll_stop():
                    logger.info("worker of instance %r stopped", instance.name)
                    raise _StopRequested()
                if progressed or scheduler.has_ready_work:
                    continue
                if not waiter.receiving:
                    raise SchedulingError(
                        f"instance {instance.name!r} made no progress before completion"
                    )
                waiter.wait(_WAIT_TIMEOUT_S)
        finally:
            waiter.close()
            self._control.setblocking(True)

    def close(self) -> None:
        if self._listener is not None:
            self._listener.close()
        for sock in self._data_socks + [self._control]:
            try:
                sock.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass


def _bind_consumers(instance: SPEInstance, listener: _DataListener) -> List[socket.socket]:
    """Attach the sockets ``listener`` accepted to ``instance``'s Receives."""
    accepted = listener.wait_for(_WIRE_TIMEOUT_S)
    for channel in instance.incoming_channels():
        cast(SocketTransport, channel.transport).attach_consumer(accepted[channel.name])
    return list(accepted.values())


def _forked_worker(
    instance: SPEInstance,
    control: socket.socket,
    inherited: List[socket.socket],
    channels: List[Channel],
    max_passes: int,
) -> None:
    """A forked child: drop the control and data ends not its own, then serve."""
    for sock in inherited:
        sock.close()
    outgoing, incoming = instance.outgoing_channels(), instance.incoming_channels()
    for channel in channels:
        cast(SocketTransport, channel.transport).close_sockets(
            keep_producer=channel in outgoing, keep_consumer=channel in incoming
        )
    _WorkerSession(control, instance=instance, max_passes=max_passes).run()


class ClusterWorker:
    """A worker daemon: serves SPE instances shipped by a coordinator.

    Listens on ``host:port`` (an ephemeral port when ``port=0``) and handles
    each control connection in its own thread, so one daemon can host
    several instances of one run -- or several runs.  Start it standalone
    with ``python -m repro.spe.cluster --serve host:port``, or in-process
    via :meth:`start` (what ``hosts=None`` does for every instance).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._listener = socket.create_server((host, port))
        self._host = host
        self._port: int = self._listener.getsockname()[1]
        self._closed = False
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Address:
        return self._host, self._port

    def serve_forever(self) -> None:
        """Accept coordinator sessions until :meth:`close` (blocking)."""
        while True:
            try:
                control, _ = self._listener.accept()
            except OSError:  # listener closed
                return
            control.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            session = _WorkerSession(control, self._host)
            threading.Thread(
                target=session.run,
                name=f"spe-session-{self._port}",
                daemon=True,
            ).start()

    def start(self) -> "ClusterWorker":
        """Serve in a daemon thread (the in-process worker mode); return self."""
        self._thread = threading.Thread(
            target=self.serve_forever, name=f"spe-worker-{self._port}", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


# -- the coordinator ---------------------------------------------------------

class _Session:
    """Coordinator-side handle of one worker: its control socket and fate."""

    __slots__ = ("instance", "sock", "decoder", "outcome", "address", "process", "data_address")

    def __init__(
        self,
        instance: SPEInstance,
        sock: socket.socket,
        address: Optional[Address] = None,
        process: Optional[BaseProcess] = None,
    ) -> None:
        self.instance = instance
        self.sock = sock
        self.decoder = FrameDecoder("coordinator-control")
        self.outcome: Optional[Outcome] = None
        #: the daemon serving this instance (daemon launcher) ...
        self.address = address
        #: ... or the forked child running it (fork launcher).
        self.process = process
        #: the daemon's data listener, reported in its "ready" answer.
        self.data_address: Optional[Address] = None

    def where(self) -> str:
        """Where the worker runs, for error messages."""
        if self.process is not None:
            return f"process {self.process.pid} (exit code {self.process.exitcode})"
        assert self.address is not None
        return f"at {self.address[0]}:{self.address[1]}"


Hosts = Union[None, Sequence[Any], Dict[str, Any]]


class RemoteRuntime:
    """Runs a distributed deployment with one worker process per SPE instance.

    Every Sink runs in the coordinator, in the home instance: the last of
    ``instances`` if it is named :data:`HOME_INSTANCE` (what
    ``Pipeline.build()`` produces out of process), else one
    :func:`cut_home` makes from ``instances``.  The home's channels count
    in :meth:`channels`.

    ``execution`` selects the launcher in :data:`LAUNCHERS`: ``"process"``
    forks one child per instance; ``"cluster"`` ships the plans to worker
    daemons, and ``hosts`` places them:

    * ``None`` (the default) -- one in-process :class:`ClusterWorker` per
      instance on a loopback ephemeral port.  Everything still crosses real
      TCP sockets and the plans are really serialised; only the daemons'
      process boundary is elided.  This is the test / single-machine mode.
    * a list of ``"host:port"`` strings (or ``(host, port)`` tuples) --
      instances are assigned round-robin over the daemons.
    * a dict ``instance name -> "host:port"`` -- explicit placement.

    Every inter-instance channel must be a
    :class:`~repro.spe.sockets.SocketTransport` (the
    :class:`~repro.api.pipeline.Pipeline` builds them that way).
    ``max_rounds`` bounds each worker's scheduler wake-ups;
    ``round_callback`` fires once per collected worker result.
    """

    def __init__(
        self,
        instances: List[SPEInstance],
        execution: str = "process",
        hosts: Hosts = None,
        timeout_s: float = 300.0,
        max_rounds: int = 10_000_000,
        round_callback: Optional[Callable[[int], None]] = None,
        connect_retries: int = 10,
        connect_backoff_s: float = 0.05,
        telemetry: Any = None,
    ) -> None:
        if not instances:
            raise SchedulingError("a distributed runtime needs at least one instance")
        #: the instances the workers run.
        self.instances = [i for i in instances if i.name != HOME_INSTANCE]
        if execution not in LAUNCHERS:
            raise SchedulingError(
                f"unknown execution {execution!r}; expected one of {sorted(LAUNCHERS)!r}"
            )
        if execution == "process" and "fork" not in multiprocessing.get_all_start_methods():
            raise SchedulingError(
                "execution='process' forks its workers (operator logic is "
                "arbitrary Python, inherited rather than pickled); this "
                "platform cannot fork -- use execution='cluster'"
            )
        if hosts is not None and execution != "cluster":
            raise SchedulingError("hosts=... only applies to execution='cluster'")
        self.execution = execution
        self._launcher = LAUNCHERS[execution]
        #: the run's :class:`repro.obs.telemetry.Telemetry` (None = off);
        #: each worker records its own spans (opted in through the start
        #: body), the coordinator records its phases, and the shipped
        #: buffers merge on apply.
        self.telemetry = telemetry
        self.timeout_s = timeout_s
        self.connect_retries = connect_retries
        self.connect_backoff_s = connect_backoff_s
        self.max_rounds = max_rounds
        self.round_callback = round_callback
        #: instance wake-up ("pass") counts summed over all workers.
        self.rounds = 0
        self._wakeups = 0
        self.sessions: List[_Session] = []
        #: instance name -> shipped result document (after a successful run).
        self.results: Dict[str, Dict[str, Any]] = {}
        self._own_workers: List[ClusterWorker] = []
        self._hosts = hosts
        self._validate_hosts()
        for channel in self.channels():
            if not isinstance(channel.transport, SocketTransport):
                raise SchedulingError(
                    f"channel {channel.name!r} uses "
                    f"{type(channel.transport).__name__}, not the "
                    f"SocketTransport execution={execution!r} needs; "
                    f"build the deployment with Pipeline(execution={execution!r})"
                )
        homes = [i for i in instances if i.name == HOME_INSTANCE]
        #: the coordinator's own instance: every Sink of the deployment.
        self.home = homes[0] if homes else cut_home(self.instances)
        assign_ordering_values(self.instances + [self.home])
        require_unique_channel_names(self.channels(), execution)
        self._home_scheduler = Scheduler(self.home, max_passes=max_rounds)
        if telemetry is not None:
            self._home_scheduler.tracer = telemetry.tracer
        #: the home's failure, ranked with the workers' outcomes.
        self._home_failure: Optional[Outcome] = None
        #: the daemon launcher's data listener for the home's channels.
        self._listener: Optional[_DataListener] = None

    def channels(self) -> List[Channel]:
        """Every channel used by the deployment, the home's included (deduplicated)."""
        seen: List[Channel] = []
        for instance in self.instances:
            for channel in instance.outgoing_channels():
                if channel not in seen:
                    seen.append(channel)
        return seen

    # -- placement ---------------------------------------------------------
    @staticmethod
    def _as_address(value: Any) -> Address:
        if isinstance(value, str):
            return parse_address(value)
        try:
            host, port = value
            address = str(host), int(port)
        except (TypeError, ValueError):
            raise ValueError(f"expected 'host:port' or (host, port), got {value!r}") from None
        if not address[0] or not 0 <= address[1] <= 65535:
            raise ValueError(
                f"invalid worker address {value!r} (expected a non-empty host "
                "and a port in 0-65535)"
            )
        return address

    def _validate_hosts(self) -> None:
        """Reject malformed ``hosts=`` entries up front, naming the offender.

        Without this the first bad entry would surface mid-run as a raw
        ``ValueError`` from address parsing (or an ``OSError`` from the
        socket layer), after workers have already been spawned.
        """
        hosts = self._hosts
        if hosts is None:
            return
        entries: Iterable[Tuple[Any, Any]] = (
            hosts.items() if isinstance(hosts, dict) else enumerate(hosts)
        )
        for key, value in entries:
            try:
                self._as_address(value)
            except ValueError as exc:
                where = f"hosts[{key!r}]" if isinstance(hosts, dict) else f"hosts[{key}]"
                raise SchedulingError(f"invalid worker address at {where}: {exc}") from None

    def _assign_addresses(self) -> Dict[str, Address]:
        """Instance name -> worker daemon address (spawning local ones if needed)."""
        hosts = self._hosts
        if hosts is None:
            addresses: Dict[str, Address] = {}
            for instance in self.instances:
                worker = ClusterWorker().start()
                self._own_workers.append(worker)
                addresses[instance.name] = worker.address
            return addresses
        if isinstance(hosts, dict):
            missing = [i.name for i in self.instances if i.name not in hosts]
            if missing:
                raise SchedulingError(
                    f"hosts mapping does not place instance(s) {missing!r}"
                )
            return {
                instance.name: self._as_address(hosts[instance.name])
                for instance in self.instances
            }
        pool = [self._as_address(value) for value in hosts]
        if not pool:
            raise SchedulingError("hosts must name at least one worker daemon")
        return {
            instance.name: pool[index % len(pool)]
            for index, instance in enumerate(self.instances)
        }

    # -- execution ---------------------------------------------------------
    def run(self) -> int:
        """Run every instance to quiescence; return the worker pass count."""
        for instance in self.instances + [self.home]:
            instance.validate()
        telemetry = self.telemetry
        start_body = (
            {"telemetry": {"capacity": telemetry.config.capacity}}
            if telemetry is not None
            else None
        )
        self.sessions = []
        try:
            self._launcher(self)
            for session in self.sessions:
                try:
                    _send_control(session.sock, "start", start_body)
                except OSError:  # already dead: collect reads its EOF
                    pass
            self._phase("collect", self._collect)
        finally:
            self._shutdown()
        self._raise_on_failure()
        self._phase("apply", self._apply_results)
        return self.rounds

    def _phase(self, name: str, step: Callable[[], None]) -> None:
        """Run one coordinator phase, recorded as an ``<execution>.<name>`` span."""
        tracer = self.telemetry.tracer if self.telemetry is not None else None
        if tracer is None:
            step()
            return
        started = tracer.clock()
        step()
        tracer.record(f"{self.execution}.{name}", "workers", started)

    def _fork(self) -> None:
        """The fork launcher: pair every channel, then one child per instance."""
        context = multiprocessing.get_context("fork")
        channels = self.channels()
        home_channels = self.home.incoming_channels()
        try:
            for channel in channels:
                cast(SocketTransport, channel.transport).pair()
            for instance in self.instances:
                mine, theirs = socket.socketpair()
                inherited = [session.sock for session in self.sessions] + [mine]
                process = context.Process(
                    target=_forked_worker,
                    args=(instance, theirs, inherited, channels, self.max_rounds),
                    name=f"spe-{instance.name}",
                    daemon=True,
                )
                try:
                    process.start()
                finally:
                    theirs.close()
                self.sessions.append(_Session(instance, mine, process=process))
        finally:
            # Each end now lives in its one child only, or here at home.
            for channel in channels:
                cast(SocketTransport, channel.transport).close_sockets(
                    keep_consumer=channel in home_channels
                )

    def _deploy(self) -> None:
        """The daemon launcher: plan -> ready, then wire -> wired, on every worker."""
        addresses = self._assign_addresses()
        self._phase("plan", lambda: self._ship_plans(addresses))
        self._phase("wire", self._wire_channels)

    def _ship_plans(self, addresses: Dict[str, Address]) -> None:
        version = plan_version()
        for instance in self.instances:
            host, port = addresses[instance.name]
            try:
                sock = connect_with_retry(
                    host,
                    port,
                    retries=self.connect_retries,
                    backoff_s=self.connect_backoff_s,
                    what=f"cluster worker for instance {instance.name!r}",
                )
            except ChannelError as exc:
                raise SchedulingError(
                    f"cannot deploy instance {instance.name!r}: {exc}"
                ) from exc
            self.sessions.append(_Session(instance, sock, address=(host, port)))
            _send_control(
                sock,
                "plan",
                {
                    "version": version,
                    "instance": instance.name,
                    "plan": serialize_plan(instance),
                    "max_passes": self.max_rounds,
                },
            )
        for session in self.sessions:
            body = self._await(session, "ready")
            session.data_address = (body["data_host"], body["data_port"])

    def _wire_channels(self) -> None:
        # A channel is consumed by exactly one instance; its worker's data
        # listener is the channel's inbound address, and the coordinator's
        # own listener, where its first control connection is, the home's.
        home = self.home
        self._listener = _DataListener(
            self.sessions[0].sock.getsockname()[0],
            [channel.name for channel in home.incoming_channels()],
        )
        channel_map: Dict[str, List[Any]] = {
            channel.name: list(self._listener.address)
            for channel in home.incoming_channels()
        }
        for session in self.sessions:
            for channel in session.instance.incoming_channels():
                channel_map[channel.name] = list(session.data_address or ())
        for session in self.sessions:
            _send_control(session.sock, "wire", {"channels": channel_map})
        for session in self.sessions:
            self._await(session, "wired")
        try:
            _bind_consumers(home, self._listener)
        except ChannelError as exc:
            raise SchedulingError(f"cannot wire the home instance: {exc}") from exc

    def _await(self, session: _Session, expected: str) -> Dict[str, Any]:
        """Block on one session's next setup answer; errors raise at once."""
        sock = session.sock
        sock.settimeout(self.timeout_s)
        try:
            message = _recv_control(sock, session.decoder)
        except (OSError, ChannelError) as exc:
            raise SchedulingError(
                f"worker of instance {session.instance.name!r} {session.where()} "
                f"went away during setup: {exc}"
            ) from exc
        finally:
            sock.settimeout(None)
        if message is None:
            raise SchedulingError(
                f"worker of instance {session.instance.name!r} {session.where()} "
                "hung up during setup"
            )
        tag, body = message
        if tag == "error":
            session.outcome = (tag, body)
            raise SchedulingError(
                f"instance {body.get('instance', session.instance.name)!r} "
                f"failed: {body.get('error')}\n{body.get('traceback', '')}"
            )
        if tag != expected:
            raise SchedulingError(
                f"protocol error from instance {session.instance.name!r}: "
                f"expected {expected!r}, got {tag!r}"
            )
        return dict(body)

    def _collect(self) -> None:
        """Drive the home and wait for every worker's result (or death),
        within the deadline."""
        deadline = time.monotonic() + self.timeout_s
        home = self._home_scheduler
        waiter = _Waiter(self.home)
        for session in self.sessions:
            session.sock.setblocking(False)
            waiter.watch(session.sock, session)
        pending = len(self.sessions)
        failed = False
        try:
            while pending or not (failed or home.finished):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                if not failed and self._step_home():
                    failed = True
                    waiter.stop_receiving()
                    self._broadcast_stop()
                idle = failed or not home.has_ready_work
                for session in waiter.wait(min(remaining, 0.25) if idle else 0.0):
                    outcome = self._read_outcome(session)
                    if outcome is None:
                        continue
                    session.outcome = outcome
                    waiter.unwatch(session.sock)
                    pending -= 1
                    if self.round_callback is not None:
                        self.round_callback(len(self.sessions) - pending)
                    if outcome[0] in ("error", "died") and not failed:
                        # Fail fast: stop the healthy workers instead of
                        # letting them park until the deadline masks the
                        # real failure.  The home stops too: its sockets
                        # reach EOF as their producers go.
                        logger.warning(
                            "worker of instance %r reported %s; stopping the "
                            "deployment",
                            session.instance.name,
                            outcome[0],
                        )
                        failed = True
                        waiter.stop_receiving()
                        self._broadcast_stop()
        finally:
            waiter.close()

    def _step_home(self) -> bool:
        """Run the home's ready operators; record a failure, and return True.

        A lost input there (``ProducerLostError``) only echoes a worker's
        death, and is ranked so.
        """
        try:
            self._home_scheduler.step()
        except Exception as exc:  # noqa: BLE001 - ranked with the workers' outcomes
            logger.warning("the home instance failed (%r); stopping the deployment", exc)
            self._home_failure = ("error", _failure_document(HOME_INSTANCE, exc))
            return True
        return False

    def _read_outcome(self, session: _Session) -> Optional[Outcome]:
        """Drain one session's control socket; return its outcome once it came."""
        while True:
            try:
                data = session.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                return None
            except OSError:
                return ("died", {"instance": session.instance.name})
            if not data:
                return ("died", {"instance": session.instance.name})
            frames = session.decoder.feed(data)
            if frames:  # the one frame a worker sends after start
                return cast(Outcome, _decode_control(frames[0]))

    def _broadcast_stop(self) -> None:
        for session in self.sessions:
            if session.outcome is not None:
                continue
            try:
                _send_control(session.sock, "stop", None)
            except OSError:
                pass

    def _shutdown(self) -> None:
        """Stop whatever still runs, close the control and home sockets, reap
        the workers."""
        self._broadcast_stop()
        for session in self.sessions:
            try:
                session.sock.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        for channel in self.home.incoming_channels():
            cast(SocketTransport, channel.transport).close_sockets()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for session in self.sessions:
            process = session.process
            if process is None:
                continue
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - last resort
                logger.warning("terminating unresponsive worker %r", session.instance.name)
                process.terminate()
                process.join(timeout=5.0)
        for worker in self._own_workers:
            worker.close()
        self._own_workers = []

    def _raise_on_failure(self) -> None:
        # Blame errors, then deaths, then lost peers: a lost input or output
        # only echoes its peer's failure, which may reach us after it.
        # The home never dies: it is this process.
        rank = {"error": 0, "died": 1}
        outcomes: List[Tuple[Optional[_Session], Outcome]] = [
            (s, s.outcome or ("", {})) for s in self.sessions
        ]
        if self._home_failure is not None:
            outcomes.append((None, self._home_failure))
        outcomes.sort(
            key=lambda o: rank.get(o[1][0], 2) + 2 * bool(o[1][1].get("lost_peer"))
        )
        for session, (tag, document) in outcomes:
            if tag == "error":
                raise SchedulingError(
                    f"instance {document['instance']!r} failed: {document['error']}\n"
                    f"{document.get('traceback', '')}"
                )
            if tag == "died":
                assert session is not None
                raise SchedulingError(
                    f"instance {session.instance.name!r} worker {session.where()} "
                    "died without a result"
                )
        unfinished = [s.instance.name for s in self.sessions if s.outcome is None]
        if not self._home_scheduler.finished:
            unfinished.append(HOME_INSTANCE)
        if unfinished:
            raise SchedulingError(
                f"instance(s) {unfinished!r} did not finish within {self.timeout_s} seconds"
            )

    # -- result application ------------------------------------------------
    def _apply_results(self) -> None:
        """Copy the shipped counters, sink latencies, traversal samples and
        span buffers onto the coordinator objects."""
        by_channel = {channel.name: channel for channel in self.channels()}
        home_sinks = {
            receive.channel.name: cast(SinkOperator, receive.outputs[0].consumer)
            for receive in self.home.receives()
        }
        for session in self.sessions:
            assert session.outcome is not None
            document = session.outcome[1]
            self.results[session.instance.name] = document
            self.rounds += document["passes"]
            self._wakeups += document["wakeups"]
            for operator in session.instance.operators:
                counters = document["operators"].get(operator.name)
                if counters is not None:
                    operator.work_calls, operator.tuples_in, operator.tuples_out = counters
            for name, (tuples_sent, bytes_sent) in document["channels"].items():
                by_channel[name].tuples_sent = tuples_sent
                by_channel[name].bytes_sent = bytes_sent
            for name, latencies in document["latencies"].items():
                home_sinks[name].latencies = latencies
            samples = document["traversal_times_s"]
            if samples:
                _manager(session.instance).traversal_times_s.extend(samples)
            if self.telemetry is not None:
                self.telemetry.merge_worker(document["telemetry"])
        self._wakeups += self._home_scheduler.wakeups

    # -- introspection -------------------------------------------------------
    def total_wakeups(self) -> int:
        """Operator wake-ups summed over the worker schedulers and the home's."""
        return self._wakeups

    @property
    def finished(self) -> bool:
        """True once every worker shipped a successful result."""
        return bool(self.sessions) and all(
            session.outcome is not None and session.outcome[0] == "ok"
            for session in self.sessions
        )


#: ``Pipeline(execution=...)`` -> the launcher that starts one worker per
#: instance and fills ``runtime.sessions``; the one table.
LAUNCHERS: Dict[str, Callable[[RemoteRuntime], None]] = {
    "process": RemoteRuntime._fork,
    "cluster": RemoteRuntime._deploy,
}


# -- CLI ---------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.spe.cluster",
        description="Run a cluster worker daemon that serves SPE instances.",
    )
    parser.add_argument(
        "--serve",
        metavar="HOST:PORT",
        required=True,
        help="bind address of the worker daemon (port 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=["debug", "info", "warning", "error"],
        help="stdlib logging threshold of the daemon (default: info)",
    )
    options = parser.parse_args(argv)
    try:
        host, port = parse_address(options.serve)
    except ValueError as exc:
        parser.error(f"argument --serve: {exc}")
    # The daemon logs to stdout so supervisors (and the coordinator spawning
    # it) read one stream; the serving banner below is the line they parse
    # for the bound (possibly ephemeral) port.
    logging.basicConfig(
        level=getattr(logging, options.log_level.upper()),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
        stream=sys.stdout,
        force=True,
    )
    worker = ClusterWorker(host, port)
    bound_host, bound_port = worker.address
    logger.info("cluster worker serving on %s:%d", bound_host, bound_port)
    try:
        worker.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        worker.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    raise SystemExit(main())
