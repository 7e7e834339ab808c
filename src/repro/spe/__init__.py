"""A lightweight, deterministic stream processing engine (SPE).

This package plays the role of the Liebre SPE in the original paper: it
provides streams, the standard stateless and stateful operators (Map, Filter,
Multiplex, Union, Aggregate, Join), Sources, Sinks, Send/Receive operators for
crossing process boundaries, a deterministic watermark-driven scheduler that
also runs several SPE instances in one process, and an out-of-process
runtime with one worker process per instance; SPE instances are connected by
channels carrying binary batch blobs (:mod:`repro.spe.codec`).

Determinism (see section 2 of the paper) is obtained by requiring sources to
emit timestamp-sorted streams and by having every multi-input operator merge
its inputs in timestamp order, gated by per-input watermarks.
"""

from repro.spe.tuples import StreamTuple, Watermark, END_OF_STREAM
from repro.spe.streams import Stream
from repro.spe.query import Query
from repro.spe.scheduler import Scheduler
from repro.spe.instance import SPEInstance
from repro.spe.cluster import ClusterWorker, RemoteRuntime
from repro.spe.channels import Channel, ChannelTransport, InMemoryTransport
from repro.spe.sockets import SocketTransport

__all__ = [
    "StreamTuple",
    "Watermark",
    "END_OF_STREAM",
    "Stream",
    "Query",
    "Scheduler",
    "SPEInstance",
    "RemoteRuntime",
    "ClusterWorker",
    "Channel",
    "ChannelTransport",
    "InMemoryTransport",
    "SocketTransport",
]
