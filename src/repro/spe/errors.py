"""Exception types raised by the SPE substrate."""


class SPEError(Exception):
    """Base class for every error raised by :mod:`repro.spe`."""


class QueryValidationError(SPEError):
    """The query DAG is malformed (cycles, dangling ports, arity mismatch)."""


class StreamOrderError(SPEError):
    """A producer violated the timestamp-sorted stream contract."""


class SchedulingError(SPEError):
    """The scheduler could not make progress or was misconfigured."""


class SerializationError(SPEError):
    """A tuple could not be serialised or deserialised at a process boundary."""


class ChannelError(SPEError):
    """A Send/Receive channel was used incorrectly (e.g. after closing)."""


class ProducerLostError(ChannelError):
    """A channel's producer went away before its close marker (it died mid-run)."""


class ConsumerLostError(ChannelError):
    """A channel's consumer went away while its producer still sends (it died)."""


class ReservedAttributeError(SPEError):
    """A tuple attribute uses a name the unfolded provenance schema reserves."""
