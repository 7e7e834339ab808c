"""Small harness for exercising a single operator in isolation."""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.spe.codec import BinaryChannelEncoder
from repro.spe.operators.base import Operator
from repro.spe.streams import Stream
from repro.spe.tuples import StreamTuple


def tup(ts: float, **values) -> StreamTuple:
    """Shorthand for building a tuple from keyword attributes."""
    return StreamTuple(ts=ts, values=values)


def wire(
    operator: Operator, n_inputs: int = 1, n_outputs: int = 1
) -> Tuple[List[Stream], List[Stream]]:
    """Attach fresh input/output streams to ``operator`` and return them."""
    inputs = []
    for index in range(n_inputs):
        stream = Stream(f"{operator.name}-in{index}")
        operator.add_input(stream)
        inputs.append(stream)
    outputs = []
    for index in range(n_outputs):
        stream = Stream(f"{operator.name}-out{index}")
        operator.add_output(stream)
        outputs.append(stream)
    return inputs, outputs


def feed(
    stream: Stream,
    tuples: Iterable[StreamTuple] = (),
    watermark: Optional[float] = None,
    close: bool = False,
) -> None:
    """Push ``tuples`` onto ``stream``, then optionally advance/close it."""
    last_ts = None
    for element in tuples:
        stream.push(element)
        last_ts = element.ts
    if watermark is not None:
        stream.advance_watermark(watermark)
    elif last_ts is not None:
        stream.advance_watermark(last_ts)
    if close:
        stream.close()


def run_operator(operator: Operator, max_rounds: int = 1000) -> None:
    """Call ``operator.work()`` until it stops making progress."""
    for _ in range(max_rounds):
        if not operator.work():
            return
    raise AssertionError(f"operator {operator.name!r} did not quiesce")


def collect(stream: Stream) -> List[StreamTuple]:
    """Drain ``stream`` and return its tuples."""
    return stream.drain()


def blobs(*batches: List[StreamTuple], channel: str = "c") -> List[bytes]:
    """Encode each batch into one blob, as a Send on ``channel`` would."""
    encoder = BinaryChannelEncoder(channel)
    return [encoder.encode_batch(batch) for batch in batches]
