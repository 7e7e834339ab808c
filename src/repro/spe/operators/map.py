"""Map and FlatMap operators.

The Map operator "produces one or more output tuples for each input tuple by
selecting one or more of the input tuples' attributes, optionally applying
functions to them" (section 2).  :class:`MapOperator` covers the common
one-to-one case; :class:`FlatMapOperator` is the general one-to-many variant
used, for instance, by the single-stream unfolder (SU) which expands every
sink tuple into one tuple per originating source tuple.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from repro.spe.operators.base import SingleInputOperator
from repro.spe.tuples import StreamTuple

MapFunction = Callable[[StreamTuple], Optional[StreamTuple]]
FlatMapFunction = Callable[[StreamTuple], Iterable[StreamTuple]]


class MapOperator(SingleInputOperator):
    """Applies ``function`` to every input tuple and emits the result.

    The function receives the input tuple and returns a new
    :class:`StreamTuple` (typically created with :meth:`StreamTuple.derive`),
    the input tuple itself, which passes through unchanged (no MAP meta: a
    tuple cannot be its own parent), or ``None``, which drops the tuple and
    keeps the operator usable for combined map+filter user code.
    """

    max_inputs = 1
    max_outputs = 1

    def __init__(self, name: str, function: MapFunction) -> None:
        super().__init__(name)
        self._function = function

    def process_batch(self, batch: Sequence[StreamTuple]) -> None:
        """Stateless batch path: map the batch, then bulk-forward the outputs."""
        function = self._function
        on_map_output = None if self.provenance.is_noop else self.provenance.on_map_output
        outputs = []
        for tup in batch:
            out = function(tup)
            if out is None:
                continue
            if out is not tup:
                if tup.wall > out.wall:
                    out.wall = tup.wall
                if on_map_output is not None:
                    on_map_output(out, tup)
            outputs.append(out)
        self.emit_many(outputs)


class FlatMapOperator(SingleInputOperator):
    """Applies ``function`` to every input tuple and emits each produced tuple.

    A produced tuple that *is* the input tuple passes through unchanged, as
    in :class:`MapOperator`.
    """

    max_inputs = 1
    max_outputs = 1

    def __init__(self, name: str, function: FlatMapFunction) -> None:
        super().__init__(name)
        self._function = function

    def process_tuple(self, tup: StreamTuple) -> None:
        for out in self._function(tup):
            if out is not tup:
                out.wall = max(out.wall, tup.wall)
                self.provenance.on_map_output(out, tup)
            self.emit(out)
