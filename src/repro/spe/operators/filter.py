"""Filter operator: forwards or discards tuples based on a predicate.

Filters *forward* existing tuples instead of creating new ones, so (as in
section 4.1 of the paper) no provenance instrumentation is required.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.spe.operators.base import SingleInputOperator
from repro.spe.tuples import StreamTuple

Predicate = Callable[[StreamTuple], bool]


class FilterOperator(SingleInputOperator):
    """Forwards every input tuple for which ``predicate`` returns True."""

    max_inputs = 1
    max_outputs = 1

    def __init__(self, name: str, predicate: Predicate) -> None:
        super().__init__(name)
        self._predicate = predicate
        self.dropped = 0

    def process_batch(self, batch: Sequence[StreamTuple]) -> None:
        """Stateless batch path: one predicate sweep, one bulk forward."""
        predicate = self._predicate
        kept = [tup for tup in batch if predicate(tup)]
        self.dropped += len(batch) - len(kept)
        self.emit_many(kept)
