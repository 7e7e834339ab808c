"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import pytest

from repro.core.provenance import ProvenanceMode
from repro.provstore.tap import ProvenanceTap
from repro.spe.scheduler import Scheduler
from repro.spe.tuples import StreamTuple

# a helper module whose assertions should report like a test module's
# (registered before any test module imports it).
pytest.register_assert_rewrite("tests.equivalence")

#: 08:00:00 expressed in seconds, the base timestamp of the paper's example.
FIGURE1_BASE_TS = 8 * 3600


def make_tuples(rows: Sequence[Tuple[float, Dict[str, object]]]) -> List[StreamTuple]:
    """Build a list of tuples from ``(ts, values)`` pairs."""
    return [StreamTuple(ts=ts, values=values) for ts, values in rows]


def figure1_reports() -> List[StreamTuple]:
    """The six position reports of Figure 1 of the paper (in timestamp order)."""
    rows = [
        (1, "a", 0, "X"),
        (2, "b", 55, "Y"),
        (31, "a", 0, "X"),
        (32, "c", 0, "Z"),
        (61, "a", 0, "X"),
        (91, "a", 0, "X"),
    ]
    return [
        StreamTuple(
            ts=FIGURE1_BASE_TS + offset,
            values={"car_id": car, "speed": speed, "pos": pos},
        )
        for offset, car, speed, pos in rows
    ]


def run_built(result) -> None:
    """Run a :class:`~repro.api.pipeline.PipelineResult` built without a
    ``Pipeline`` (the legacy oracle's) to completion, in process."""
    Scheduler(*([result.query] if result.query is not None else result.instances)).run()


class RecordingTap(ProvenanceTap):
    """Keeps every tuple its Sink receives (provenance Sinks keep none)."""

    def __init__(self) -> None:
        self.tuples: List[StreamTuple] = []

    def on_tuple(self, tup: StreamTuple) -> None:
        self.tuples.append(tup)


def record_index(records: Iterable) -> Dict[Tuple, Tuple[float, ...]]:
    """Index provenance records by (sink ts, sorted sink values) -> sorted source ts.

    Used to compare the provenance captured by different techniques or
    deployments for the same query and input.
    """
    index = {}
    for record in records:
        key = (record.sink_ts, tuple(sorted(record.sink_values.items())))
        index[key] = tuple(record.source_timestamps())
    return index


@pytest.fixture
def figure1_input() -> List[StreamTuple]:
    """The Figure 1 example input as a fixture."""
    return figure1_reports()


@pytest.fixture(params=[ProvenanceMode.GENEALOG, ProvenanceMode.BASELINE], ids=["GL", "BL"])
def provenance_mode(request) -> ProvenanceMode:
    """Both provenance-capturing techniques."""
    return request.param


@pytest.fixture(params=[True, False], ids=["fused", "composed"])
def fused(request) -> bool:
    """Whether SU/MU are fused operators or standard-operator compositions."""
    return request.param
