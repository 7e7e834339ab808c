"""Every execution of Q1-Q4 against the engine-independent reference.

The paper's determinism property (section 2) says a run's result is a pure
function of the source data however ``work`` calls interleave.  The oracle
is therefore :mod:`tests.reference` -- a plain-Python computation over the
generated input -- and every cell of Q1-Q4 x {NP, GL, BL} x {intra, inter
in-process} x parallelism {1, 2}, plus one ``process`` and one ``cluster``
cell per query, must reproduce its sink digest and (under GL / BL) its
sink -> contributing-sources digest.  The digests ignore arrival order and
tuple ids (ids differ between runtimes by design) but not content.
"""

from __future__ import annotations

import functools
import multiprocessing

import pytest

from repro.core.provenance import ProvenanceMode
from tests import reference
from tests.equivalence import (  # noqa: F401
    ALL_MODES,
    ALL_QUERIES,
    deterministic_wall,  # noqa: F401 - autouse fixture: deterministic source wall clocks
    run_cell,
    workload_for,
)


@functools.lru_cache(maxsize=None)
def expected(query_name):
    return reference.expected_for(query_name, list(workload_for(query_name)()))


def assert_matches_reference(result, query_name, mode):
    provenance = mode is not ProvenanceMode.NONE
    assert reference.verify(expected(query_name), result, provenance) is None


@pytest.mark.parametrize("query_name", ALL_QUERIES)
def test_reference_alerts_fire(query_name):
    """A reference without sink tuples would make every cell pass vacuously."""
    assert expected(query_name).sink_count > 0


@pytest.mark.parametrize("parallelism", (1, 2))
@pytest.mark.parametrize("deployment", ("intra", "inter"))
@pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.name)
@pytest.mark.parametrize("query_name", ALL_QUERIES)
def test_in_process_cell_matches_reference(query_name, mode, deployment, parallelism):
    result = run_cell(query_name, mode, parallelism, deployment=deployment)
    assert_matches_reference(result, query_name, mode)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multiprocess execution requires the fork start method",
)
@pytest.mark.parametrize("query_name", ALL_QUERIES)
def test_process_cell_matches_reference(query_name):
    result = run_cell(query_name, ProvenanceMode.GENEALOG, execution="process")
    assert_matches_reference(result, query_name, ProvenanceMode.GENEALOG)


@pytest.mark.parametrize("query_name", ALL_QUERIES)
def test_cluster_cell_matches_reference(query_name):
    result = run_cell(query_name, ProvenanceMode.GENEALOG, execution="cluster")
    assert_matches_reference(result, query_name, ProvenanceMode.GENEALOG)


class TestTheOracleNotices:
    """One perturbed sink attribute or contributing source changes a digest."""

    @pytest.fixture(params=ALL_QUERIES)
    def cell(self, request):
        result = run_cell(request.param, ProvenanceMode.GENEALOG, deployment="intra")
        # copies: the finished result is shared with the other suites.
        rows = [
            (ts, dict(values), [(source_ts, dict(source)) for source_ts, source in sources])
            for ts, values, sources in reference.record_rows(result)
        ]
        assert reference.digest_provenance(rows) == expected(request.param).provenance
        return request.param, rows

    def test_a_changed_sink_attribute(self, cell):
        query_name, rows = cell
        values = rows[0][1]
        attribute = sorted(values)[0]
        values[attribute] = f"{values[attribute]}?"
        sinks = [(ts, sink) for ts, sink, _ in rows]
        assert reference.digest_sinks(sinks) != expected(query_name).sinks
        assert reference.digest_provenance(rows) != expected(query_name).provenance

    def test_a_changed_contributing_source(self, cell):
        query_name, rows = cell
        _, source = rows[-1][2][0]
        attribute = sorted(source)[0]
        source[attribute] = f"{source[attribute]}?"
        assert reference.digest_provenance(rows) != expected(query_name).provenance

    def test_a_missing_contributing_source(self, cell):
        query_name, rows = cell
        del rows[0][2][0]
        assert reference.digest_provenance(rows) != expected(query_name).provenance
