"""Window state of the Join and MU operators after a run, and the keyed probe.

* Every operator's window state is released once its inputs close: a
  finished run pins no tuples (and, under GeneaLog, no contribution graphs)
  in a Join or MU window, over Q1-Q4 x {NP, GL, BL} x {intra, inter}.
* Q4's ``key_by`` join probes only its key's bucket, so its predicate runs
  once per emitted pair -- a deterministic gate on the keyed index that
  needs no timing.
"""

from __future__ import annotations

import pytest

import repro.workloads.queries as queries
from repro.spe.operators.join import JoinOperator
from repro.spe.query import Query
from repro.spe.scheduler import Scheduler
from repro.workloads.smart_grid import SmartGridConfig, SmartGridGenerator
from tests.equivalence import (  # noqa: F401
    ALL_MODES,
    ALL_QUERIES,
    deterministic_wall,  # noqa: F401 - autouse fixture: deterministic source wall clocks
    run_cell,
)


def stateful_operators(result):
    """Every operator of a finished run that reports buffered tuples."""
    operators = list(result.query.operators) if result.query is not None else []
    for instance in result.instances:
        operators.extend(instance.operators)
    return [op for op in operators if hasattr(op, "buffered_tuples")]


class TestWindowStateReleased:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.name)
    @pytest.mark.parametrize("deployment", ("intra", "inter"))
    @pytest.mark.parametrize("query_name", ALL_QUERIES)
    def test_no_operator_holds_tuples_after_run(self, query_name, deployment, mode):
        result = run_cell(query_name, mode, deployment=deployment)
        held = {
            op.name: op.buffered_tuples()
            for op in stateful_operators(result)
            if op.buffered_tuples()
        }
        assert held == {}


class TestKeyedJoinProbe:
    """Q4 on 20 meters x 10 days (4 800 readings): one daily aggregate and
    one midnight reading per meter and day, so 20 x 9 = 180 pairs."""

    @pytest.mark.parametrize("parallelism", (1, 2))
    def test_predicate_runs_once_per_emitted_pair(self, monkeypatch, parallelism):
        calls = []
        same_meter = queries.same_meter

        def counting(left, right):
            calls.append(None)
            return same_meter(left, right)

        monkeypatch.setattr(queries, "same_meter", counting)
        config = SmartGridConfig(n_meters=20, n_days=10, seed=1)
        dataflow = queries.query_dataflow(
            "q4", SmartGridGenerator(config).tuples, parallelism=parallelism
        )
        # The counter mutates captured state, which the analyzer rightly
        # refuses on a parallel stage; here that is the instrument, not a
        # bug, so the plan is lowered and run without the analyzer.
        query = Query(dataflow.name)
        dataflow.lower_into(query)
        Scheduler(query).run()
        joins = [op for op in query.operators if isinstance(op, JoinOperator)]
        assert len(joins) == parallelism
        pairs = sum(op.pairs_emitted for op in joins)
        assert pairs == 180
        assert len(calls) == pairs
