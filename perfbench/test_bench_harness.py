"""Tests of the benchmark harness itself (collected by the tier-1 suite).

Everything runs at ``--scale smoke`` with shortened microbenches, so the
whole file takes seconds.
"""

from __future__ import annotations

import json
import multiprocessing
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT / "perfbench"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import run as bench  # noqa: E402 - perfbench/run.py
from glbench import cells, layers, metrics, oracle, report  # noqa: E402

SPEC = report.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    """No history rows in the checkout, and microbenches of a few milliseconds."""
    monkeypatch.setattr(report, "HISTORY_PATH", tmp_path / "BENCH_history.jsonl")
    monkeypatch.setattr(layers, "MICRO_S", 0.002)


def _result(capsys, *argv: str) -> dict:
    assert bench.main(["--scale", "smoke", *argv]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


# -- statistics ------------------------------------------------------------------


def test_quartiles_follow_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, median, q3 = metrics.quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert median == statistics.median(values)
    assert metrics.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_cell_reports_median_and_iqr_share():
    cell = metrics.summarise([10.0, 12.0, 11.0, 13.0, 9.0])
    assert (cell.value, cell.n) == (11.0, 5)
    assert cell.spread == pytest.approx((cell.q3 - cell.q1) / 11.0)
    assert metrics.summarise([]) is None


def test_percentile_interpolates_over_the_pooled_sample():
    pooled = sorted([1.0, 2.0, 3.0] + [4.0, 5.0])
    assert metrics.percentile(pooled, 0.5) == 3.0
    assert metrics.percentile(pooled, 0.0) == 1.0
    assert metrics.percentile(pooled, 1.0) == 5.0
    assert metrics.percentile(pooled, 0.9) == pytest.approx(4.6)
    with pytest.raises(ValueError):
        metrics.percentile([], 0.5)


# -- oracle ---------------------------------------------------------------------


def test_digests_ignore_order_and_key_order_but_not_content():
    a = (30.0, {"car_id": "car1", "count": 4})
    b = (60.0, {"car_id": "car2", "count": 4})
    reordered = (30.0, {"count": 4, "car_id": "car1"})
    assert oracle.digest_sinks([a, b]) == oracle.digest_sinks([b, reordered])
    assert oracle.digest_sinks([a, b]) != oracle.digest_sinks([a, (60.0, {**b[1], "count": 5})])
    assert oracle.digest_sinks([a, b]) != oracle.digest_sinks([a])
    sources = [(0.0, {"pos": 1}), (30.0, {"pos": 1})]
    one = oracle.digest_provenance([(30.0, a[1], sources), (60.0, b[1], sources[:1])])
    two = oracle.digest_provenance([(60.0, b[1], sources[:1]), (30.0, a[1], sources[::-1])])
    assert one == two
    assert one != oracle.digest_provenance([(30.0, a[1], sources[:1]), (60.0, b[1], sources[:1])])


def test_provenance_digest_is_insensitive_to_tuple_ids():
    workload = cells.WORKLOADS["q1_intra"]
    tuples = cells.generate(workload, "smoke", 3)
    expected = oracle.expected_for("q1", tuples)
    assert expected.sink_count > 0
    # one instance and three instances mint different ids for the same tuples.
    for inter in (False, True):
        plan = cells.LegPlan("q1", "genealog", store=True, inter=inter)
        assert cells.run_leg(plan, tuples, expected).error is None


def test_a_corrupted_sink_fails_the_leg_and_the_run(capsys):
    workload = cells.WORKLOADS["q1_intra"]
    tuples = cells.generate(workload, "smoke", 3)
    expected = oracle.expected_for("q1", tuples)

    def corrupt(result, store):
        result.sink.received[0].values["count"] = 5
        return {}

    bad = cells.run_leg(cells.plan_for(workload, "np", None), tuples, expected, inspect=corrupt)
    assert bad.error is not None and "sink digest" in bad.error
    good = {
        kind: cells.run_leg(cells.plan_for(workload, kind, None), tuples, expected)
        for kind in ("gl", "gl_store")
    }
    run = cells.Run("q1_intra", len(tuples), {}, [dict(good, np=bad)], None)
    row = report.end_to_end_row(run, SPEC)
    assert (row["attempted"], row["failed"]) == (3, 1)
    assert row["metrics"]["np_tps"]["value"] is None
    assert json.loads(report.contract_line(row))["correct"] is False


# -- declared names ----------------------------------------------------------------


def test_benchmark_json_is_within_the_contract_limits():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    sections = ("workloads", "end_to_end", "per_layer")
    names = [entry["name"] for key in sections for entry in SPEC[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in SPEC["workloads"]] == list(cells.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics.END_TO_END)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


@pytest.mark.parametrize("workload", list(cells.WORKLOADS))
def test_smoke_runs_emit_exactly_the_declared_metrics(capsys, workload):
    end_to_end = _result(capsys, "--workload", workload, "--trace", "0")
    assert end_to_end["correct"] and end_to_end["failed"] == 0 and end_to_end["attempted"] >= 1
    assert list(end_to_end["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    per_layer = _result(capsys, "--workload", workload, "--trace", "1")
    assert per_layer["correct"] and per_layer["failed"] == 0
    assert list(per_layer["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for result in (end_to_end, per_layer):
        for name, cell in result["metrics"].items():
            assert isinstance(cell["value"], (int, float)), name
            assert cell["unit"] == units[name]
    assert end_to_end["metrics"]["np_tps"]["value"] > 0


def test_every_invocation_appends_one_history_row(capsys):
    _result(capsys, "--workload", "q4_intra")
    _result(capsys, "--workload", "q4_intra", "--seed", "9")
    rows = [json.loads(line) for line in report.HISTORY_PATH.read_text().splitlines()]
    assert [row["seed"] for row in rows] == [1, 9]
    assert {"nproc", "cpu", "python", "loadavg_1m"} <= set(rows[0]["host"])
    assert rows[0]["scale"] == "smoke" and "q4_intra" in rows[0]["workloads"]


def test_selfcheck_compares_two_sets_against_the_bounds():
    row = {"metrics": {m["name"]: {"value": 100.0} for m in SPEC["end_to_end"]}}
    same = {"workloads": {"w": row}}
    assert report.disagreements(same, same, SPEC) == []
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "gl_tps")
    other = json.loads(json.dumps(same))
    other["workloads"]["w"]["metrics"]["gl_tps"]["value"] = 100.0 / (1 + bound / 2)
    assert report.disagreements(same, other, SPEC) == []
    other["workloads"]["w"]["metrics"]["gl_tps"]["value"] = 100.0 / (1 + bound * 2)
    problems = report.disagreements(same, other, SPEC)
    assert len(problems) == 1 and "gl_tps" in problems[0]


# -- robustness --------------------------------------------------------------------


def test_a_missing_probe_target_yields_null_not_a_crash(capsys, monkeypatch):
    monkeypatch.delattr("repro.spe.streams.Stream")
    result = _result(capsys, "--workload", "q1_intra", "--trace", "1")
    assert result["metrics"]["spe.streams.push_pop_ns_per_tuple"]["value"] is None
    assert result["metrics"]["spe.scheduler.empty_wake_ns"]["value"] is not None
    assert result["correct"] is False and result["failed"] == 0


def _out_of_order(workload):
    """An input every runtime rejects: the Source enforces timestamp order."""
    return cells.generate(workload, "smoke", 3)[::-1]


def test_forked_workers_leave_no_orphan_after_success_or_failure():
    workload = cells.WORKLOADS["q1_inter_pipe"]
    tuples = cells.generate(workload, "smoke", 3)
    plan = cells.plan_for(workload, "gl", None)
    assert cells.run_leg(plan, tuples, oracle.expected_for("q1", tuples)).error is None
    assert multiprocessing.active_children() == []
    failed = cells.run_leg(plan, _out_of_order(workload), None)
    assert failed.error is not None and "out-of-order" in failed.error
    assert multiprocessing.active_children() == []


def test_worker_daemons_are_reaped_after_success_or_failure(monkeypatch):
    spawned = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        spawned.append(popen(*args, **kwargs))
        return spawned[-1]

    monkeypatch.setattr(cells.subprocess, "Popen", recording_popen)
    workload = cells.WORKLOADS["q1_inter_tcp"]
    with cells.deployment(workload) as hosts:
        assert set(hosts) == set(cells.INSTANCES)
        failed = cells.run_leg(cells.plan_for(workload, "gl", hosts), _out_of_order(workload), None)
        assert failed.error is not None
    assert len(spawned) == 3 and all(process.poll() is not None for process in spawned)
    with pytest.raises(RuntimeError, match="boom"):
        with cells.deployment(workload):
            raise RuntimeError("boom")
    assert len(spawned) == 6 and all(process.poll() is not None for process in spawned)
