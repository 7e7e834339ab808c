"""``BENCHMARK.json`` view, result rows, tables, history and the self-check.

``BENCHMARK.json`` at the repository root is the single declaration of the
workload names and of every metric's unit, direction and regression bound;
this module joins measured cells to it.  Every invocation appends one row
to ``perfbench/history/BENCH_history.jsonl``; the printed table is a view
of that row.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from typing import Any, Dict, List, Mapping, Optional

from .cells import ROOT, Leg, Run
from .layers import Trace
from .metrics import Cell, end_to_end

SPEC_PATH = ROOT / "BENCHMARK.json"
HISTORY_PATH = ROOT / "perfbench" / "history" / "BENCH_history.jsonl"


def load_spec() -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(SPEC_PATH.read_text())


# -- rows ------------------------------------------------------------------------


def _failures(legs: Mapping[str, Leg]) -> List[str]:
    return [f"{key}: {leg.error}" for key, leg in legs.items() if leg.error is not None]


def end_to_end_row(run: Run, spec: Mapping[str, Any]) -> Dict[str, Any]:
    """One workload's end-to-end result as plain data."""
    cells = end_to_end(run)
    legs = {f"warmup/{kind}": leg for kind, leg in run.warmup.items()}
    for index, round_legs in enumerate(run.rounds):
        legs.update({f"round{index}/{kind}": leg for kind, leg in round_legs.items()})
    if run.heap is not None:
        legs["heap/gl"] = run.heap
    errors = _failures(legs)
    metrics = {}
    for declared in spec["end_to_end"]:
        cell: Optional[Cell] = cells.get(declared["name"])
        metrics[declared["name"]] = {
            "value": None if cell is None else cell.value,
            "unit": declared["unit"],
            "q1": None if cell is None else cell.q1,
            "q3": None if cell is None else cell.q3,
            "n": 0 if cell is None else cell.n,
            "spread": None if cell is None else cell.spread,
        }
    return {
        "workload": run.workload,
        "source_tuples": run.source_tuples,
        "rounds": len(run.rounds),
        "attempted": len(legs),
        "failed": len(errors),
        "errors": errors,
        "metrics": metrics,
    }


def per_layer_row(trace: Trace, spec: Mapping[str, Any]) -> Dict[str, Any]:
    """One workload's layer table as plain data (missing rows are ``None``)."""
    # an intra workload's own legs double as its one-instance legs.
    unique = {id(leg): key for key, leg in trace.legs.items()}
    errors = _failures({key: trace.legs[key] for key in unique.values()})
    metrics = {
        declared["name"]: {
            "value": trace.rows.get(declared["name"]),
            "unit": declared["unit"],
        }
        for declared in spec["per_layer"]
    }
    return {
        "workload": trace.workload,
        "source_tuples": trace.source_tuples,
        "attempted": len(unique),
        "failed": len(errors),
        "errors": errors,
        "metrics": metrics,
        "probe_missing": dict(trace.probe_missing),
        "undeclared": sorted(set(trace.rows) - set(metrics)),
    }


def contract_line(row: Mapping[str, Any]) -> str:
    """The driver-facing result: the last line of standard output."""
    values = {name: cell["value"] for name, cell in row["metrics"].items()}
    return json.dumps(
        {
            "correct": row["failed"] == 0 and None not in values.values(),
            "attempted": row["attempted"],
            "failed": row["failed"],
            "metrics": {
                name: {"value": cell["value"], "unit": cell["unit"]}
                for name, cell in row["metrics"].items()
            },
        }
    )


# -- tables ------------------------------------------------------------------------


def _number(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if value == 0 or 0.01 <= abs(value) < 1e6:
        return f"{value:,.4f}".rstrip("0").rstrip(".")
    return f"{value:.4g}"


def format_end_to_end(row: Mapping[str, Any], spec: Mapping[str, Any]) -> str:
    """Median, quartiles, n and IQR/median per metric; the noise rule applied."""
    bounds = {declared["name"]: declared for declared in spec["end_to_end"]}
    lines = [
        f"== {row['workload']}: {row['source_tuples']:,} source tuples, "
        f"{row['rounds']} measured round(s), {row['failed']}/{row['attempted']} legs failed",
        f"{'metric':<20}{'median':>16} {'unit':<6}{'q1':>15}{'q3':>15}{'n':>8}"
        f"{'IQR/med':>9}{'bound':>7}",
    ]
    for name, cell in row["metrics"].items():
        declared = bounds[name]
        if cell["value"] is None:
            lines.append(f"{name:<20}{'null':>16} {cell['unit']:<6} (every leg failed)")
            continue
        verdict = "  unresolved" if cell["spread"] > declared["bound"] else ""
        lines.append(
            f"{name:<20}{_number(cell['value']):>16} {cell['unit']:<6}"
            f"{_number(cell['q1']):>15}{_number(cell['q3']):>15}{cell['n']:>8}"
            f"{cell['spread']:>9.3f}{declared['bound']:>7.2f}{verdict}"
        )
    lines.extend(f"   FAILED {error}" for error in row["errors"])
    return "\n".join(lines)


def format_per_layer(row: Mapping[str, Any]) -> str:
    lines = [
        f"== {row['workload']} (traced): {row['source_tuples']:,} source tuples, "
        f"{row['failed']}/{row['attempted']} legs failed"
    ]
    for name, cell in row["metrics"].items():
        missing = "  probe_missing" if cell["value"] is None else ""
        lines.append(f"{name:<56}{_number(cell['value']):>18} {cell['unit']}{missing}")
    lines.extend(f"   FAILED {error}" for error in row["errors"])
    lines.extend(f"   probe_missing {name}: {why}" for name, why in row["probe_missing"].items())
    if row["undeclared"]:
        lines.append(f"   rows not declared in BENCHMARK.json: {row['undeclared']}")
    return "\n".join(lines)


# -- history ---------------------------------------------------------------------


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def invocation_header(seed: int, scale: str, seconds: float, trace: int) -> Dict[str, Any]:
    """What identifies a history row: commit, host shape and the knobs used.

    Call it before measuring: the load average is the host's state at start.
    """
    return {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": _git_sha(),
        "host": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "loadavg_1m": os.getloadavg()[0],
        },
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "trace": trace,
        "workloads": {},
    }


def append_history(invocation: Mapping[str, Any]) -> None:
    HISTORY_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(HISTORY_PATH, "a") as handle:
        handle.write(json.dumps(invocation) + "\n")


# -- self-check -----------------------------------------------------------------------


def median_of(invocations: List[Mapping[str, Any]]) -> Dict[str, Any]:
    """One run-set: per workload and metric, the median over its invocations."""
    workloads: Dict[str, Any] = {}
    for name, row in invocations[0]["workloads"].items():
        metrics = {}
        for metric in row["metrics"]:
            values = [inv["workloads"][name]["metrics"][metric]["value"] for inv in invocations]
            metrics[metric] = {"value": None if None in values else statistics.median(values)}
        workloads[name] = {"metrics": metrics}
    return {"workloads": workloads}


def disagreements(
    first: Mapping[str, Any], second: Mapping[str, Any], spec: Mapping[str, Any]
) -> List[str]:
    """End-to-end medians of two run-sets that differ by more than their bound."""
    problems = []
    for declared in spec["end_to_end"]:
        name, bound = declared["name"], declared["bound"]
        for workload, row in first["workloads"].items():
            a = row["metrics"][name]["value"]
            b = second["workloads"][workload]["metrics"][name]["value"]
            if a is None or b is None:
                problems.append(f"{workload} {name}: no value ({a} vs {b})")
            elif abs(a - b) / min(abs(a), abs(b)) > bound:
                problems.append(
                    f"{workload} {name}: {_number(a)} vs {_number(b)} {declared['unit']} "
                    f"differ by {abs(a - b) / min(abs(a), abs(b)):.3f} > bound {bound}"
                )
    return problems
