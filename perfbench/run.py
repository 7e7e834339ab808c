#!/usr/bin/env python3
"""The repo's benchmark: one command, every metric by name with its unit.

    python3 perfbench/run.py                                 # 4 workloads, end to end
    python3 perfbench/run.py --trace 1                       # their layer tables instead
    python3 perfbench/run.py --workload q1_intra --seed 7 --seconds 18 --trace 0
    python3 perfbench/run.py --selfcheck                     # two run-sets must agree (~12 min)
    python3 perfbench/run.py --scale smoke                   # seconds, for tests

With ``--workload`` the last line of standard output is the result object of
the contract in ``BENCHMARK.json``: ``--trace 0`` carries the end-to-end
metrics, ``--trace 1`` the per-layer ones.  Every leg's output is checked
against the oracle and every invocation is appended to
``perfbench/history/BENCH_history.jsonl``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from glbench import cells, layers, report  # noqa: E402 - needs src/ on the path


#: invocations per ``--selfcheck`` set (each on its own seed).
SELFCHECK_RUNS = 3


def measure(
    spec: Mapping[str, Any], names: Sequence[str], seed: int, scale: str, seconds: float, trace: int
) -> Dict[str, Any]:
    """Run ``names`` once each; print their tables; return the history row."""
    invocation = report.invocation_header(seed, scale, seconds, trace)
    for name in names:
        workload = cells.WORKLOADS[name]
        if trace:
            row = report.per_layer_row(layers.run_trace(workload, scale, seed), spec)
            print(report.format_per_layer(row))
        else:
            row = report.end_to_end_row(
                cells.run_end_to_end(workload, scale, seed, seconds), spec
            )
            print(report.format_end_to_end(row, spec))
        invocation["workloads"][name] = row
        sys.stdout.flush()
    report.append_history(invocation)
    return invocation


def main(argv: Optional[List[str]] = None) -> int:
    spec = report.load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="workload generator seed")
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="how long the measured rounds of one workload run",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1 = per-layer table instead of the end-to-end metrics",
    )
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="smoke = ~5k tuples and one round per workload, for tests",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="run two end-to-end sets; fail unless every median agrees within its bound",
    )
    options = parser.parse_args(argv)
    selected = [options.workload] if options.workload else names
    if options.selfcheck:
        # A set is the median of a few invocations on consecutive seeds, as
        # the driver's is: one invocation alone strays further than a bound.
        first, second = (
            report.median_of(
                [
                    measure(spec, selected, options.seed + run, options.scale, options.seconds, 0)
                    for run in range(SELFCHECK_RUNS)
                ]
            )
            for _ in range(2)
        )
        problems = report.disagreements(first, second, spec)
        for problem in problems:
            print(f"DISAGREE {problem}")
        print(f"selfcheck: {len(problems)} disagreement(s) between two sets of the same code")
        return 1 if problems else 0
    invocation = measure(
        spec, selected, options.seed, options.scale, options.seconds, options.trace
    )
    if options.workload:
        print(report.contract_line(invocation["workloads"][options.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
