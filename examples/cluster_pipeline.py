#!/usr/bin/env python3
"""Cluster execution: Q1 on worker daemons connected over TCP.

The same three-instance deployment as ``distributed_edge_deployment.py``,
but the SPE instances now run inside **cluster worker daemons** reachable
over TCP instead of sharing the coordinator's process: each lowered
instance is serialised (closures and all), shipped to its worker, and the
inter-instance channels cross real sockets as length-prefixed frames
carrying the same serialised payloads.  Sink streams, latencies and
counters ship back when the run reaches quiescence, so the result object
is indistinguishable from a local run -- the paper's determinism property
(section 2) made observable: the outputs do not change when the deployment
moves onto a network.

By default the example spawns its workers in-process on loopback ports.
Point ``--hosts`` at running daemons (comma-separated ``host:port``) to
spread the instances over real machines; start each daemon with::

    python -m repro.spe.cluster --serve 0.0.0.0:7700

Run with::

    python examples/cluster_pipeline.py [--cars 30] [--minutes 45]
    python examples/cluster_pipeline.py --hosts hostA:7700,hostB:7700
"""

import argparse

from repro.api import Pipeline
from repro.workloads.linear_road import LinearRoadConfig, LinearRoadGenerator
from repro.workloads.queries import query_dataflow, query_placement


def analysis_pipelines():
    """The pipelines this example runs, for ``python -m repro.analysis``."""
    config = LinearRoadConfig(n_cars=5, duration_s=300.0, seed=11)
    return [
        (
            "q1-cluster",
            Pipeline(
                query_dataflow("q1", LinearRoadGenerator(config).tuples),
                provenance="GL",
                placement=query_placement("q1"),
                execution="cluster",
            ),
        )
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cars", type=int, default=30, help="number of cars")
    parser.add_argument("--minutes", type=int, default=45, help="simulated minutes")
    parser.add_argument(
        "--technique",
        choices=["GL", "BL", "NP"],
        default="GL",
        help="provenance technique (GeneaLog, baseline, or none)",
    )
    parser.add_argument(
        "--hosts",
        default=None,
        help="comma-separated worker daemon addresses (host:port); "
        "default spawns in-process workers on loopback ports",
    )
    args = parser.parse_args()

    hosts = args.hosts.split(",") if args.hosts else None
    config = LinearRoadConfig(
        n_cars=args.cars,
        duration_s=args.minutes * 60.0,
        breakdown_probability=0.03,
        accident_probability=0.4,
        seed=11,
    )
    pipeline = Pipeline(
        query_dataflow("q1", LinearRoadGenerator(config).tuples),
        provenance=args.technique,
        placement=query_placement("q1"),
        execution="cluster",
        hosts=hosts,
    )
    result = pipeline.run()

    where = args.hosts if args.hosts else "in-process loopback workers"
    print(f"Cluster run on {where}:")
    for instance in result.instances:
        print(f"  {instance.name}: {', '.join(op.name for op in instance.operators)}")

    print("\nExecution summary:")
    print(f"  source tuples processed : {result.source.tuples_out}")
    print(f"  alerts produced         : {result.sink.count}")
    print(f"  tuples over the sockets : {result.tuples_transferred()}")
    print(f"  bytes over the sockets  : {result.bytes_transferred()}")
    print(f"  operator wake-ups       : {result.wakeups}")

    if result.collectors:
        records = result.provenance_records()
        print(f"\nProvenance records shipped back: {len(records)}")
        for record in records[:3]:
            sources = ", ".join(
                f"{entry['car_id']}@{entry['ts_o']:.0f}s" for entry in record.sources
            )
            print(f"  alert@{record.sink_ts:.0f}s <- {sources}")


if __name__ == "__main__":
    main()
