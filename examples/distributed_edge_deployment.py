#!/usr/bin/env python3
"""Distributed (edge) deployment: Q1 across three SPE instances.

Reproduces the deployment of Figure 7: the broken-down-car query runs on two
"processing" SPE instances while a third instance is dedicated to provenance.
The whole deployment is one ``Pipeline`` call: the query is written once as a
fluent dataflow, a ``Placement`` maps its stages onto the SPE instances, and
the pipeline inserts the Send/Receive pairs at the process boundaries and
splices in GeneaLog's inter-process machinery (SU operators unfolding the
delivering streams, unique IDs and the REMOTE tuple type crossing the
channels, the MU operator on the provenance node -- section 6 of the paper).

Run with::

    python examples/distributed_edge_deployment.py [--cars 30] [--minutes 45]
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
            "q1-distributed",
            Pipeline(
                query_dataflow("q1", LinearRoadGenerator(config).tuples),
                provenance="GL",
                placement=query_placement("q1"),
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
    args = parser.parse_args()

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
    )
    result = pipeline.build()

    print("Deployment:")
    for instance in result.instances:
        roles = []
        if instance.is_source_instance:
            roles.append("source instance")
        if instance.is_sink_instance:
            roles.append("sink instance")
        if instance.is_intermediate_instance:
            roles.append("intermediate instance")
        operator_names = ", ".join(op.name for op in instance.operators)
        print(f"  {instance.name} ({', '.join(roles)}): {operator_names}")

    pipeline.run()

    print("\nExecution summary:")
    print(f"  source tuples processed : {result.source.tuples_out}")
    print(f"  alerts produced         : {result.sink.count}")
    print(f"  tuples over the network : {result.tuples_transferred()}")
    print(f"  bytes over the network  : {result.bytes_transferred()}")
    for instance in result.instances:
        print(f"  ordering value of {instance.name}: {instance.ordering_value}")

    if result.collectors:
        records = result.provenance_records()
        print(f"\nProvenance records collected at the provenance node: {len(records)}")
        for record in records[:3]:
            sources = ", ".join(
                f"{entry['car_id']}@{entry['ts_o']:.0f}s" for entry in record.sources
            )
            print(
                f"  alert car={record.sink_values['car_id']} t={record.sink_ts:.0f}s"
                f" <- {sources}"
            )
        if len(records) > 3:
            print(f"  ... and {len(records) - 3} more")
        times = result.traversal_times_by_instance()
        for name, samples in sorted(times.items()):
            mean_us = 1e6 * sum(samples) / len(samples)
            print(f"  traversal on {name}: {mean_us:.1f} us per tuple ({len(samples)} traversals)")


if __name__ == "__main__":
    main()
