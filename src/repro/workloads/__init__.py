"""Synthetic workloads and the four evaluation queries of the paper.

* :mod:`repro.workloads.linear_road` -- vehicular position reports (the role
  of the Linear Road benchmark data in the paper),
* :mod:`repro.workloads.smart_grid` -- hourly smart-meter consumption reports
  (the role of the real smart-grid traces),
* :mod:`repro.workloads.queries` -- Q1 (broken-down cars), Q2 (accidents),
  Q3 (long-term blackout) and Q4 (meter anomaly) as dataflows, their
  three-instance placements, and :func:`~repro.workloads.queries.query_pipeline`,
  which deploys a query single-process or distributed.
"""

from repro.workloads.linear_road import LinearRoadConfig, LinearRoadGenerator
from repro.workloads.smart_grid import SmartGridConfig, SmartGridGenerator
from repro.workloads.queries import (
    QUERY_DATAFLOWS,
    QUERY_PLACEMENTS,
    query_dataflow,
    query_pipeline,
    query_placement,
)

__all__ = [
    "LinearRoadConfig",
    "LinearRoadGenerator",
    "SmartGridConfig",
    "SmartGridGenerator",
    "QUERY_DATAFLOWS",
    "QUERY_PLACEMENTS",
    "query_dataflow",
    "query_pipeline",
    "query_placement",
]
