"""The fluent user-facing API: dataflow DSL + ``Pipeline`` facade.

This package is the primary surface for building and running queries::

    from repro.api import Dataflow, Pipeline

    df = Dataflow("my_query")
    df.source("reports", supplier).filter(lambda t: t["speed"] == 0).sink("alerts")
    result = Pipeline(df, provenance="genealog").run()
    print(result.sink.received, result.provenance_records())

It lowers onto the imperative :class:`~repro.spe.query.Query`/``Operator``
layer, which remains fully supported for custom operators and tests.
"""

from repro.analysis import (
    AnalysisReport,
    Diagnostic,
    PlanAnalysisError,
    PlanAnalysisWarning,
    analyze_plan,
)
from repro.api.dataflow import Dataflow, DataflowError, ParallelStage, StreamBuilder
from repro.api.pipeline import (
    PROVENANCE_INSTANCE,
    Pipeline,
    PipelineResult,
    Placement,
)
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.provstore import (
    JsonlLedgerBackend,
    MemoryLedgerBackend,
    ProvenanceLedger,
    open_provenance_store,
)

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "PlanAnalysisError",
    "PlanAnalysisWarning",
    "analyze_plan",
    "Dataflow",
    "DataflowError",
    "ParallelStage",
    "StreamBuilder",
    "Pipeline",
    "PipelineResult",
    "Placement",
    "PROVENANCE_INSTANCE",
    "Telemetry",
    "TelemetryConfig",
    "JsonlLedgerBackend",
    "MemoryLedgerBackend",
    "ProvenanceLedger",
    "open_provenance_store",
]
