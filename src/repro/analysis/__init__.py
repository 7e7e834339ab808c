"""Static plan analysis: verify a dataflow without executing it.

The analyzer runs over the *deferred* plan description (the
:class:`~repro.api.dataflow.Dataflow` node/edge graph plus the deployment
context a :class:`~repro.api.pipeline.Pipeline` would run it under) and
emits structured diagnostics in three rule families:

* **graph/dataflow** -- cycles, unreachable stages, dead ends, arity
  violations, ordering requirements, provenance capture shape and
  retention bounds, and placements that do not fit the plan or cut it into
  a cyclic instance graph;
* **schema** -- tuple field sets propagated from ``source(schema=...)``
  declarations through every stage, flagging reads of fields no upstream
  can produce;
* **concurrency/determinism** -- AST inspection of user functions destined
  for parallel shards or by-value shipping, flagging captured-state
  mutation and clock/entropy reads.

Entry points: :meth:`repro.api.Pipeline.analyze`, the build gate (every
``Pipeline.build()`` refuses a plan with an error diagnostic;
``validate="strict"|"warn"|"off"`` raises, warns or drops the warnings),
and the CLI (``python -m repro.analysis``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.provenance import ProvenanceMode

from .funcinfo import FunctionFacts, function_facts
from .model import PlanModel
from .report import (
    AnalysisReport,
    Diagnostic,
    PlanAnalysisError,
    PlanAnalysisWarning,
)
from .rules import ALL_RULES, Rule, analyze_model, rule_catalog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.dataflow import Dataflow

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "Diagnostic",
    "FunctionFacts",
    "PlanAnalysisError",
    "PlanAnalysisWarning",
    "PlanModel",
    "Rule",
    "analyze_model",
    "analyze_plan",
    "function_facts",
    "rule_catalog",
]


def analyze_plan(
    dataflow: "Dataflow",
    *,
    placement: Optional[object] = None,
    mode: ProvenanceMode = ProvenanceMode.NONE,
    execution: str = "event",
    retention: Optional[float] = None,
    store: Optional[object] = None,
) -> AnalysisReport:
    """Statically analyze ``dataflow`` under the given deployment context.

    Never executes (or lowers) the plan and never raises: analyzer-internal
    failures degrade to ``analysis.rule-error`` warnings in the report.
    """
    try:
        model = PlanModel.from_dataflow(
            dataflow,
            placement=placement,
            mode=mode,
            execution=execution,
            retention=retention,
            store=store,
        )
    except Exception as exc:
        report = AnalysisReport(plan=getattr(dataflow, "name", "<plan>"))
        report.diagnostics.append(
            Diagnostic(
                rule="analysis.rule-error",
                severity="warning",
                message=f"could not build the plan model: {exc!r}",
                hint="report this; the plan itself may still be valid",
            )
        )
        return report
    return analyze_model(model)
