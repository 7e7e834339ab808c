"""Structured diagnostics emitted by the static plan analyzer.

A :class:`Diagnostic` names the rule that fired, its severity, the offending
operators and a fix hint; an :class:`AnalysisReport` aggregates the
diagnostics of one plan and knows how to render itself as text or a JSON
document (the CLI's ``--json`` export and the CI artifact share the same
shape).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.spe.errors import QueryValidationError

#: diagnostic severities, most severe first.
SEVERITIES: Tuple[str, ...] = ("error", "warning", "info")


class PlanAnalysisWarning(UserWarning):
    """Emitted (once per diagnostic) by ``Pipeline.build()`` under ``validate="warn"``."""


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer."""

    #: stable rule identifier, e.g. ``"graph.cycle"``.
    rule: str
    #: ``"error"`` blocks every build, ``"warning"`` blocks strict ones.
    severity: str
    #: human-readable description of the violation.
    message: str
    #: names of the offending dataflow stages, most specific first.
    operators: Tuple[str, ...] = ()
    #: how to fix the plan.
    hint: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def to_document(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "operators": list(self.operators),
            "hint": self.hint,
        }

    def __str__(self) -> str:
        where = f" [{', '.join(self.operators)}]" if self.operators else ""
        hint = f" (hint: {self.hint})" if self.hint else ""
        return f"{self.severity}: {self.rule}{where}: {self.message}{hint}"


@dataclass
class AnalysisReport:
    """Every diagnostic the analyzer produced for one plan."""

    #: the analyzed plan's name (the Dataflow name).
    plan: str
    #: all diagnostics, in rule-registry order.
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: context the plan was analyzed under (mode/deployment/execution/...).
    context: Dict[str, object] = field(default_factory=dict)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic fired."""
        return not self.errors

    def by_rule(self, rule: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule]

    def rule_ids(self) -> List[str]:
        seen: List[str] = []
        for diagnostic in self.diagnostics:
            if diagnostic.rule not in seen:
                seen.append(diagnostic.rule)
        return seen

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def to_document(self) -> Dict[str, object]:
        return {
            "plan": self.plan,
            "context": dict(self.context),
            "counts": {
                severity: sum(1 for d in self.diagnostics if d.severity == severity)
                for severity in SEVERITIES
            },
            "diagnostics": [d.to_document() for d in self.diagnostics],
        }

    def format_text(self) -> str:
        header = f"plan {self.plan!r}"
        details = ", ".join(
            f"{key}={value}" for key, value in self.context.items() if value is not None
        )
        if details:
            header += f" ({details})"
        if not self.diagnostics:
            return f"{header}: clean"
        lines = [f"{header}: {len(self.errors)} error(s), {len(self.warnings)} warning(s)"]
        lines.extend(f"  {diagnostic}" for diagnostic in self.diagnostics)
        return "\n".join(lines)

    def raise_for_errors(self, strict: bool = False) -> None:
        """Raise :class:`PlanAnalysisError` on errors (and warnings if ``strict``)."""
        if self.errors or (strict and self.warnings):
            raise PlanAnalysisError(self, strict)


class PlanAnalysisError(QueryValidationError):
    """Raised by ``Pipeline.build()`` on error diagnostics, and on warnings
    too under ``validate="strict"``."""

    def __init__(self, report: AnalysisReport, strict: bool = False) -> None:
        self.report = report
        blocking = report.errors + (report.warnings if strict else [])
        lines = [
            f"plan {report.plan!r} failed static analysis with "
            f"{len(report.errors)} error(s)"
            + (f" and {len(report.warnings)} warning(s) (strict)" if strict else "")
            + ":"
        ]
        lines.extend(f"  {diagnostic}" for diagnostic in blocking)
        super().__init__("\n".join(lines))


def merged_document(
    reports: Iterable[Tuple[Mapping[str, object], AnalysisReport]],
) -> Dict[str, object]:
    """The CLI/CI JSON document: one entry per analyzed plan + a summary."""
    plans: List[Dict[str, object]] = []
    totals = {severity: 0 for severity in SEVERITIES}
    for extra, report in reports:
        entry = dict(extra)
        entry["report"] = report.to_document()
        plans.append(entry)
        for severity in SEVERITIES:
            totals[severity] += sum(
                1 for d in report.diagnostics if d.severity == severity
            )
    clean = sum(
        1
        for plan in plans
        if not plan["report"]["counts"]["error"]  # type: ignore[index]
    )
    return {
        "plans": plans,
        "summary": {"analyzed": len(plans), "clean": clean, **totals},
    }
