"""Every shipped plan must pass strict static analysis with zero diagnostics.

Sweeps the paper's queries across deployments/parallelism/provenance modes
and the pipelines declared by the example scripts, and exercises the CLI
(``python -m repro.analysis``) end to end.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis.cli import main as analysis_cli
from repro.core.provenance import ProvenanceMode
from repro.workloads.linear_road import LinearRoadConfig, LinearRoadGenerator
from repro.workloads.queries import QUERY_NAMES, query_pipeline
from repro.workloads.smart_grid import SmartGridConfig, SmartGridGenerator

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES_DIR = REPO_ROOT / "examples"


def _supplier(query):
    if query in ("q1", "q2"):
        return LinearRoadGenerator(LinearRoadConfig(n_cars=5, duration_s=300.0, seed=1)).tuples
    return SmartGridGenerator(SmartGridConfig(n_meters=5, n_days=1, seed=1)).tuples


@pytest.mark.parametrize("query", QUERY_NAMES)
@pytest.mark.parametrize("deployment", ["intra", "inter"])
@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize(
    "mode", [ProvenanceMode.NONE, ProvenanceMode.GENEALOG, ProvenanceMode.BASELINE]
)
def test_shipped_query_plans_analyze_clean(query, deployment, parallelism, mode):
    pipeline = query_pipeline(
        query,
        _supplier(query),
        mode=mode,
        deployment=deployment,
        parallelism=parallelism,
    )
    report = pipeline.analyze()
    assert report.ok, report.format_text()
    assert not report.diagnostics, report.format_text()


@pytest.mark.parametrize(
    "example", sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))
)
def test_example_pipelines_analyze_clean(example):
    path = EXAMPLES_DIR / example
    spec = importlib.util.spec_from_file_location(f"_clean_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    hook = getattr(module, "analysis_pipelines", None)
    assert hook is not None, f"{example} declares no analysis_pipelines() hook"
    pipelines = hook()
    assert pipelines
    for label, pipeline in pipelines:
        report = pipeline.analyze()
        assert not report.diagnostics, f"{example}/{label}: {report.format_text()}"


class TestAnalysisCli:
    def test_sweep_is_clean_and_exports_json(self, tmp_path, capsys):
        out = tmp_path / "analysis.json"
        exit_code = analysis_cli(["--strict", "--json", str(out)])
        assert exit_code == 0
        document = json.loads(out.read_text())
        summary = document["summary"]
        assert summary["analyzed"] == summary["clean"]
        assert summary["error"] == 0
        assert any(p["target"] == "workload" for p in document["plans"])
        assert any(p["target"] == "example" for p in document["plans"])
        assert "clean" in capsys.readouterr().out

    def test_rules_listing(self, capsys):
        assert analysis_cli(["--rules"]) == 0
        out = capsys.readouterr().out
        assert "graph.cycle" in out
        assert "schema.unknown-field" in out
        assert "concurrency.captured-state-mutation" in out

    def test_workload_only_sweep(self, capsys):
        assert analysis_cli(["--no-examples"]) == 0
        out = capsys.readouterr().out
        assert "48 plan(s) analyzed" in out
