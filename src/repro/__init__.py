"""Reproduction of *GeneaLog: Fine-Grained Data Streaming Provenance at the Edge*.

The package is organised in four main layers:

* :mod:`repro.api` -- the primary user-facing surface: a fluent dataflow DSL
  and the ``Pipeline`` facade that handles provenance splicing, scheduling
  and distributed placement in one call.
* :mod:`repro.spe` -- a lightweight, deterministic stream processing engine
  (the substrate the paper runs on, in the spirit of the Liebre SPE).
* :mod:`repro.core` -- the paper's contribution: GeneaLog's fixed-size
  provenance metadata, instrumented operators, contribution-graph traversal,
  the SU/MU unfolder operators, and the Ariadne-style baseline.
* :mod:`repro.workloads` -- synthetic Linear Road and Smart Grid workloads and
  the four evaluation queries (Q1-Q4).

The paper's figures are measured by the repository's ``perfbench/``
benchmark, not by this package.
"""

from repro.api import Dataflow, Pipeline, PipelineResult, Placement
from repro.spe.tuples import StreamTuple
from repro.spe.query import Query
from repro.spe.scheduler import Scheduler
from repro.core.provenance import ProvenanceMode
from repro.core.traversal import find_provenance

__all__ = [
    "Dataflow",
    "Pipeline",
    "PipelineResult",
    "Placement",
    "StreamTuple",
    "Query",
    "Scheduler",
    "ProvenanceMode",
    "find_provenance",
    "__version__",
]

__version__ = "0.1.0"
