"""GeneaLog: the paper's contribution.

This package implements:

* the fixed-size per-tuple metadata (:mod:`repro.core.meta`,
  :mod:`repro.core.types`),
* the instrumented-operator hooks that set it
  (:mod:`repro.core.instrumentation`),
* the contribution-graph traversal of Listing 1
  (:mod:`repro.core.traversal`),
* the single-stream unfolder SU of section 5 (:mod:`repro.core.unfolder`),
* the multi-stream unfolder MU of section 6
  (:mod:`repro.core.multi_unfolder`),
* the Ariadne-style baseline used for comparison
  (:mod:`repro.core.baseline`),
* and the capture API the ``Pipeline`` builder splices in: the technique
  selector, its managers and the record collector
  (:mod:`repro.core.provenance`).
"""

from repro.core.types import TupleType
from repro.core.meta import GeneaLogMeta
from repro.core.instrumentation import GeneaLogProvenance
from repro.core.baseline import AriadneBaselineProvenance
from repro.core.traversal import find_provenance, contribution_graph
from repro.core.unfolder import SUOperator, make_unfolded_values
from repro.core.multi_unfolder import MUOperator
from repro.core.provenance import (
    ProvenanceMode,
    ProvenanceRecord,
    create_manager,
)

__all__ = [
    "TupleType",
    "GeneaLogMeta",
    "GeneaLogProvenance",
    "AriadneBaselineProvenance",
    "find_provenance",
    "contribution_graph",
    "SUOperator",
    "MUOperator",
    "make_unfolded_values",
    "ProvenanceMode",
    "ProvenanceRecord",
    "create_manager",
]
