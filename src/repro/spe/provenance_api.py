"""Interface between the SPE operators and a provenance technique.

The SPE substrate itself is provenance-agnostic: every operator calls into a
:class:`ProvenanceManager` whenever it creates, forwards or serialises a
tuple.  The default manager (:class:`NoProvenance`) does nothing, which is the
"NP" configuration of the paper's evaluation.  GeneaLog
(:class:`repro.core.instrumentation.GeneaLogProvenance`) and the Ariadne-style
baseline (:class:`repro.core.baseline.AriadneBaselineProvenance`) implement
the same interface, which is how the evaluation switches between NP, GL and BL
without touching the queries.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.spe.tuples import StreamTuple


class ProvenanceManager:
    """Hooks invoked by instrumented operators.

    Every hook is a no-op in the base class, which therefore doubles as the
    "no provenance" (NP) configuration.
    """

    #: short identifier used in reports ("NP", "GL", "BL").
    name = "NP"

    #: True when every creation hook is a no-op (the NP configuration).
    #: Hot operator loops consult this once per batch to skip the per-tuple
    #: hook calls entirely; instrumenting managers must leave it False.
    is_noop = False

    # -- tuple creation hooks (section 4.1 of the paper) -------------------
    def on_source_output(self, tup: StreamTuple) -> None:
        """A Source created ``tup`` (the per-tuple primitive)."""

    def on_source_batch(self, batch: Sequence[StreamTuple]) -> None:
        """A Source created every tuple of ``batch``.

        This is what :class:`~repro.spe.operators.source.SourceOperator`
        calls, once per batch.  The default maps :meth:`on_source_output`
        over the batch; techniques whose source hook does nothing (NP, and
        GeneaLog, for which absent meta already is ``T = SOURCE``) override
        it with an empty body, so their sources pay one call per batch.
        """
        on_source_output = self.on_source_output
        for tup in batch:
            on_source_output(tup)

    def on_map_output(self, out_tuple: StreamTuple, in_tuple: StreamTuple) -> None:
        """A Map created ``out_tuple`` while processing ``in_tuple``."""

    def on_multiplex_output(self, out_tuple: StreamTuple, in_tuple: StreamTuple) -> None:
        """A Multiplex created copy ``out_tuple`` of ``in_tuple``."""

    def on_join_output(
        self, out_tuple: StreamTuple, newer: StreamTuple, older: StreamTuple
    ) -> None:
        """A Join created ``out_tuple`` from the pair ``(newer, older)``."""

    def on_aggregate_output(
        self,
        out_tuple: StreamTuple,
        window: Sequence[StreamTuple],
        contributors: Optional[Sequence[StreamTuple]] = None,
    ) -> None:
        """An Aggregate created ``out_tuple`` from ``window`` (earliest first).

        ``contributors`` is the optional subset of the window that actually
        determined the output (e.g. the single maximum tuple of a ``max``
        aggregate).  It enables the window-provenance optimisation sketched
        in the paper's future work (section 9, item i); when omitted, every
        window tuple is considered contributing, as in Definition 3.1.
        """

    # -- process boundary hooks (section 6 of the paper) --------------------
    def on_send(self, tup: StreamTuple) -> Dict[str, Any]:
        """A Send operator is about to serialise ``tup``.

        Returns a JSON-like dictionary of provenance fields that must survive
        the process boundary (GeneaLog: the tuple type and unique id; the
        baseline: the annotation list).
        """
        return {}

    def on_receive(self, tup: StreamTuple, payload: Dict[str, Any]) -> None:
        """A Receive operator reconstructed ``tup``; ``payload`` is what
        :meth:`on_send` returned on the producing side."""

    # -- provenance retrieval ------------------------------------------------
    def tuple_id(self, tup: StreamTuple) -> Any:
        """Unique id of ``tup`` if the technique assigns one, else ``None``."""
        return None

    def derived_here(self, tup: StreamTuple) -> bool:
        """Whether ``tup`` was derived on this instance (a boundary SU unfolds it).

        The default keeps every tuple; GeneaLog narrows it to the tuples
        that cross a process boundary under an id minted here.
        """
        return True

    def unfold(self, tup: StreamTuple) -> List[StreamTuple]:
        """Return the originating tuples of ``tup`` (Definition 4.1).

        The NP manager has no provenance information and returns an empty
        list.
        """
        return []

    # -- accounting ----------------------------------------------------------
    def retained_items(self) -> int:
        """Number of tuples the technique itself retains (e.g. BL's store)."""
        return 0

    def retained_bytes(self) -> int:
        """Approximate bytes retained by the technique itself."""
        return 0


class NoProvenance(ProvenanceManager):
    """Explicit alias for the no-op manager (the NP configuration)."""

    name = "NP"
    is_noop = True

    def on_source_batch(self, batch: Sequence[StreamTuple]) -> None:
        """Nothing to do."""
