"""Traversal of the contribution graph (Listing 1 of the paper).

Given a tuple whose metadata was set by GeneaLog's instrumented operators,
:func:`find_provenance` walks the graph of ``U1``/``U2``/``N`` references
breadth-first and returns the tuple's *originating tuples* (Definition 4.1):
the contributing tuples of type ``SOURCE`` (or ``REMOTE`` when part of the
derivation happened in another SPE instance).

Every function here is **read-only**: a tuple without a metadata block is a
SOURCE leaf (see :mod:`repro.core.meta`) and a tuple without an ``N`` link
ends its window chain; nothing is written to a visited tuple.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.meta import GeneaLogMeta
from repro.core.types import TupleType
from repro.spe.tuples import StreamTuple

#: module-level member aliases: the BFS below runs once per unfolded tuple
#: and identity checks beat the str-enum ``==`` of ``in (...)`` membership.
_SOURCE = TupleType.SOURCE
_REMOTE = TupleType.REMOTE
_MAP = TupleType.MAP
_MULTIPLEX = TupleType.MULTIPLEX
_JOIN = TupleType.JOIN
_AGGREGATE = TupleType.AGGREGATE


def find_provenance(root: StreamTuple) -> List[StreamTuple]:
    """Return the originating tuples of ``root`` (Definition 4.1).

    This is a direct implementation of the ``findProvenance`` breadth-first
    search of Listing 1: SOURCE and REMOTE tuples are results, MAP and
    MULTIPLEX tuples contribute their single ``U1`` parent, JOIN tuples their
    ``U1``/``U2`` pair, and AGGREGATE tuples the whole window reached by
    following ``N`` from ``U2`` up to ``U1``.
    """
    result: List[StreamTuple] = []
    visited: Set[int] = {id(root)}
    queue: Deque[StreamTuple] = deque([root])
    pop = queue.popleft
    push = queue.append
    seen = visited.add
    found = result.append
    while queue:
        tup = pop()
        meta: Optional[GeneaLogMeta] = tup.meta
        if meta is None:
            found(tup)
            continue
        tuple_type = meta.type
        if tuple_type is _SOURCE or tuple_type is _REMOTE:
            found(tup)
        elif tuple_type is _MAP or tuple_type is _MULTIPLEX:
            u1 = meta.u1
            if u1 is not None and id(u1) not in visited:
                seen(id(u1))
                push(u1)
        elif tuple_type is _JOIN:
            u1 = meta.u1
            if u1 is not None and id(u1) not in visited:
                seen(id(u1))
                push(u1)
            u2 = meta.u2
            if u2 is not None and id(u2) not in visited:
                seen(id(u2))
                push(u2)
        elif tuple_type is _AGGREGATE:
            # Walk the window from ``U2`` to ``U1`` inclusive.  Testing for
            # ``U1`` *before* following ``N`` keeps a single-tuple window
            # (``U2 is U1``) from running into the next window's chain, and
            # a bare tuple (no block, hence no ``N``) ends the walk.
            u1 = meta.u1
            current = meta.u2
            while current is not None:
                if id(current) not in visited:
                    seen(id(current))
                    push(current)
                if current is u1:
                    break
                link: Optional[GeneaLogMeta] = current.meta
                current = link.n if link is not None else None
            if u1 is not None and id(u1) not in visited:
                seen(id(u1))
                push(u1)
        else:  # pragma: no cover - defensive, every enum member handled above
            raise ValueError(f"unknown tuple type {tuple_type!r}")
    return result


def contribution_graph(
    root: StreamTuple,
) -> List[Tuple[StreamTuple, StreamTuple]]:
    """Return the edges ``(child, contributing_parent)`` of the contribution graph.

    Unlike :func:`find_provenance`, this helper returns the *whole* graph
    (including intermediate tuples); it is used by tests and debugging tools,
    not by the provenance capture pipeline.
    """
    edges: List[Tuple[StreamTuple, StreamTuple]] = []
    visited: Set[int] = {id(root)}
    queue: Deque[StreamTuple] = deque([root])
    while queue:
        tup = queue.popleft()
        for parent in direct_contributors(tup):
            edges.append((tup, parent))
            if id(parent) not in visited:
                visited.add(id(parent))
                queue.append(parent)
    return edges


def direct_contributors(tup: StreamTuple) -> List[StreamTuple]:
    """The input tuples that directly contribute to ``tup`` (Definition 3.1)."""
    meta: Optional[GeneaLogMeta] = tup.meta
    if meta is None:
        return []
    tuple_type = meta.type
    if tuple_type in (TupleType.SOURCE, TupleType.REMOTE):
        return []
    if tuple_type in (TupleType.MAP, TupleType.MULTIPLEX):
        return [meta.u1] if meta.u1 is not None else []
    if tuple_type is TupleType.JOIN:
        return [parent for parent in (meta.u1, meta.u2) if parent is not None]
    if tuple_type is TupleType.AGGREGATE:
        return window_of(tup)
    raise ValueError(f"unknown tuple type {tuple_type!r}")  # pragma: no cover


def window_of(aggregate_tuple: StreamTuple) -> List[StreamTuple]:
    """The window of input tuples that produced an AGGREGATE-typed tuple.

    The window is reconstructed by starting at ``U2`` (the earliest tuple)
    and following ``N`` links until ``U1`` (the latest tuple, inclusive).
    """
    meta: Optional[GeneaLogMeta] = aggregate_tuple.meta
    if meta is None or meta.type is not TupleType.AGGREGATE:
        raise ValueError("window_of expects an AGGREGATE-typed tuple")
    window: List[StreamTuple] = []
    seen: Set[int] = set()
    current = meta.u2
    while current is not None and id(current) not in seen:
        window.append(current)
        seen.add(id(current))
        if current is meta.u1:
            break
        link: Optional[GeneaLogMeta] = current.meta
        current = link.n if link is not None else None  # bare: end of chain
    if meta.u1 is not None and id(meta.u1) not in seen:
        window.append(meta.u1)
    return window


def provenance_depth(root: StreamTuple) -> int:
    """Length of the longest derivation chain from ``root`` to a leaf tuple."""
    depths: Dict[int, int] = {}

    def depth(tup: StreamTuple) -> int:
        key = id(tup)
        if key in depths:
            return depths[key]
        contributors = direct_contributors(tup)
        value = 0 if not contributors else 1 + max(depth(parent) for parent in contributors)
        depths[key] = value
        return value

    return depth(root)
