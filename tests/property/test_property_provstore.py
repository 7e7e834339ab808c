"""Property tests: forward and backward ledger queries are mutual inverses.

A random provenance DAG is a mapping from sink ids to non-empty subsets of a
source-id universe.  Ingesting its unfolded form -- in any interleaving,
with duplicated pairs sprinkled in -- must yield a ledger on which

    t in sources_of(s)  <=>  s in derived_from(t)

for every sink ``s`` and source ``t``, with every shared source stored once
and every mapping delivered to a subscriber exactly once.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.provstore import ProvenanceLedger
from tests.unit.test_provstore import unfolded

#: sink id -> set of contributing source indexes, over a small universe.
provenance_dags = st.dictionaries(
    keys=st.integers(0, 30),
    values=st.sets(st.integers(0, 20), min_size=1, max_size=6),
    min_size=1,
    max_size=12,
)


def ingest_dag(dag, ledger, duplicate_every=None):
    """Ingest the DAG's unfolded tuples (one per sink/source pair)."""
    pairs = [
        (sink, source) for sink, sources in sorted(dag.items()) for source in sorted(sources)
    ]
    for index, (sink, source) in enumerate(pairs):
        tup = unfolded(
            f"s:{sink}",
            float(sink),
            {"sink_no": sink},
            f"a:{source}",
            float(source) / 10.0,
            {"source_no": source},
        )
        ledger.ingest(tup)
        if duplicate_every and index % duplicate_every == 0:
            ledger.ingest(tup.copy())
    return len(pairs)


@settings(max_examples=60, deadline=None)
@given(dag=provenance_dags, shuffle_seed=st.integers(0, 2**16))
def test_forward_and_backward_queries_are_mutual_inverses(dag, shuffle_seed):
    import random

    ledger = ProvenanceLedger(retention=0.0)
    pairs = [
        (sink, source) for sink, sources in sorted(dag.items()) for source in sorted(sources)
    ]
    random.Random(shuffle_seed).shuffle(pairs)
    for sink, source in pairs:
        ledger.ingest(
            unfolded(
                f"s:{sink}",
                float(sink),
                {"sink_no": sink},
                f"a:{source}",
                float(source) / 10.0,
                {"source_no": source},
            )
        )
    ledger.flush()
    all_sources = {f"a:{source}" for sources in dag.values() for source in sources}
    # backward -> forward: every source of s names s among its derivations.
    for mapping in ledger.mappings():
        assert set(mapping.source_keys) == {
            f"a:{source}" for source in dag[int(mapping.sink_key.split(":")[1])]
        }
        for entry in ledger.sources_of(mapping.sink_key):
            derived = {m.sink_key for m in ledger.derived_from(entry.key)}
            assert mapping.sink_key in derived
    # forward -> backward: every derivation of t names t among its sources.
    for source_key in all_sources:
        for mapping in ledger.derived_from(source_key):
            assert source_key in {s.key for s in ledger.sources_of(mapping.sink_key)}
    # the universe is covered exactly: no phantom sources or mappings.
    assert {entry.key for entry in ledger.source_entries()} == all_sources
    assert ledger.sealed_count == len(dag)


@settings(max_examples=40, deadline=None)
@given(dag=provenance_dags)
def test_shared_sources_stored_once_and_delivered_exactly_once(dag):
    ledger = ProvenanceLedger(retention=0.0)
    delivered = []
    ledger.subscribe(callback=delivered.append)
    pair_count = ingest_dag(dag, ledger, duplicate_every=3)
    ledger.flush()
    ledger.flush()  # idempotent: nothing re-seals, nothing re-delivers
    distinct_sources = {source for sources in dag.values() for source in sources}
    assert ledger.source_count == len(distinct_sources)
    assert ledger.source_references == pair_count
    assert sorted(m.sink_key for m in delivered) == sorted(
        f"s:{sink}" for sink in dag
    )


# -- batch granularity is unobservable ----------------------------------------
#
# Every consumer of the unfolded stream works per batch; however the stream
# is cut into batches, the outcome must be the one tuple-at-a-time delivery
# gives.  The generated streams exercise what the batch paths short-cut:
# interleaved sinks (the repeated-sink-id reuse must re-resolve), repeated
# (sink, source) pairs, id-less sinks and origins (content addresses), late
# tuples after a seal, REMOTE origins and two taps with their own watermarks.

unfolded_specs = st.tuples(
    st.one_of(st.none(), st.integers(0, 5)),  # sink number (None = id-less)
    st.integers(0, 3),  # sink ts
    st.one_of(st.none(), st.integers(0, 6)),  # source number (None = id-less)
    st.sampled_from(["SOURCE", "REMOTE"]),
)
stream_events = st.lists(
    st.one_of(
        st.tuples(st.just("t"), unfolded_specs),
        st.tuples(st.just("w"), st.tuples(st.integers(0, 1), st.integers(0, 6))),
    ),
    min_size=1,
    max_size=40,
)


def build_unfolded(spec):
    sink, sink_ts, source, kind = spec
    return unfolded(
        None if sink is None else f"s:{sink}",
        float(sink_ts),
        {"sink_no": sink, "level": sink_ts},
        None if source is None else f"a:{source}",
        0.5 if source is None else float(source) / 10.0,
        {"source_no": source, "payload": kind},
        origin_type=kind,
    )


def batches_of(events, cuts):
    """``events`` with each run of tuples cut into batches at ``cuts``.

    Yields ``("t", [tuples])`` / ``("w", (tap, watermark))``; ``cuts`` is
    consumed one boolean per tuple (True = end the batch after it).
    """
    cuts = iter(cuts or ())
    batch = []
    for kind, body in events:
        if kind == "t":
            batch.append(build_unfolded(body))
            if next(cuts, False):
                yield "t", batch
                batch = []
        else:
            if batch:
                yield "t", batch
                batch = []
            yield kind, body
    if batch:
        yield "t", batch


def ledger_outcome(events, cuts):
    """Feed ``events`` through a two-tap ledger; everything observable of it."""
    ledger = ProvenanceLedger(retention=1.0)
    taps = [ledger.register_tap(), ledger.register_tap()]
    called_back = []
    ledger.subscribe(callback=lambda mapping: called_back.append(mapping.sink_key))
    buffered = ledger.subscribe()
    for kind, body in batches_of(events, cuts):
        if kind == "t":
            if cuts is None:
                for tup in body:
                    ledger.ingest(tup)
            else:
                ledger.ingest_batch(body)
        else:
            ledger.advance_watermark(float(body[1]), tap=taps[body[0]])
    pending = {key: ledger.mapping_for(key) for key in ledger._pending}
    ledger.close_tap(taps[0])
    ledger.close_tap(taps[1])
    return {
        "pending_before_close": pending,
        "mappings": ledger.mappings(),
        "sources": ledger.source_entries(),
        "derived": {
            entry.key: [m.sink_key for m in ledger.derived_from(entry.key)]
            for entry in ledger.source_entries()
        },
        "counters": (
            ledger.ingested_tuples,
            ledger.duplicate_tuples,
            ledger.late_tuples,
            ledger.source_references,
            ledger.sealed_count,
            ledger.source_count,
        ),
        "called_back": called_back,
        "drained": [m.sink_key for m in buffered.drain()],
    }


@settings(max_examples=150, deadline=None)
@given(events=stream_events, cuts=st.lists(st.booleans(), max_size=40))
def test_any_batch_split_equals_tuple_at_a_time_ingest(events, cuts):
    reference = ledger_outcome(events, None)
    assert ledger_outcome(events, cuts) == reference
    assert ledger_outcome(events, []) == reference  # the longest batches possible
    assert reference["called_back"] == reference["drained"]
    assert reference["counters"][0] == sum(1 for kind, _ in events if kind == "t")


def collector_outcome(events, cuts):
    from repro.core.provenance import ProvenanceCollector

    collector = ProvenanceCollector()
    for kind, body in batches_of(events, cuts):
        if kind != "t":
            collector.on_watermark(float(body[1]))
        elif cuts is None:
            for tup in body:
                collector.add(tup)
        else:
            collector.on_batch(body)
    collector.on_close()
    for record in collector.records():
        assert type(record.sources) is list
        assert all(type(source) is dict for source in record.sources)
    return collector.unfolded_tuples, [
        (record.sink_ts, record.sink_id, record.sink_values, record.sources)
        for record in collector.records()
    ]


@settings(max_examples=100, deadline=None)
@given(events=stream_events, cuts=st.lists(st.booleans(), max_size=40))
def test_any_batch_split_equals_tuple_at_a_time_collection(events, cuts):
    assert collector_outcome(events, cuts) == collector_outcome(events, None)

