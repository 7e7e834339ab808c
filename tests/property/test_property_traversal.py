"""Property-based tests for the contribution-graph traversal.

Random derivation trees are built through the GeneaLog instrumentation hooks
while independently tracking which source tuples were used; the traversal of
Listing 1 must return exactly that set, for any shape of derivation.

A second family builds layered contribution *DAGs* (shared inputs, sliding
windows) twice -- leaves carrying an explicit ``T = SOURCE`` block, or no
block at all -- and checks that the two encodings are indistinguishable to
the traversal, which must also leave every visited tuple untouched.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instrumentation import GeneaLogProvenance
from repro.core.meta import GeneaLogMeta
from repro.core.traversal import (
    contribution_graph,
    direct_contributors,
    find_provenance,
    provenance_depth,
)
from repro.core.types import TupleType
from repro.spe.tuples import StreamTuple


def build_random_derivation(draw, manager, depth):
    """Recursively build a derived tuple; return (tuple, set of leaf ids)."""
    node_kind = draw(
        st.sampled_from(
            ["source"] if depth == 0
            else ["source", "map", "multiplex", "join", "aggregate"]
        )
    )
    if node_kind == "source":
        leaf = StreamTuple(ts=draw(st.integers(0, 1000)), values={"v": draw(st.integers())})
        manager.on_source_output(leaf)
        return leaf, {id(leaf)}

    if node_kind in ("map", "multiplex"):
        child, leaves = build_random_derivation(draw, manager, depth - 1)
        out = StreamTuple(ts=child.ts, values={"derived": True})
        if node_kind == "map":
            manager.on_map_output(out, child)
        else:
            manager.on_multiplex_output(out, child)
        return out, leaves

    if node_kind == "join":
        left, left_leaves = build_random_derivation(draw, manager, depth - 1)
        right, right_leaves = build_random_derivation(draw, manager, depth - 1)
        out = StreamTuple(ts=max(left.ts, right.ts), values={"joined": True})
        newer, older = (left, right) if left.ts >= right.ts else (right, left)
        manager.on_join_output(out, newer, older)
        return out, left_leaves | right_leaves

    # aggregate
    window_size = draw(st.integers(1, 4))
    window = []
    leaves = set()
    for _ in range(window_size):
        child, child_leaves = build_random_derivation(draw, manager, depth - 1)
        window.append(child)
        leaves |= child_leaves
    window.sort(key=lambda t: t.ts)
    out = StreamTuple(ts=window[0].ts, values={"aggregated": True})
    manager.on_aggregate_output(out, window)
    return out, leaves


@st.composite
def derivations(draw):
    manager = GeneaLogProvenance(node_id="prop")
    depth = draw(st.integers(0, 4))
    root, leaves = build_random_derivation(draw, manager, depth)
    return root, leaves


class TestTraversalProperties:
    @given(derivations())
    @settings(max_examples=150, deadline=None)
    def test_traversal_finds_exactly_the_contributing_sources(self, derivation):
        root, expected_leaf_ids = derivation
        found = find_provenance(root)
        assert {id(tup) for tup in found} == expected_leaf_ids

    @given(derivations())
    @settings(max_examples=100, deadline=None)
    def test_traversal_never_returns_duplicates(self, derivation):
        root, _ = derivation
        found = find_provenance(root)
        assert len(found) == len({id(tup) for tup in found})

    @given(derivations())
    @settings(max_examples=100, deadline=None)
    def test_traversal_is_idempotent(self, derivation):
        # Traversing twice (e.g. an SU before a Send and again at a Sink) must
        # not change the result: the traversal only reads the metadata.
        root, _ = derivation
        first = find_provenance(root)
        second = find_provenance(root)
        assert first == second

    @given(derivations())
    @settings(max_examples=100, deadline=None)
    def test_depth_is_zero_only_for_leaves(self, derivation):
        root, expected_leaf_ids = derivation
        depth = provenance_depth(root)
        if depth == 0:
            assert {id(root)} == expected_leaf_ids


# -- layered DAGs: explicit SOURCE leaves vs bare leaves -------------------------

#: one level of a DAG: the operator applied to the previous level's tuples,
#: taken in order, the way a real operator sees one input stream.
levels = st.one_of(
    st.just(("map",)),
    st.just(("multiplex",)),  # two copies per input: later levels share it
    st.just(("join",)),  # adjacent pairs: each input feeds two outputs
    st.tuples(st.just("aggregate"), st.integers(1, 4), st.integers(1, 3)),
)

dag_specs = st.tuples(st.integers(1, 6), st.lists(levels, min_size=1, max_size=4))


def build_dag(spec, explicit_leaves):
    """Materialise ``spec``.

    Returns ``(every tuple, the last level, origins)`` where ``origins`` maps
    ``id(tuple)`` to the set of leaf numbers it derives from, tracked while
    building and independently of the metadata.
    """
    n_leaves, level_specs = spec
    manager = GeneaLogProvenance(node_id="dag")
    current = [StreamTuple(ts=index, values={"leaf": index}) for index in range(n_leaves)]
    if explicit_leaves:
        for leaf in current:
            leaf.meta = GeneaLogMeta(TupleType.SOURCE)
    every = list(current)
    origins = {id(leaf): {number} for number, leaf in enumerate(current)}

    def derive(hook, *inputs):
        out = StreamTuple(ts=max(tup.ts for tup in inputs))
        hook(out, *inputs)
        origins[id(out)] = set().union(*(origins[id(tup)] for tup in inputs))
        return out

    for kind, *params in level_specs:
        if kind == "map":
            following = [derive(manager.on_map_output, tup) for tup in current]
        elif kind == "multiplex":
            following = [
                derive(manager.on_multiplex_output, tup) for tup in current for _ in range(2)
            ]
        elif kind == "join":
            following = [
                derive(manager.on_join_output, newer, older)
                for older, newer in zip(current, current[1:])
            ]
        else:
            # Sliding windows as an Aggregate flushes them: contiguous slices
            # of one stream, in order, partial at both ends -- so a window of
            # one tuple precedes the windows that N-chain that tuple.
            size, advance = params
            following = []
            for start in range(1 - size, len(current), advance):
                window = current[max(start, 0):start + size]
                following.append(
                    derive(lambda out, *members: manager.on_aggregate_output(out, members), *window)
                )
        if not following:  # a join over a single tuple produces nothing
            break
        every.extend(following)
        current = following
    return every, current, origins


def meta_snapshot(tuples):
    """What a read-only traversal must leave exactly as it found it."""
    return [
        None
        if tup.meta is None
        else (id(tup.meta), tup.meta.type, id(tup.meta.u1), id(tup.meta.u2),
              id(tup.meta.n), tup.meta.tuple_id)
        for tup in tuples
    ]


class TestSourceEncodingProperties:
    @given(dag_specs)
    @settings(max_examples=150, deadline=None)
    def test_bare_and_explicit_source_leaves_are_indistinguishable(self, spec):
        _, explicit_roots, _ = build_dag(spec, explicit_leaves=True)
        _, bare_roots, expected = build_dag(spec, explicit_leaves=False)
        assert len(explicit_roots) == len(bare_roots)
        for explicit_root, bare_root in zip(explicit_roots, bare_roots):
            explicit_origins = [t["leaf"] for t in find_provenance(explicit_root)]
            bare_origins = [t["leaf"] for t in find_provenance(bare_root)]
            assert explicit_origins == bare_origins  # same origins, same order
            assert len(set(bare_origins)) == len(bare_origins)
            assert set(bare_origins) == expected[id(bare_root)]

    @given(dag_specs, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_traversal_mutates_no_visited_tuple(self, spec, explicit_leaves):
        every, roots, _ = build_dag(spec, explicit_leaves)
        before = meta_snapshot(every)
        for root in roots:
            find_provenance(root)
            contribution_graph(root)
            provenance_depth(root)
        for tup in every:
            direct_contributors(tup)
        assert meta_snapshot(every) == before
