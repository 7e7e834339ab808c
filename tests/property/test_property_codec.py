"""Property-based tests for the binary channel codec.

The codec is *stateful* (interned strings and schema dictionaries grow in
lock-step on both ends of a channel), so the properties here always run
whole encoded streams in FIFO order through one encoder/decoder pair:

* arbitrary JSON-safe documents round-trip exactly, types preserved
  (``1`` stays ``int``, ``1.0`` stays ``float``, ``True`` stays ``bool``),
* varints round-trip across the length-boundary edges (0, 2^7, 2^14,
  2^31 - 1) and arbitrary magnitudes,
* resetting both dictionaries across a channel reconnect keeps the stream
  decodable, while resetting only the decoder makes stale references fail
  loudly,
* torn / truncated blobs always raise :class:`SerializationError` -- a
  partial frame must never silently mis-decode -- on arbitrary batches and
  on batches built to carry every column tag,
* string columns round-trip exactly whichever way they ship (interned codes,
  front-coded text, generic fallback), including the values the retired id
  dictionary had to special-case,
* retired tags, retired ``str`` (JSON document) payloads and non-string
  document keys fail loudly, naming the channel,
* a warm batch costs O(columns) interpreter steps plus O(rows): added string
  columns add the same number of traced lines whatever the row count.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spe import codec
from repro.spe.codec import (
    MAGIC,
    BinaryChannelDecoder,
    BinaryChannelEncoder,
    read_svarint,
    read_uvarint,
    write_svarint,
    write_uvarint,
)
from repro.spe.errors import SerializationError
from repro.spe.tuples import StreamTuple, UnfoldedBlock

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)  # beyond int64: exercises the varint fallback
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)
documents = st.dictionaries(st.text(max_size=12), json_values, max_size=5)

#: GeneaLog-shaped provenance payloads: a tuple type plus an opaque id.
genealog_payloads = st.builds(
    lambda kind, node, counter: {"type": kind, "id": f"{node}:{counter}"},
    st.sampled_from(["SOURCE", "MAP", "AGGREGATE"]),
    st.sampled_from(["source0", "aggregate_shard1", "n"]),
    st.integers(0, 2**40),
)
payloads = st.one_of(st.just({}), genealog_payloads, documents)

stream_tuples = st.builds(
    lambda ts, values, wall: StreamTuple(ts=ts, values=values, wall=wall),
    st.integers(0, 1000) | st.floats(0, 1e9),
    documents,
    st.floats(0, 1e6),
)

#: a stream is a list of batches; each batch is a (tuples, payloads) pair.
batches = st.lists(
    st.lists(st.tuples(stream_tuples, payloads), min_size=1, max_size=6),
    min_size=1,
    max_size=4,
)


def typed(value):
    """Value annotated with its type, recursively: 1 != 1.0 != True here."""
    if isinstance(value, dict):
        return {key: typed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [typed(item) for item in value]
    return (type(value).__name__, value)


def encode_stream(encoder, stream):
    return [
        encoder.encode_batch([t for t, _ in batch], [p for _, p in batch])
        for batch in stream
    ]


def payloads_of(tuples, provenance):
    """The decoded payloads; ``None`` (the all-empty flag) is one ``{}`` each."""
    return [{} for _ in tuples] if provenance is None else provenance


class TagRecorder(BinaryChannelDecoder):
    """Decoder that notes the tag of every column it decodes."""

    def __init__(self, channel=""):
        super().__init__(channel)
        self.tags = set()

    def _decode_column(self, buf, pos, count):
        self.tags.add(chr(buf[pos]))
        return super()._decode_column(buf, pos, count)


def rows(**columns):
    """Tuples built column-wise: ``rows(a=[1, 2], b=["x", "y"])``."""
    names = list(columns)
    return [
        StreamTuple(ts=float(i), values=dict(zip(names, cells)))
        for i, cells in enumerate(zip(*columns.values()))
    ]


def round_trip(batch, payloads=None, encoder=None, decoder=None):
    """Encode + decode one batch; return (values, payloads, column tags)."""
    encoder = encoder or BinaryChannelEncoder("prop")
    decoder = decoder or TagRecorder("prop")
    tuples, provenance = decoder.decode_batch(encoder.encode_batch(batch, payloads))
    return [t.values for t in tuples], provenance, decoder.tags


# ---------------------------------------------------------------------------
# round-trip
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @given(batches)
    def test_json_safe_documents_round_trip_exactly(self, stream):
        encoder = BinaryChannelEncoder("prop")
        decoder = BinaryChannelDecoder("prop")
        for blob, batch in zip(encode_stream(encoder, stream), stream):
            tuples, provenance = decoder.decode_batch(blob)
            assert len(tuples) == len(batch)
            for decoded, payload, (original, sent_payload) in zip(
                tuples, payloads_of(tuples, provenance), batch
            ):
                assert typed(decoded.ts) == typed(original.ts)
                assert decoded.wall == original.wall
                assert typed(decoded.values) == typed(original.values)
                assert typed(payload) == typed(sent_payload)

    @given(st.lists(st.integers(0, 2**40), min_size=1, max_size=8))
    def test_order_keys_survive(self, orders):
        encoder = BinaryChannelEncoder("prop")
        decoder = BinaryChannelDecoder("prop")
        sent = []
        for i, order in enumerate(orders):
            tup = StreamTuple(ts=float(i), values={"x": i})
            tup.order_key = (order, i)
            sent.append(tup)
        tuples, _ = decoder.decode_batch(
            encoder.encode_batch(sent, [{} for _ in sent])
        )
        assert [t.order_key for t in tuples] == [t.order_key for t in sent]


#: strings the retired id dictionary had to special-case, plus the shapes the
#: text column must not be confused by.
AWKWARD_IDS = ["n:007", "n:\u0663", "n:+1", "n:", ":", "n:1:2", "", "n:0", "\u00e9:9"]


class TestStringColumns:
    """Every way a string column ships must give back the exact strings."""

    @given(st.lists(st.text(max_size=80), min_size=1, max_size=12))
    def test_any_string_column_round_trips(self, column):
        values, _, _ = round_trip(rows(s=column, n=list(range(len(column)))))
        assert [v["s"] for v in values] == column

    @given(
        st.lists(
            st.sampled_from(AWKWARD_IDS) | st.text(max_size=6).map("n:{}".format),
            min_size=1,
            max_size=10,
        )
    )
    def test_id_like_strings_are_not_normalised(self, column):
        values, _, _ = round_trip(rows(id=column))
        assert [v["id"] for v in values] == column

    def test_ids_ship_front_coded(self):
        column = [f"spe1:{i}" for i in range(50)]
        encoder = BinaryChannelEncoder("prop")
        blob = encoder.encode_batch(rows(id=column))
        values, _, tags = round_trip(rows(id=column))
        assert [v["id"] for v in values] == column
        assert "S" in tags
        # the shared prefix went once, not once per value
        assert blob.count(b"spe1:") == 1
        # ids never enter the dictionary (it would only fill up)
        assert not any(key.startswith("spe1:") and key != "spe1:" for key in encoder._strings)

    def test_mixed_prefixes_share_one_text_column(self):
        column = ["spe1:1", "spe2:2", "spe1:3", "other", "spe1:"]
        values, _, tags = round_trip(rows(id=column))
        assert [v["id"] for v in values] == column
        assert "S" in tags

    def test_prefix_only_inside_a_value_is_not_stripped(self):
        # "a:" is the first value's prefix; the second value merely contains it.
        column = ["a:1", "xa:2"]
        values, _, _ = round_trip(rows(id=column))
        assert [v["id"] for v in values] == column

    def test_separator_inside_a_value_falls_back_to_generic(self):
        column = [f"n:{i}" for i in range(5)] + ["n:\x1f7", "\x1f"]
        values, _, tags = round_trip(rows(id=column))
        assert [v["id"] for v in values] == column
        assert "G" in tags and "S" not in tags

    def test_empty_strings(self):
        for column in ([""], ["", ""], ["", "n:1", ""], ["n:1", ""]):
            values, _, _ = round_trip(rows(s=column))
            assert [v["s"] for v in values] == column

    def test_long_strings_ship_as_text_and_stay_out_of_the_dictionary(self):
        long = "x" * 65
        encoder = BinaryChannelEncoder("prop")
        column = [long, "short", long + "y"]
        values, _, tags = round_trip(rows(s=column), encoder=encoder)
        assert [v["s"] for v in values] == column
        assert "S" in tags
        assert long not in encoder._strings

    def test_low_cardinality_column_ships_one_byte_codes(self):
        column = [f"car{i % 7}" for i in range(40)]
        encoder = BinaryChannelEncoder("prop")
        decoder = TagRecorder("prop")
        cold = encoder.encode_batch(rows(car=column))
        warm = encoder.encode_batch(rows(car=column))
        for blob in (cold, warm):
            tuples, _ = decoder.decode_batch(blob)
            assert [t.values["car"] for t in tuples] == column
        assert "T" in decoder.tags
        assert len(warm) < len(cold)  # no new entries the second time
        assert b"car" not in warm

    def test_wide_dictionary_ships_two_byte_codes(self):
        column = [f"plug{i}" for i in range(300)]
        values, _, tags = round_trip(rows(plug=column))
        assert [v["plug"] for v in values] == column
        assert "U" in tags

    def test_full_intern_table_falls_back_exactly(self, monkeypatch):
        monkeypatch.setattr(codec, "_MAX_INTERNED", 8)
        encoder = BinaryChannelEncoder("prop")
        decoder = TagRecorder("prop")
        first = [f"a{i}" for i in range(6)]
        second = [f"b{i}" for i in range(6)] + first  # would overflow the table
        for column in (first, second, first):
            values, _, _ = round_trip(rows(s=column), encoder=encoder, decoder=decoder)
            assert [v["s"] for v in values] == column
        assert len(encoder._strings) <= 8
        assert len(decoder._strings) == len(encoder._strings)
        assert {"T", "S"} <= decoder.tags

    def test_dictionaries_stay_in_lock_step(self):
        encoder = BinaryChannelEncoder("prop")
        decoder = BinaryChannelDecoder("prop")
        for start in range(0, 600, 60):
            batch = rows(
                car=[f"car{i % 290}" for i in range(start, start + 60)],
                id=[f"spe1:{i}" for i in range(start, start + 60)],
                kind=["SOURCE"] * 60,
            )
            tuples, _ = decoder.decode_batch(encoder.encode_batch(batch))
            assert [t.values for t in tuples] == [t.values for t in batch]
        assert decoder._strings == list(encoder._strings)


class TestEmptyPayloads:
    def test_no_payloads_is_one_flag_byte(self):
        batch = rows(x=[1, 2, 3])
        unshipped = BinaryChannelEncoder("prop").encode_batch(batch)
        empty = BinaryChannelEncoder("prop").encode_batch(batch, [{}, {}, {}])
        assert unshipped == empty
        assert unshipped.endswith(b"\x00")

    @given(st.lists(stream_tuples, min_size=1, max_size=5), st.booleans())
    def test_all_empty_payloads_decode_as_empty(self, tuples, explicit):
        sent = [{} for _ in tuples] if explicit else None
        decoded, provenance = BinaryChannelDecoder("prop").decode_batch(
            BinaryChannelEncoder("prop").encode_batch(tuples, sent)
        )
        assert provenance is None
        assert payloads_of(decoded, provenance) == [{}] * len(tuples)

    def test_one_non_empty_payload_ships_them_all(self):
        batch = rows(x=[1, 2, 3])
        sent = [{}, {"type": "SOURCE", "id": "n:1"}, {}]
        _, provenance, _ = round_trip(batch, sent)
        assert provenance == sent


class TestUnfoldedBlocks:
    """A block batch crosses natively: sink payload once, then its entries."""

    entry = st.fixed_dictionaries(
        {"v": st.integers(-3, 3), "ts_o": st.floats(0, 9), "id_o": st.just("n:1"),
         "type_o": st.sampled_from(["SOURCE", "REMOTE"])}
    )
    block = st.builds(
        UnfoldedBlock, st.floats(0, 9), st.fixed_dictionaries({"alert": st.integers(0, 2)}),
        st.one_of(st.none(), st.just("s:7")), st.lists(entry, max_size=4),
        st.floats(0, 1), st.one_of(st.none(), st.floats(0, 9)),
    )

    @given(st.lists(block, min_size=1, max_size=5))
    @settings(max_examples=50)
    def test_blocks_round_trip_and_torn_prefixes_raise(self, sent):
        blob = BinaryChannelEncoder("prop").encode_batch(sent)
        decoded, provenance = BinaryChannelDecoder("prop").decode_batch(blob)
        assert provenance is None
        assert [type(b) for b in decoded] == [UnfoldedBlock] * len(sent)
        assert [(b.ts, b.wall, b.values, b.sink_ts, b.sink_id, b.sources) for b in decoded] == [
            (b.ts, b.wall, b.values, b.sink_ts, b.sink_id, b.sources) for b in sent
        ]
        for cut in range(len(blob)):
            with pytest.raises(SerializationError):
                BinaryChannelDecoder("prop").decode_batch(blob[:cut])

    def test_a_sink_payload_crosses_once_per_block(self):
        entries = [{"v": i, "ts_o": float(i), "id_o": f"n:{i}", "type_o": "SOURCE"}
                   for i in range(4)]
        block = UnfoldedBlock(9.0, {"alert": 1, "pos": 17}, "s:0", entries)
        blocked = BinaryChannelEncoder("prop").encode_batch([block])
        flat = BinaryChannelEncoder("prop").encode_batch(
            [StreamTuple(ts=9.0, values=row) for row in block.rows()]
        )
        assert len(blocked) < len(flat)


# ---------------------------------------------------------------------------
# varint edges
# ---------------------------------------------------------------------------

VARINT_EDGES = (0, 1, 2**7 - 1, 2**7, 2**14 - 1, 2**14, 2**31 - 1, 2**31, 2**64)


class TestVarints:
    @pytest.mark.parametrize("value", VARINT_EDGES)
    def test_uvarint_length_edges(self, value):
        out = bytearray()
        write_uvarint(out, value)
        decoded, pos = read_uvarint(bytes(out), 0)
        assert decoded == value
        assert pos == len(out)

    @given(st.integers(0, 2**80))
    def test_uvarint_round_trips(self, value):
        out = bytearray()
        write_uvarint(out, value)
        assert read_uvarint(bytes(out), 0) == (value, len(out))

    @given(st.integers(-(2**80), 2**80))
    def test_svarint_round_trips(self, value):
        out = bytearray()
        write_svarint(out, value)
        assert read_svarint(bytes(out), 0) == (value, len(out))

    @pytest.mark.parametrize("value", VARINT_EDGES)
    def test_truncated_uvarint_raises(self, value):
        out = bytearray()
        write_uvarint(out, value)
        for cut in range(len(out)):
            with pytest.raises(IndexError):
                read_uvarint(bytes(out[:cut]), 0)


# ---------------------------------------------------------------------------
# dictionaries out of sync
# ---------------------------------------------------------------------------


class TestDictionarySync:
    def test_a_decoder_that_missed_a_batch_fails_loudly(self):
        """A decoder that missed a batch must raise, never silently mis-decode."""
        encoder = BinaryChannelEncoder("prop")
        batch = [StreamTuple(ts=1.0, values={"plate": "abc", "id": "node:1"})]
        encoder.encode_batch(batch, [{}])
        # The second batch references the schema the first one interned.
        second = encoder.encode_batch(
            [StreamTuple(ts=2.0, values={"plate": "def", "id": "node:2"})], [{}]
        )
        with pytest.raises(SerializationError, match="out of sync"):
            BinaryChannelDecoder("prop").decode_batch(second)


# ---------------------------------------------------------------------------
# torn frames
# ---------------------------------------------------------------------------


class TestTornFrames:
    @given(st.lists(st.tuples(stream_tuples, payloads), min_size=1, max_size=4))
    @settings(max_examples=25)
    def test_every_strict_prefix_raises(self, batch):
        blob = BinaryChannelEncoder("prop").encode_batch(
            [t for t, _ in batch], [p for _, p in batch]
        )
        for cut in range(len(blob)):
            with pytest.raises(SerializationError):
                BinaryChannelDecoder("prop").decode_batch(blob[:cut])

    @given(st.lists(st.tuples(stream_tuples, payloads), min_size=1, max_size=4))
    @settings(max_examples=25)
    def test_trailing_garbage_raises(self, batch):
        blob = BinaryChannelEncoder("prop").encode_batch(
            [t for t, _ in batch], [p for _, p in batch]
        )
        with pytest.raises(SerializationError):
            BinaryChannelDecoder("prop").decode_batch(blob + b"\x00")

    def test_wrong_magic_raises(self):
        blob = BinaryChannelEncoder("prop").encode_batch(
            [StreamTuple(ts=1.0, values={"x": 1})], [{}]
        )
        with pytest.raises(SerializationError):
            BinaryChannelDecoder("prop").decode_batch(b"\xa5" + blob[1:])


def tagged_batch():
    """A batch + payloads whose blob carries every column tag and the flag."""
    n = 300
    batch = rows(
        f=[float(i) for i in range(n)],
        i=list(range(n)),
        b=[i % 2 == 0 for i in range(n)],
        none=[None] * n,
        kind=["SOURCE", "MAP"] * (n // 2),          # 'T' then, once wide, 'U'
        plug=[f"plug{i}" for i in range(n)],        # grows the dictionary past 256
        id=[f"spe1:{i}" for i in range(n)],         # 'S', front-coded
        mixed=[i if i % 2 else str(i) for i in range(n)],  # 'G'
    )
    payloads = [{"type": "SOURCE", "id": f"spe1:{i}"} for i in range(n)]
    return batch, payloads


class TestEveryTagTornFrames:
    def test_the_batch_exercises_every_tag(self):
        batch, payloads = tagged_batch()
        encoder = BinaryChannelEncoder("prop")
        decoder = TagRecorder("prop")
        for sent in (payloads, None):
            small = batch[:10]
            tuples, provenance = decoder.decode_batch(
                encoder.encode_batch(small, sent and sent[:10])
            )
            assert [t.values for t in tuples] == [t.values for t in small]
            assert provenance == (sent and sent[:10])
        tuples, provenance = decoder.decode_batch(encoder.encode_batch(batch, payloads))
        assert [t.values for t in tuples] == [t.values for t in batch]
        assert provenance == payloads
        assert decoder.tags == set("FIBNTUSG")

    @pytest.mark.parametrize("with_payloads", [True, False])
    def test_every_strict_prefix_raises(self, with_payloads):
        batch, payloads = tagged_batch()
        blob = BinaryChannelEncoder("prop").encode_batch(
            batch, payloads if with_payloads else None
        )
        recorder = TagRecorder("prop")
        recorder.decode_batch(blob)
        assert recorder.tags >= set("FIBNUSG")
        for cut in range(len(blob)):
            with pytest.raises(SerializationError, match="'prop'"):
                BinaryChannelDecoder("prop").decode_batch(blob[:cut])

    def test_every_strict_prefix_of_a_warm_one_byte_code_batch_raises(self):
        encoder = BinaryChannelEncoder("prop")
        decoder = TagRecorder("prop")
        batch = rows(kind=["SOURCE", "MAP", "SOURCE"], id=["n:1", "n:2", "n:3"])
        decoder.decode_batch(encoder.encode_batch(batch))
        warm = encoder.encode_batch(batch)
        for cut in range(len(warm)):
            with pytest.raises(SerializationError, match="'prop'"):
                # a fresh decoder per cut would fail on the schema reference
                # before reaching the columns: keep the warm state, copy it.
                torn = BinaryChannelDecoder("prop")
                torn._strings = list(decoder._strings)
                torn._schemas = list(decoder._schemas)
                torn.decode_batch(warm[:cut])
        assert "T" in decoder.tags


# ---------------------------------------------------------------------------
# wire hygiene
# ---------------------------------------------------------------------------


class TestWireHygiene:
    @staticmethod
    def blob_with_column(column: bytes) -> bytes:
        """One tuple whose ``ts`` column is the hand-built ``column``."""
        return bytes([MAGIC, 1]) + column

    def test_retired_id_column_tag_fails_loudly(self):
        # 'D' + (new interned prefix "n", counter 7): the 0xB5 id column
        blob = self.blob_with_column(b"D\x00\x01n\x07")
        with pytest.raises(SerializationError, match=r"'stale'.*retired column tag 0x44"):
            BinaryChannelDecoder("stale").decode_batch(blob)

    def test_retired_id_value_tag_fails_loudly(self):
        # generic column holding value tag 6 (prefix "n", counter 7)
        blob = self.blob_with_column(b"G\x06\x00\x01n\x07")
        with pytest.raises(SerializationError, match=r"'stale'.*retired value tag 0x6"):
            BinaryChannelDecoder("stale").decode_batch(blob)

    def test_previous_layout_magic_fails_on_the_first_batch(self):
        blob = BinaryChannelEncoder("prop").encode_batch(rows(x=[1]))
        with pytest.raises(SerializationError, match="'stale'.*magic"):
            BinaryChannelDecoder("stale").decode_batch(b"\xb5" + blob[1:])

    @pytest.mark.parametrize("payload", ['{"ts": 1.0, "values": {}}', ""])
    def test_retired_json_document_fails_naming_the_channel(self, payload):
        # A ``str`` payload is the retired per-tuple JSON wire format.
        with pytest.raises(SerializationError, match="'stale'.*str payload.*magic"):
            BinaryChannelDecoder("stale").decode_batch(payload)

    @pytest.mark.parametrize("where", ["values", "payload"])
    def test_non_string_document_key_names_channel_and_key(self, where):
        tup = StreamTuple(ts=1.0, values={"x": 1})
        payload = {}
        if where == "values":
            tup.values = {1: 2}
        else:
            payload = {1: 2}
        with pytest.raises(SerializationError, match=r"'prop'.*dict key 1 of type int"):
            BinaryChannelEncoder("prop").encode_batch([tup], [payload])


# ---------------------------------------------------------------------------
# interpreter steps: O(columns) + O(rows), never O(rows x columns)
# ---------------------------------------------------------------------------


def traced_codec_lines(n_rows: int, n_string_columns: int) -> int:
    """Lines of ``codec.py`` executed to encode + decode one *warm* batch."""

    def batch(offset):
        columns = {}
        for c in range(n_string_columns):
            if c % 2:
                columns[f"id{c}"] = [f"spe{c}:{offset + i}" for i in range(n_rows)]
            else:
                columns[f"car{c}"] = [f"car{(i + c) % 5}" for i in range(n_rows)]
        return rows(n=list(range(n_rows)), **columns)

    encoder = BinaryChannelEncoder("prop")
    decoder = BinaryChannelDecoder("prop")
    decoder.decode_batch(encoder.encode_batch(batch(0)))  # warm both ends
    measured = batch(n_rows)
    lines = 0
    codec_file = codec.__file__

    def tracer(frame, event, arg):
        nonlocal lines
        if frame.f_code.co_filename != codec_file:
            return None
        if event == "line":
            lines += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        tuples, _ = decoder.decode_batch(encoder.encode_batch(measured))
    finally:
        sys.settrace(previous)
    assert [t.values for t in tuples] == [t.values for t in measured]
    return lines


class TestInterpreterSteps:
    #: a longer column spends a few more loop turns on its length varints
    #: (O(log rows)); anything per-row would add hundreds of lines here.
    VARINT_SLACK = 10

    def test_added_string_columns_cost_the_same_at_any_row_count(self):
        added = 4
        small = traced_codec_lines(20, 4 + added) - traced_codec_lines(20, 4)
        large = traced_codec_lines(400, 4 + added) - traced_codec_lines(400, 4)
        assert 0 < small <= 80 * added
        assert abs(large - small) <= self.VARINT_SLACK * added

    def test_rows_cost_the_same_at_any_column_count(self):
        narrow = traced_codec_lines(400, 4) - traced_codec_lines(20, 4)
        wide = traced_codec_lines(400, 8) - traced_codec_lines(20, 8)
        assert abs(wide - narrow) <= self.VARINT_SLACK * 8
