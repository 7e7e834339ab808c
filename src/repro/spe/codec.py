"""Batched binary wire codec for cross-boundary tuple transport.

Every cross-boundary tuple travels in a blob of this *batched, columnar,
stateful* binary codec -- the only channel wire format:

* **one blob per channel flush** -- a Send operator encodes the whole batch
  it was handed into a single ``bytes`` payload, so the per-tuple Python
  overhead (encoding calls, per-payload channel accounting) is paid once
  per batch;
* **columnar packing at C speed** -- within a batch, tuples sharing an
  attribute schema are stored column by column, and every column kind that
  occurs on the hot channels is packed and unpacked by *one* C-level call
  (``struct``, ``bytes``, ``str.join``/``split``), so a batch costs
  O(columns) interpreter steps plus one per row to rebuild the tuple
  objects -- never O(rows x columns);
* **interned names and low-cardinality strings** -- attribute names,
  schemas, the small provenance vocabulary (``SOURCE``/``RESULT``/... type
  tags) and repeating attribute values (car ids, plugs) are interned in a
  per-channel dictionary; an interned column ships as one packed array of
  1- or 2-byte dictionary codes;
* **front-coded text columns** -- GeneaLog/baseline tuple ids have the shape
  ``"<node>:<counter>"`` and never repeat, so a column of them (or any
  string column the dictionary cannot hold) ships as the values joined by
  one separator, with the ``"<node>:"`` prefix all of them share stripped
  once.  It is plain text, so any string round-trips exactly
  (``"n:007"``, ``"n:+1"``, non-ASCII digits).

The codec is *stateful per channel direction*: encoder and decoder each
maintain string/schema dictionaries that grow in lock-step because every
"new entry" is explicit on the wire.  Both sides start empty (a shipped
plan carries only empty codec state), and FIFO transports keep them in
sync.  :meth:`BinaryChannelEncoder.reset` / :meth:`BinaryChannelDecoder.reset`
drop the dictionaries, e.g. when a channel reconnects mid-stream.

A payload that is not a blob of this layout -- a retired JSON document, a
``str``, a foreign byte string -- fails its decode with
:class:`SerializationError` naming the channel.  The provenance ledger's
JSONL segments are a separate, persisted format and stay JSON
(human-readable, greppable).

Wire layout of one batch blob (all integers are LEB128 varints unless a
fixed width is noted; ``istr`` is an interned string: escape ``0`` = new
dictionary entry + literal, ``1`` = literal only, ``k >= 2`` = entry
``k - 2``; a literal is ``uvarint byte_length`` + UTF-8)::

    0xB6                      magic (rejects JSON/foreign/older-layout payloads)
    uvarint n                 tuple count
    column(ts, n)             event timestamps
    column(wall, n)           wall-clock stamps
    column(order_key, n)      order keys ('N' when none is set)
    documents(values, n)      attribute dicts (a block's: its sink payload)
    flags                     bit 0: provenance payloads follow (clear =
                              every payload is empty: unfolded streams,
                              shipped sink streams); bit 1: the tuples are
                              unfolded blocks
    [documents(prov, n)]      provenance payloads, when bit 0 is set
    [column(sink_ts, n), column(sink_id, n), n uvarint entry counts,
     documents(entries, sum of counts)]
                              when bit 1 is set: each block's sink ts and id,
                              then every block's source entries in order --
                              a sink payload crosses once per block, never
                              once per originating tuple

    documents := uvarint group_count, then per group of schema-identical
                 consecutive documents: uvarint count, schema ref
                 (0 = new schema: uvarint key_count + istr keys;
                 k>0 = schema table entry k-1), then one column per key.

    column    := tag byte + body (m = the group's count):
                 'F' float64*m   | 'I' int64*m | 'B' byte*m | 'N' (empty)
                 'T' uvarint new_count, new_count literals (appended to the
                     dictionary), then m one-byte dictionary codes
                 'U' as 'T' with m little-endian two-byte codes
                 'S' istr prefix, uvarint byte_length, UTF-8 text: the m
                     values joined by U+001F, each with ``prefix`` stripped
                 'G' m generic tagged values:
                     0 None | 1 False | 2 True | 3 svarint | 4 float64
                     | 5 istr | 7 uvarint len + values | 8 uvarint len +
                     (istr key, value) pairs

    Retired, never reassigned: column tag 'D' and value tag 6 (the id
    dictionary of the 0xB5 layout: interned prefix + varint counter).

Any truncated or torn blob raises :class:`SerializationError` -- every read
is bounds-checked and a decoded batch must consume the buffer exactly --
never a silent mis-decode.
"""

from __future__ import annotations

import struct
from itertools import groupby
from typing import Any, Dict, List, NoReturn, Optional, Sequence, Tuple, cast

from repro.spe.errors import SerializationError
from repro.spe.tuples import StreamTuple, UnfoldedBlock

#: first byte of every binary batch blob.  JSON payloads start with ``{`` or
#: ``[``; a foreign payload -- or a peer still speaking the 0xB5 layout --
#: fails on its first batch.
MAGIC = 0xB6

#: interning limits: strings longer than this, or arriving once the table is
#: full, ship as literals / text columns and do not grow the dictionaries.
_MAX_INTERN_LEN = 64
_MAX_INTERNED = 1 << 16

#: refuse batches declaring more tuples than this (corrupt count prefix).
_MAX_BATCH_TUPLES = 1 << 24

#: the batch flags byte: provenance payloads follow / the tuples are blocks.
_FLAG_PAYLOADS = 0x01
_FLAG_BLOCKS = 0x02

# column tags ('F'loat, 'I'nt, 'B'ool, 'N'one, in'T'erned 1-byte codes,
# interned 2-byte codes, 'S'tring text, 'G'eneric)
_COL_FLOAT = 0x46
_COL_INT = 0x49
_COL_BOOL = 0x42
_COL_NONE = 0x4E
_COL_INTERN8 = 0x54
_COL_INTERN16 = 0x55
_COL_TEXT = 0x53
_COL_GENERIC = 0x47

# generic value tags
_G_NONE = 0
_G_FALSE = 1
_G_TRUE = 2
_G_INT = 3
_G_FLOAT = 4
_G_STR = 5
_G_LIST = 7
_G_DICT = 8

#: tags of the 0xB5 layout's id dictionary.  Never reassign them: a blob
#: carrying one comes from a stale peer and must fail, not mis-decode.
_RETIRED_COL_ID = 0x44
_RETIRED_G_ID = 6

#: separator of a text column's joined values (ASCII "unit separator"); a
#: column holding a value that contains it falls back to the generic column.
_SEP = "\x1f"

_PACK_FLOAT = struct.Struct("<d")
_UNPACK_FLOAT = _PACK_FLOAT.unpack_from

#: cached ``struct.Struct`` objects for whole-column packs, keyed by
#: ``(type_code, count)`` -- batch sizes recur, so the format parse is paid
#: once per (code, size) pair instead of once per column.
_COLUMN_STRUCTS: Dict[Tuple[str, int], struct.Struct] = {}


def _column_struct(code: str, count: int) -> struct.Struct:
    key = (code, count)
    packer = _COLUMN_STRUCTS.get(key)
    if packer is None:
        packer = _COLUMN_STRUCTS[key] = struct.Struct(f"<{count}{code}")
    return packer


def write_uvarint(out: bytearray, value: int) -> None:
    """Append ``value`` (non-negative, arbitrary size) as a LEB128 varint."""
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_uvarint(buf: bytes, pos: int) -> Tuple[int, int]:
    """Read a LEB128 varint at ``pos``; return ``(value, new_pos)``.

    Raises ``IndexError`` past the end of ``buf`` (mapped to
    :class:`SerializationError` by the batch decoder).
    """
    shift = 0
    result = 0
    while True:
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def write_svarint(out: bytearray, value: int) -> None:
    """Append a signed integer as a zigzag-encoded varint."""
    write_uvarint(out, value * 2 if value >= 0 else -value * 2 - 1)


def read_svarint(buf: bytes, pos: int) -> Tuple[int, int]:
    """Inverse of :func:`write_svarint`."""
    raw, pos = read_uvarint(buf, pos)
    return (raw >> 1 if not raw & 1 else -(raw >> 1) - 1), pos


def _write_literal(out: bytearray, value: str) -> None:
    raw = value.encode("utf-8")
    write_uvarint(out, len(raw))
    out += raw


def _take(buf: bytes, pos: int, length: int) -> Tuple[bytes, int]:
    """The ``length`` bytes at ``pos`` and the position after them."""
    end = pos + length
    raw = buf[pos:end]
    if len(raw) != length:
        raise IndexError(f"{length} bytes declared past the end of the buffer")
    return raw, end


def _read_literal(buf: bytes, pos: int) -> Tuple[str, int]:
    length, pos = read_uvarint(buf, pos)
    raw, pos = _take(buf, pos, length)
    return raw.decode("utf-8"), pos


def _require_str_key(key: Any) -> None:
    if type(key) is not str:
        raise SerializationError(
            f"dict key {key!r} of type {type(key).__name__} "
            "(wire documents require string keys)"
        )


def _internable(value: str) -> bool:
    """Whether ``value`` is worth a dictionary entry.

    Long strings are not, and neither are id-shaped ones
    (``"<node>:<counter>"``): ids never repeat, so interning them would only
    fill the table.  Purely an encoder-side size heuristic -- every string
    round-trips exactly whichever way it ships.
    """
    if len(value) > _MAX_INTERN_LEN:
        return False
    _, sep, tail = value.rpartition(":")
    return not (sep and tail.isdigit())


class BinaryChannelEncoder:
    """Stateful binary encoder for one channel direction.

    ``channel`` names the channel in error messages.  The string/schema
    dictionaries persist across batches; :meth:`reset` drops them (the
    matching decoder must reset too -- e.g. on a channel reconnect).
    """

    __slots__ = ("channel", "_strings", "_schemas")

    def __init__(self, channel: str = "") -> None:
        self.channel = channel
        self.reset()

    def reset(self) -> None:
        """Forget the interning dictionaries (start of a fresh stream)."""
        self._strings: Dict[str, int] = {}
        self._schemas: Dict[Tuple[str, ...], int] = {}

    # -- batch entry point -------------------------------------------------
    def encode_batch(
        self,
        tuples: Sequence[StreamTuple],
        payloads: Optional[Sequence[Dict[str, Any]]] = None,
    ) -> bytes:
        """Encode ``tuples`` and their provenance ``payloads`` into one blob.

        ``payloads=None`` means no tuple carries one; it encodes like a
        sequence of empty dicts (one flag byte) without building them.
        """
        out = bytearray()
        out.append(MAGIC)
        write_uvarint(out, len(tuples))
        # One Send carries one stream: the unfolded ones are blocks throughout.
        blocks = bool(tuples) and type(tuples[0]) is UnfoldedBlock
        try:
            self._encode_column(out, [t.ts for t in tuples])
            self._encode_column(out, [t.wall for t in tuples])
            self._encode_column(out, [t.order_key for t in tuples])
            self._encode_documents(out, [t.values for t in tuples])
            flags = 0 if payloads is None or not any(payloads) else _FLAG_PAYLOADS
            out.append(flags | (_FLAG_BLOCKS if blocks else 0))
            if flags:
                self._encode_documents(out, payloads or ())
            if blocks:
                unfolded = cast(Sequence[UnfoldedBlock], tuples)
                self._encode_column(out, [b.sink_ts for b in unfolded])
                self._encode_column(out, [b.sink_id for b in unfolded])
                counts = bytearray()
                for block in unfolded:
                    write_uvarint(counts, len(block.sources))
                out += counts
                self._encode_documents(out, [e for b in unfolded for e in b.sources])
        except SerializationError as exc:
            raise SerializationError(
                f"channel {self.channel!r}: cannot serialise batch: {exc}"
            ) from exc
        return bytes(out)

    # -- documents ---------------------------------------------------------
    def _encode_documents(self, out: bytearray, docs: Sequence[Dict[str, Any]]) -> None:
        # Runs of consecutive documents sharing a key tuple: within a batch
        # the schema almost never changes, so this is usually one group.
        groups = [(keys, len(list(run))) for keys, run in groupby(map(tuple, docs))]
        write_uvarint(out, len(groups))
        schemas = self._schemas
        start = 0
        for keys, count in groups:
            write_uvarint(out, count)
            code = schemas.get(keys)
            if code is None:
                for key in keys:
                    _require_str_key(key)
                schemas[keys] = len(schemas)
                out.append(0)
                write_uvarint(out, len(keys))
                for key in keys:
                    self._write_interned(out, key)
            else:
                write_uvarint(out, code + 1)
            end = start + count
            if keys:
                for column in zip(*map(dict.values, docs[start:end])):
                    self._encode_column(out, column)
            start = end

    # -- columns -----------------------------------------------------------
    def _encode_column(self, out: bytearray, column: Sequence[Any]) -> None:
        kinds = set(map(type, column))
        kind = kinds.pop() if len(kinds) == 1 else None
        if kind is float:
            out.append(_COL_FLOAT)
            out += _column_struct("d", len(column)).pack(*column)
        elif kind is str:
            self._encode_str_column(out, column)
        elif kind is int:
            try:
                packed = _column_struct("q", len(column)).pack(*column)
            except struct.error:  # magnitude beyond int64: varints handle it
                self._encode_generic_column(out, column)
            else:
                out.append(_COL_INT)
                out += packed
        elif kind is bool:
            out.append(_COL_BOOL)
            out += bytes(column)
        elif kind is type(None):
            out.append(_COL_NONE)
        else:
            self._encode_generic_column(out, column)

    def _encode_str_column(self, out: bytearray, column: Sequence[str]) -> None:
        strings = self._strings
        fresh: Sequence[str] = ()
        try:
            codes = list(map(strings.__getitem__, column))
        except KeyError as miss:
            # The first value the dictionary lacks decides the column: an id
            # (or a long string) means a text column, anything else is
            # interned together with the column's other new values.
            if not _internable(miss.args[0]):
                self._encode_text_column(out, column)
                return
            fresh = [value for value in dict.fromkeys(column) if value not in strings]
            if len(strings) + len(fresh) > _MAX_INTERNED or not all(map(_internable, fresh)):
                self._encode_text_column(out, column)
                return
            for value in fresh:
                strings[value] = len(strings)
            codes = list(map(strings.__getitem__, column))
        if len(strings) <= 256:
            out.append(_COL_INTERN8)
            packed = bytes(codes)
        else:
            out.append(_COL_INTERN16)
            packed = _column_struct("H", len(codes)).pack(*codes)
        write_uvarint(out, len(fresh))
        for value in fresh:
            _write_literal(out, value)
        out += packed

    def _encode_text_column(self, out: bytearray, column: Sequence[str]) -> None:
        count = len(column)
        text = _SEP.join(column)
        if text.count(_SEP) != count - 1:  # a value contains the separator
            self._encode_generic_column(out, column)
            return
        # Front coding: strip the "<node>:" prefix of the first value from
        # every value in one replace; the length arithmetic proves that all
        # ``count`` values carried it (separators only sit between values).
        first = column[0]
        prefix = first[: first.rfind(":") + 1]
        if prefix:
            stripped = (_SEP + text).replace(_SEP + prefix, _SEP)
            if len(stripped) == len(text) + 1 - count * len(prefix):
                text = stripped[1:]
            else:
                prefix = ""
        out.append(_COL_TEXT)
        self._write_interned(out, prefix)
        _write_literal(out, text)

    def _encode_generic_column(self, out: bytearray, column: Sequence[Any]) -> None:
        out.append(_COL_GENERIC)
        for value in column:
            self._encode_generic(out, value)

    # -- scalars -----------------------------------------------------------
    def _write_interned(self, out: bytearray, value: str) -> None:
        # escape: 0 = new dictionary entry, 1 = literal (not interned),
        # k >= 2 = reference to entry k-2.  The decoder mirrors exactly the
        # entries marked 0, so both dictionaries grow in lock-step.
        strings = self._strings
        code = strings.get(value)
        if code is not None:
            write_uvarint(out, code + 2)
            return
        if len(strings) < _MAX_INTERNED and _internable(value):
            strings[value] = len(strings)
            out.append(0)
        else:
            out.append(1)
        _write_literal(out, value)

    def _encode_generic(self, out: bytearray, value: Any) -> None:
        kind = type(value)
        if value is None:
            out.append(_G_NONE)
        elif kind is bool:
            out.append(_G_TRUE if value else _G_FALSE)
        elif kind is int:
            out.append(_G_INT)
            write_svarint(out, value)
        elif kind is float:
            out.append(_G_FLOAT)
            out += _PACK_FLOAT.pack(value)
        elif kind is str:
            out.append(_G_STR)
            self._write_interned(out, value)
        elif kind is list or kind is tuple:
            out.append(_G_LIST)
            write_uvarint(out, len(value))
            for item in value:
                self._encode_generic(out, item)
        elif kind is dict:
            out.append(_G_DICT)
            write_uvarint(out, len(value))
            for key, item in value.items():
                _require_str_key(key)
                self._write_interned(out, key)
                self._encode_generic(out, item)
        else:
            raise SerializationError(
                f"value {value!r} of unserialisable type {kind.__name__}"
            )


class BinaryChannelDecoder:
    """Stateful binary decoder for one channel direction.

    Mirrors :class:`BinaryChannelEncoder`: its dictionaries are rebuilt from
    the explicit "new entry" markers on the wire, so feeding it the
    encoder's blobs in FIFO order reproduces the encoder's state.
    """

    __slots__ = ("channel", "_strings", "_schemas")

    def __init__(self, channel: str = "") -> None:
        self.channel = channel
        self.reset()

    def reset(self) -> None:
        """Forget the interning dictionaries (start of a fresh stream)."""
        self._strings: List[str] = []
        self._schemas: List[Tuple[str, ...]] = []

    # -- batch entry point -------------------------------------------------
    def decode_batch(
        self, payload: bytes
    ) -> Tuple[List[StreamTuple], Optional[List[Dict[str, Any]]]]:
        """Decode one batch blob into ``(tuples, provenance_payloads)``.

        ``provenance_payloads`` is ``None`` when the batch carried the
        every-payload-is-empty flag: there is nothing to re-attach, and no
        per-tuple dict is built to say so.
        """
        try:
            return self._decode_binary(payload)
        except SerializationError:
            raise
        except (IndexError, struct.error, UnicodeDecodeError, ValueError,
                OverflowError, MemoryError) as exc:
            raise SerializationError(
                f"channel {self.channel!r}: truncated or corrupt binary "
                f"batch ({len(payload)} bytes): {exc}"
            ) from exc

    def _decode_binary(
        self, buf: bytes
    ) -> Tuple[List[StreamTuple], Optional[List[Dict[str, Any]]]]:
        if not buf or buf[0] != MAGIC:
            # ``buf[:1]!r`` names a ``str`` payload (a retired JSON
            # document) as well as a foreign byte string.
            raise SerializationError(
                f"channel {self.channel!r}: {type(buf).__name__} payload does "
                f"not start with the binary batch magic (first byte {buf[:1]!r})"
            )
        count, pos = read_uvarint(buf, 1)
        if count > _MAX_BATCH_TUPLES:
            raise SerializationError(
                f"channel {self.channel!r}: batch declares {count} tuples, "
                f"beyond the {_MAX_BATCH_TUPLES} sanity limit (corrupt blob)"
            )
        ts_column, pos = self._decode_column(buf, pos, count)
        wall_column, pos = self._decode_column(buf, pos, count)
        orders, pos = self._decode_column(buf, pos, count)
        values_docs, pos = self._decode_documents(buf, pos, count)
        prov_docs = None
        flags = buf[pos]
        pos += 1
        if flags & ~(_FLAG_PAYLOADS | _FLAG_BLOCKS):
            raise SerializationError(
                f"channel {self.channel!r}: unknown batch flags {flags:#x}"
            )
        if flags & _FLAG_PAYLOADS:
            prov_docs, pos = self._decode_documents(buf, pos, count)
        if flags & _FLAG_BLOCKS:
            sink_ts, pos = self._decode_column(buf, pos, count)
            sink_ids, pos = self._decode_column(buf, pos, count)
            bounds = [0]
            for _ in range(count):
                size, pos = read_uvarint(buf, pos)
                bounds.append(bounds[-1] + size)
            if bounds[-1] > _MAX_BATCH_TUPLES:
                raise SerializationError(
                    f"channel {self.channel!r}: blocks declare {bounds[-1]} "
                    f"source entries, beyond the {_MAX_BATCH_TUPLES} sanity limit"
                )
            entries, pos = self._decode_documents(buf, pos, bounds[-1])
        if pos != len(buf):
            raise SerializationError(
                f"channel {self.channel!r}: {len(buf) - pos} trailing byte(s) "
                "after the batch (corrupt or mis-framed blob)"
            )
        # Inlined StreamTuple.owned: this loop rebuilds every cross-boundary
        # tuple -- the one per-row step of a decode -- so even the
        # classmethod call is measurable at batch sizes.
        new = StreamTuple.__new__
        cls = UnfoldedBlock if flags & _FLAG_BLOCKS else StreamTuple
        tuples = []
        append = tuples.append
        for ts, values, wall, order in zip(ts_column, values_docs, wall_column, orders):
            tup = new(cls)
            tup.ts = ts
            tup.values = values
            tup.meta = None
            tup.wall = wall
            tup.order_key = tuple(order) if type(order) is list else order
            append(tup)
        if flags & _FLAG_BLOCKS:
            for index, block in enumerate(cast(List[UnfoldedBlock], tuples)):
                block.sink_ts = sink_ts[index]
                block.sink_id = sink_ids[index]
                block.sources = entries[bounds[index]:bounds[index + 1]]
        return tuples, prov_docs

    # -- documents ---------------------------------------------------------
    def _decode_documents(
        self, buf: bytes, pos: int, expected: int
    ) -> Tuple[List[Dict[str, Any]], int]:
        group_count, pos = read_uvarint(buf, pos)
        docs: List[Dict[str, Any]] = []
        schemas = self._schemas
        for _ in range(group_count):
            count, pos = read_uvarint(buf, pos)
            if len(docs) + count > expected:
                raise SerializationError(
                    f"channel {self.channel!r}: document groups overflow the "
                    f"declared batch size {expected}"
                )
            code, pos = read_uvarint(buf, pos)
            if code == 0:
                key_count, pos = read_uvarint(buf, pos)
                key_list = []
                for _ in range(key_count):
                    key, pos = self._read_interned(buf, pos)
                    key_list.append(key)
                keys = tuple(key_list)
                schemas.append(keys)
            else:
                index = code - 1
                if index >= len(schemas):
                    raise SerializationError(
                        f"channel {self.channel!r}: unknown schema reference "
                        f"{index} (decoder out of sync; was the encoder reset?)"
                    )
                keys = schemas[index]
            if not keys:
                docs.extend({} for _ in range(count))
                continue
            columns = []
            for _ in keys:
                column, pos = self._decode_column(buf, pos, count)
                columns.append(column)
            docs.extend([dict(zip(keys, row)) for row in zip(*columns)])
        if len(docs) != expected:
            raise SerializationError(
                f"channel {self.channel!r}: batch declares {expected} tuples "
                f"but its document groups carry {len(docs)}"
            )
        return docs, pos

    # -- columns -----------------------------------------------------------
    def _decode_column(self, buf: bytes, pos: int, count: int) -> Tuple[Sequence[Any], int]:
        tag = buf[pos]
        pos += 1
        if tag == _COL_FLOAT:
            return _column_struct("d", count).unpack_from(buf, pos), pos + 8 * count
        if tag == _COL_INT:
            return _column_struct("q", count).unpack_from(buf, pos), pos + 8 * count
        if tag == _COL_INTERN8 or tag == _COL_INTERN16:
            strings = self._strings
            fresh, pos = read_uvarint(buf, pos)
            for _ in range(fresh):
                value, pos = _read_literal(buf, pos)
                strings.append(value)
            codes: Sequence[int]
            if tag == _COL_INTERN8:
                codes, pos = _take(buf, pos, count)
            else:
                codes = _column_struct("H", count).unpack_from(buf, pos)
                pos += 2 * count
            try:
                return list(map(strings.__getitem__, codes)), pos
            except IndexError:
                self._unknown_string(max(codes))
        if tag == _COL_TEXT:
            prefix, pos = self._read_interned(buf, pos)
            text, pos = _read_literal(buf, pos)
            if prefix:
                text = prefix + text.replace(_SEP, _SEP + prefix)
            column = text.split(_SEP)
            if len(column) != count:
                raise SerializationError(
                    f"channel {self.channel!r}: text column carries "
                    f"{len(column)} values, the batch declares {count}"
                )
            return column, pos
        if tag == _COL_BOOL:
            raw, pos = _take(buf, pos, count)
            return list(map(bool, raw)), pos
        if tag == _COL_NONE:
            return [None] * count, pos
        if tag == _COL_GENERIC:
            column = []
            for _ in range(count):
                value, pos = self._decode_generic(buf, pos)
                column.append(value)
            return column, pos
        raise SerializationError(
            f"channel {self.channel!r}: "
            + ("retired" if tag == _RETIRED_COL_ID else "unknown")
            + f" column tag {tag:#x} on the wire"
        )

    # -- scalars -----------------------------------------------------------
    def _unknown_string(self, index: int) -> NoReturn:
        raise SerializationError(
            f"channel {self.channel!r}: unknown string reference "
            f"{index} (decoder out of sync; was the encoder reset?)"
        )

    def _read_interned(self, buf: bytes, pos: int) -> Tuple[str, int]:
        code, pos = read_uvarint(buf, pos)
        if code >= 2:
            index = code - 2
            strings = self._strings
            if index >= len(strings):
                self._unknown_string(index)
            return strings[index], pos
        value, pos = _read_literal(buf, pos)
        if code == 0:
            self._strings.append(value)
        return value, pos

    def _decode_generic(self, buf: bytes, pos: int) -> Tuple[Any, int]:
        tag = buf[pos]
        pos += 1
        if tag == _G_NONE:
            return None, pos
        if tag == _G_FALSE:
            return False, pos
        if tag == _G_TRUE:
            return True, pos
        if tag == _G_INT:
            return read_svarint(buf, pos)
        if tag == _G_FLOAT:
            (value,) = _UNPACK_FLOAT(buf, pos)
            return value, pos + 8
        if tag == _G_STR:
            return self._read_interned(buf, pos)
        if tag == _G_LIST:
            length, pos = read_uvarint(buf, pos)
            items = []
            for _ in range(length):
                item, pos = self._decode_generic(buf, pos)
                items.append(item)
            return items, pos
        if tag == _G_DICT:
            length, pos = read_uvarint(buf, pos)
            document = {}
            for _ in range(length):
                key, pos = self._read_interned(buf, pos)
                document[key], pos = self._decode_generic(buf, pos)
            return document, pos
        raise SerializationError(
            f"channel {self.channel!r}: "
            + ("retired" if tag == _RETIRED_G_ID else "unknown")
            + f" value tag {tag:#x} on the wire"
        )

