"""The binary serialization kernel shared by wire, WAL and checkpoints.

One encoding, three consumers: every TCP frame
(:mod:`repro.runtime.tcp`; the messages inside them are packed records
of :mod:`repro.formats.codec`, carried as bytes values, whose row blocks
fall back to a binwire document for non-int values), WAL header frames
(:mod:`repro.durability.wal`) and checkpoint envelopes and bodies
(:mod:`repro.durability.checkpoint`).  The value model is exactly JSON's
(``None``/bool/int/float/str/list/dict with string keys) plus bytes.

Document format
---------------
A document is ``MAGIC`` (one byte, ``0xB3``) + ``FORMAT`` (one byte) +
one encoded value.

Values are type-tagged:

====== ===================================================================
tag    payload
====== ===================================================================
0x00   ``None``
0x01   ``True``
0x02   ``False``
0x03   int: zigzag varint
0x04   float: 8-byte big-endian IEEE double
0x05   str definition: varint UTF-8 byte length + bytes; the string is
       appended to the document's intern table
0x06   str reference: varint index into the intern table
0x07   bytes: varint length + raw bytes
0x08   list: varint element count + elements
0x09   dict: varint pair count + alternating key (str) / value
0x80+  fixint: ``0x80 | z`` encodes the zigzagged value ``z`` (< 0x80)
       in one byte, i.e. every int in ``[-64, 63]`` -- row values,
       counts, sequence numbers and arities are almost always this small
====== ===================================================================

String interning is **per document**: the first occurrence of a string
is a definition, every repeat a one- or two-byte reference, so a key
that repeats (an ``mb`` frame's entries carry ``"seq"`` and ``"m"`` once
per message) is spelled out once per document.

A reader trusts no length: a string, bytes, list or dict count larger
than the bytes left is refused before anything is allocated for it.

On top of the per-document table sits :data:`STATIC_STRINGS`, a table of
well-known protocol strings that is *part of the format* (HPACK's static
table is the precedent): both sides pre-seed their intern tables with
it, so an envelope key like ``"request_id"`` costs two bytes even on its
first occurrence in a document.  That matters because most wire frames
are small single-message envelopes where every key would otherwise be a
first occurrence.  The table is append-only across format history --
reordering or removing an entry is a format break and requires bumping
``FORMAT``.  Unknown strings degrade gracefully to per-document
definitions, so the table is an optimization, never a correctness
dependency.

This module imports nothing from :mod:`repro`.  Errors raise
:class:`BinwireError` (a ``ValueError``); callers wrap it into their own
protocol error.
"""

from __future__ import annotations

import struct

MAGIC = 0xB3
FORMAT = 1

_DOUBLE = struct.Struct(">d")

_TAG_NONE = 0x00
_TAG_TRUE = 0x01
_TAG_FALSE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_REF = 0x06
_TAG_BYTES = 0x07
_TAG_LIST = 0x08
_TAG_DICT = 0x09
_FIXINT = 0x80

#: Format-level static intern table (indices 0..len-1); per-document
#: definitions continue after it.  APPEND-ONLY: changing existing
#: entries breaks every reader and writer pair -- bump ``FORMAT``.
STATIC_STRINGS = (
    # TCP frame envelopes (repro.runtime.tcp).
    "t", "msg", "mb", "ack", "hello", "welcome",
    "channel", "next", "expect", "codec", "epoch", "frames", "seq", "m",
    # Message envelope and senders (repro.formats.codec).
    "kind", "sender", "sent_at", "payload",
    "query", "update", "answer", "insert", "warehouse", "central",
    # Payload types and keys (repro.formats.codec, repro.sources.messages).
    "type", "update_notice", "query_request", "query_answer",
    "multi_query_request", "multi_query_answer", "eca_query", "eca_answer",
    "position_request", "position_answer",
    "snapshot_request", "snapshot_answer",
    "request_id", "source_index", "target_index",
    "partial", "partials", "rows", "f", "w", "lo", "hi",
    "sign", "subs", "terms", "view", "position", "applied_at",
    "txn_id", "txn_total",
    # Durable envelopes (repro.durability.wal / .checkpoint / .encoding).
    "wal", "generation", "format", "crc", "body",
    "views", "pending", "applied_counts", "delivered_marks",
    "installs", "request_watermark", "written_at",
    "stores", "locality", "aux", "snapshot_delta", "snapshot_relation",
    "encoded_row_count",
)
_STATIC_INDEX = {text: index for index, text in enumerate(STATIC_STRINGS)}
assert len(_STATIC_INDEX) == len(STATIC_STRINGS), "duplicate static string"


class BinwireError(ValueError):
    """Malformed document or unencodable value."""


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _append_varint(buf: bytearray, value: int) -> None:
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def _encode(obj, buf: bytearray, interns: dict) -> None:
    # Exact-type dispatch ordered by frequency in protocol traffic; the
    # exact check on int also excludes bool (its own type) for free.
    kind = type(obj)
    if kind is int:
        z = obj << 1 if obj >= 0 else (-obj << 1) - 1  # zigzag
        if z < 0x80:
            buf.append(_FIXINT | z)
            return
        buf.append(_TAG_INT)
        _append_varint(buf, z)
        return
    if kind is str:
        index = interns.get(obj)
        if index is not None:
            buf.append(_TAG_REF)
            _append_varint(buf, index)
            return
        interns[obj] = len(interns)
        raw = obj.encode("utf-8")
        buf.append(_TAG_STR)
        _append_varint(buf, len(raw))
        buf += raw
        return
    if kind is dict:
        buf.append(_TAG_DICT)
        _append_varint(buf, len(obj))
        for key, value in obj.items():
            if type(key) is not str:
                raise BinwireError(
                    f"dict keys must be str, got {type(key).__name__}"
                    " (stringify keys explicitly)"
                )
            _encode(key, buf, interns)
            _encode(value, buf, interns)
        return
    if kind is list or kind is tuple:
        buf.append(_TAG_LIST)
        _append_varint(buf, len(obj))
        for item in obj:
            _encode(item, buf, interns)
        return
    if kind is float:
        buf.append(_TAG_FLOAT)
        buf += _DOUBLE.pack(obj)
        return
    if obj is None:
        buf.append(_TAG_NONE)
        return
    if obj is True:
        buf.append(_TAG_TRUE)
        return
    if obj is False:
        buf.append(_TAG_FALSE)
        return
    if kind is bytes or kind is bytearray:
        buf.append(_TAG_BYTES)
        _append_varint(buf, len(obj))
        buf += obj
        return
    # Subclass stragglers (IntEnum, defaultdict...) take the slow path.
    if isinstance(obj, bool):
        buf.append(_TAG_TRUE if obj else _TAG_FALSE)
        return
    if isinstance(obj, int):
        _encode(int(obj), buf, interns)
        return
    if isinstance(obj, float):
        _encode(float(obj), buf, interns)
        return
    if isinstance(obj, str):
        _encode(str(obj), buf, interns)
        return
    if isinstance(obj, dict):
        _encode(dict(obj), buf, interns)
        return
    if isinstance(obj, (list, tuple)):
        _encode(list(obj), buf, interns)
        return
    raise BinwireError(f"cannot encode {type(obj).__name__} values")


def dumps(obj) -> bytes:
    """Serialize one JSON-shaped value to a self-describing document."""
    buf = bytearray((MAGIC, FORMAT))
    _encode(obj, buf, dict(_STATIC_INDEX))
    return bytes(buf)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def _read_varint(data, pos: int) -> tuple[int, int]:
    value = 0
    shift = 0
    try:
        while True:
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value, pos
            shift += 7
    except IndexError:
        raise BinwireError("truncated varint") from None


def _read_count(data, pos: int) -> tuple[int, int]:
    """A list or dict element count; every element takes at least one
    byte, so a count above the bytes left is a lie -- refuse it before
    anything is allocated for it."""
    count, pos = _read_varint(data, pos)
    if count > len(data) - pos:
        raise BinwireError(
            f"count {count} exceeds the {len(data) - pos} byte(s) left"
        )
    return count, pos


def _decode(data, pos: int, strings: list):
    try:
        tag = data[pos]
    except IndexError:
        raise BinwireError("truncated document") from None
    pos += 1
    if tag >= _FIXINT:
        z = tag & 0x7F
        return (z >> 1) if not z & 1 else -((z + 1) >> 1), pos
    if tag == _TAG_REF:
        index, pos = _read_varint(data, pos)
        try:
            return strings[index], pos
        except IndexError:
            raise BinwireError(f"string reference {index} out of range") from None
    if tag == _TAG_STR:
        length, pos = _read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise BinwireError("truncated string")
        try:
            text = str(data[pos:end], "utf-8")
        except UnicodeDecodeError as exc:
            raise BinwireError(f"string is not UTF-8: {exc}") from None
        strings.append(text)
        return text, pos + length
    if tag == _TAG_DICT:
        count, pos = _read_count(data, pos)
        obj = {}
        for _ in range(count):
            key, pos = _decode(data, pos, strings)
            if type(key) is not str:
                raise BinwireError(f"dict key is a {type(key).__name__}, not a str")
            value, pos = _decode(data, pos, strings)
            obj[key] = value
        return obj, pos
    if tag == _TAG_LIST:
        count, pos = _read_count(data, pos)
        items = [None] * count
        for index in range(count):
            items[index], pos = _decode(data, pos, strings)
        return items, pos
    if tag == _TAG_INT:
        z, pos = _read_varint(data, pos)
        return (z >> 1) if not z & 1 else -((z + 1) >> 1), pos
    if tag == _TAG_FLOAT:
        end = pos + 8
        if end > len(data):
            raise BinwireError("truncated float")
        return _DOUBLE.unpack_from(data, pos)[0], end
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_BYTES:
        length, pos = _read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise BinwireError("truncated bytes")
        return bytes(data[pos:end]), end
    raise BinwireError(f"unknown type tag 0x{tag:02x}")


def loads(data: bytes | bytearray | memoryview):
    """Deserialize one document produced by :func:`dumps`."""
    if len(data) < 2 or data[0] != MAGIC:
        raise BinwireError("not a binwire document (bad magic byte)")
    if data[1] != FORMAT:
        raise BinwireError(f"unsupported binwire format {data[1]}")
    value, pos = _decode(data, 2, list(STATIC_STRINGS))
    if pos != len(data):
        raise BinwireError(
            f"{len(data) - pos} trailing byte(s) after the document"
        )
    return value


__all__ = [
    "FORMAT",
    "MAGIC",
    "STATIC_STRINGS",
    "BinwireError",
    "dumps",
    "loads",
]
