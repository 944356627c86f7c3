"""Wire codec for the protocol payloads.

Both endpoints of a channel share the same :class:`~repro.relational.view.
ViewDefinition` (in deployment it is derived from the same seeded workload
configuration), so rows travel bare: the receiver reattaches the schema
from the view and the ``(lo, hi)`` range or source index carried alongside.
Rows are tuples of JSON scalars; counts are signed integers.

The codec is deliberately symmetric with :func:`repro.simulation.metrics.
estimate_size`: a decoded message reports the same payload row count the
simulator would have accounted, which keeps distributed metrics comparable
with simulator metrics.

Codec version
-------------
Every process writes and reads one format: **v3** (``CODEC_VERSION``),
one packed ``bytes`` **record** per envelope, carried as a bytes value
inside a :mod:`repro.formats.binwire` frame.  Nothing in a record
describes itself: the type byte fixes the layout, and both ends know it.
The v1/v2 JSON envelope dicts of older peers are refused
(:class:`~repro.formats.errors.UnsupportedWireFormatError`), not read.

Record layout (v3)
------------------
A record is, in order:

1. the payload type's fixed fields, packed by one precompiled
   :class:`struct.Struct` per type (little-endian, no padding): a type
   byte, the envelope's ``sent_at`` as a double, then the payload's own
   scalars (ids and positions as int64, indices as uint16, epochs and
   totals as uint32, times as doubles, and a presence byte for an
   optional string);
2. the envelope's ``kind`` and ``sender`` as *texts*;
3. the variable tail: optional texts (``txn_id``, a partial's view tag),
   nested fixed parts (a partial's ``lo``/``hi``, an ECA term's sign) and
   row blocks.

A **text** is one varint ``v``: odd ``v`` names entry ``v >> 1`` of
binwire's :data:`~repro.formats.binwire.STATIC_STRINGS`, even ``v`` is
followed by ``v >> 1`` bytes of UTF-8.  ``"update"`` costs one byte.

A **row block** holds a bag of ``arity + 1``-value rows (the row, then
its signed count).  It starts with one varint ``h``:

* even ``h``: ``h >> 1`` values follow as packed integer *columns*, one
  per position of the stride.  After the header come ``ceil(stride / 4)``
  bytes of 2-bit width codes (column ``c`` in bits ``2c..2c+1``: int8,
  int16, int32 or int64, the narrowest that holds the column's range),
  then the columns back to back.  Zero values means an empty bag and no
  width bytes.
* odd ``h``: a binwire document of ``h >> 1`` bytes follows, holding the
  flat row array (each row's values, then its count).  A block falls
  back to it when a value is not an ``int`` or does not fit int64 -- the
  values decide, no option does.

Whatever is malformed in a record -- a short record, an unknown type,
an index past the view's chain, a row of the wrong arity -- is a
:class:`~repro.formats.errors.WireProtocolError` and nothing else.
"""

from __future__ import annotations

import struct
from itertools import chain, repeat

from repro.relational.delta import Delta
from repro.relational.errors import RelationalError
from repro.relational.incremental import PartialView
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.view import ViewDefinition
from repro.formats import binwire
from repro.formats.binwire import _append_varint, _read_varint
from repro.formats.errors import (
    UPGRADE_PEER,
    UnsupportedWireFormatError,
    WireProtocolError,
)
from repro.simulation.channel import Message
from repro.sources.messages import (
    EcaAnswer,
    EcaQuery,
    EcaQueryTerm,
    MultiQueryAnswer,
    MultiQueryRequest,
    PositionAnswer,
    PositionRequest,
    QueryAnswer,
    QueryRequest,
    SnapshotAnswer,
    SnapshotRequest,
    UpdateNotice,
)


#: The one version every process writes: packed v3 records, which beat
#: v2's JSON on encode+decode CPU and on bytes (docs/performance.md,
#: "Codec v2 against packed v3").
CODEC_VERSION = 3

#: What a malformed record raises inside the reader; it turns them into
#: :class:`WireProtocolError`.
_MALFORMED = (
    IndexError, KeyError, TypeError, ValueError, AttributeError,
    struct.error, RelationalError,
)


# ----------------------------------------------------------------------
# v3 records: fixed parts
# ----------------------------------------------------------------------
(
    _T_UPDATE_NOTICE,
    _T_QUERY_REQUEST,
    _T_QUERY_ANSWER,
    _T_MULTI_QUERY_REQUEST,
    _T_MULTI_QUERY_ANSWER,
    _T_ECA_QUERY,
    _T_ECA_ANSWER,
    _T_POSITION_REQUEST,
    _T_POSITION_ANSWER,
    _T_SNAPSHOT_REQUEST,
    _T_SNAPSHOT_ANSWER,
) = range(1, 12)

#: type, sent_at, source_index, seq, applied_at, txn_total, has txn_id
_UPDATE_NOTICE = struct.Struct("<BdHqdIB")
#: type, sent_at, request_id, target_index, epoch
_QUERY_REQUEST = struct.Struct("<BdqHI")
#: type, sent_at, request_id, epoch
_QUERY_ANSWER = struct.Struct("<BdqI")
#: type, sent_at, request_id, target_index, epoch, partial count
_MULTI_QUERY_REQUEST = struct.Struct("<BdqHIH")
#: type, sent_at, request_id, epoch, partial count
_MULTI_QUERY_ANSWER = struct.Struct("<BdqIH")
#: type, sent_at, request_id, term count
_ECA_QUERY = struct.Struct("<BdqH")
#: type, sent_at, request_id
_ECA_ANSWER = struct.Struct("<Bdq")
#: type, sent_at, request_id, epoch
_POSITION_REQUEST = struct.Struct("<BdqI")
#: type, sent_at, request_id, source_index, position, epoch
_POSITION_ANSWER = struct.Struct("<BdqHqI")
#: type, sent_at, request_id, epoch
_SNAPSHOT_REQUEST = struct.Struct("<BdqI")
#: type, sent_at, request_id, source_index, epoch
_SNAPSHOT_ANSWER = struct.Struct("<BdqHI")

#: A partial's lo, hi and whether a view tag follows.
_PARTIAL = struct.Struct("<HHB")
#: An ECA term's sign and substitution count; each substitution is a
#: relation index followed by a row block.
_ECA_TERM = struct.Struct("<bH")
_ECA_SUBSTITUTION = struct.Struct("<H")

_FIXED = {
    _T_UPDATE_NOTICE: _UPDATE_NOTICE,
    _T_QUERY_REQUEST: _QUERY_REQUEST,
    _T_QUERY_ANSWER: _QUERY_ANSWER,
    _T_MULTI_QUERY_REQUEST: _MULTI_QUERY_REQUEST,
    _T_MULTI_QUERY_ANSWER: _MULTI_QUERY_ANSWER,
    _T_ECA_QUERY: _ECA_QUERY,
    _T_ECA_ANSWER: _ECA_ANSWER,
    _T_POSITION_REQUEST: _POSITION_REQUEST,
    _T_POSITION_ANSWER: _POSITION_ANSWER,
    _T_SNAPSHOT_REQUEST: _SNAPSHOT_REQUEST,
    _T_SNAPSHOT_ANSWER: _SNAPSHOT_ANSWER,
}


# ----------------------------------------------------------------------
# v3 records: texts
# ----------------------------------------------------------------------
_STATIC_INDEX = {text: i for i, text in enumerate(binwire.STATIC_STRINGS)}
#: Encoded texts by value: envelope kinds, senders and view names repeat
#: on every record.  Bounded, so unique ``txn_id`` values cannot grow it.
_TEXTS: dict[str, bytes] = {}
_TEXTS_MAX = 4096


def _text(text: str) -> bytes:
    found = _TEXTS.get(text)
    if found is None:
        buf = bytearray()
        index = _STATIC_INDEX.get(text)
        if index is not None:
            _append_varint(buf, index << 1 | 1)
        else:
            raw = text.encode("utf-8")
            _append_varint(buf, len(raw) << 1)
            buf += raw
        found = bytes(buf)
        if len(_TEXTS) < _TEXTS_MAX:
            _TEXTS[text] = found
    return found


def _read_text(data, pos: int) -> tuple[str, int]:
    v = data[pos]
    if v < 0x80:
        pos += 1
    else:
        v, pos = _read_varint(data, pos)
    if v & 1:
        return binwire.STATIC_STRINGS[v >> 1], pos
    end = pos + (v >> 1)
    if end > len(data):
        raise WireProtocolError("truncated text")
    return str(data[pos:end], "utf-8"), end


# ----------------------------------------------------------------------
# v3 records: row blocks
# ----------------------------------------------------------------------
_WIDTH_CODES = "bhiq"
#: Width code by the largest ``int.bit_length`` in a column: int8 holds
#: every value of at most 7 bits, and so on; 64 bits does not fit int64.
_CODE_BY_BITS = bytes([0] * 8 + [1] * 8 + [2] * 16 + [3] * 32)
_INT_ONLY = {int}
#: Compiled block layouts, bounded (a long run meets many row counts):
#: (width code per column, rows) -> (block header, column Struct) for the
#: writer, (packed width bytes, stride, rows) -> column Struct for the
#: reader.
_LAYOUTS: dict[tuple[bytes, int], tuple[bytes, struct.Struct]] = {}
_READ_LAYOUTS: dict[tuple[bytes, int, int], struct.Struct] = {}
_LAYOUTS_MAX = 1024


def _layout(codes: bytes, rows: int) -> tuple[bytes, struct.Struct]:
    key = (codes, rows)
    found = _LAYOUTS.get(key)
    if found is None:
        stride = len(codes)
        packed = sum(code << 2 * c for c, code in enumerate(codes))
        header = bytearray()
        _append_varint(header, rows * stride << 1)
        header += packed.to_bytes((stride + 3) // 4, "little")
        fmt = "".join(f"{rows}{_WIDTH_CODES[code]}" for code in codes)
        found = (bytes(header), struct.Struct("<" + fmt))
        if len(_LAYOUTS) >= _LAYOUTS_MAX:
            _LAYOUTS.clear()
        _LAYOUTS[key] = found
    return found


def _read_layout(widths: bytes, stride: int, rows: int) -> struct.Struct:
    key = (widths, stride, rows)
    found = _READ_LAYOUTS.get(key)
    if found is None:
        packed = int.from_bytes(widths, "little")
        if packed >> 2 * stride:
            raise WireProtocolError("row block sets width bits past its stride")
        found = _layout(bytes(packed >> 2 * c & 3 for c in range(stride)), rows)[1]
        if len(_READ_LAYOUTS) >= _LAYOUTS_MAX:
            _READ_LAYOUTS.clear()
        _READ_LAYOUTS[key] = found
    return found


def _put_ints(buf: bytearray, values, bits, rows: int) -> bool:
    """Append a packed block: ``values`` column by column, ``bits`` the
    largest bit length per column.  False when a value is not an int64."""
    if not {*map(type, values)} <= _INT_ONLY:
        return False
    try:
        codes = bytes(map(_CODE_BY_BITS.__getitem__, bits))
    except IndexError:
        return False
    header, block = _layout(codes, rows)
    buf += header
    buf += block.pack(*values)
    return True


def _put_columns(buf: bytearray, columns: list) -> bool:
    """:func:`_put_ints` for equal-length columns (row values..., count)."""
    return _put_ints(
        buf,
        [*chain.from_iterable(columns)],
        map(max, map(map, repeat(int.bit_length), columns)),
        len(columns[0]),
    )


def _put_bag(buf: bytearray, bag) -> None:
    """Append ``bag`` as a row block."""
    rows = len(bag)
    if rows == 1:  # one entry per column: the row is the block
        [(row, count)] = bag.items()
        values = (*row, count)
        packed = _put_ints(buf, values, map(int.bit_length, values), 1)
    elif rows:
        row_tuples, counts = zip(*bag.items())
        packed = _put_columns(buf, [*zip(*row_tuples), counts])
    else:
        buf.append(0)
        return
    if not packed:
        _put_fallback(buf, [v for row, count in bag.items() for v in (*row, count)])


def _put_fallback(buf: bytearray, flat: list) -> None:
    doc = binwire.dumps(flat)
    _append_varint(buf, len(doc) << 1 | 1)
    buf += doc


def _read_counts(data, pos: int, arity: int) -> tuple[dict[tuple, int], int]:
    """One row block's ``row -> count`` mapping (duplicates: last wins)."""
    v = data[pos]
    if v < 0x80:
        pos += 1
    else:
        v, pos = _read_varint(data, pos)
    size = v >> 1
    if size > len(data) - pos:
        raise WireProtocolError(
            f"row block of {size} values overruns the record"
        )
    stride = arity + 1
    if v & 1:
        end = pos + size
        flat = binwire.loads(data[pos:end])
        if type(flat) is not list:
            raise WireProtocolError("fallback row block is not a list")
        if len(flat) % stride:
            raise WireProtocolError(
                f"fallback row block of {len(flat)} values is not a multiple"
                f" of arity+1 ({stride})"
            )
        counts = {
            tuple(flat[i : i + arity]): int(flat[i + arity])
            for i in range(0, len(flat), stride)
        }
        return counts, end
    if not size:
        return {}, pos
    if size % stride:
        raise WireProtocolError(
            f"row block of {size} values is not a multiple of"
            f" arity+1 ({stride})"
        )
    width_bytes = (stride + 3) // 4
    rows = size // stride
    block = _read_layout(data[pos : pos + width_bytes], stride, rows)
    values = block.unpack_from(data, pos + width_bytes)
    if rows == 1:
        counts = {values[:arity]: values[arity]}
    else:
        columns = [values[c * rows : (c + 1) * rows] for c in range(stride)]
        counts = dict(zip(zip(*columns[:arity]), columns[arity]))
    return counts, pos + width_bytes + block.size


def _read_delta(data, pos: int, schema: Schema) -> tuple[Delta, int]:
    counts, pos = _read_counts(data, pos, len(schema))
    if 0 in counts.values():  # what Delta.add does with a zero count
        counts = {row: count for row, count in counts.items() if count}
    return Delta._from_validated(schema, counts), pos


class WireCodec:
    """Encode/decode :class:`Message` envelopes, as v3 records, for one
    view's channels."""

    def __init__(
        self,
        view: ViewDefinition,
        extra_views: tuple[ViewDefinition, ...] = (),
    ):
        self.view = view
        # Multi-view channels (sharded warehouse) carry partials of several
        # same-chain views; each partial is tagged with its view name so
        # the receiver rebinds it to the right definition (the selection
        # predicate lives on the view, and ComputeJoin evaluates it).
        self.views: dict[str, ViewDefinition] = {view.name: view}
        for extra in extra_views:
            self.views[extra.name] = extra

    # ------------------------------------------------------------------
    # Envelope
    # ------------------------------------------------------------------
    def encode_message(self, message: Message) -> bytes:
        """One envelope's v3 record."""
        encode = _RECORD_WRITERS.get(type(message.payload))
        if encode is None:
            raise WireProtocolError(
                "no wire encoding for payload type"
                f" {type(message.payload).__name__}"
            )
        try:
            return bytes(encode(self, message, message.payload))
        except struct.error as exc:
            raise WireProtocolError(
                f"{type(message.payload).__name__} field out of range"
                f" for a v3 record: {exc}"
            ) from exc

    def decode_message(self, record: bytes) -> Message:
        """A v3 record back as a message."""
        if type(record) is dict:  # what a v1/v2 sender put in ``m``
            raise UnsupportedWireFormatError.refuse(
                "message", "a v1/v2 envelope dict", UPGRADE_PEER
            )
        return self._decode_record(record)

    def _decode_record(self, data) -> Message:
        try:
            kind = data[0]
            fixed = _FIXED[kind]
            fields = fixed.unpack_from(data)
            envelope_kind, pos = _read_text(data, fixed.size)
            sender, pos = _read_text(data, pos)
            payload, pos = _RECORD_READERS[kind](self, fields, data, pos)
        except _MALFORMED as exc:
            raise WireProtocolError(
                f"malformed record: {type(exc).__name__}: {exc}"
            ) from exc
        if pos != len(data):
            raise WireProtocolError(
                f"{len(data) - pos} trailing byte(s) after the record"
            )
        return Message(
            kind=envelope_kind, sender=sender, payload=payload, sent_at=fields[1]
        )

    @staticmethod
    def _head(kind: int, message: Message, *fields) -> bytearray:
        """A record's fixed part and envelope texts; the tail follows."""
        buf = bytearray(_FIXED[kind].pack(kind, message.sent_at, *fields))
        buf += _text(message.kind)
        buf += _text(message.sender)
        return buf

    def _put_partial(self, buf: bytearray, partial: PartialView) -> None:
        # Tag partials of non-primary views; the receiver rebinds them.
        name = partial.view.name
        tagged = name != self.view.name
        buf += _PARTIAL.pack(partial.lo, partial.hi, tagged)
        if tagged:
            buf += _text(name)
        _put_bag(buf, partial.delta)

    def _read_partial(self, data, pos: int) -> tuple[PartialView, int]:
        lo, hi, tagged = _PARTIAL.unpack_from(data, pos)
        pos += _PARTIAL.size
        view = self.view
        if tagged:
            name, pos = _read_text(data, pos)
            view = self._tagged_view(name)
        delta, pos = _read_delta(data, pos, view.wide_schema_range(lo, hi))
        return PartialView(view, lo, hi, delta), pos

    def _read_partials(self, data, pos: int, count: int):
        partials = []
        for _ in range(count):
            partial, pos = self._read_partial(data, pos)
            partials.append(partial)
        return partials, pos

    def _write_update_notice(self, message, p: UpdateNotice) -> bytearray:
        txn_id = p.txn_id
        buf = self._head(
            _T_UPDATE_NOTICE, message, p.source_index, p.seq, p.applied_at,
            p.txn_total, txn_id is not None,
        )
        if txn_id is not None:
            buf += _text(txn_id)
        _put_bag(buf, p.delta)
        return buf

    def _read_update_notice(self, fields, data, pos):
        _, _, index, seq, applied_at, txn_total, has_txn_id = fields
        txn_id = None
        if has_txn_id:
            txn_id, pos = _read_text(data, pos)
        delta, pos = _read_delta(data, pos, self.view.schema_of(index))
        notice = UpdateNotice(
            source_index=index, seq=seq, delta=delta, applied_at=applied_at,
            txn_id=txn_id, txn_total=txn_total,
        )
        return notice, pos

    def _write_query_request(self, message, p: QueryRequest) -> bytearray:
        buf = self._head(
            _T_QUERY_REQUEST, message, p.request_id, p.target_index, p.epoch
        )
        self._put_partial(buf, p.partial)
        return buf

    def _read_query_request(self, fields, data, pos):
        _, _, request_id, target_index, epoch = fields
        partial, pos = self._read_partial(data, pos)
        return QueryRequest(request_id, partial, target_index, epoch), pos

    def _write_query_answer(self, message, p: QueryAnswer) -> bytearray:
        buf = self._head(_T_QUERY_ANSWER, message, p.request_id, p.epoch)
        self._put_partial(buf, p.partial)
        return buf

    def _read_query_answer(self, fields, data, pos):
        _, _, request_id, epoch = fields
        partial, pos = self._read_partial(data, pos)
        return QueryAnswer(request_id, partial, epoch), pos

    def _write_multi_query_request(
        self, message, p: MultiQueryRequest
    ) -> bytearray:
        buf = self._head(
            _T_MULTI_QUERY_REQUEST, message, p.request_id, p.target_index,
            p.epoch, len(p.partials),
        )
        for partial in p.partials:
            self._put_partial(buf, partial)
        return buf

    def _read_multi_query_request(self, fields, data, pos):
        _, _, request_id, target_index, epoch, count = fields
        partials, pos = self._read_partials(data, pos, count)
        return MultiQueryRequest(request_id, partials, target_index, epoch), pos

    def _write_multi_query_answer(
        self, message, p: MultiQueryAnswer
    ) -> bytearray:
        buf = self._head(
            _T_MULTI_QUERY_ANSWER, message, p.request_id, p.epoch,
            len(p.partials),
        )
        for partial in p.partials:
            self._put_partial(buf, partial)
        return buf

    def _read_multi_query_answer(self, fields, data, pos):
        _, _, request_id, epoch, count = fields
        partials, pos = self._read_partials(data, pos, count)
        return MultiQueryAnswer(request_id, partials, epoch), pos

    def _write_eca_query(self, message, p: EcaQuery) -> bytearray:
        buf = self._head(_T_ECA_QUERY, message, p.request_id, len(p.terms))
        for term in p.terms:
            buf += _ECA_TERM.pack(term.sign, len(term.substitutions))
            for index, delta in term.substitutions.items():
                buf += _ECA_SUBSTITUTION.pack(index)
                _put_bag(buf, delta)
        return buf

    def _read_eca_query(self, fields, data, pos):
        _, _, request_id, count = fields
        terms = []
        for _ in range(count):
            sign, n_subs = _ECA_TERM.unpack_from(data, pos)
            pos += _ECA_TERM.size
            substitutions = {}
            for _ in range(n_subs):
                (index,) = _ECA_SUBSTITUTION.unpack_from(data, pos)
                pos += _ECA_SUBSTITUTION.size
                substitutions[index], pos = _read_delta(
                    data, pos, self.view.schema_of(index)
                )
            terms.append(EcaQueryTerm(substitutions=substitutions, sign=sign))
        return EcaQuery(request_id=request_id, terms=terms), pos

    def _write_eca_answer(self, message, p: EcaAnswer) -> bytearray:
        buf = self._head(_T_ECA_ANSWER, message, p.request_id)
        _put_bag(buf, p.delta)
        return buf

    def _read_eca_answer(self, fields, data, pos):
        delta, pos = _read_delta(data, pos, self.view.wide_schema)
        return EcaAnswer(request_id=fields[2], delta=delta), pos

    def _write_position_request(self, message, p: PositionRequest) -> bytearray:
        return self._head(_T_POSITION_REQUEST, message, p.request_id, p.epoch)

    def _read_position_request(self, fields, data, pos):
        return PositionRequest(request_id=fields[2], epoch=fields[3]), pos

    def _write_position_answer(self, message, p: PositionAnswer) -> bytearray:
        return self._head(
            _T_POSITION_ANSWER, message, p.request_id, p.source_index,
            p.position, p.epoch,
        )

    def _read_position_answer(self, fields, data, pos):
        _, _, request_id, index, position, epoch = fields
        return PositionAnswer(request_id, index, position, epoch), pos

    def _write_snapshot_request(self, message, p: SnapshotRequest) -> bytearray:
        return self._head(_T_SNAPSHOT_REQUEST, message, p.request_id, p.epoch)

    def _read_snapshot_request(self, fields, data, pos):
        return SnapshotRequest(request_id=fields[2], epoch=fields[3]), pos

    def _write_snapshot_answer(self, message, p: SnapshotAnswer) -> bytearray:
        buf = self._head(
            _T_SNAPSHOT_ANSWER, message, p.request_id, p.source_index, p.epoch
        )
        _put_bag(buf, p.relation)
        return buf

    def _read_snapshot_answer(self, fields, data, pos):
        _, _, request_id, index, epoch = fields
        schema = self.view.schema_of(index)
        counts, pos = _read_counts(data, pos, len(schema))
        answer = SnapshotAnswer(
            request_id=request_id,
            source_index=index,
            relation=Relation(schema, counts),
            epoch=epoch,
        )
        return answer, pos

    # ------------------------------------------------------------------
    def _tagged_view(self, name: str) -> ViewDefinition:
        view = self.views.get(name)
        if view is None:
            raise WireProtocolError(
                f"partial references unknown view {name!r}"
                f" (known: {sorted(self.views)})"
            )
        return view


#: Record writer and reader per payload type.
_RECORD_WRITERS = {
    UpdateNotice: WireCodec._write_update_notice,
    QueryRequest: WireCodec._write_query_request,
    QueryAnswer: WireCodec._write_query_answer,
    MultiQueryRequest: WireCodec._write_multi_query_request,
    MultiQueryAnswer: WireCodec._write_multi_query_answer,
    EcaQuery: WireCodec._write_eca_query,
    EcaAnswer: WireCodec._write_eca_answer,
    PositionRequest: WireCodec._write_position_request,
    PositionAnswer: WireCodec._write_position_answer,
    SnapshotRequest: WireCodec._write_snapshot_request,
    SnapshotAnswer: WireCodec._write_snapshot_answer,
}
_RECORD_READERS = {
    _T_UPDATE_NOTICE: WireCodec._read_update_notice,
    _T_QUERY_REQUEST: WireCodec._read_query_request,
    _T_QUERY_ANSWER: WireCodec._read_query_answer,
    _T_MULTI_QUERY_REQUEST: WireCodec._read_multi_query_request,
    _T_MULTI_QUERY_ANSWER: WireCodec._read_multi_query_answer,
    _T_ECA_QUERY: WireCodec._read_eca_query,
    _T_ECA_ANSWER: WireCodec._read_eca_answer,
    _T_POSITION_REQUEST: WireCodec._read_position_request,
    _T_POSITION_ANSWER: WireCodec._read_position_answer,
    _T_SNAPSHOT_REQUEST: WireCodec._read_snapshot_request,
    _T_SNAPSHOT_ANSWER: WireCodec._read_snapshot_answer,
}


__all__ = ["CODEC_VERSION", "WireCodec"]
