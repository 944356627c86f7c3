"""Codec v3 records: layout, field coverage and the hostile-input reader.

``encode_message`` returns one packed ``bytes`` record per message (see
:mod:`repro.formats.codec`).  These tests pin what the generic
roundtrips in ``test_codec.py`` / ``test_binwire.py`` do not: every
optional field both ways, the packed-versus-fallback row blocks, the
dict-in-binwire frames of earlier v3 senders refused, and a reader that
turns every malformed record into :class:`WireProtocolError` and nothing
else.
"""

import asyncio
import struct

import pytest

from repro.relational.delta import Delta
from repro.relational.incremental import PartialView
from repro.relational.relation import Relation
from repro.formats import binwire, codec as wire
from repro.formats.errors import UnsupportedFormatError
from repro.runtime import WireCodec, WireProtocolError
from repro.runtime.tcp import read_frame
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
    is_rebalance_fence,
    make_rebalance_fence,
    rebalance_fence_epoch,
)
from tests.hostile import check_hostile, lying_varint
from tests.runtime.wire_fixtures import (
    fixture_messages,
    load_envelopes,
    same_message,
    variant_of,
)


@pytest.fixture
def variant(paper_view):
    return variant_of(paper_view)


@pytest.fixture
def codec(paper_view, variant):
    return WireCodec(paper_view, extra_views=(variant,))


def _wire(codec, message):
    record = codec.encode_message(message)
    assert type(record) is bytes
    return codec.decode_message(record)


def _notice(view, rows, **fields):
    return UpdateNotice(
        source_index=1, seq=fields.pop("seq", 4),
        delta=Delta(view.schema_of(1), rows), applied_at=6.25, **fields,
    )


def _messages(view, variant):
    """Every payload type, with epochs, tags and optional fields set."""
    d1 = Delta(view.schema_of(1), {(1, 3): 1, (2, 5): -1})
    d2 = Delta(view.schema_of(2), {(3, 7): 2})
    p12 = PartialView(
        view, 1, 2, Delta(view.wide_schema_range(1, 2), {(1, 3, 3, 7): 1})
    )
    tagged = PartialView(
        variant, 2, 3,
        Delta(variant.wide_schema_range(2, 3), {(3, 7, 7, 8): -1}),
    )
    payloads = [
        _notice(view, {(1, 3): 1, (2, 5): -1}, txn_id="t-9", txn_total=2),
        _notice(view, {(70000, -3): 1}),
        QueryRequest(request_id=11, partial=p12, target_index=3, epoch=2),
        QueryAnswer(request_id=11, partial=tagged),
        MultiQueryRequest(
            request_id=12, partials=[p12, tagged], target_index=3, epoch=1
        ),
        MultiQueryAnswer(request_id=12, partials=[tagged, p12]),
        SnapshotRequest(request_id=13, epoch=1),
        SnapshotAnswer(
            request_id=13, source_index=2,
            relation=Relation(view.schema_of(2), {(3, 7): 1, (4, 9): 3}),
        ),
        SnapshotAnswer(
            request_id=14, source_index=2,
            relation=Relation(view.schema_of(2), {}), epoch=5,
        ),
        PositionRequest(request_id=15),
        PositionAnswer(request_id=15, source_index=1, position=9, epoch=3),
        EcaQuery(
            request_id=16,
            terms=[
                EcaQueryTerm(substitutions={1: d1}, sign=1),
                EcaQueryTerm(substitutions={1: d1, 2: d2}, sign=-1),
            ],
        ),
        EcaAnswer(
            request_id=16,
            delta=Delta(view.wide_schema, {(1, 3, 3, 7, 7, 8): 1}),
        ),
    ]
    return [
        Message(
            kind="update" if type(p) is UpdateNotice else "query",
            sender="R1" if type(p) is UpdateNotice else "wh",
            payload=p,
            sent_at=0.5 + i,
        )
        for i, p in enumerate(payloads)
    ]


def test_every_payload_type_has_a_record(codec, paper_view, variant):
    """A record decodes to exactly the message it encodes."""
    messages = _messages(paper_view, variant)
    assert {type(m.payload) for m in messages} == set(wire._RECORD_WRITERS)
    for message in messages:
        copy = _wire(codec, message)
        assert same_message(copy, message), type(message.payload).__name__
        assert type(copy.payload) is type(message.payload)


@pytest.mark.parametrize("txn_id", [None, "t-1", "☃" * 40])
def test_txn_id_none_and_string(codec, paper_view, txn_id):
    notice = _notice(paper_view, {(1, 3): 1}, txn_id=txn_id, txn_total=3)
    copy = _wire(codec, Message("update", "R1", notice)).payload
    assert copy.txn_id == txn_id and copy.txn_total == 3


def test_rebalance_fence_survives(codec, paper_view):
    fence = make_rebalance_fence(
        2, boundary=17, delta=Delta(paper_view.schema_of(2)), epoch=4,
        applied_at=3.0,
    )
    copy = _wire(codec, Message("update", "R2", fence)).payload
    assert is_rebalance_fence(copy) and rebalance_fence_epoch(copy) == 4
    assert copy.seq == 17 and not copy.delta
    assert copy.delta.schema == paper_view.schema_of(2)


@pytest.mark.parametrize("epoch", [0, 7])
def test_epoch_zero_and_nonzero(codec, paper_view, epoch):
    partial = PartialView(
        paper_view, 1, 1, Delta(paper_view.schema_of(1), {(1, 3): 1})
    )
    for payload in (
        QueryRequest(1, partial, 2, epoch),
        QueryAnswer(1, partial, epoch),
        MultiQueryRequest(1, [partial], 2, epoch),
        MultiQueryAnswer(1, [partial], epoch),
        PositionRequest(1, epoch),
        PositionAnswer(1, 2, 30, epoch),
        SnapshotRequest(1, epoch),
    ):
        assert _wire(codec, Message("query", "wh", payload)).payload.epoch == epoch


def test_partial_of_a_non_base_view_keeps_its_view(codec, paper_view, variant):
    """A partial of a non-base view is tagged with its name and decodes
    against that view's definition, not the codec's base view."""
    tagged = PartialView(
        variant, 1, 2,
        Delta(variant.wide_schema_range(1, 2), {(1, 3, 3, 7): 1}),
    )
    base = PartialView(
        paper_view, 1, 2,
        Delta(paper_view.wide_schema_range(1, 2), {(2, 3, 3, 7): -1}),
    )
    message = Message("query", "wh", MultiQueryRequest(1, [tagged, base], 3))
    record = codec.encode_message(message)
    assert b"V#bd" in record
    # Any receiver that knows the family decodes it.
    receiver = WireCodec(paper_view, extra_views=(variant,))
    partials = receiver.decode_message(record).payload.partials
    assert [p.view for p in partials] == [variant, paper_view]
    assert [p.delta for p in partials] == [tagged.delta, base.delta]


def test_negative_counts_and_empty_deltas(codec, paper_view):
    for rows in ({(1, 3): -2, (4, 9): 1}, {(1, 3): -(2**40)}, {}):
        copy = _wire(codec, Message("update", "R1", _notice(paper_view, rows)))
        assert dict(copy.payload.delta.items()) == rows


@pytest.mark.parametrize(
    "row",
    [("x", 3), (1.5, 3), (None, 3), (2**63, 3), (True, 3)],
    ids=["str", "float", "None", "above-int64", "bool"],
)
def test_non_int64_values_take_the_fallback_block(codec, paper_view, row):
    message = Message("update", "R1", _notice(paper_view, {row: 1}))
    record = codec.encode_message(message)
    block = record[len(record) - len(_block(codec, record)) :]
    assert block[0] & 1  # the header tags a binwire block
    copy = codec.decode_message(record)
    assert dict(copy.payload.delta.items()) == {row: 1}
    assert [type(v) for v in next(copy.payload.delta.rows())] == [
        type(v) for v in row
    ]


def _block(codec, record: bytes) -> bytes:
    """The row block of a one-notice record without a ``txn_id``."""
    pos = wire._UPDATE_NOTICE.size
    pos = wire._read_text(record, pos)[1]
    pos = wire._read_text(record, pos)[1]
    return record[pos:]


def test_widths_follow_the_values(codec, paper_view):
    """Each column of the stride takes the narrowest int that holds it."""
    def block(rows):
        message = Message("update", "R1", _notice(paper_view, rows))
        return _block(codec, codec.encode_message(message))

    small = block({(1, 3): 1})
    assert small == bytes([3 << 1, 0b000000, 1, 3, 1])
    wide = block({(300, 2**40): -1, (-5, 7): 2})
    # Column codes: int16, int64, int8 -> 0b00_11_01.
    assert wide[:2] == bytes([6 << 1, 0b001101])
    assert len(wide) == 2 + 2 * 2 + 2 * 8 + 2 * 1
    assert block({(2**63 - 1, -(2**63) + 1): 1})[1] == 0b001111


def test_parent_layout_is_refused(codec):
    """A frame of a v3 sender that still put the v2 object layout inside
    the binwire frame (the checked-in v2 envelopes) reads as a frame, and
    its envelope is refused by name."""
    async def read(body: bytes) -> dict:
        reader = asyncio.StreamReader()
        reader.feed_data(struct.pack(">I", len(body)) + body)
        reader.feed_eof()
        return await read_frame(reader)

    for envelope in load_envelopes(2):
        body = binwire.dumps({"t": "msg", "seq": 1, "m": envelope})
        frame = asyncio.run(read(body))
        with pytest.raises(UnsupportedFormatError, match="v1/v2 envelope dict"):
            codec.decode_message(frame["m"])


# ---------------------------------------------------------------------------
# Hostile input
# ---------------------------------------------------------------------------

def test_truncation_at_every_offset(codec, paper_view, variant):
    """Every truncation of every fixture record (all 11 payload types)
    raises :class:`WireProtocolError`; every bit flip, and a lying row
    block header, decodes or raises it -- nothing else escapes."""
    messages = fixture_messages(paper_view, variant)
    assert {type(m.payload) for m in messages} == set(wire._RECORD_WRITERS)
    for message in messages:
        record = codec.encode_message(message)
        lies = []
        if type(message.payload) is UpdateNotice:  # kind, sender, txn_id
            pos = wire._UPDATE_NOTICE.size
            for _ in range(3):
                pos = wire._read_text(record, pos)[1]
            lies.append(lying_varint(record, pos))  # the row block header
        decoded = check_hostile(record, codec.decode_message, WireProtocolError, lies)
        assert not [label for label in decoded if label.startswith("truncated")]


@pytest.mark.parametrize("type_byte", [0, 12, 0xFF])
def test_unknown_type_byte(codec, paper_view, type_byte):
    record = codec.encode_message(
        Message("update", "R1", _notice(paper_view, {(1, 3): 1}))
    )
    with pytest.raises(WireProtocolError):
        codec.decode_message(bytes([type_byte]) + record[1:])


def test_row_count_that_overruns_the_record(codec, paper_view):
    record = codec.encode_message(
        Message("update", "R1", _notice(paper_view, {(1, 3): 1}))
    )
    head = record[: len(record) - len(_block(codec, record))]
    for values in (6, 60, 2**40):
        header = bytearray()
        binwire._append_varint(header, values << 1)
        with pytest.raises(WireProtocolError, match="overruns"):
            codec.decode_message(head + bytes(header) + b"\x00\x01\x03\x01")


def test_stride_that_is_not_arity_plus_one(codec, paper_view):
    record = codec.encode_message(
        Message("update", "R1", _notice(paper_view, {(1, 3): 1}))
    )
    head = record[: len(record) - len(_block(codec, record))]
    # Four int8 values where the schema's stride is 3.
    with pytest.raises(WireProtocolError, match="arity"):
        codec.decode_message(head + bytes([4 << 1, 0, 1, 3, 1, 1]))
    # Width bits set for a fourth column the stride does not have.
    with pytest.raises(WireProtocolError, match="width bits"):
        codec.decode_message(head + bytes([3 << 1, 0b01000000, 1, 3, 1]))


def test_unknown_view_tag(paper_view, variant):
    sender = WireCodec(paper_view, extra_views=(variant,))
    tagged = PartialView(
        variant, 1, 1, Delta(variant.schema_of(1), {(1, 3): 1})
    )
    record = sender.encode_message(
        Message("answer", "R1", QueryAnswer(1, tagged))
    )
    with pytest.raises(WireProtocolError, match="unknown view"):
        WireCodec(paper_view).decode_message(record)


def test_trailing_bytes(codec, paper_view, variant):
    for message in _messages(paper_view, variant):
        record = codec.encode_message(message)
        with pytest.raises(WireProtocolError, match="trailing"):
            codec.decode_message(record + b"\x00")


def test_out_of_range_fixed_field_is_refused_at_encode(codec, paper_view):
    notice = _notice(paper_view, {(1, 3): 1}, seq=2**63)
    with pytest.raises(WireProtocolError, match="out of range"):
        codec.encode_message(Message("update", "R1", notice))
