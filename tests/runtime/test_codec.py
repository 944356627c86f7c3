"""WireCodec roundtrips every protocol payload through JSON.

The ``codec`` fixture is parametrized over both row encodings -- v1
(list-of-pairs) and v2 (flat array) -- so every roundtrip below is
exercised under each wire format.  Decoding is version-agnostic, which
the cross-version tests at the bottom pin explicitly.
"""

import json

import pytest

from repro.relational.delta import Delta
from repro.relational.incremental import PartialView
from repro.relational.relation import Relation
from repro.runtime import WireCodec, WireProtocolError
from repro.runtime.codec import CODEC_VERSION_MAX
from repro.simulation.channel import Message
from repro.sources.messages import (
    EcaAnswer,
    EcaQuery,
    EcaQueryTerm,
    MultiQueryAnswer,
    MultiQueryRequest,
    QueryAnswer,
    QueryRequest,
    SnapshotAnswer,
    SnapshotRequest,
    UpdateNotice,
)


@pytest.fixture(params=[1, 2, 3], ids=["v1", "v2", "v3"])
def codec(request, paper_view):
    # v1/v2 encode JSON-safe objects; v3 encodes one packed bytes record
    # per message, which the roundtrip below decodes as it is.
    # test_codec_records.py covers the record layout and its reader.
    return WireCodec(paper_view, version=request.param)


def roundtrip(codec, message):
    """Encode (through actual JSON text for v1/v2), decode, return the copy."""
    wire = codec.encode_message(message)
    if not isinstance(wire, bytes):
        wire = json.loads(json.dumps(wire))
    return codec.decode_message(wire)


def _delta(paper_view, index, rows):
    return Delta(paper_view.schema_of(index), rows)


def test_update_notice_roundtrip(codec, paper_view):
    notice = UpdateNotice(
        source_index=2,
        seq=3,
        delta=_delta(paper_view, 2, {(3, 7): 1, (4, 9): -1}),
        applied_at=12.5,
        txn_id="t-1",
        txn_total=2,
    )
    message = Message(kind="update", sender="R2", payload=notice, sent_at=13.0)
    copy = roundtrip(codec, message)
    assert copy.kind == "update" and copy.sender == "R2"
    assert copy.sent_at == 13.0
    assert copy.payload.source_index == 2
    assert copy.payload.seq == 3
    assert copy.payload.txn_id == "t-1"
    assert copy.payload.txn_total == 2
    assert copy.payload.delta == notice.delta
    assert copy.payload.delta.schema == notice.delta.schema


def test_query_request_and_answer_roundtrip(codec, paper_view):
    partial = PartialView(
        paper_view, 2, 3,
        Delta(paper_view.wide_schema_range(2, 3), {(3, 7, 7, 8): 1}),
    )
    request = Message(
        kind="query", sender="wh",
        payload=QueryRequest(request_id=9, partial=partial, target_index=1),
    )
    copy = roundtrip(codec, request).payload
    assert copy.request_id == 9 and copy.target_index == 1
    assert (copy.partial.lo, copy.partial.hi) == (2, 3)
    assert copy.partial.delta == partial.delta

    answer = Message(
        kind="answer", sender="R1",
        payload=QueryAnswer(request_id=9, partial=partial),
    )
    assert roundtrip(codec, answer).payload.partial.delta == partial.delta


def test_multi_query_roundtrip(codec, paper_view):
    partials = [
        PartialView(
            paper_view, 1, 1,
            Delta(paper_view.schema_of(1), {(1, 3): 1}),
        ),
        PartialView(
            paper_view, 1, 2,
            Delta(paper_view.wide_schema_range(1, 2), {(1, 3, 3, 7): -1}),
        ),
    ]
    message = Message(
        kind="query", sender="wh",
        payload=MultiQueryRequest(request_id=4, partials=partials, target_index=3),
    )
    copy = roundtrip(codec, message).payload
    assert [p.delta for p in copy.partials] == [p.delta for p in partials]
    assert copy.target_index == 3

    answer = Message(
        kind="answer", sender="R3",
        payload=MultiQueryAnswer(request_id=4, partials=partials),
    )
    assert len(roundtrip(codec, answer).payload.partials) == 2


def test_eca_roundtrip(codec, paper_view):
    query = EcaQuery(
        request_id=6,
        terms=[
            EcaQueryTerm(
                substitutions={1: _delta(paper_view, 1, {(1, 3): 1})}, sign=1
            ),
            EcaQueryTerm(
                substitutions={
                    1: _delta(paper_view, 1, {(1, 3): 1}),
                    2: _delta(paper_view, 2, {(3, 7): -1}),
                },
                sign=-1,
            ),
        ],
    )
    copy = roundtrip(
        codec, Message(kind="query", sender="wh", payload=query)
    ).payload
    assert [t.sign for t in copy.terms] == [1, -1]
    assert copy.terms[1].substitutions[2] == query.terms[1].substitutions[2]

    answer = EcaAnswer(
        request_id=6,
        delta=Delta(paper_view.wide_schema, {(1, 3, 3, 7, 7, 8): 1}),
    )
    copy = roundtrip(
        codec, Message(kind="answer", sender="central", payload=answer)
    ).payload
    assert copy.delta == answer.delta


def test_snapshot_roundtrip(codec, paper_view, paper_states):
    request = Message(
        kind="query", sender="wh", payload=SnapshotRequest(request_id=2)
    )
    assert roundtrip(codec, request).payload.request_id == 2

    answer = Message(
        kind="answer", sender="R3",
        payload=SnapshotAnswer(
            request_id=2, source_index=3, relation=paper_states["R3"]
        ),
    )
    copy = roundtrip(codec, answer).payload
    assert isinstance(copy.relation, Relation)
    assert copy.relation == paper_states["R3"]


def test_unknown_payload_type_rejected(codec):
    with pytest.raises(WireProtocolError):
        codec.encode_payload(object())
    with pytest.raises(WireProtocolError):
        codec.decode_payload({"type": "no-such-payload"})


def test_malformed_envelope_rejected(codec):
    with pytest.raises(WireProtocolError):
        codec.decode_message({"kind": "update"})  # no sender/payload


# ---------------------------------------------------------------------------
# Row-encoding versions
# ---------------------------------------------------------------------------

def _notice(paper_view, rows):
    return Message(
        kind="update", sender="R1",
        payload=UpdateNotice(
            source_index=1, seq=1,
            delta=_delta(paper_view, 1, rows), applied_at=1.0,
        ),
    )


def test_negative_counts_and_empty_delta_roundtrip(codec, paper_view):
    """Deletions (count < 0) and empty deltas survive both encodings."""
    mixed = roundtrip(codec, _notice(paper_view, {(1, 3): -2, (4, 9): 1}))
    assert dict(mixed.payload.delta.items()) == {(1, 3): -2, (4, 9): 1}

    empty = roundtrip(codec, _notice(paper_view, {}))
    assert dict(empty.payload.delta.items()) == {}


def test_v2_rows_are_flat_arrays(paper_view):
    """v1 emits list-of-pairs rows, v2 one flat ``{"f": [...]}`` array."""
    from repro.runtime.codec import _encode_rows

    delta = Delta(paper_view.schema_of(1), {(1, 3): 2, (4, 9): -1})
    v1 = _encode_rows(delta, 1)
    v2 = _encode_rows(delta, 2)
    assert isinstance(v1, list) and all(len(e) == 2 for e in v1)
    assert set(v2) == {"f"}
    # Stride is arity + 1: the row values followed by the signed count.
    arity = len(paper_view.schema_of(1).attributes)
    assert len(v2["f"]) == 2 * (arity + 1)


def test_cross_version_decode(paper_view):
    """A v1 decoder accepts v2 frames and vice versa (downgrade safety)."""
    message = Message(
        kind="update", sender="R1",
        payload=UpdateNotice(
            source_index=1, seq=1,
            delta=Delta(paper_view.schema_of(1), {(1, 3): 1, (4, 9): -1}),
            applied_at=1.0,
        ),
    )
    v1_codec = WireCodec(paper_view, version=1)
    v2_codec = WireCodec(paper_view, version=2)
    for encoder, decoder in ((v1_codec, v2_codec), (v2_codec, v1_codec)):
        wire = json.loads(json.dumps(encoder.encode_message(message)))
        assert decoder.decode_message(wire).payload.delta == message.payload.delta


def test_encode_message_version_override(paper_view):
    """Transports pass the negotiated version per call; it wins."""
    codec = WireCodec(paper_view, version=1)
    message = Message(
        kind="update", sender="R1",
        payload=UpdateNotice(
            source_index=1, seq=1,
            delta=Delta(paper_view.schema_of(1), {(1, 3): 1}), applied_at=1.0,
        ),
    )
    wire = codec.encode_message(message, version=2)
    assert isinstance(wire["payload"]["rows"], dict)  # flat v2 shape
    assert isinstance(
        codec.encode_message(message)["payload"]["rows"], list
    )  # the codec's own default is untouched


def test_codec_version_validation(paper_view):
    for bad in (0, CODEC_VERSION_MAX + 1):
        with pytest.raises(ValueError):
            WireCodec(paper_view, version=bad)


def test_flat_rows_with_bad_stride_rejected(paper_view):
    """A flat array whose length is not a multiple of arity+1 is corrupt."""
    codec = WireCodec(paper_view, version=2)
    message = Message(
        kind="update", sender="R1",
        payload=UpdateNotice(
            source_index=1, seq=1,
            delta=Delta(paper_view.schema_of(1), {(1, 3): 1}), applied_at=1.0,
        ),
    )
    wire = codec.encode_message(message)
    wire["payload"]["rows"]["f"].append(99)  # truncated/extra element
    with pytest.raises(WireProtocolError):
        codec.decode_message(wire)
