"""WireCodec delivers every protocol payload, and refuses older formats.

The ``wire`` fixture is parametrized over the three wire formats a
receiver meets: v3, the packed record our writer produces, and v1
(list-of-pairs rows) / v2 (flat row arrays), the JSON envelopes older
senders produce -- ``data/wire_v1.json`` / ``wire_v2.json``, written by
those writers before they were deleted.  A v3 record decodes to exactly
the message that was encoded (:func:`fixture_messages`); a v1/v2
envelope is refused by name, and the tests below then check that the
v3 record of the same message -- what the upgraded peer sends --
carries every field.
"""

import json

import pytest

from repro.formats.codec import _put_fallback
from repro.formats.errors import UnsupportedFormatError
from repro.relational.delta import Delta
from repro.relational.relation import Relation
from repro.runtime import TcpChannelConfig, WireCodec, WireProtocolError
from repro.simulation.channel import Message
from repro.sources.messages import (
    EcaAnswer,
    EcaQuery,
    MultiQueryAnswer,
    MultiQueryRequest,
    QueryAnswer,
    QueryRequest,
    SnapshotAnswer,
    SnapshotRequest,
    UpdateNotice,
)
from tests.runtime.wire_fixtures import (
    HOSTILE_SHAPES,
    V3_BYTES_REDUCTION,
    bodies,
    fixture_messages,
    hostile_envelope,
    load_envelopes,
    same_message,
    variant_of,
)


class Wire:
    """The fixture messages as a sender of codec ``version`` put them in
    ``m``: our v3 records, or the checked-in v1/v2 envelopes."""

    def __init__(self, version, view):
        self.version = version
        variant = variant_of(view)
        self.codec = WireCodec(view, extra_views=(variant,))
        self.messages = fixture_messages(view, variant)
        self.records = bodies(self.codec, self.messages)
        if version == 3:
            self.bodies = self.records
        else:
            self.bodies = load_envelopes(version)

    def index(self, payload_type) -> int:
        return next(
            i for i, m in enumerate(self.messages)
            if type(m.payload) is payload_type
        )

    def body(self, payload_type):
        return self.bodies[self.index(payload_type)]

    def deliver(self, payload_type) -> tuple[Message, Message]:
        """(the message encoded, the message the receiver decodes).

        A v1/v2 envelope of ``payload_type`` must be refused by name;
        the message decoded is then the v3 record of the same message."""
        i = self.index(payload_type)
        sent = self.messages[i]
        if self.version != 3:
            assert_refused(self.codec, self.bodies[i])
        received = self.codec.decode_message(self.records[i])
        assert same_message(received, sent), payload_type.__name__
        return sent, received


def assert_refused(codec, envelope) -> None:
    """``envelope`` is refused as a v1/v2 envelope, typed as the protocol
    error a listener records, and the refusal says what to do."""
    with pytest.raises(UnsupportedFormatError, match="v1/v2 envelope") as info:
        codec.decode_message(envelope)
    assert isinstance(info.value, WireProtocolError)
    assert "upgrade the peer" in str(info.value)


@pytest.fixture(params=[1, 2, 3], ids=["v1", "v2", "v3"])
def wire(request, paper_view):
    """Every format a receiver meets: what it reads, and what it refuses."""
    return Wire(request.param, paper_view)


def test_update_notice_roundtrip(wire):
    sent, copy = wire.deliver(UpdateNotice)
    assert copy.kind == "update" and copy.sender == "R1"
    assert copy.sent_at == sent.sent_at
    notice = sent.payload
    assert copy.payload.source_index == 1
    assert copy.payload.seq == notice.seq
    assert copy.payload.txn_id == "t-9"
    assert copy.payload.txn_total == 2
    assert copy.payload.delta == notice.delta
    assert copy.payload.delta.schema == notice.delta.schema


def test_query_request_and_answer_roundtrip(wire):
    sent, copy = wire.deliver(QueryRequest)
    assert copy.payload.request_id == 11 and copy.payload.target_index == 3
    assert (copy.payload.partial.lo, copy.payload.partial.hi) == (1, 2)
    assert copy.payload.partial.delta == sent.payload.partial.delta
    assert copy.payload.epoch == 2

    sent, copy = wire.deliver(QueryAnswer)
    # The answer's partial belongs to the variant view: it keeps its tag.
    assert copy.payload.partial.view is wire.codec.views["V#bd"]
    assert copy.payload.partial.delta == sent.payload.partial.delta


def test_multi_query_roundtrip(wire):
    sent, copy = wire.deliver(MultiQueryRequest)
    assert [p.delta for p in copy.payload.partials] == [
        p.delta for p in sent.payload.partials
    ]
    assert copy.payload.target_index == 3

    _, copy = wire.deliver(MultiQueryAnswer)
    assert len(copy.payload.partials) == 3


def test_eca_roundtrip(wire):
    sent, copy = wire.deliver(EcaQuery)
    assert [t.sign for t in copy.payload.terms] == [1, -1]
    assert (
        copy.payload.terms[1].substitutions[2]
        == sent.payload.terms[1].substitutions[2]
    )

    sent, copy = wire.deliver(EcaAnswer)
    assert copy.payload.delta == sent.payload.delta


def test_snapshot_roundtrip(wire):
    _, copy = wire.deliver(SnapshotRequest)
    assert copy.payload.request_id == 13 and copy.payload.epoch == 1

    sent, copy = wire.deliver(SnapshotAnswer)
    assert isinstance(copy.payload.relation, Relation)
    assert copy.payload.relation == sent.payload.relation
    assert copy.payload.epoch == 5


def test_unknown_payload_type_rejected(wire):
    with pytest.raises(WireProtocolError):
        wire.codec.encode_message(Message("update", "R1", object()))
    body = wire.body(UpdateNotice)
    if wire.version == 3:
        unknown = bytes([0]) + body[1:]  # no payload type has byte 0
    else:
        unknown = {**body, "payload": {**body["payload"], "type": "no-such"}}
    with pytest.raises(WireProtocolError):
        wire.codec.decode_message(unknown)


def test_malformed_envelope_rejected(wire):
    body = wire.body(UpdateNotice)
    if wire.version == 3:
        malformed = body[:-1]  # the row block is cut short
    else:
        malformed = {"kind": body["kind"]}  # no sender/payload
    with pytest.raises(WireProtocolError):
        wire.codec.decode_message(malformed)


def test_negative_counts_and_empty_delta_roundtrip(wire):
    """Deletions (count < 0) and empty deltas survive the record."""
    _, notice = wire.deliver(UpdateNotice)
    assert dict(notice.payload.delta.items()) == {(1, 3): 1, (70000, -3): -2}

    _, answer = wire.deliver(MultiQueryAnswer)
    assert dict(answer.payload.partials[2].delta.items()) == {}


# ---------------------------------------------------------------------------
# The checked-in v1/v2 envelopes
# ---------------------------------------------------------------------------

def test_v2_rows_are_flat_arrays():
    """v1 envelopes carry list-of-pairs rows, v2 one flat ``{"f": [...]}``
    array of ``arity + 1`` entries per row."""
    v1 = load_envelopes(1)[0]["payload"]["rows"]
    v2 = load_envelopes(2)[0]["payload"]["rows"]
    assert isinstance(v1, list) and all(len(e) == 2 for e in v1)
    assert set(v2) == {"f"}
    # Stride is arity + 1: the row values followed by the signed count.
    assert len(v2["f"]) == len(v1) * (len(v1[0][0]) + 1)


def test_cross_version_decode(paper_view):
    """One codec meets every version with nothing to configure: each v3
    record decodes to exactly the message encoded, and every checked-in
    v1/v2 envelope -- one per payload type -- is refused by name."""
    variant = variant_of(paper_view)
    codec = WireCodec(paper_view, extra_views=(variant,))
    messages = fixture_messages(paper_view, variant)
    for record, message in zip(bodies(codec, messages), messages):
        assert same_message(codec.decode_message(record), message)
    for version in (1, 2):
        envelopes = load_envelopes(version)
        assert len(envelopes) == len(messages) == 11
        for envelope in envelopes:
            assert_refused(codec, envelope)


def test_codec_version_validation():
    """v3 is the only format written; a configuration naming another
    version is refused, not silently rewritten."""
    assert TcpChannelConfig(codec_version=3).codec_version == 3
    for bad in (1, 2, 4):
        with pytest.raises(ValueError, match="codec_version must be 3"):
            TcpChannelConfig(codec_version=bad)


def test_v3_halves_the_serialized_bytes(paper_view):
    """The fixture messages as v3 records take at most half the bytes of
    the compact JSON of the v2 envelopes the v2 writer made of them
    (4.0x here)."""
    variant = variant_of(paper_view)
    codec = WireCodec(paper_view, extra_views=(variant,))
    records = bodies(codec, fixture_messages(paper_view, variant))
    v2_bytes = sum(
        len(json.dumps(envelope, separators=(",", ":")).encode())
        for envelope in load_envelopes(2)
    )
    assert v2_bytes >= V3_BYTES_REDUCTION * sum(map(len, records))


def test_flat_rows_with_bad_stride_rejected(paper_view):
    """A fallback row block whose flat array is not a multiple of arity+1
    values long is corrupt."""
    codec = WireCodec(paper_view)
    notice = UpdateNotice(1, 4, Delta(paper_view.schema_of(1), {("x", 3): 1}))
    record = codec.encode_message(Message("update", "R1", notice))
    good, bad = bytearray(), bytearray()
    _put_fallback(good, ["x", 3, 1])
    _put_fallback(bad, ["x", 3, 1, 99])  # one extra element
    assert record.endswith(good)
    with pytest.raises(WireProtocolError, match="not a multiple"):
        codec.decode_message(record[: -len(good)] + bytes(bad))


# ---------------------------------------------------------------------------
# Hostile v1/v2 envelopes: each shape is a WireProtocolError, nothing else
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", HOSTILE_SHAPES)
def test_hostile_envelope_is_a_protocol_error(paper_view, shape):
    """However an older envelope is malformed, it is refused as what it
    is -- a v1/v2 envelope -- never decoded far enough to fail untyped."""
    codec = WireCodec(paper_view, extra_views=(variant_of(paper_view),))
    with pytest.raises(WireProtocolError, match="v1/v2 envelope dict"):
        codec.decode_message(hostile_envelope(shape))
