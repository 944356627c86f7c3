"""Fixture messages, and the checked-in v1/v2 envelopes of them.

``data/wire_v1.json`` and ``data/wire_v2.json`` were written once by the
v1 (``[[row], count]`` pairs) and v2 (flat ``{"f": [...]}`` rows) JSON
envelope writers, before those writers were deleted: one envelope per
payload type, encoded from :func:`fixture_messages` by the codec of
that time, ``WireCodec(paper_view, version=1 or 2,
extra_views=(variant,))``.  Readers refuse them; they are the inputs of
the refusal tests, and the byte baseline v3 is held to.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

from repro.relational.delta import Delta
from repro.relational.incremental import PartialView
from repro.relational.relation import Relation
from repro.relational.view import ViewDefinition
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

DATA = os.path.join(os.path.dirname(__file__), "data")

# What v3 buys on bytes: one packed record per message, rows as int
# columns of the narrowest width, where v2 spells every key and row out
# as JSON text.
V3_BYTES_REDUCTION = 2.0


def variant_of(view: ViewDefinition, name: str = "V#bd") -> ViewDefinition:
    """A same-chain view with another projection (tagged on the wire)."""
    return ViewDefinition(
        name=name,
        relation_names=view.relation_names,
        schemas=view.schemas,
        join_conditions=view.join_conditions,
        projection=("B", "D"),
    )


def fixture_messages(view: ViewDefinition, variant: ViewDefinition) -> list[Message]:
    """One message per payload type, with a tagged partial of ``variant``,
    nonzero epochs, a ``txn_id``, negative counts and an empty delta."""
    d1 = Delta(view.schema_of(1), {(1, 3): 1, (2, 5): -1})
    d2 = Delta(view.schema_of(2), {(3, 7): 2})
    p12 = PartialView(
        view, 1, 2, Delta(view.wide_schema_range(1, 2), {(1, 3, 3, 7): 1})
    )
    tagged = PartialView(
        variant, 2, 3,
        Delta(variant.wide_schema_range(2, 3), {(3, 7, 7, 8): -1}),
    )
    empty = PartialView(view, 1, 1, Delta(view.schema_of(1)))
    envelopes = [
        ("update", "R1", UpdateNotice(
            source_index=1, seq=4,
            delta=Delta(view.schema_of(1), {(1, 3): 1, (70000, -3): -2}),
            applied_at=6.25, txn_id="t-9", txn_total=2,
        )),
        ("query", "wh", QueryRequest(
            request_id=11, partial=p12, target_index=3, epoch=2
        )),
        ("answer", "R3", QueryAnswer(request_id=11, partial=tagged, epoch=2)),
        ("query", "wh", MultiQueryRequest(
            request_id=12, partials=[p12, tagged], target_index=3, epoch=1
        )),
        ("answer", "R3", MultiQueryAnswer(
            request_id=12, partials=[tagged, p12, empty], epoch=1
        )),
        ("query", "wh", EcaQuery(
            request_id=16,
            terms=[
                EcaQueryTerm(substitutions={1: d1}, sign=1),
                EcaQueryTerm(substitutions={1: d1, 2: d2}, sign=-1),
            ],
        )),
        ("answer", "central", EcaAnswer(
            request_id=16,
            delta=Delta(view.wide_schema, {(1, 3, 3, 7, 7, 8): 1}),
        )),
        ("query", "wh", PositionRequest(request_id=15, epoch=3)),
        ("answer", "R1", PositionAnswer(
            request_id=15, source_index=1, position=9, epoch=3
        )),
        ("query", "wh", SnapshotRequest(request_id=13, epoch=1)),
        ("answer", "R2", SnapshotAnswer(
            request_id=13, source_index=2,
            relation=Relation(view.schema_of(2), {(3, 7): 1, (4, 9): 3}),
            epoch=5,
        )),
    ]
    return [
        Message(kind=kind, sender=sender, payload=payload, sent_at=0.5 + i)
        for i, (kind, sender, payload) in enumerate(envelopes)
    ]


def load_envelopes(version: int) -> list[dict]:
    """The checked-in envelopes of codec ``version`` (1 or 2)."""
    with open(os.path.join(DATA, f"wire_v{version}.json"), encoding="utf-8") as f:
        return json.load(f)["envelopes"]


def _set(**fields):
    return lambda payload: payload.update(fields)


def _edit_first_eca_term(payload):
    payload["terms"][0]["subs"] = [1, 2]


def _edit_partial(payload):
    payload["partial"].update(lo=3, hi=1)


#: Malformed v1/v2 envelopes, each still refused as what it is:
#: shape -> (codec version, fixture index, edit of the payload).
_HOSTILE = {
    "list-payload": (2, 0, None),
    "eca-subs-list": (2, 5, _edit_first_eca_term),
    "source-index-99": (2, 0, _set(source_index=99)),
    "lo-above-hi": (2, 1, _edit_partial),
    "v1-row-wrong-arity": (1, 0, _set(rows=[[[1, 3, 5], 1]])),
    "negative-snapshot-count": (1, 10, _set(rows=[[[3, 7], -1]])),
}
HOSTILE_SHAPES = tuple(_HOSTILE)


def hostile_envelope(shape: str) -> dict:
    """A checked-in envelope edited into one of :data:`HOSTILE_SHAPES`."""
    version, index, edit = _HOSTILE[shape]
    envelope = load_envelopes(version)[index]
    if edit is None:
        envelope["payload"] = [1, 2]
    else:
        edit(envelope["payload"])
    return envelope


def same_message(a: Message, b: Message) -> bool:
    """Equal envelope fields and payloads (the ids and delivery stamps
    a decode assigns afresh are not compared)."""
    return (a.kind, a.sender, a.sent_at, a.payload) == (
        b.kind, b.sender, b.sent_at, b.payload
    )


def bodies(codec, messages: list[Message]) -> list[bytes]:
    """What a sender puts in each message's ``m``: its v3 record."""
    return [codec.encode_message(message) for message in messages]


def older_peer_frame(obj: dict, compress_min: int | None = None) -> bytes:
    """``obj`` as a frame of a peer that predates binwire frames: a
    compact JSON body (zlib past ``compress_min`` when that shrinks it)
    behind the same MSB-flagged length prefix."""
    body = json.dumps(obj, separators=(",", ":")).encode()
    if compress_min is not None and len(body) >= compress_min:
        packed = zlib.compress(body, 1)
        if len(packed) < len(body):
            return struct.pack(">I", len(packed) | 0x80000000) + packed
    return struct.pack(">I", len(body)) + body
