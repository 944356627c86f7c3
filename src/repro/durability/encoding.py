"""Row and update encodings of durable state and view handoffs.

Durable state is written in the wire codec's v3 layouts
(:mod:`repro.runtime.codec`): a view or auxiliary copy is one **row
block**, a delivered update one ``UpdateNotice`` **record**.  Neither
describes itself, so the readers take the schema or the view.  Every
decoder here still reads the v1/v2 row encodings and the v2 flat-row
dicts (``{"f": [...], "w": arity}``) that checkpoint and WAL formats 1-2
and format-3 handoffs hold.
"""

from __future__ import annotations

from typing import Any

from repro.relational.delta import Delta
from repro.relational.relation import BagBase, Relation
from repro.relational.schema import Schema
from repro.relational.view import ViewDefinition
from repro.simulation.channel import Message
from repro.sources.messages import UpdateNotice

# NOTE: repro.runtime.codec is imported lazily inside the helpers below.
# The warehouse package reaches this module at import time (the
# bootstrap path), and an eager import would close the cycle
# warehouse -> durability -> runtime -> distributed -> harness ->
# warehouse.

#: The envelope of a durable update record.  It has no delivery stamps:
#: on replay the dispatcher re-stamps, so a fresh recorder numbers the
#: recovered run's deliveries from one.
_DURABLE_ENVELOPE = Message(kind="update", sender="", payload=None)

#: The first byte of an ``UpdateNotice`` record (its type byte).
RECORD_PREFIX = b"\x01"


def encode_block(bag: BagBase) -> bytes:
    """``bag`` as one v3 row block."""
    from repro.runtime.codec import _put_bag

    buf = bytearray()
    _put_bag(buf, bag)
    return bytes(buf)


def _counts(rows: Any, arity: int) -> dict[tuple, int]:
    """Row counts of a v3 row block (``bytes``) or a v1/v2 encoding; a
    malformed block raises what the codec's reader raises."""
    from repro.runtime.codec import _decode_counts, _read_counts

    if type(rows) is not bytes:
        return _decode_counts(rows, arity)
    counts, end = _read_counts(rows, 0, arity)
    if end != len(rows):
        raise ValueError(f"{len(rows) - end} trailing byte(s) after a row block")
    return counts


def decode_relation(rows: Any, schema: Schema) -> Relation:
    return Relation(schema, _counts(rows, len(schema)))


def decode_delta(rows: Any, schema: Schema) -> Delta:
    return Delta(schema, _counts(rows, len(schema)))


# ----------------------------------------------------------------------
# Update notices (WAL frames / checkpoint pending queue)
# ----------------------------------------------------------------------
def record_codec(view: ViewDefinition):
    """The codec that writes and reads the update records of ``view``'s
    sources."""
    from repro.runtime.codec import WireCodec

    return WireCodec(view)


def encode_notice(notice: UpdateNotice, codec) -> bytes:
    """One delivered update as its v3 ``UpdateNotice`` record.

    The record depends on the update alone (no codec state enters it), so
    it is memoized in the notice's ``record_memo``, which every
    :meth:`~repro.sources.messages.UpdateNotice.delivery_copy` shares.
    """
    memo = notice.record_memo
    if memo:
        return memo[0]
    record = bytes(codec._write_update_notice(_DURABLE_ENVELOPE, notice))
    if memo is None:
        notice.record_memo = [record]
    else:
        memo.append(record)
    return record


def decode_notice(obj: Any, codec) -> UpdateNotice:
    """A record written by :func:`encode_notice`, or a v2-era dict."""
    if type(obj) is bytes:
        if obj[:1] != RECORD_PREFIX:
            raise ValueError(f"not an update record: type byte {obj[:1].hex()!r}")
        return codec._decode_record(obj).payload
    index = int(obj["source_index"])
    return UpdateNotice(
        source_index=index,
        seq=int(obj["seq"]),
        delta=decode_delta(obj["rows"], codec.view.schema_of(index)),
        applied_at=float(obj.get("applied_at", 0.0)),
        txn_id=obj.get("txn_id"),
        txn_total=int(obj.get("txn_total", 0)),
    )


__all__ = [
    "RECORD_PREFIX",
    "decode_delta",
    "decode_notice",
    "decode_relation",
    "encode_block",
    "encode_notice",
    "record_codec",
]
