"""Row and update encodings of durable state and view handoffs.

Durable state is written and read in the wire codec's v3 layouts
(:mod:`repro.formats.codec`): a view or auxiliary copy is one **row
block**, a delivered update one ``UpdateNotice`` **record**.  Neither
describes itself, so the readers take the schema or the view.
"""

from __future__ import annotations

from repro.formats.codec import WireCodec, _put_bag, _read_counts
from repro.relational.relation import BagBase, Relation
from repro.relational.schema import Schema
from repro.relational.view import ViewDefinition
from repro.simulation.channel import Message
from repro.sources.messages import UpdateNotice

#: The envelope of a durable update record.  It has no delivery stamps:
#: on replay the dispatcher re-stamps, so a fresh recorder numbers the
#: recovered run's deliveries from one.
_DURABLE_ENVELOPE = Message(kind="update", sender="", payload=None)

#: The first byte of an ``UpdateNotice`` record (its type byte).
RECORD_PREFIX = b"\x01"


def encode_block(bag: BagBase) -> bytes:
    """``bag`` as one v3 row block."""
    buf = bytearray()
    _put_bag(buf, bag)
    return bytes(buf)


def _counts(rows: bytes, arity: int) -> dict[tuple, int]:
    """Row counts of a v3 row block; a malformed block raises what the
    codec's reader raises."""
    if type(rows) is not bytes:
        raise TypeError(f"a row block is bytes, not {type(rows).__name__}")
    counts, end = _read_counts(rows, 0, arity)
    if end != len(rows):
        raise ValueError(f"{len(rows) - end} trailing byte(s) after a row block")
    return counts


def decode_relation(rows: bytes, schema: Schema) -> Relation:
    return Relation(schema, _counts(rows, len(schema)))


# ----------------------------------------------------------------------
# Update notices (WAL frames / checkpoint pending queue)
# ----------------------------------------------------------------------
def record_codec(view: ViewDefinition):
    """The codec that writes and reads the update records of ``view``'s
    sources."""
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


def decode_notice(record: bytes, codec) -> UpdateNotice:
    """A record written by :func:`encode_notice`."""
    if record[:1] != RECORD_PREFIX:
        raise ValueError(f"not an update record: type byte {record[:1]!r}")
    return codec._decode_record(record).payload


__all__ = [
    "RECORD_PREFIX",
    "decode_notice",
    "decode_relation",
    "encode_block",
    "encode_notice",
    "record_codec",
]
