"""WAL unit contract: round trip, torn tails, scrambled frames.

The damage policy under test (see :mod:`repro.durability.wal`): a torn
tail is an expected crash artifact and is dropped (and repaired away);
a complete frame with a bad CRC is corruption and must fail loudly --
recovery never replays a damaged update into the view.
"""

import os
import struct
import zlib

import pytest

from repro.durability import (
    UpdateLog,
    WalCorruptionError,
    load_state,
    read_update_log,
)
from repro.durability.encoding import decode_notice, encode_notice, record_codec
from repro.durability.wal import wal_generations, wal_path
from repro.formats import binwire
from repro.relational.delta import Delta
from repro.relational.schema import Schema
from repro.relational.view import ViewDefinition
from repro.sources.messages import UpdateNotice
from tests.durability.test_checkpoint import _checkpoint
from tests.hostile import check_hostile, fresh_copies, lying_field


#: Any chain whose sources are two columns wide writes these records.
_VIEW = ViewDefinition("W", ("R1", "R2"), (Schema(("A", "B")), Schema(("C", "D"))))


def _notice(seq: int, source: int = 1) -> UpdateNotice:
    delta = Delta(Schema(("A", "B")))
    delta.add((seq, 10 * seq), +1)
    delta.add((seq, 11 * seq), -1 if seq % 2 else +2)
    return UpdateNotice(source_index=source, seq=seq, delta=delta)


def _write_log(directory: str, n: int = 5, generation: int = 3) -> str:
    codec = record_codec(_VIEW)
    log = UpdateLog(directory, generation, fsync_batch=2)
    for seq in range(1, n + 1):
        log.append(encode_notice(_notice(seq), codec))
    log.close()
    return log.path


def test_round_trip(tmp_path, paper_view):
    path = _write_log(str(tmp_path))
    generation, records, torn = read_update_log(path)
    assert generation == 3
    assert torn == 0
    assert len(records) == 5
    codec = record_codec(paper_view)
    decoded = [decode_notice(obj, codec) for obj in records]
    assert [n.seq for n in decoded] == [1, 2, 3, 4, 5]
    # The delta survives byte-exactly (counts and signs included).
    assert sorted(decoded[2].delta.items()) == sorted(_notice(3).delta.items())


def test_generation_listing(tmp_path):
    _write_log(str(tmp_path), generation=1)
    _write_log(str(tmp_path), generation=4)
    assert wal_generations(str(tmp_path)) == [1, 4]
    assert wal_path(str(tmp_path), 4).endswith("update-00000004.wal")


def test_torn_tail_dropped_and_repaired(tmp_path):
    path = _write_log(str(tmp_path))
    whole = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(whole - 7)  # cut the last frame mid-payload
    generation, records, torn = read_update_log(path, repair=True)
    assert generation == 3
    assert len(records) == 4  # the torn record is gone
    assert torn > 0
    # Repair truncated the file back to the last whole frame: a re-read
    # is clean and an appender could continue without interleaving.
    assert read_update_log(path) == (3, records, 0)


def test_torn_header_means_empty_log(tmp_path):
    path = os.path.join(str(tmp_path), "update-00000000.wal")
    with open(path, "wb") as handle:
        handle.write(b"\x00\x00")  # not even a whole frame header
    generation, records, torn = read_update_log(path)
    assert generation is None
    assert records == []
    assert torn == 2


def test_crc_mismatch_raises(tmp_path):
    path = _write_log(str(tmp_path))
    # Scramble one byte inside the *payload* of the second frame; the
    # frame stays complete, so this is corruption, not a torn write.
    with open(path, "r+b") as handle:
        data = handle.read()
        length, _ = struct.unpack_from("!II", data, 0)
        second = 8 + length  # skip the header frame
        handle.seek(second + 8 + 3)
        handle.write(b"\xff")
    with pytest.raises(WalCorruptionError, match="fails CRC"):
        read_update_log(path)


def _frames(path: str, *frames: bytes) -> str:
    """A log of ``frames``, every one CRC-valid."""
    with open(path, "wb") as handle:
        for frame in frames:
            handle.write(struct.pack("!II", len(frame), zlib.crc32(frame)))
            handle.write(frame)
    return path


def test_undecodable_frame_raises(tmp_path):
    """A CRC-valid header frame that is not a binwire document."""
    path = _frames(wal_path(str(tmp_path), 2), b"not a header at all")
    with pytest.raises(WalCorruptionError, match="undecodable"):
        read_update_log(path)


@pytest.mark.parametrize(
    "payload",
    [
        # A list / dict count claiming 2**32 - 1 elements in 7 bytes.
        bytes([0xB3, 1, 0x08, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F]),
        bytes([0xB3, 1, 0x09, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F]),
    ],
    ids=["list", "dict"],
)
def test_lying_count_in_a_binwire_frame_is_corruption(tmp_path, payload):
    """A CRC-valid header frame whose document lies about its element
    count is refused before anything is allocated for it, as
    corruption."""
    path = _frames(wal_path(str(tmp_path), 2), payload)
    with pytest.raises(WalCorruptionError, match="exceeds"):
        read_update_log(path)


def test_encode_notice_round_trip(paper_view):
    notice = _notice(9, source=2)
    notice.txn_id = "txn-7"
    notice.txn_total = 3
    codec = record_codec(paper_view)
    back = decode_notice(encode_notice(notice, codec), codec)
    assert back.source_index == 2
    assert back.seq == 9
    assert back.txn_id == "txn-7"
    assert back.txn_total == 3
    assert sorted(back.delta.items()) == sorted(notice.delta.items())


def _record_frames(directory: str, *payloads: bytes) -> str:
    """A generation-2 log of a records header plus ``payloads``, every
    frame CRC-valid."""
    header = binwire.dumps({"wal": 3, "generation": 2})
    return _frames(wal_path(directory, 2), header, *payloads)


def _malformed_records():
    codec = record_codec(_VIEW)
    good = encode_notice(_notice(1), codec)
    wide = Delta(Schema(("A", "B", "X")))
    wide.add((1, 2, 3), +1)
    # Source 1's rows are two values plus a count, so its blocks hold a
    # multiple of 3 values; a one-row block of a 3-column delta holds 4.
    bad_stride = encode_notice(UpdateNotice(1, 2, wide), codec)
    # An empty delta's block is the one byte 0; swap it for a one-row
    # block of 3 values, all int64: 24 bytes promised, 3 present.
    empty = encode_notice(UpdateNotice(1, 3, Delta(Schema(("A", "B")))), codec)
    lying_widths = empty[:-1] + bytes([3 << 1, 0x3F, 1, 2, 3])
    return {
        "truncated": good[:-2],
        "bad-stride": bad_stride,
        "lying-widths": lying_widths,
    }


@pytest.mark.parametrize("kind", ["truncated", "bad-stride", "lying-widths"])
def test_malformed_record_in_a_crc_valid_frame_is_corruption(
    tmp_path, paper_view, kind
):
    """The frame is whole and its CRC matches; the record inside it is
    damaged.  Recovery raises ``WalCorruptionError`` -- never the
    codec's ``WireProtocolError`` or a bare ``struct.error``."""
    _checkpoint(paper_view, generation=2).write(str(tmp_path))
    _record_frames(str(tmp_path), _malformed_records()[kind])
    with pytest.raises(WalCorruptionError, match="undecodable record") as info:
        load_state(str(tmp_path), [paper_view])
    assert type(info.value) is WalCorruptionError


@pytest.mark.parametrize("type_byte", [0x00, 0x02, 0x7F])
def test_unknown_record_type_byte_is_corruption(tmp_path, type_byte):
    path = _record_frames(str(tmp_path), bytes([type_byte]) + b"\x00" * 31)
    with pytest.raises(WalCorruptionError, match="unknown record type"):
        read_update_log(path)


#: The pinned generation-2 log: a header frame (bytes 0-17), then two
#: 47-byte record frames whose length prefixes sit at bytes 18-21 and
#: 65-68.
_PINNED = os.path.join(os.path.dirname(__file__), "data", "format3")
_LENGTHS = {"header": 0, "first record": 18, "last record": 65}


def _recover_wal(tmp_path, paper_view):
    """(the pinned log's bytes, a reader that recovers a fresh copy of the
    directory with those bytes in its place)."""
    path = wal_path(_PINNED, 2)
    blob = open(path, "rb").read()
    place = fresh_copies(_PINNED, os.path.basename(path), tmp_path)

    def recover(data: bytes):
        return load_state(place(data), [paper_view])

    return blob, recover


def test_hostile_wal_is_corruption_or_a_torn_tail(tmp_path, paper_view):
    """Every truncation and bit flip of the pinned log, and a lying
    length on its last frame, read through recovery: each recovers (a
    torn tail) or raises :class:`WalCorruptionError` -- nothing else."""
    blob, recover = _recover_wal(tmp_path, paper_view)
    assert recover(blob).wal_records == 2
    lie = lying_field(blob, _LENGTHS["last record"], 4)
    check_hostile(blob, recover, WalCorruptionError, [lie])


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 9-c: a flipped length prefix of the header frame or"
    " of a record before the last reads as a torn tail, and recovery"
    " drops the logged updates after it without an error; telling it"
    " from a real torn tail needs a WAL frame-format change",
)
@pytest.mark.parametrize("frame", ["header", "first record"])
def test_a_flipped_length_prefix_is_not_a_torn_tail(tmp_path, paper_view, frame):
    blob, recover = _recover_wal(tmp_path, paper_view)
    offset = _LENGTHS[frame]
    for index in range(offset, offset + 4):
        for bit in range(8):
            damaged = bytearray(blob)
            damaged[index] ^= 1 << bit
            try:
                state = recover(bytes(damaged))
            except WalCorruptionError:
                continue
            assert state.wal_records == 2, f"flip@{index}.{bit} lost records"
