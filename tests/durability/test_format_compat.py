"""Durable-format compatibility: directories of every format recover.

New checkpoints (format 4) and WAL frames (format 3) carry the wire
codec's v3 row blocks and update records; the older formats are only
read.  ``data/format1`` (JSON checkpoint envelope, JSON WAL frames) and
``data/format2`` (binwire envelope and frames around v2 flat-row dicts)
were written by those formats' writers before they were deleted; each
holds the generation-2 checkpoint of ``_checkpoint`` with a two-update
WAL, plus a one-update generation-1 WAL.  Both, and a mixed directory
left behind by an upgrade, must load to the same recovered state as a
directory the current writers produce.  ``data/format3`` holds the same
inputs in the current formats (format-4 checkpoint, format-3 WALs), as
their writers first wrote them: today's writers must reproduce it byte
for byte, so no encoder change (or record memo) alters what is on disk.
"""

import dataclasses
import json
import os
import shutil
from pathlib import Path

import pytest

from repro.durability import UpdateLog, load_state
from repro.durability.checkpoint import ViewCheckpoint, checkpoint_path
from repro.durability.encoding import encode_notice, record_codec
from repro.durability.wal import (
    WAL_FORMAT,
    WAL_FORMAT_BINARY,
    WAL_FORMAT_RECORDS,
    read_update_log,
)
from repro.relational.delta import Delta
from repro.sources.messages import UpdateNotice
from tests.durability.test_checkpoint import _checkpoint

DATA = os.path.join(os.path.dirname(__file__), "data")


def _notice(seq: int, paper_view, source: int = 1) -> UpdateNotice:
    delta = Delta(paper_view.schema_of(source))
    delta.add((seq, seq + 1), +1)
    return UpdateNotice(source_index=source, seq=seq, delta=delta)


def _append(log: UpdateLog, paper_view, *notices) -> None:
    codec = record_codec(paper_view)
    for notice in notices:
        log.append(encode_notice(notice, codec))
    log.close()


def _copy(tmp_path, name: str) -> Path:
    """A writable copy of a checked-in directory (recovery may repair)."""
    return Path(shutil.copytree(os.path.join(DATA, name), str(tmp_path / name)))


def _populate(directory: str, paper_view) -> None:
    """What ``data/format*`` hold, written by the current writers."""
    os.makedirs(directory, exist_ok=True)
    _checkpoint(paper_view, generation=2).write(directory)
    _append(
        UpdateLog(directory, generation=2),
        paper_view,
        _notice(5, paper_view),
        _notice(2, paper_view, source=2),
    )
    _append(UpdateLog(directory, generation=1), paper_view, _notice(1, paper_view))


def _fingerprint(state) -> tuple:
    return (
        state.generation,
        [(n.source_index, n.seq) for n in state.pending],
        dict(state.delivered_marks),
        dict(state.applied_counts),
        state.wal_records,
        state.request_watermark,
    )


def test_json_and_binary_directories_recover_identically(tmp_path, paper_view):
    records_dir = str(tmp_path / "records")
    _populate(records_dir, paper_view)
    json_state = load_state(_copy(tmp_path, "format1"), [paper_view])
    bin_state = load_state(_copy(tmp_path, "format2"), [paper_view])
    records_state = load_state(records_dir, [paper_view])
    assert _fingerprint(json_state) == _fingerprint(bin_state)
    assert json_state.view_states["V"] == bin_state.view_states["V"]
    assert _fingerprint(records_state) == _fingerprint(bin_state)
    assert records_state.view_states["V"] == bin_state.view_states["V"]
    assert [n.delta for n in records_state.pending] == [
        n.delta for n in bin_state.pending
    ]


def test_current_format_fixture_recovers_like_the_old_ones(tmp_path, paper_view):
    pinned = load_state(_copy(tmp_path, "format3"), [paper_view])
    old = load_state(_copy(tmp_path, "format2"), [paper_view])
    assert _fingerprint(pinned) == _fingerprint(old)
    assert pinned.view_states["V"] == old.view_states["V"]
    assert [n.delta for n in pinned.pending] == [n.delta for n in old.pending]


def test_current_writers_reproduce_the_pinned_bytes(tmp_path, paper_view):
    written = tmp_path / "written"
    _populate(str(written), paper_view)
    pinned = Path(DATA) / "format3"
    names = sorted(path.name for path in pinned.iterdir())
    assert sorted(path.name for path in written.iterdir()) == names
    for name in names:
        assert (written / name).read_bytes() == (pinned / name).read_bytes(), name


def test_delivery_copies_share_one_record(paper_view):
    """Copies of one update (one per shard) encode it once; the memo is
    no protocol field and ``replace`` does not carry it."""
    codec = record_codec(paper_view)
    notice = _notice(5, paper_view)
    first, second = notice.delivery_copy(), notice.delivery_copy()
    record = encode_notice(first, codec)
    assert encode_notice(second, codec) is record
    assert encode_notice(notice, codec) is record
    assert encode_notice(_notice(5, paper_view), codec) == record
    assert second == _notice(5, paper_view)
    assert repr(second) == repr(_notice(5, paper_view))
    assert dataclasses.replace(first).record_memo is None


def test_json_era_artifacts_really_are_json(tmp_path, paper_view):
    """Guard the *legacy* fixture: ``data/format1`` holds the JSON
    on-disk formats an old reader understands, byte-level."""
    tmp_path = _copy(tmp_path, "format1")
    envelope = json.loads(
        open(checkpoint_path(str(tmp_path), 2), encoding="utf-8").read()
    )
    assert envelope["format"] == 1
    generation, records, torn = read_update_log(
        str(tmp_path / "update-00000002.wal")
    )
    assert (generation, len(records), torn) == (2, 2, 0)
    header = open(str(tmp_path / "update-00000002.wal"), "rb").read()
    assert b'"wal"' in header  # JSON header frame, not binwire


def test_upgraded_directory_mixes_formats_and_recovers(tmp_path, paper_view):
    """A JSON-era directory a current node checkpoints into: the newest
    generation wins; older JSON artifacts stay readable."""
    tmp_path = _copy(tmp_path, "format1")
    _checkpoint(paper_view, generation=4).write(str(tmp_path))
    _append(
        UpdateLog(str(tmp_path), generation=4), paper_view, _notice(6, paper_view)
    )
    state = load_state(str(tmp_path), [paper_view])
    assert state.generation == 4
    assert [(n.source_index, n.seq) for n in state.pending] == [(1, 4), (1, 6)]
    # The superseded JSON checkpoint is still individually loadable.
    old = ViewCheckpoint.load(checkpoint_path(str(tmp_path), 2))
    assert old.generation == 2


@pytest.mark.parametrize("binary", [False, True], ids=["json", "binary"])
def test_wal_header_format_matches_writer(tmp_path, paper_view, binary):
    tmp_path = _copy(tmp_path, "format2" if binary else "format1")
    generation, records, _ = read_update_log(str(tmp_path / "update-00000001.wal"))
    assert generation == 1 and len(records) == 1
    import struct

    data = open(str(tmp_path / "update-00000001.wal"), "rb").read()
    length, _crc = struct.unpack_from("!II", data, 0)
    header = json.loads(data[8 : 8 + length]) if not binary else None
    if binary:
        from repro.runtime import binwire

        header = binwire.loads(data[8 : 8 + length])
        assert header["wal"] == WAL_FORMAT_BINARY
    else:
        assert header["wal"] == WAL_FORMAT


def test_new_wal_is_a_binwire_header_then_records(tmp_path, paper_view):
    import struct

    from repro.durability.encoding import RECORD_PREFIX
    from repro.runtime import binwire

    _populate(str(tmp_path), paper_view)
    data = open(str(tmp_path / "update-00000001.wal"), "rb").read()
    length, _crc = struct.unpack_from("!II", data, 0)
    assert binwire.loads(data[8 : 8 + length]) == {
        "wal": WAL_FORMAT_RECORDS, "generation": 1
    }
    record = data[16 + length :]
    assert record[:1] == RECORD_PREFIX
    generation, records, _ = read_update_log(str(tmp_path / "update-00000001.wal"))
    assert (generation, records) == (1, [record])
