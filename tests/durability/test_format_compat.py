"""Durable formats: the current one recovers, older ones are refused.

Checkpoints (format 4) and WAL frames (format 3) carry the wire codec's
v3 row blocks and update records; that is the one format read.
``data/format1`` (JSON checkpoint envelope, JSON WAL frames) and
``data/format2`` (binwire envelope and frames around v2 flat-row dicts)
were written by those formats' writers before they were deleted; each
holds the generation-2 checkpoint of ``_checkpoint`` with a two-update
WAL, plus a one-update generation-1 WAL.  Every file in them is refused
by name, with a typed error that asks for a re-bootstrap.
``data/format3`` holds the same inputs in the current formats (format-4
checkpoint, format-3 WALs), as their writers first wrote them: it
recovers, and today's writers must reproduce it byte for byte, so no
encoder change (or record memo) alters what is on disk.
"""

import dataclasses
import json
import os
import shutil
import struct
from pathlib import Path

import pytest

from repro.durability import (
    CheckpointCorruptionError,
    UpdateLog,
    WalCorruptionError,
    load_state,
)
from repro.durability.checkpoint import ViewCheckpoint, checkpoint_path
from repro.durability.encoding import RECORD_PREFIX, encode_notice, record_codec
from repro.durability.wal import WAL_FORMAT_RECORDS, read_update_log
from repro.formats import binwire
from repro.formats.errors import UnsupportedFormatError
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


@pytest.mark.parametrize("name, found", [("format1", 1), ("format2", 2)])
def test_older_directories_are_refused_by_name(tmp_path, paper_view, name, found):
    """Recovery refuses an older directory at its checkpoint -- typed as
    the checkpoint's corruption error, so every caller still fails
    loudly -- and names the format it found."""
    with pytest.raises(UnsupportedFormatError) as info:
        load_state(str(_copy(tmp_path, name)), [paper_view])
    assert isinstance(info.value, CheckpointCorruptionError)
    assert f"checkpoint format {found} is no longer read" in str(info.value)
    assert "re-bootstrap" in str(info.value)


@pytest.mark.parametrize("name, found", [("format1", 1), ("format2", 2)])
def test_older_files_are_each_refused_by_name(name, found):
    """Each file of an older directory, read on its own."""
    directory = os.path.join(DATA, name)
    with pytest.raises(UnsupportedFormatError, match=f"checkpoint format {found}"):
        ViewCheckpoint.load(checkpoint_path(directory, 2))
    for generation in (1, 2):
        path = os.path.join(directory, f"update-0000000{generation}.wal")
        with pytest.raises(WalCorruptionError, match=f"WAL format {found}") as info:
            read_update_log(path)
        assert isinstance(info.value, UnsupportedFormatError)
        assert "re-bootstrap" in str(info.value)


def test_current_format_fixture_recovers(tmp_path, paper_view):
    """``data/format3`` loads to what a directory the current writers
    produce loads to, and to the state ``_populate`` wrote."""
    records_dir = str(tmp_path / "records")
    _populate(records_dir, paper_view)
    pinned = load_state(_copy(tmp_path, "format3"), [paper_view])
    written = load_state(records_dir, [paper_view])
    assert _fingerprint(pinned) == _fingerprint(written) == (
        2, [(1, 4), (1, 5), (2, 2)], {1: 5, 2: 2}, {1: 3, 2: 1}, 2, 19
    )
    assert pinned.view_states["V"] == written.view_states["V"]
    assert dict(pinned.view_states["V"].items()) == {(1, 2): 1, (3, 4): 2}
    assert [n.delta for n in pinned.pending] == [n.delta for n in written.pending]


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


def test_json_era_artifacts_really_are_json():
    """Guard the *legacy* fixture the refusal tests read: ``data/format1``
    holds the JSON on-disk formats, byte-level."""
    directory = os.path.join(DATA, "format1")
    envelope = json.loads(
        open(checkpoint_path(directory, 2), encoding="utf-8").read()
    )
    assert envelope["format"] == 1
    data = open(os.path.join(directory, "update-00000002.wal"), "rb").read()
    offset = 0
    for _ in range(3):  # the header frame and two records, all JSON
        length, _crc = struct.unpack_from("!II", data, offset)
        assert json.loads(data[offset + 8 : offset + 8 + length])
        offset += 8 + length
    assert offset == len(data)


def test_upgraded_directory_mixes_formats_and_recovers(tmp_path, paper_view):
    """A JSON-era directory a current node checkpointed into: recovery
    reads only the newest generation, so it recovers; the superseded
    JSON checkpoint on its own is refused."""
    tmp_path = _copy(tmp_path, "format1")
    _checkpoint(paper_view, generation=4).write(str(tmp_path))
    _append(
        UpdateLog(str(tmp_path), generation=4), paper_view, _notice(6, paper_view)
    )
    state = load_state(str(tmp_path), [paper_view])
    assert state.generation == 4
    assert [(n.source_index, n.seq) for n in state.pending] == [(1, 4), (1, 6)]
    with pytest.raises(UnsupportedFormatError, match="checkpoint format 1"):
        ViewCheckpoint.load(checkpoint_path(str(tmp_path), 2))


def test_new_wal_is_a_binwire_header_then_records(tmp_path, paper_view):
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
