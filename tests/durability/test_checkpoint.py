"""Checkpoint file contract: atomic round trip, CRC, newest-wins policy.

The damage policy (see :meth:`ViewCheckpoint.load_latest`): a corrupt
*newest* checkpoint raises instead of silently falling back to an older
generation -- the newer WAL would then be unreplayable and the served
view silently stale.
"""

import os
import shutil
import zlib

import pytest

from repro.durability import (
    CheckpointCorruptionError,
    ViewCheckpoint,
    load_state,
)
from repro.durability.checkpoint import checkpoint_generations, checkpoint_path
from repro.durability.encoding import (
    decode_relation,
    encode_block,
    encode_notice,
    record_codec,
)
from repro.formats import binwire
from repro.formats.errors import UnsupportedFormatError
from repro.relational.delta import Delta
from repro.relational.relation import Relation
from repro.sources.messages import UpdateNotice
from tests.hostile import check_hostile, fresh_copies, lying_varint

DATA = os.path.join(os.path.dirname(__file__), "data")
#: A format-1 (JSON envelope) checkpoint, written before that writer was
#: deleted (see test_format_compat.py).
_JSON_CHECKPOINT = os.path.join(DATA, "format1", "checkpoint-00000002.json")

def _checkpoint(paper_view, generation: int = 2) -> ViewCheckpoint:
    view_rows = Relation(paper_view.view_schema, {(1, 2): 1, (3, 4): 2})
    delta = Delta(paper_view.schema_of(1))
    delta.add((5, 6), +1)
    notice = UpdateNotice(source_index=1, seq=4, delta=delta)
    return ViewCheckpoint(
        generation=generation,
        applied_counts={1: 3, 2: 1},
        delivered_marks={1: 4, 2: 1},
        views={"V": encode_block(view_rows)},
        pending=[encode_notice(notice, record_codec(paper_view))],
        installs=7,
        request_watermark=19,
        written_at=42.5,
    )


def test_write_load_round_trip(tmp_path, paper_view):
    original = _checkpoint(paper_view)
    path = original.write(str(tmp_path))
    assert path == checkpoint_path(str(tmp_path), 2)
    loaded = ViewCheckpoint.load(path)
    assert loaded == original
    back = decode_relation(loaded.views["V"], paper_view.view_schema)
    assert dict(back.items()) == {(1, 2): 1, (3, 4): 2}


def test_load_latest_picks_newest(tmp_path, paper_view):
    _checkpoint(paper_view, generation=1).write(str(tmp_path))
    _checkpoint(paper_view, generation=5).write(str(tmp_path))
    assert checkpoint_generations(str(tmp_path)) == [1, 5]
    generation, checkpoint = ViewCheckpoint.load_latest(str(tmp_path))
    assert generation == 5
    assert checkpoint.generation == 5


def test_load_latest_empty_directory(tmp_path):
    assert ViewCheckpoint.load_latest(str(tmp_path)) is None


def test_corrupt_newest_raises_not_falls_back(tmp_path, paper_view):
    """The newest checkpoint is a JSON-era one (the checked-in format-1
    fixture): it is refused, and the older, readable generation is not
    used in its place."""
    _checkpoint(paper_view, generation=1).write(str(tmp_path))
    shutil.copy(_JSON_CHECKPOINT, checkpoint_path(str(tmp_path), 3))
    with pytest.raises(CheckpointCorruptionError, match="checkpoint format 1"):
        ViewCheckpoint.load_latest(str(tmp_path))


def test_corrupt_newest_binary_raises_not_falls_back(tmp_path, paper_view):
    _checkpoint(paper_view, generation=1).write(str(tmp_path))
    newest = _checkpoint(paper_view, generation=3).write(str(tmp_path))
    envelope = binwire.loads(open(newest, "rb").read())
    body = binwire.loads(envelope["body"])
    body["installs"] += 1  # body no longer matches the CRC
    envelope["body"] = binwire.dumps(body)
    with open(newest, "wb") as handle:
        handle.write(binwire.dumps(envelope))
    with pytest.raises(CheckpointCorruptionError, match="fails CRC"):
        ViewCheckpoint.load_latest(str(tmp_path))


#: A 7-byte binwire document whose list count claims 2**32 - 1 elements.
_LYING_LIST = bytes([0xB3, 1, 0x08, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F])


def test_lying_count_checkpoint_is_corruption(tmp_path, paper_view):
    path = _checkpoint(paper_view).write(str(tmp_path))
    with open(path, "wb") as handle:
        handle.write(_LYING_LIST)
    with pytest.raises(CheckpointCorruptionError, match="exceeds"):
        ViewCheckpoint.load(path)


def test_lying_count_checkpoint_body_is_corruption(tmp_path, paper_view):
    """The envelope and its CRC are fine; the body document lies."""
    path = _checkpoint(paper_view).write(str(tmp_path))
    envelope = binwire.loads(open(path, "rb").read())
    envelope["body"] = _LYING_LIST
    envelope["crc"] = zlib.crc32(_LYING_LIST)
    with open(path, "wb") as handle:
        handle.write(binwire.dumps(envelope))
    with pytest.raises(CheckpointCorruptionError, match="exceeds"):
        ViewCheckpoint.load(path)


def test_unsupported_format_raises(tmp_path, paper_view):
    path = _checkpoint(paper_view).write(str(tmp_path))
    envelope = binwire.loads(open(path, "rb").read())
    envelope["format"] = 99
    with open(path, "wb") as handle:
        handle.write(binwire.dumps(envelope))
    with pytest.raises(UnsupportedFormatError, match="checkpoint format 99"):
        ViewCheckpoint.load(path)


def test_hostile_checkpoint_is_corruption(tmp_path, paper_view):
    """Every truncation and bit flip of the pinned format-4 checkpoint,
    and a lying body length, read through recovery: each recovers or
    raises :class:`CheckpointCorruptionError` -- nothing else escapes."""
    fixture = os.path.join(DATA, "format3")
    path = checkpoint_path(fixture, 2)
    blob = open(path, "rb").read()
    body = binwire.loads(blob)["body"]
    assert blob.endswith(body)  # the body is the envelope's last value
    place = fresh_copies(fixture, os.path.basename(path), tmp_path)

    def recover(data: bytes):
        return load_state(place(data), [paper_view])

    # Past the body document's magic, format and bytes tag: its length.
    lie = lying_varint(blob, len(blob) - len(binwire.dumps(body)) + 3)
    assert check_hostile(blob, recover, CheckpointCorruptionError, [lie]) == []


def test_stale_tmp_file_is_ignored(tmp_path, paper_view):
    """A crash between tmp-write and rename leaves only garbage aside."""
    _checkpoint(paper_view, generation=2).write(str(tmp_path))
    stray = checkpoint_path(str(tmp_path), 3) + ".tmp"
    with open(stray, "w", encoding="utf-8") as handle:
        handle.write("{half a checkpoi")
    assert checkpoint_generations(str(tmp_path)) == [2]
    generation, _ = ViewCheckpoint.load_latest(str(tmp_path))
    assert generation == 2


@pytest.mark.parametrize("n_views", [1, 4])
@pytest.mark.parametrize("units, every", [(24, 5), (30, 7)])
def test_cadence_counts_units_of_work_not_views(tmp_path, n_views, units, every):
    """``every_installs=N`` rolls a shard's checkpoint every N units of
    work, however many views it hosts: only the primary's install ticks
    the policy, so a k-view SWEEP shard writes the attach-time checkpoint
    plus one per N updates."""
    from repro.durability.manager import CheckpointPolicy
    from repro.harness.config import ExperimentConfig
    from repro.runtime import run_sharded

    config = ExperimentConfig(
        algorithm="sweep", n_sources=3, n_updates=units, seed=3,
        n_views=n_views,
    )
    result = run_sharded(
        config,
        n_shards=1,
        durable_dir=str(tmp_path),
        checkpoint_policy=CheckpointPolicy(every_installs=every),
        time_scale=0.001,
    )
    counters = result.metrics.counters
    # One sweep per update: the primary view installs once per update.
    assert counters["installs"] == units
    assert counters["checkpoints_written"] == 1 + units // every


@pytest.mark.parametrize(
    "field, damage",
    [
        ("views", b""),  # no block header at all
        ("views", bytes([4 << 1, 0]) + b"\x01\x02\x03\x04"),  # 4 values, stride 3
        ("views", bytes([3 << 1, 0x3F, 1, 2, 3])),  # int64 columns, 3 bytes
        ("aux", bytes([2 << 1 | 1]) + b"\xb3\x01"),  # truncated fallback document
        ("pending", None),  # a record cut short
    ],
    ids=["empty", "bad-stride", "lying-widths", "bad-fallback", "truncated-record"],
)
def test_corrupt_row_block_is_checkpoint_corruption(
    tmp_path, paper_view, field, damage
):
    """A CRC-valid checkpoint whose row block or record is damaged raises
    ``CheckpointCorruptionError`` at recovery, nothing from the codec."""
    checkpoint = _checkpoint(paper_view)
    if field == "views":
        checkpoint.views["V"] = damage
    elif field == "aux":
        checkpoint.aux["R1"] = damage
    else:
        checkpoint.pending[0] = checkpoint.pending[0][:-1]
    checkpoint.write(str(tmp_path))
    with pytest.raises(CheckpointCorruptionError, match="undecodable") as info:
        load_state(str(tmp_path), [paper_view])
    assert type(info.value) is CheckpointCorruptionError


def test_a_roll_fsyncs_three_times(tmp_path, paper_view, paper_states, monkeypatch):
    """Rolling a generation fsyncs the new checkpoint, its directory and
    the new log's header -- not the old log, which the durable checkpoint
    subsumes and the roll then deletes."""
    from repro.durability.manager import CheckpointPolicy, DurabilityManager
    from repro.simulation.kernel import Simulator
    from repro.warehouse.sweep import SweepWarehouse

    sim = Simulator()
    warehouse = SweepWarehouse(
        sim, paper_view, {}, initial_view=paper_view.evaluate(paper_states)
    )
    manager = DurabilityManager(
        str(tmp_path), policy=CheckpointPolicy(every_installs=1)
    )
    manager.attach(warehouse)
    delta = Delta(paper_view.schema_of(1))
    delta.add((7, 8), +1)
    manager.log_delivery(UpdateNotice(source_index=1, seq=1, delta=delta))
    manager.on_install()
    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd))
    assert manager.maybe_checkpoint()
    assert len(fsyncs) == 3
    assert checkpoint_generations(str(tmp_path)) == [1]
    manager.close()
