"""Checkpoint files: one view-state + protocol-position snapshot per generation.

A checkpoint is written only at a *stable point* -- after an install
completes and before the next queued update is popped -- so it never has
to serialize a half-finished sweep.  What it must carry instead is the
exact protocol position:

* ``applied_counts`` -- the claimed vector ``V0``: per source, how many
  updates the stored view contents reflect (sequence numbers are dense,
  so this doubles as the highest installed ``seq`` per source);
* ``delivered_marks`` -- per source, the highest ``seq`` delivered to
  this warehouse (logged or pending), the FIFO resume position: a
  redelivered update at or below the mark is a duplicate;
* ``pending`` -- every delivered-but-uninstalled update, in delivery
  order (the ``UpdateMessageQueue`` plus any update still in the inbox);
* ``request_watermark`` -- a request-id fence; answers to queries issued
  before the crash carry ids at or below it and are dropped on replay.

Files are written atomically (tmp + fsync + rename), carry a CRC over
the canonical body, and are named by generation; the matching WAL
(``update-<generation>.wal``) records deliveries after the checkpoint.

What is written (format 4) is a binwire envelope ``{"format", "crc",
"body"}`` whose body is a nested binwire document carried as bytes, CRC'd
exactly; inside it every view and auxiliary copy is one v3 row block and
every pending update one v3 record (:mod:`repro.durability.encoding`).
Formats 1 (a JSON envelope, CRC over the canonical JSON body) and 2 (the
binwire envelope around v2 flat-row dicts) are only read: :meth:`
ViewCheckpoint.load` sniffs the first byte.  The ``.json`` filename is
kept for all of them (the generation glob patterns are on-disk contract).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field

from repro.durability.encoding import encode_block, encode_notice
from repro.durability.errors import CheckpointCorruptionError
from repro.durability.wal import _binwire, generations

#: The formats a reader accepts; only the last is written.
CHECKPOINT_FORMAT = 1  # JSON envelope, v2 flat-row dicts
CHECKPOINT_FORMAT_BINARY = 2  # binwire envelope, v2 flat-row dicts
CHECKPOINT_FORMAT_RECORDS = 4  # binwire envelope, row blocks and records
_BINWIRE_FORMATS = (CHECKPOINT_FORMAT_BINARY, CHECKPOINT_FORMAT_RECORDS)


def _seal(tag: int, body: dict) -> bytes:
    """``body`` as a binwire document inside a binwire envelope of format
    ``tag``, with a CRC over exactly the body's bytes."""
    body_bytes = _binwire().dumps(body)
    return _binwire().dumps(
        {"format": tag, "crc": zlib.crc32(body_bytes), "body": body_bytes}
    )


def _unseal(blob: bytes, formats: tuple, what: str) -> dict:
    """The body :func:`_seal` wrapped, once its format and CRC check."""
    envelope = _binwire().loads(blob)
    _check(envelope, envelope["body"], formats, what)
    return _binwire().loads(envelope["body"])


def _check(envelope: dict, body_bytes: bytes, formats: tuple, what: str) -> None:
    if int(envelope.get("format", 0)) not in formats:
        raise CheckpointCorruptionError(
            f"{what}: unsupported format {envelope.get('format')!r}"
        )
    if zlib.crc32(body_bytes) != int(envelope["crc"]):
        raise CheckpointCorruptionError(f"{what}: body fails CRC")


def checkpoint_path(directory: str, generation: int) -> str:
    return os.path.join(directory, f"checkpoint-{generation:08d}.json")


def checkpoint_generations(directory: str) -> list[int]:
    """Generations with a checkpoint file present, ascending."""
    return generations(directory, "checkpoint-", ".json")


@dataclass
class ViewCheckpoint:
    """Durable image of one warehouse at a stable point."""

    generation: int
    applied_counts: dict[int, int]
    delivered_marks: dict[int, int]
    # Row blocks and update records (v2 flat-row dicts in formats 1-2).
    views: dict[str, bytes | dict]  # view name -> its contents
    pending: list[bytes | dict] = field(default_factory=list)
    #: source name -> auxiliary copy (locality layer); absent in
    #: pre-locality checkpoints, which decode to an empty dict.
    aux: dict[str, bytes | dict] = field(default_factory=dict)
    installs: int = 0
    request_watermark: int = 0
    written_at: float = 0.0

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "generation": self.generation,
            "applied_counts": {str(k): v for k, v in self.applied_counts.items()},
            "delivered_marks": {str(k): v for k, v in self.delivered_marks.items()},
            "views": self.views,
            "pending": self.pending,
            "aux": self.aux,
            "installs": self.installs,
            "request_watermark": self.request_watermark,
            "written_at": self.written_at,
        }

    @classmethod
    def from_json(cls, body: dict) -> "ViewCheckpoint":
        return cls(
            generation=int(body["generation"]),
            applied_counts={int(k): int(v) for k, v in body["applied_counts"].items()},
            delivered_marks={
                int(k): int(v) for k, v in body["delivered_marks"].items()
            },
            views=dict(body["views"]),
            pending=list(body.get("pending", ())),
            aux=dict(body.get("aux", {})),
            installs=int(body.get("installs", 0)),
            request_watermark=int(body.get("request_watermark", 0)),
            written_at=float(body.get("written_at", 0.0)),
        )

    # ------------------------------------------------------------------
    def write(self, directory: str) -> str:
        """Atomic write: tmp file, fsync, rename over the final name.

        On POSIX a crash can leave a stale tmp file but never a torn
        file under the final name, which is why recovery may treat any
        present checkpoint as all-or-nothing.
        """
        blob = _seal(CHECKPOINT_FORMAT_RECORDS, self.to_json())
        final = checkpoint_path(directory, self.generation)
        tmp = final + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        return final

    @classmethod
    def load(cls, path: str) -> "ViewCheckpoint":
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
            if _binwire().is_binary(blob):
                return cls.from_json(_unseal(blob, _BINWIRE_FORMATS, path))
            envelope = json.loads(blob.decode("utf-8"))
            body = envelope["body"]
            canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
            _check(envelope, canonical.encode("utf-8"), (CHECKPOINT_FORMAT,), path)
            return cls.from_json(body)
        except CheckpointCorruptionError:
            raise
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CheckpointCorruptionError(f"{path}: unreadable: {exc}") from exc

    @classmethod
    def load_latest(cls, directory: str) -> "tuple[int, ViewCheckpoint] | None":
        """The newest checkpoint in ``directory``, or None if there is none.

        A corrupt *newest* checkpoint raises rather than silently falling
        back to an older generation: the newer WAL would then be
        unreplayable and the served view silently stale.
        """
        generations = checkpoint_generations(directory)
        if not generations:
            return None
        newest = generations[-1]
        return newest, cls.load(checkpoint_path(directory, newest))


def capture_checkpoint(
    warehouse,
    generation: int,
    delivered_marks: dict[int, int],
    codec,
    parked=(),
) -> ViewCheckpoint:
    """Snapshot a quiescent warehouse's durable image.

    Must be called at a stable point: the previous update/batch fully
    installed (all views), no sweep in flight, no unconsumed answers.
    ``pending`` captures recovery-``parked`` updates first (the oldest
    deliveries, still awaiting source-position confirmation), then the
    update queue, then any updates already in the inbox but not yet
    dispatched.  Redelivered twins of an already-captured (or already
    installed) update are skipped so no sequence number appears twice.
    ``codec`` writes the update records.
    """
    from repro.sources.messages import next_request_id

    stores = getattr(warehouse, "stores", None) or {
        warehouse.view.name: warehouse.store
    }
    applied = warehouse.applied_counts
    seen: set = set()
    pending = []
    for notice in parked:
        seen.add((notice.source_index, notice.seq))
        pending.append(encode_notice(notice, codec))
    live = list(warehouse.update_queue.peek_all())
    live.extend(
        msg for msg in warehouse.inbox.peek_all() if msg.kind == "update"
    )
    for msg in live:
        notice = msg.payload
        key = (notice.source_index, notice.seq)
        if key in seen or notice.seq <= applied.get(notice.source_index, 0):
            continue
        seen.add(key)
        pending.append(encode_notice(notice, codec))
    locality = getattr(warehouse, "locality", None)
    aux = (
        {name: encode_block(rel) for name, rel in locality.aux_relations().items()}
        if locality is not None
        else {}
    )
    return ViewCheckpoint(
        generation=generation,
        applied_counts=dict(warehouse.applied_counts),
        delivered_marks=dict(delivered_marks),
        views={
            name: encode_block(store.relation) for name, store in stores.items()
        },
        pending=pending,
        aux=aux,
        installs=warehouse.store.installs,
        request_watermark=next_request_id(),
        written_at=warehouse.sim.now,
    )


#: Envelope tag for a shard-rebalance view handoff (same binwire kernel
#: and CRC discipline as a checkpoint, v3 row blocks inside).  Format 3
#: (v2 flat-row dicts inside) is still read.
HANDOFF_FORMAT = 4
_HANDOFF_FORMATS = (3, HANDOFF_FORMAT)


def encode_view_handoff(
    view_name: str,
    position: dict[int, int],
    relation,
    aux: dict[str, object] | None = None,
    epoch: int = 0,
) -> bytes:
    """Serialize one view's migration handoff as a binwire envelope.

    The body carries the view's contents (a v3 row block, as the
    checkpoint writer stores a view), the per-source position
    vector the contents reflect (the donor's seal snapshot ``P``), and
    the donor's auxiliary source copies so a locality-enabled recipient
    can adopt rather than rebuild them.  CRC and format tagging mirror
    :meth:`ViewCheckpoint.write` so a torn or corrupt handoff is caught
    at decode time, not as a silently wrong view.
    """
    return _seal(
        HANDOFF_FORMAT,
        {
            "view": view_name,
            "position": {str(k): int(v) for k, v in position.items()},
            "rows": encode_block(relation),
            "aux": {name: encode_block(rel) for name, rel in (aux or {}).items()},
            "epoch": int(epoch),
        },
    )


def decode_view_handoff(blob: bytes) -> dict:
    """Decode and verify a handoff produced by :func:`encode_view_handoff`.

    Returns ``{"view", "position", "rows", "aux", "epoch"}`` with the
    position keyed by int source index; ``rows``/``aux`` values stay
    encoded for the caller to decode against its schemas (see
    :func:`repro.durability.encoding.decode_relation`, which reads both
    formats' encodings).
    """
    body = _unseal(blob, _HANDOFF_FORMATS, "handoff")
    return {
        "view": body["view"],
        "position": {int(k): int(v) for k, v in body["position"].items()},
        "rows": body["rows"],
        "aux": dict(body.get("aux", {})),
        "epoch": int(body.get("epoch", 0)),
    }


__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_FORMAT_BINARY",
    "CHECKPOINT_FORMAT_RECORDS",
    "HANDOFF_FORMAT",
    "ViewCheckpoint",
    "capture_checkpoint",
    "checkpoint_generations",
    "checkpoint_path",
    "decode_view_handoff",
    "encode_view_handoff",
]
