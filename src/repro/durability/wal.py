"""The append-only update log.

Frame format (all integers big-endian, mirroring the TCP transport's
length-prefix convention)::

    +----------------+----------------+------------------------+
    | length (4B BE) | crc32 (4B BE)  | payload                |
    +----------------+----------------+------------------------+

Frame 0 is a binwire header ``{"wal": 3, "generation": G}`` binding the
file to checkpoint generation ``G``; every later frame is one delivered
:class:`~repro.sources.messages.UpdateNotice` in delivery order, as the
wire codec's v3 record (:func:`repro.durability.encoding.encode_notice`).
That is the one format read: a log of format 1 (JSON frames) or 2
(binwire dicts) is refused by name
(:class:`~repro.durability.errors.UnsupportedWalFormatError`).

Damage policy (the satellite contract):

* **torn tail** -- the file ends inside a frame (a crash cut an append
  short).  Expected; :func:`read_update_log` drops the partial frame and,
  with ``repair=True``, truncates the file back to the last whole frame.
* **CRC mismatch** -- a complete frame whose payload does not match its
  checksum.  That is not a torn write (torn writes are short, not
  scrambled), so it raises :class:`WalCorruptionError` -- recovery must
  fail loudly rather than replay a damaged update into the view.

Durability policy: every append is flushed to the OS immediately (a
process crash loses nothing) and ``fsync``\\ ed once per ``fsync_batch``
appends (a machine crash loses at most one batch); ``sync()`` forces the
fsync at protocol boundaries.
"""

from __future__ import annotations

import os
import struct
import zlib

from repro.durability.encoding import RECORD_PREFIX
from repro.durability.errors import UnsupportedWalFormatError, WalCorruptionError
from repro.formats import binwire
from repro.formats.errors import REBOOTSTRAP

_FRAME_HEADER = struct.Struct("!II")
#: The format written and read: v3 update records.
WAL_FORMAT_RECORDS = 3


def wal_path(directory: str, generation: int) -> str:
    return os.path.join(directory, f"update-{generation:08d}.wal")


def generations(directory: str, prefix: str, suffix: str) -> list[int]:
    """Generation numbers of the ``<prefix><G><suffix>`` files, ascending."""
    found = []
    for name in os.listdir(directory):
        number = name[len(prefix) : -len(suffix)]
        if name.startswith(prefix) and name.endswith(suffix) and number.isdecimal():
            found.append(int(number))
    return sorted(found)


def wal_generations(directory: str) -> list[int]:
    """Generations with a WAL file present, ascending."""
    return generations(directory, "update-", ".wal")


def _frame(payload: bytes) -> bytes:
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


class UpdateLog:
    """Writer half: an open, appendable WAL for one checkpoint generation."""

    def __init__(self, directory: str, generation: int, fsync_batch: int = 8):
        if fsync_batch < 1:
            raise ValueError(f"fsync_batch must be >= 1, got {fsync_batch}")
        self.generation = generation
        self.fsync_batch = fsync_batch
        self.path = wal_path(directory, generation)
        self.appended = 0
        self._since_sync = 0
        self._file = open(self.path, "wb")
        header = {"wal": WAL_FORMAT_RECORDS, "generation": generation}
        self._file.write(_frame(binwire.dumps(header)))
        self._file.flush()
        os.fsync(self._file.fileno())

    # ------------------------------------------------------------------
    def append(self, record: bytes) -> None:
        """Append one update record; flushed now, fsynced once per batch."""
        self._file.write(_frame(record))
        self._file.flush()
        self.appended += 1
        self._since_sync += 1
        if self._since_sync >= self.fsync_batch:
            self.sync()

    def sync(self) -> None:
        """Force the outstanding batch to stable storage."""
        if self._since_sync:
            os.fsync(self._file.fileno())
            self._since_sync = 0

    def close(self, sync: bool = True) -> None:
        """Flush and close; ``sync=False`` skips the fsync (a subsumed log)."""
        if not self._file.closed:
            self._file.flush()
            if sync:
                try:
                    os.fsync(self._file.fileno())
                except OSError:  # pragma: no cover - closing on teardown
                    pass
            self._file.close()

    def __repr__(self) -> str:
        return f"UpdateLog(gen={self.generation}, {self.appended} records)"


def read_update_log(
    path: str, repair: bool = False
) -> tuple[int | None, list[bytes], int]:
    """Scan a WAL; returns ``(generation, records, torn_bytes)``.

    ``records`` are update records (``bytes``).  ``generation`` is
    ``None`` when even the header frame is torn (the file carries nothing
    durable).  ``torn_bytes`` counts bytes dropped from the tail; with
    ``repair=True`` the file is truncated back to the last complete frame
    so a subsequent append cannot interleave with garbage.
    """
    data = open(path, "rb").read()
    frames: list[bytes] = []
    offset = 0
    while offset < len(data):
        if offset + _FRAME_HEADER.size > len(data):
            break  # torn: header cut short
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        start = offset + _FRAME_HEADER.size
        if start + length > len(data):
            break  # torn: payload cut short
        payload = data[start : start + length]
        if zlib.crc32(payload) != crc:
            raise WalCorruptionError(
                f"{path}: frame {len(frames)} at byte {offset} fails CRC"
                " (complete frame, scrambled payload -- not a torn tail)"
            )
        frames.append(payload)
        offset = start + length
    torn = len(data) - offset
    if torn and repair:
        with open(path, "r+b") as handle:
            handle.truncate(offset)
            handle.flush()
            os.fsync(handle.fileno())
    if not frames:
        return None, [], torn
    if frames[0][:1] == b"{":  # format 1 wrote JSON frames
        raise UnsupportedWalFormatError.refuse(path, "WAL format 1", REBOOTSTRAP)
    try:
        header = binwire.loads(frames[0])
        generation = int(header["generation"])
        wal_format = header.get("wal")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise WalCorruptionError(f"{path}: undecodable header frame: {exc}") from exc
    if wal_format != WAL_FORMAT_RECORDS:
        raise UnsupportedWalFormatError.refuse(
            path, f"WAL format {wal_format}", REBOOTSTRAP
        )
    records = frames[1:]
    for index, record in enumerate(records, start=1):
        if record[:1] != RECORD_PREFIX:
            raise WalCorruptionError(
                f"{path}: frame {index}: unknown record type byte"
                f" {record[:1].hex() or 'none'}"
            )
    return generation, records, torn


__all__ = [
    "UpdateLog",
    "WAL_FORMAT_RECORDS",
    "read_update_log",
    "wal_generations",
    "wal_path",
]
