"""One corrupt-input helper for every reader of bytes from outside.

:func:`check_hostile` takes a valid blob and a decoder and feeds the
decoder every truncation of the blob, every single-bit flip of it and any
lying length or count prefixes the caller builds (only the caller knows
where its prefixes sit; :func:`lying_varint` and :func:`lying_field`
build them).  Each case must either decode or raise the reader's typed
error; anything else escaping -- a bare ``KeyError``, a ``struct.error``,
a codec error where a durability error is promised -- fails the test.

:func:`fresh_copies` gives a reader of a directory (recovery) each case
in a new copy of its fixture directory.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Callable, Iterable, Iterator


def truncations(blob: bytes) -> Iterator[tuple[str, bytes]]:
    for cut in range(len(blob)):
        yield f"truncated@{cut}", blob[:cut]


def bit_flips(blob: bytes) -> Iterator[tuple[str, bytes]]:
    for index in range(len(blob)):
        for bit in range(8):
            damaged = bytearray(blob)
            damaged[index] ^= 1 << bit
            yield f"flip@{index}.{bit}", bytes(damaged)


def _varint(value: int) -> bytes:
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def lying_varint(blob: bytes, offset: int) -> tuple[str, bytes]:
    """``blob`` with the varint length or count at ``offset`` replaced by
    one that claims ``2**32 - 1``."""
    end = offset
    while blob[end] & 0x80:
        end += 1
    lie = _varint(2**32 - 1)
    return f"lying-varint@{offset}", blob[:offset] + lie + blob[end + 1 :]


def lying_field(blob: bytes, offset: int, width: int) -> tuple[str, bytes]:
    """``blob`` with the big-endian ``width``-byte length at ``offset`` set
    to its largest value."""
    lie = b"\xff" * width
    return f"lying-field@{offset}", blob[:offset] + lie + blob[offset + width :]


def check_hostile(
    blob: bytes,
    decode: Callable[[bytes], object],
    typed: type[BaseException] | tuple[type[BaseException], ...],
    lies: Iterable[tuple[str, bytes]] = (),
) -> list[str]:
    """Run every case through ``decode``; return the labels of the cases
    that decoded.  Fails, listing them, if any case raised something that
    is not ``typed``."""
    decode(blob)  # the intact blob is valid
    decoded, escaped = [], []
    for label, data in (*truncations(blob), *bit_flips(blob), *lies):
        try:
            decode(data)
        except typed:
            continue
        except Exception as exc:  # anything untyped is the finding
            escaped.append(f"{label}: {type(exc).__name__}: {exc}"[:160])
            continue
        decoded.append(label)
    assert not escaped, f"{len(escaped)} case(s) escaped untyped: {escaped[:8]}"
    return decoded


def fresh_copies(fixture: str, name: str, root) -> Callable[[bytes], str]:
    """``place(data)``: a fresh copy of the flat ``fixture`` directory
    under ``root`` whose file ``name`` holds ``data``.  Each case goes
    into new files: rewriting one file in place a thousand times costs a
    truncating ``open`` per case, which is slow on some filesystems."""
    files = {
        entry: open(os.path.join(fixture, entry), "rb").read()
        for entry in os.listdir(fixture)
    }
    cases = itertools.count()

    def place(data: bytes) -> str:
        directory = os.path.join(root, f"case{next(cases)}")
        os.mkdir(directory)
        for entry, blob in {**files, name: data}.items():
            with open(os.path.join(directory, entry), "xb") as handle:
                handle.write(blob)
        return directory

    return place
