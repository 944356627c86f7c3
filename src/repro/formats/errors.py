"""Errors of the asyncio runtime, its transports and the byte formats.

They sit below the runtime because a malformed record is a
:class:`WireProtocolError` wherever it is read, and that must stay a
:class:`RuntimeHostError` (a clean failure: the CLI exits 3 on it).
"""

from __future__ import annotations

#: What a refusal asks for, by where the input came from.
REBOOTSTRAP = "re-bootstrap the directory (only the formats written are read)"
UPGRADE_PEER = "upgrade the peer (only v3 records in binwire frames are read)"


class RuntimeHostError(Exception):
    """Base class for every distributed-runtime failure."""


class TransportError(RuntimeHostError):
    """A transport could not carry a message."""


class TransportOverflowError(TransportError):
    """A bounded send queue is full (backpressure signal).

    Producers that can pace themselves should ``await channel.flush()``
    (or :meth:`drain`) instead of racing into this error; protocol code
    never hits it because sweep traffic is bounded by the protocol itself.
    """


class TransportRetriesExceeded(TransportError):
    """A TCP channel exhausted its bounded connect/reconnect budget."""


class WireProtocolError(TransportError):
    """A malformed or out-of-contract frame arrived on a TCP session."""


class QuiescenceTimeout(RuntimeHostError):
    """A distributed run did not reach quiescence within its deadline."""


class UnsupportedFormatError(Exception):
    """An input in a format no current writer produces, refused by name.

    Each reader raises a subclass that is also its error for damaged
    input (:class:`UnsupportedWireFormatError` here, the WAL and
    checkpoint ones in :mod:`repro.durability.errors`), so every handler
    and exit code of that error still applies.
    """

    @classmethod
    def refuse(cls, where: str, found: str, remedy: str) -> "UnsupportedFormatError":
        return cls(f"{where}: {found} is no longer read; {remedy}")


class UnsupportedWireFormatError(UnsupportedFormatError, WireProtocolError):
    """A peer sent a frame or message in a format no longer read."""


__all__ = [
    "QuiescenceTimeout",
    "REBOOTSTRAP",
    "RuntimeHostError",
    "TransportError",
    "TransportOverflowError",
    "TransportRetriesExceeded",
    "UPGRADE_PEER",
    "UnsupportedFormatError",
    "UnsupportedWireFormatError",
    "WireProtocolError",
]
