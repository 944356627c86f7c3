"""Durability-layer errors.

The contract of the whole package: a warehouse either recovers to a
provably consistent state or fails **loudly** -- it never serves a
silently wrong view.  Torn tails (an append cut short by the crash) are
the one expected form of damage and are repaired by truncation; any
other mismatch raises one of these.
"""

from __future__ import annotations

from repro.formats.errors import UnsupportedFormatError


class DurabilityError(Exception):
    """Base class for checkpoint/WAL/recovery failures."""


class WalCorruptionError(DurabilityError):
    """A WAL frame failed its CRC (not at the torn tail) or is malformed."""


class CheckpointCorruptionError(DurabilityError):
    """A checkpoint file is unreadable or fails its integrity check."""


class UnsupportedWalFormatError(UnsupportedFormatError, WalCorruptionError):
    """A WAL in a format no current writer produces (formats 1-2)."""


class UnsupportedCheckpointFormatError(
    UnsupportedFormatError, CheckpointCorruptionError
):
    """A checkpoint (formats 1-2) or view handoff (format 3) in a format no
    current writer produces."""


class GenerationMismatchError(DurabilityError):
    """Checkpoint and update log disagree about the generation number.

    A WAL from a different generation than the newest checkpoint means
    the durable directory holds remnants of two different incarnations;
    replaying it could re-apply already-checkpointed updates.
    """


class RecoveryError(DurabilityError):
    """Recovered state cannot be re-entered into the protocol."""


class SimulatedCrash(BaseException):
    """Deterministic crash injection marker (see :class:`CrashPlan`).

    Derives from ``BaseException`` like ``KeyboardInterrupt``: a crash is
    not an error any protocol layer may catch and survive -- the harness
    that scheduled it is the only legitimate handler.
    """


__all__ = [
    "CheckpointCorruptionError",
    "DurabilityError",
    "GenerationMismatchError",
    "RecoveryError",
    "SimulatedCrash",
    "UnsupportedCheckpointFormatError",
    "UnsupportedWalFormatError",
    "WalCorruptionError",
]
