"""Live view migration between shards ("eager seal + donor gap forwarding").

Moving one view ``V`` between two shards of a running deployment must not
break the invariant every consistency claim in this repo rests on: each
view's installs form claimed-vector snapshots of a per-source FIFO prefix
of the update stream.  The migration protocol here preserves it with
three moving parts (the coordinator lives in :mod:`repro.runtime.shard`;
the per-warehouse protocol logic is part of every view family's state,
:class:`~repro.warehouse.multiview.MultiViewStateMixin`, and this module
holds its control payloads and per-member state):

1. **Fences.**  When the rebalance fires, the coordinator posts one fence
   frame per source down the *same* per-(source, member) update channels
   real updates travel, to every donor and recipient member.  A fence is
   an empty :class:`~repro.sources.messages.UpdateNotice` whose ``seq``
   is the source's boundary position ``B_i`` at fire time, so channel
   FIFO pins it exactly between the pre- and post-boundary updates.
   Because every active shard already receives every source's stream
   (same-chain view families have total fanout), migrating ``V`` changes
   no fanout set -- only which member applies ``V``.

2. **Donor seal + handoff.**  At its next unit-of-work boundary (a
   stable point: installs complete, no sweep in flight) the donor drops
   ``V`` from its view set, snapshots ``V``'s position ``P`` (its own
   ``applied_counts``) and hands off ``V``'s contents, ``P``, and its
   auxiliary source copies as one CRC'd binwire blob (see
   :func:`repro.durability.checkpoint.encode_view_handoff`).

3. **Gap forwarding.**  The recipient's own channels deliver everything
   after the fences; everything at or before ``P`` is inside the
   handoff.  The genuine straggler window is ``(P_i, B_i]`` per source:
   pre-fence updates only the donor still holds queued.  The donor keeps
   processing them for its remaining views and *forwards a copy* of each
   to the recipient, then signals completion once it has dequeued every
   fence.  The recipient replays the forwarded gap, then its own *pen*
   (post-fence updates it processed for its other views while ``V`` was
   still in flight), each through a ``V``-only restricted sweep with
   SWEEP's compensation rule -- deduplicating queued stragglers against
   un-replayed gap entries by sequence number, since a late pre-fence
   update can be visible both ways.  After catch-up ``V`` participates
   in normal units again, guarded per update by its own position vector
   (duplicate sequences are dropped, holes are protocol errors), until
   its position provably rejoins the shard's and the guard becomes a
   no-op.

The ``skip_straggler_forwarding`` mutation (for the equivalence harness)
drops step 3's forwarding while keeping the completion signal, and
relaxes the hole check to a high-water mark -- the run then finishes
with ``V`` silently missing ``(P_i, B_i]``, which the consistency oracle
and the byte-equality baseline comparison must both catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.relational.view import ViewDefinition
from repro.sources.messages import UpdateNotice


# ----------------------------------------------------------------------
# Control payloads (injected by the coordinator as kind="rebalance")
# ----------------------------------------------------------------------
@dataclass(slots=True)
class HandoffState:
    """Donor -> recipient: the sealed view's encoded state.

    ``blob`` is the wire-format payload (CRC'd binwire envelope);
    ``view_def`` and ``recorder`` ride alongside in-process -- the view
    definition is launch-time configuration both sides already share in
    a real deployment, and the recorder is harness instrumentation.
    """

    view: str
    epoch: int
    blob: bytes
    view_def: ViewDefinition
    recorder: object | None = None


@dataclass(slots=True)
class GapFrame:
    """Donor -> recipient: one straggler update from the gap ``(P, B]``."""

    epoch: int
    notice: UpdateNotice


@dataclass(slots=True)
class GapComplete:
    """Donor -> recipient: every fence dequeued; the gap is closed."""

    epoch: int


def _zero_stats() -> dict[str, int]:
    return {
        "gap_forwarded": 0,
        "gap_skipped": 0,
        "pen_retained": 0,
        "dup_dropped": 0,
        "catchup_installs": 0,
        "aux_adopted": 0,
        "aux_adopt_skipped": 0,
    }


@dataclass
class MigrationMemberState:
    """One member's view of an in-flight migration (donor or recipient)."""

    role: str  # "donor" | "recipient"
    view_def: ViewDefinition
    epoch: int
    coordinator: object
    member: object  # opaque key echoed back on coordinator callbacks
    n_sources: int
    skip_forwarding: bool = False
    relaxed: bool = False
    # -- donor side --
    seal_requested: bool = False
    sealed: bool = False
    complete_sent: bool = False
    fences_seen: set[int] = field(default_factory=set)
    boundaries: dict[int, int] = field(default_factory=dict)
    seal_position: dict[int, int] = field(default_factory=dict)
    # -- recipient side --
    fenced: dict[int, int] = field(default_factory=dict)
    handoff: HandoffState | None = None
    gap: list[UpdateNotice] = field(default_factory=list)
    pen: list[UpdateNotice] = field(default_factory=list)
    adopted: bool = False
    catchup_done: bool = False
    suspended: bool = False
    pos: dict[int, int] = field(default_factory=dict)
    stats: dict[str, int] = field(default_factory=_zero_stats)

    def maybe_unsuspend(self) -> None:
        """Locality answers become usable again once ``V``'s position has
        provably rejoined the shard's: catch-up done and every fence
        dequeued (no pre-boundary update can still be queued)."""
        if (
            self.suspended
            and self.catchup_done
            and len(self.fenced) >= self.n_sources
        ):
            self.suspended = False


__all__ = [
    "GapComplete",
    "GapFrame",
    "HandoffState",
    "MigrationMemberState",
]
