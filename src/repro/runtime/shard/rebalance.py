"""Live rebalancing: the spec of one view migration and its control plane.

The per-warehouse protocol (seal, handoff, gap forwarding, catch-up) is
:mod:`repro.warehouse.migration`, run by every shard's view family;
this module is what hosts it on a fleet: :class:`RebalanceSpec` arms a
:class:`~repro.runtime.shard.faults.ProtocolTrigger` on the donor
primary, and the :class:`RebalanceCoordinator` it fires carries fences
and control frames between the paired members.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.relational.delta import Delta
from repro.formats.errors import RuntimeHostError
from repro.runtime.shard.faults import ProtocolTrigger, one_threshold
from repro.simulation.channel import Message
from repro.sources.messages import UpdateNotice, make_rebalance_fence
from repro.warehouse.migration import (
    GapComplete,
    GapFrame,
    HandoffState,
    MigrationMemberState,
    _zero_stats,
)
from repro.warehouse.sharding import ShardMember


@dataclass(frozen=True)
class RebalanceSpec:
    """Migrate ``view`` to shard ``to_shard`` at a deterministic point.

    Exactly one of the ``after_*`` thresholds must be set; the trigger
    fires inside the donor primary's own process frame the moment that
    count is reached, so the seal request lands *mid-protocol* (mid-batch
    when counting installs, mid-compensation when counting deliveries)
    rather than at a tidy quiescent boundary -- exactly the points the
    drain/handoff/re-route protocol has to survive.  The trigger does not
    kill: the current unit of work finishes and the donor seals at its
    next unit-of-work boundary (``MultiViewStateMixin._before_unit``).

    ``skip_straggler_forwarding`` is the mutation hook for the oracle
    tests: the donor seals and hands off but never forwards the gap
    ``(P_i, B_i]``, sending the completion signal immediately -- the
    migrated view then silently misses the straggler window and both the
    consistency oracle and the baseline byte-comparison must catch it.
    """

    view: str
    to_shard: int
    after_deliveries: int | None = None
    after_installs: int | None = None
    skip_straggler_forwarding: bool = False

    def __post_init__(self) -> None:
        one_threshold(self, "after_deliveries", "after_installs")

    def arm(self, fleet) -> None:
        """Attach migration states and arm the trigger on the donor primary.

        Standby members migrate in lockstep with their primaries: donor
        standby ``k`` seals and donates to recipient standby ``k`` over
        their own channel pair, so a later failover on either shard still
        finds a standby whose view set matches its primary's.
        """
        spec = fleet.spec
        move, rplan = spec.rebalance_plan, spec.rplan
        coordinator = RebalanceCoordinator(fleet)
        common = dict(
            view_def=next(v for v in spec.family if v.name == move.view),
            epoch=coordinator.epoch,
            coordinator=coordinator,
            n_sources=len(spec.source_indices),
            skip_forwarding=self.skip_straggler_forwarding,
        )
        for donor, recipient in zip(
            rplan.members_by_shard[move.from_shard],
            rplan.members_by_shard[move.to_shard],
        ):
            state = MigrationMemberState(role="donor", member=donor, **common)
            fleet.members[donor].warehouse.attach_migration(state)
            fleet.members[recipient].warehouse.attach_migration(
                MigrationMemberState(
                    role="recipient",
                    member=recipient,
                    relaxed=self.skip_straggler_forwarding,
                    **common,
                )
            )
            coordinator.pair(donor, recipient, state)
        fleet.on_death.append(coordinator.member_died)
        ProtocolTrigger(
            fleet.members[rplan.primary_of(move.from_shard)].warehouse,
            self,
            coordinator.fire,
        )
        fleet.armed[self] = coordinator

    def settle(self, fleet) -> dict:
        """``plan`` (the post-migration assignment), ``migrated`` and the
        structured ``rebalance_stats`` of the run's result."""
        coordinator = fleet.armed[self]
        if not coordinator.fired:
            raise RuntimeHostError(
                f"rebalance trigger never fired ({self!r}):"
                " thresholds exceed the workload's protocol events"
            )
        move = fleet.spec.rebalance_plan
        per_member = {
            member.label: fleet.members[member].warehouse.migration_stats()
            for member in coordinator.members
            if member not in fleet.dead
        }
        for label, stats in per_member.items():
            if stats["role"] == "recipient" and not stats["catchup_done"]:
                raise RuntimeHostError(
                    f"rebalance incomplete: member {label} settled before"
                    f" catch-up ({stats!r})"
                )
        donor = fleet.spec.rplan.primary_of(move.from_shard).label
        stats = {
            "view": move.view,
            "from_shard": move.from_shard,
            "to_shard": move.to_shard,
            "epoch": coordinator.epoch,
            "fired": True,
            "boundaries": dict(coordinator.boundaries),
            "seal_position": per_member.get(donor, {}).get("seal_position", {}),
            # No recipient settled short of catch-up (checked above).
            "completed": True,
            # The members' protocol counters, summed.
            **{
                counter: sum(m.get(counter, 0) for m in per_member.values())
                for counter in _zero_stats()
            },
            "members": per_member,
        }
        return {
            "plan": move.result_plan(),
            "migrated": move.view,
            "rebalance_stats": stats,
        }


class RebalanceCoordinator:
    """Control plane of one live migration (fencing epoch 1).

    Pairs donor and recipient members positionally (primary with
    primary, standby ``k`` with standby ``k``), posts one fence per
    source down the *real* per-(source, member) update channels of every
    participating member, and injects the in-process control frames --
    handoff, gap stragglers, gap-complete -- into the paired recipient
    member's inbox.  Fences are the only protocol frames that ride the
    wire (they are ordinary empty :class:`UpdateNotice` frames, so the
    binwire codec carries them unchanged over TCP); the handoff blob and
    gap frames are coordinator deliveries even under the tcp transport,
    modelling the operator-driven control plane of a real rebalance.
    """

    epoch = 1

    def __init__(self, fleet):
        self.fleet = fleet
        self.fired = False
        #: source index -> boundary seq ``B_i`` captured at fire time.
        self.boundaries: dict[int, int] = {}
        self._donor_states: dict[ShardMember, MigrationMemberState] = {}
        self._recipient_of: dict[ShardMember, ShardMember] = {}

    def pair(
        self,
        donor: ShardMember,
        recipient: ShardMember,
        donor_state: MigrationMemberState,
    ) -> None:
        self._donor_states[donor] = donor_state
        self._recipient_of[donor] = recipient

    @property
    def members(self) -> list[ShardMember]:
        return [*self._donor_states, *self._recipient_of.values()]

    def fire(self) -> None:
        """Request the seal on every donor member and post the fences.

        The boundary ``B_i`` is each source's committed position *now*;
        channel FIFO pins the fence between update ``B_i`` and
        ``B_i + 1`` on every participating member's stream, so all
        members agree on the pre/post-boundary split even though each
        has its own channel.
        """
        self.fired = True
        for state in self._donor_states.values():
            state.seal_requested = True
        chain = self.fleet.spec.chain
        for index, source in sorted(self.fleet.sources.items()):
            boundary = self.boundaries[index] = source.server.update_seq
            fence = make_rebalance_fence(
                index,
                boundary,
                Delta.empty(chain.schema_of(index)),
                self.epoch,
                applied_at=self.fleet.runtime.now,
            )
            for member in self.members:
                # Fresh frame per member, mirroring local_update's fanout.
                source.channels[member].send(
                    Message(
                        kind="update",
                        sender=source.name,
                        payload=dataclasses.replace(fence),
                    )
                )

    def member_died(self, member: ShardMember) -> None:
        """A donor primary dying with the migration fired but its gap not
        closed strands the recipient waiting for a handoff: detected and
        failed at once, not survived."""
        state = self._donor_states.get(member)
        if (
            state is None
            or not member.is_primary
            or not self.fired
            or state.complete_sent
        ):
            return
        phase = "gap forwarding" if state.sealed else "awaiting seal"
        self.fleet.runtime.record_failure(
            RuntimeHostError(
                f"rebalance: donor primary {member.label} died"
                f" mid-handoff ({phase} of {state.view_def.name!r});"
                " donor death during a migration is not survivable"
            )
        )

    # -- callbacks from the donor's view family ------------------------
    def handoff(self, donor: ShardMember, state: HandoffState) -> None:
        recipient = self._recipient_of[donor]
        # The view's recorder follows the view: history keeps accruing on
        # the same object, and the result collector reads it from the
        # recipient member's set.
        self.fleet.members[donor].recorders.pop(state.view, None)
        if state.recorder is not None:
            self.fleet.members[recipient].recorders[state.view] = state.recorder
        self._inject(donor, state)

    def forward_gap(self, donor: ShardMember, notice: UpdateNotice) -> None:
        self._inject(donor, GapFrame(self.epoch, notice))

    def gap_complete(self, donor: ShardMember) -> None:
        self._inject(donor, GapComplete(self.epoch))

    def _inject(self, donor: ShardMember, payload) -> None:
        self.fleet.members[self._recipient_of[donor]].inbox.put(
            Message(
                kind="rebalance",
                sender="rebalance-coordinator",
                payload=payload,
            )
        )


__all__ = ["RebalanceCoordinator", "RebalanceSpec"]
