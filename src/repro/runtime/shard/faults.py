"""Faults as hooks: deterministic protocol-point triggers and failover.

A fault a :class:`~repro.runtime.shard.spec.FleetSpec` asks for is an
object with two methods, called by the run around an otherwise
fault-blind loop: ``arm(fleet)`` installs it on the freshly built
fleet, and ``settle(fleet)`` -- once the fleet is quiescent -- returns
the result fields it contributes or raises
:class:`~repro.runtime.errors.RuntimeHostError` (a fault that never
fired would silently turn the run into a test of nothing).  A fleet
whose spec names no fault has nothing installed on it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.runtime.errors import RuntimeHostError
from repro.simulation.channel import Message
from repro.simulation.errors import ProcessKilled

#: threshold name -> the warehouse hook that counts it.
_HOOKS = {
    "after_deliveries": "note_delivery",
    "after_installs": "_after_install",
    "after_queries": "send_query",
}


def one_threshold(spec, *names: str) -> None:
    """A fault spec sets exactly one of its ``after_*`` fields, >= 1."""
    thresholds = [
        getattr(spec, name) for name in names if getattr(spec, name) is not None
    ]
    if len(thresholds) != 1:
        raise ValueError(f"set exactly one of {'/'.join(names)}, got {spec!r}")
    if thresholds[0] < 1:
        raise ValueError(f"threshold must be >= 1, got {spec!r}")


class ProtocolTrigger:
    """Fire once at a warehouse's N-th delivery, install or query.

    ``spec`` names the point through whichever ``after_*`` field it
    sets.  The counter wraps that one hook *on the instance*, so it runs
    inside the warehouse's own generator frame: ``on_fire`` lands
    mid-protocol (mid-batch when counting installs, mid-compensation
    when counting deliveries, right after a query left when counting
    queries), not at a tidy quiescent boundary.  With ``kill`` the frame
    then dies with :class:`ProcessKilled` -- the kernel treats that as
    one process terminating and every other site keeps running.
    """

    def __init__(self, warehouse, spec, on_fire, kill: str | None = None):
        (point,) = (p for p in _HOOKS if getattr(spec, p, None) is not None)
        threshold = getattr(spec, point)
        self.fired = False
        self.count = 0
        hook = getattr(warehouse, _HOOKS[point])

        def counted(*args, **kwargs):
            hook(*args, **kwargs)
            self.count += 1
            if self.count >= threshold and not self.fired:
                self.fired = True
                on_fire()
                if kill is not None:
                    raise ProcessKilled(kill)

        setattr(warehouse, _HOOKS[point], counted)


@dataclass(frozen=True)
class FailoverSpec:
    """Kill shard ``shard``'s primary at a deterministic protocol point
    and promote its first standby, which is already at the same FIFO
    position on its own channels.

    Exactly one of the ``after_*`` thresholds is set (see
    :class:`ProtocolTrigger` for where each lands).

    ``unfenced_replay`` is the mutation hook for the oracle tests: a
    correct promotion inherits the standby's own FIFO position and lets
    the incarnation-epoch fence drop whatever was in flight to the dead
    primary; the mutated promotion instead replays the primary's last
    delivered frame into the standby -- the duplicate a fence-skipping
    takeover of the dead primary's channel would deliver -- and the
    consistency oracle must fail the run.
    """

    shard: int
    after_deliveries: int | None = None
    after_installs: int | None = None
    after_queries: int | None = None
    unfenced_replay: bool = False

    def __post_init__(self) -> None:
        one_threshold(self, *_HOOKS)

    def arm(self, fleet) -> None:
        rplan = fleet.spec.rplan
        victim = fleet.members[rplan.primary_of(self.shard)]
        standby = fleet.members[rplan.standbys_of(self.shard)[0]]

        def on_fire() -> None:
            fleet.kill(victim.member)
            fleet.promotions[self.shard] = standby.member.label
            delivered = victim.primary_recorder.deliveries
            if self.unfenced_replay and delivered:
                standby.inbox.put(
                    Message(
                        kind="update",
                        sender=f"unfenced-replay-{victim.member.label}",
                        payload=dataclasses.replace(
                            delivered[-1], delivery_seq=None, delivered_at=0.0
                        ),
                    )
                )

        fleet.armed[self] = ProtocolTrigger(
            victim.warehouse,
            self,
            on_fire,
            kill=f"failover kill switch: shard {self.shard} primary",
        )

    def settle(self, fleet) -> dict:
        if not fleet.armed[self].fired:
            raise RuntimeHostError(
                f"failover kill switch never fired ({self!r}):"
                " thresholds exceed the workload's protocol events"
            )
        return {"promotions": dict(fleet.promotions)}


__all__ = ["FailoverSpec", "ProtocolTrigger", "one_threshold"]
