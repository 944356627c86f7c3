"""View partitioning for the sharded warehouse runtime.

A sharded deployment splits the maintained view set across ``n_shards``
warehouse processes.  The unit of placement is a whole view: the paper's
complete-consistency argument (Section 5) is *per view*, so any partition
of the view set preserves each view's guarantee as long as every shard
receives its sources' updates in the original per-source FIFO order.
Nothing about a view's maintenance ever references another view, hence
there is no cross-shard coordination to get wrong -- the entire
correctness story of a sharded run is "each shard is an ordinary
(multi-view) warehouse over a subset of the views".

:func:`partition_views` produces the :class:`ShardPlan`; the default
``hash`` strategy is stable across processes and runs (CRC-32 of the view
name), ``round-robin`` balances small families deterministically, and
``explicit`` assignments support operator-chosen placement.

:func:`ShardPlan.source_fanout` is the router's table: each source update
is fanned out to exactly the shards whose views reference that source
relation, so a shard never sees (or queues, or sweeps) traffic it does
not need.

:func:`view_family` derives a deterministic family of SPJ variants over
one base chain view -- every process of a multi-process sharded run calls
it with the same config-derived base view and obtains the identical
family, which is what lets shard and source processes agree on the plan
without exchanging schemas.
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.relational.predicate import AttrCompare
from repro.relational.relation import Relation
from repro.relational.view import ViewDefinition

STRATEGIES = ("hash", "round-robin")


def stable_shard_of(name: str, n_shards: int) -> int:
    """Process-independent shard for a view name (CRC-32, not ``hash()``).

    Python's builtin ``hash`` of a string is salted per process, which
    would scatter one view to different shards in different processes of
    the same deployment; CRC-32 is fixed by the name alone.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return zlib.crc32(name.encode("utf-8")) % n_shards


@dataclass(frozen=True)
class ShardPlan:
    """An assignment of every view to exactly one shard."""

    n_shards: int
    views: tuple[ViewDefinition, ...]
    assignment: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [v.name for v in self.views]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate view names: {names!r}")
        missing = [n for n in names if n not in self.assignment]
        if missing:
            raise ValueError(f"views without a shard: {missing!r}")
        bad = {
            name: shard
            for name, shard in self.assignment.items()
            if not 0 <= shard < self.n_shards
        }
        if bad:
            raise ValueError(
                f"assignments outside 0..{self.n_shards - 1}: {bad!r}"
            )

    # ------------------------------------------------------------------
    def views_for(self, shard: int) -> list[ViewDefinition]:
        """This shard's views, in family order (views[0] is its primary)."""
        return [v for v in self.views if self.assignment[v.name] == shard]

    @property
    def active_shards(self) -> list[int]:
        """Shards that host at least one view (others are never launched)."""
        return sorted({self.assignment[v.name] for v in self.views})

    def shard_of(self, view_name: str) -> int:
        return self.assignment[view_name]

    def source_fanout(self) -> dict[str, tuple[int, ...]]:
        """Router table: relation name -> shards whose views reference it.

        An update committed at source ``R`` travels only to
        ``source_fanout()[R]``; every other shard maintains views that do
        not mention ``R`` and must not receive (or count) the update.
        """
        fanout: dict[str, set[int]] = {}
        for view in self.views:
            shard = self.assignment[view.name]
            for name in view.relation_names:
                fanout.setdefault(name, set()).add(shard)
        return {name: tuple(sorted(shards)) for name, shards in fanout.items()}

    def describe(self) -> str:
        parts = []
        for shard in self.active_shards:
            names = [v.name for v in self.views_for(shard)]
            parts.append(f"shard {shard}: {', '.join(names)}")
        return "; ".join(parts)


def partition_views(
    views: Sequence[ViewDefinition],
    n_shards: int,
    strategy: str = "hash",
    explicit: Mapping[str, int] | None = None,
) -> ShardPlan:
    """Assign each view to one of ``n_shards`` shards.

    ``explicit`` (view name -> shard) overrides the strategy entirely and
    must cover every view; ``hash`` is stable placement by view name
    (what a multi-process deployment should use); ``round-robin`` places
    views in family order and is the balanced default for benchmarks.
    """
    views = tuple(views)
    if not views:
        raise ValueError("need at least one view to partition")
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if explicit is not None:
        assignment = {v.name: int(explicit[v.name]) for v in views}
    elif strategy == "hash":
        assignment = {v.name: stable_shard_of(v.name, n_shards) for v in views}
    elif strategy == "round-robin":
        assignment = {v.name: i % n_shards for i, v in enumerate(views)}
    else:
        raise ValueError(
            f"unknown strategy {strategy!r}; one of {STRATEGIES} or explicit="
        )
    return ShardPlan(n_shards=n_shards, views=views, assignment=assignment)


@dataclass(frozen=True, order=True)
class ShardMember:
    """One member of a replica group: ``replica`` 0 is the primary.

    The label is the member's wire identity -- channel names, durable
    directories, and supervisor argv all derive from it -- so promotion
    (the standby *becoming* the primary) is purely a routing change: the
    standby already holds the primary's state at the same FIFO position.
    """

    shard: int
    replica: int = 0

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ValueError(f"shard must be >= 0, got {self.shard}")
        if self.replica < 0:
            raise ValueError(f"replica must be >= 0, got {self.replica}")

    @property
    def label(self) -> str:
        """``sh3`` for a primary, ``sh3r1`` for its first standby."""
        if self.replica == 0:
            return f"sh{self.shard}"
        return f"sh{self.shard}r{self.replica}"

    @property
    def is_primary(self) -> bool:
        return self.replica == 0


def parse_member(text: str) -> ShardMember:
    """Parse ``"3"`` or ``"3r1"`` back into a :class:`ShardMember`."""
    raw = text.strip().removeprefix("sh")
    shard_text, sep, replica_text = raw.partition("r")
    try:
        shard = int(shard_text)
        replica = int(replica_text) if sep else 0
    except ValueError:
        raise ValueError(f"not a shard member: {text!r}") from None
    return ShardMember(shard=shard, replica=replica)


@dataclass(frozen=True)
class ReplicaPlan:
    """A :class:`ShardPlan` plus a replica group per active shard.

    ``members_by_shard[s][0]`` is shard ``s``'s current primary; the
    rest are hot standbys consuming duplicates of every frame the
    primary sees (same per-(source, shard) FIFO channels), so any of
    them can take over at the exact FIFO position.  ``slots`` places
    each member on a process slot with anti-affinity: a primary and its
    own standby never share a slot, so one process (or machine) loss
    cannot take out a whole replica group.
    """

    plan: ShardPlan
    replicas: int
    members_by_shard: dict[int, tuple[ShardMember, ...]] = field(
        default_factory=dict
    )
    slots: dict[ShardMember, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {self.replicas}")
        for shard, group in self.members_by_shard.items():
            if not group:
                raise ValueError(f"shard {shard} has an empty replica group")
            if any(m.shard != shard for m in group):
                raise ValueError(
                    f"shard {shard} group references other shards: {group!r}"
                )
            placed = [self.slots[m] for m in group if m in self.slots]
            if len(set(placed)) != len(placed):
                raise ValueError(
                    f"shard {shard} members share a process slot:"
                    f" { {m.label: self.slots.get(m) for m in group} }"
                )

    # ------------------------------------------------------------------
    @property
    def members(self) -> list[ShardMember]:
        """Every member, primaries first within each shard."""
        out: list[ShardMember] = []
        for shard in self.plan.active_shards:
            out.extend(self.members_by_shard[shard])
        return out

    def primary_of(self, shard: int) -> ShardMember:
        return self.members_by_shard[shard][0]

    def standbys_of(self, shard: int) -> tuple[ShardMember, ...]:
        return self.members_by_shard[shard][1:]

    @property
    def n_slots(self) -> int:
        return 1 + max(self.slots.values(), default=0)

    def member_fanout(self) -> dict[str, tuple[ShardMember, ...]]:
        """Dup-fanout table: relation -> every member of each fanned shard.

        The FIFO argument survives duplication because a source sends
        each member its *own* copy of the identical frame sequence over
        that member's own channel: per (source, member) order is the per
        (source, shard) order, so primary and standby install the same
        schedule and stay byte-identical at every position.
        """
        base = self.plan.source_fanout()
        return {
            name: tuple(
                member
                for shard in shards
                for member in self.members_by_shard[shard]
            )
            for name, shards in base.items()
        }

    def promote(self, shard: int) -> "ReplicaPlan":
        """The plan after shard ``shard`` loses its primary.

        The first standby becomes the new primary (keeping its slot);
        a shard with no standby cannot be promoted.
        """
        group = self.members_by_shard[shard]
        if len(group) < 2:
            raise ValueError(
                f"shard {shard} has no standby to promote (group {group!r})"
            )
        members = dict(self.members_by_shard)
        members[shard] = group[1:]
        slots = {m: s for m, s in self.slots.items() if m != group[0]}
        return ReplicaPlan(
            plan=self.plan,
            replicas=self.replicas,
            members_by_shard=members,
            slots=slots,
        )

    def describe(self) -> str:
        parts = []
        for shard in self.plan.active_shards:
            labels = [
                f"{m.label}@slot{self.slots[m]}"
                for m in self.members_by_shard[shard]
            ]
            parts.append(f"shard {shard}: {', '.join(labels)}")
        return "; ".join(parts)


def assign_replicas(plan: ShardPlan, replicas: int = 0) -> ReplicaPlan:
    """Pair every active shard with ``replicas`` hot standbys.

    Process slots are assigned diagonally: with ``S`` active shards the
    slot of replica ``k`` of the ``i``-th active shard is
    ``(i + k) mod n_slots`` where ``n_slots = max(S, replicas + 1)`` --
    so members of one group always land on distinct slots (anti-
    affinity) and, when ``S >= replicas + 1``, no extra slots are needed
    beyond the ``S`` a replica-less deployment already runs.
    """
    if replicas < 0:
        raise ValueError(f"replicas must be >= 0, got {replicas}")
    active = plan.active_shards
    n_slots = max(len(active), replicas + 1)
    members_by_shard: dict[int, tuple[ShardMember, ...]] = {}
    slots: dict[ShardMember, int] = {}
    for i, shard in enumerate(active):
        group = tuple(
            ShardMember(shard=shard, replica=k) for k in range(replicas + 1)
        )
        members_by_shard[shard] = group
        for k, member in enumerate(group):
            slots[member] = (i + k) % n_slots
    return ReplicaPlan(
        plan=plan,
        replicas=replicas,
        members_by_shard=members_by_shard,
        slots=slots,
    )


@dataclass(frozen=True)
class RebalancePlan:
    """One live view migration: move ``view`` to shard ``to_shard``.

    Validated against the launch :class:`ShardPlan`:

    * the view must exist and must not be its donor shard's primary
      (``views_for(donor)[0]``) -- the primary's recorder, inbox and
      wire labels are the shard's identity and are not migratable;
    * the recipient must be an *active* shard (same-chain families fan
      every source to every active shard, so moving a view to an active
      shard changes no fanout set -- the whole FIFO re-route reduces to
      the fencing protocol);
    * donor and recipient must differ.
    """

    plan: ShardPlan
    view: str
    to_shard: int

    def __post_init__(self) -> None:
        names = [v.name for v in self.plan.views]
        if self.view not in names:
            raise ValueError(
                f"unknown view {self.view!r}; have {names!r}"
            )
        donor = self.plan.shard_of(self.view)
        if self.plan.views_for(donor)[0].name == self.view:
            raise ValueError(
                f"view {self.view!r} is shard {donor}'s primary and cannot"
                " migrate; move a non-primary view"
            )
        if self.to_shard not in self.plan.active_shards:
            raise ValueError(
                f"recipient shard {self.to_shard} is not active"
                f" (active: {self.plan.active_shards})"
            )
        if self.to_shard == donor:
            raise ValueError(
                f"view {self.view!r} already lives on shard {donor}"
            )

    @property
    def from_shard(self) -> int:
        return self.plan.shard_of(self.view)

    def result_plan(self) -> ShardPlan:
        """The post-migration assignment (same views, one moved)."""
        explicit = dict(self.plan.assignment)
        explicit[self.view] = self.to_shard
        return partition_views(
            self.plan.views, self.plan.n_shards, explicit=explicit
        )

    def describe(self) -> str:
        return (
            f"move {self.view!r}: shard {self.from_shard} ->"
            f" shard {self.to_shard}"
        )


def pick_migration(plan: ShardPlan) -> tuple[str, int]:
    """The default move under ``plan``: ``(view, to_shard)``.

    Deterministic per plan: the first active shard hosting more than its
    primary donates its first extra view to the next active shard.
    """
    for shard in plan.active_shards:
        views = plan.views_for(shard)
        recipients = [s for s in plan.active_shards if s != shard]
        if len(views) > 1 and recipients:
            return views[1].name, recipients[0]
    raise ValueError(f"no migratable view under [{plan.describe()}]")


def view_family(base: ViewDefinition, n_views: int) -> list[ViewDefinition]:
    """A deterministic family of ``n_views`` SPJ variants of ``base``.

    ``views[0]`` is ``base`` itself; each variant ``k`` adds a selection
    ``attr < threshold`` over the last attribute of relation
    ``1 + (k-1) mod n`` with a threshold derived from ``k`` alone -- a
    pure function of ``(base, n_views)``, so every process of a sharded
    deployment derives the identical family from the shared config.
    """
    if n_views < 1:
        raise ValueError(f"n_views must be >= 1, got {n_views}")
    views = [base]
    n = base.n_relations
    for k in range(1, n_views):
        index = 1 + (k - 1) % n
        attr = base.schema_of(index).attributes[-1]
        threshold = 100 + (k * 211) % 800
        views.append(
            ViewDefinition(
                name=f"{base.name}#s{k}",
                relation_names=base.relation_names,
                schemas=base.schemas,
                join_conditions=base.join_conditions,
                selection=AttrCompare(attr, "<", threshold),
                projection=base.projection,
            )
        )
    return views


def canonical_view_bytes(relation: Relation) -> bytes:
    """A byte-stable encoding of a relation's contents.

    Used by the sharded-vs-single equivalence tests: two runs agree iff
    the canonical bytes of every view are identical.  Rows are sorted by
    ``repr`` so heterogeneous value types cannot break the ordering.
    """
    rows = sorted(
        ([list(row), count] for row, count in relation.items()),
        key=repr,
    )
    payload = {"attributes": list(relation.schema.attributes), "rows": rows}
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    ).encode("utf-8")


__all__ = [
    "STRATEGIES",
    "RebalancePlan",
    "ReplicaPlan",
    "ShardMember",
    "ShardPlan",
    "assign_replicas",
    "canonical_view_bytes",
    "parse_member",
    "partition_views",
    "pick_migration",
    "stable_shard_of",
    "view_family",
]
