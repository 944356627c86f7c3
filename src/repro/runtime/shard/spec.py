"""One description of a sharded fleet, and everything derived from it.

Every way of hosting a fleet -- :func:`~repro.runtime.shard.run_sharded`
on one event loop, one ``repro serve-shard`` / ``serve-source`` site per
OS process, the supervisor that launches those processes, the scenario
harness -- starts from one :class:`FleetSpec`.  The spec derives the
workload, the view family, the plan, the replica groups and the fan-out
once, and its constructor is the only place a fleet shape is rejected.

:func:`child_argvs` is the spec's other rendering: the command line of
every process of a multi-process deployment.  A command line can say
less than a spec, so each derived argv is parsed back through the real
CLI parser and compared with the spec; a field that did not survive the
round trip is an error before any process is spawned, never a silently
different experiment.
"""

from __future__ import annotations

import dataclasses
import os
import socket
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from repro.durability.manager import CheckpointPolicy, CrashPlan
from repro.harness.config import ExperimentConfig
from repro.harness.runner import build_workload
from repro.harness.sites import SitePlan
from repro.relational.view import ViewDefinition
from repro.runtime.chaos import ChaosConfig, profile
from repro.runtime.tcp import TcpChannelConfig
from repro.simulation.rng import RngRegistry
from repro.warehouse.sharding import (
    RebalancePlan,
    ReplicaPlan,
    ShardMember,
    ShardPlan,
    assign_replicas,
    partition_views,
    view_family,
)
from repro.workloads.scenarios import Workload

if TYPE_CHECKING:
    from repro.runtime.shard.faults import FailoverSpec
    from repro.runtime.shard.rebalance import RebalanceSpec


def member_name(member: ShardMember) -> str:
    """``shard<N>[r<K>]``: a member's process name under the supervisor
    and its directory under a fleet's ``durable_dir``."""
    if member.is_primary:
        return f"shard{member.shard}"
    return f"shard{member.shard}r{member.replica}"


@dataclass(frozen=True)
class FleetSpec:
    """What determines a sharded fleet; the keyword arguments of every
    entry point are these fields.

    ``views`` overrides the family (default ``view_family(workload.view,
    config.n_views)``); ``strategy`` picks the partitioning rule.
    ``replicas`` pairs every active shard with that many hot standbys.
    ``durable_dir`` turns on durability: member ``m`` checkpoints and
    WAL-logs under :meth:`member_dir`, and a fleet hosted over the same
    directory again recovers from it.  The faults: ``chaos`` (a profile
    name or config; transport faults below the FIFO contract),
    ``crash_plans`` (shard id -> a deterministic
    :class:`~repro.durability.errors.SimulatedCrash` of its primary),
    ``failover`` (kill a primary, promote its standby) and ``rebalance``
    (migrate one view mid-run).
    """

    config: ExperimentConfig
    n_shards: int = 2
    strategy: str = "hash"
    replicas: int = 0
    transport: str = "local"
    time_scale: float = 0.01
    host: str = "127.0.0.1"
    timeout: float = 120.0
    tcp_config: TcpChannelConfig | None = None
    views: list[ViewDefinition] | None = None
    durable_dir: str | None = None
    checkpoint_policy: CheckpointPolicy | None = None
    fsync_batch: int = 8
    chaos: ChaosConfig | str | None = None
    crash_plans: dict[int, CrashPlan] | None = None
    failover: FailoverSpec | None = None
    rebalance: RebalanceSpec | None = None

    def __post_init__(self) -> None:
        if self.transport not in ("tcp", "local"):
            raise ValueError(f"unknown transport {self.transport!r}")
        profile(self.chaos)
        if self.failover is not None:
            if self.replicas < 1:
                raise ValueError(
                    "failover needs at least one hot standby (replicas >= 1)"
                )
            self.hosted_views(self.failover.shard)
        if self.rebalance is not None:
            if self.durable_dir is not None or self.crash_plans:
                raise ValueError(
                    "rebalance cannot be combined with durability: a"
                    " mid-migration checkpoint would split one view's"
                    " authority across two WALs"
                )
            # Deriving the move rejects a primary or unknown view and an
            # inactive recipient.
            _ = self.rebalance_plan

    # -- derived, once ---------------------------------------------------
    @cached_property
    def workload(self) -> Workload:
        return build_workload(self.config, RngRegistry(self.config.seed))

    @cached_property
    def family(self) -> list[ViewDefinition]:
        if self.views is not None:
            return self.views
        return view_family(self.workload.view, max(1, self.config.n_views))

    @property
    def chain(self) -> ViewDefinition:
        """The family's base view: names and schemas of the sources."""
        return self.family[0]

    @property
    def source_indices(self) -> range:
        return range(1, self.chain.n_relations + 1)

    @cached_property
    def plan(self) -> ShardPlan:
        return partition_views(self.family, self.n_shards, strategy=self.strategy)

    @cached_property
    def rplan(self) -> ReplicaPlan:
        return assign_replicas(self.plan, self.replicas)

    @cached_property
    def rebalance_plan(self) -> RebalancePlan | None:
        if self.rebalance is None:
            return None
        return RebalancePlan(
            self.plan, self.rebalance.view, self.rebalance.to_shard
        )

    @cached_property
    def fanout(self) -> dict[int, tuple[ShardMember, ...]]:
        """Source index -> every member that source's updates travel to."""
        by_name = self.rplan.member_fanout()
        return {
            index: by_name.get(self.chain.name_of(index), ())
            for index in self.source_indices
        }

    @property
    def faults(self) -> list:
        """The armed-by-hook faults, in arming order (a trigger armed
        later wraps, and so fires after, one armed earlier)."""
        return [f for f in (self.rebalance, self.failover) if f is not None]

    def hosted_views(self, shard: int) -> list[ViewDefinition]:
        views = self.plan.views_for(shard)
        if not views:
            raise ValueError(
                f"shard {shard} hosts no views under plan"
                f" [{self.plan.describe()}]"
            )
        return views

    def member_dir(self, member: ShardMember) -> str | None:
        if self.durable_dir is None:
            return None
        return os.path.join(self.durable_dir, member_name(member))

    def site_plan(self, members=None, **fields) -> SitePlan:
        """This fleet as :func:`~repro.harness.sites.build_sites` builds it:
        every replica-group member (or only ``members``), each hosting its
        shard's views, fed as :attr:`fanout` says.  ``crash_plans`` crash
        primaries only.  ``fields`` override the
        :class:`~repro.harness.sites.SitePlan`'s."""
        members = self.rplan.members if members is None else members
        crash_plans = self.crash_plans or {}
        plan = dict(
            hosted={m: self.hosted_views(m.shard) for m in members},
            fanout=self.fanout,
            expected={m: self.expected_deliveries(m) for m in members},
            family=self.family,
            durable_dirs={m: self.member_dir(m) for m in members},
            crash_plans={
                m: crash_plans.get(m.shard) for m in members if m.is_primary
            },
            checkpoint_policy=self.checkpoint_policy,
            fsync_batch=self.fsync_batch,
        )
        return SitePlan(**{**plan, **fields})

    def expected_deliveries(self, member: ShardMember) -> int:
        """Updates a member is sent: those of the sources its shard's
        views reference (a standby's too, whether or not this spec's
        ``replicas`` counts it: a served standby's spec does not)."""
        fanout = self.plan.source_fanout()
        return sum(
            len(self.workload.schedules.get(index, ()))
            for index in self.source_indices
            if member.shard in fanout.get(self.chain.name_of(index), ())
        )


# ---------------------------------------------------------------------------
# The spec as command lines (multi-process deployments)
# ---------------------------------------------------------------------------

#: Fields a deployment expresses by which processes it launches and where
#: (``transport`` is not a choice there: processes speak TCP).
_STRUCTURAL = frozenset({"transport", "host", "replicas", "durable_dir"})


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned TCP port that was free a moment ago.

    Multi-process launches need addresses before the children exist;
    the tiny bind/close race is acceptable for CLI and test use.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _flags(table: dict[str, str], source) -> list[str]:
    """``table`` (the CLI's destination -> field) rendered for ``source``."""
    argv: list[str] = []
    for dest, field in table.items():
        flag, value = "--" + dest.replace("_", "-"), getattr(source, field)
        if value is True:
            argv.append(flag)
        elif value is not False:
            # (None is ``--compress-min``'s "off", spelled 0 on the CLI.)
            argv += [flag, "0" if value is None else str(value)]
    return argv


def _shard_flags(spec: FleetSpec, member: ShardMember) -> list[str]:
    argv = ["--shards", str(spec.n_shards), "--strategy", spec.strategy]
    if member.is_primary:
        argv += ["--shard-id", str(member.shard)]
    elif member.replica == 1:
        argv += ["--standby-of", str(member.shard)]
    else:
        argv += [
            "--shard-id", str(member.shard), "--replica", str(member.replica)
        ]
    if spec.durable_dir is not None:
        argv += ["--durable-dir", spec.member_dir(member)]
    argv += ["--fsync-batch", str(spec.fsync_batch)]
    if spec.checkpoint_policy is not None:
        argv += ["--checkpoint-every", str(spec.checkpoint_policy.every_installs)]
    return argv


def child_argvs(spec: FleetSpec, linger: float = 1.0) -> dict[str, list[str]]:
    """Process name -> ``repro`` command line, for every site of the fleet.

    One ``serve-shard`` per replica-group member (``shard<N>`` /
    ``shard<N>r<K>``), one ``serve-source`` per source (``source<I>``),
    on freshly picked ports of ``spec.host``.  Raises :class:`ValueError`
    naming every field of the spec the command lines cannot carry.
    """
    from repro import cli

    shared = _flags(cli._WORKLOAD_FLAGS, spec.config)
    shared += ["--time-scale", str(spec.time_scale), "--timeout", str(spec.timeout)]
    if spec.tcp_config is not None:
        shared += _flags(cli._TCP_FLAGS, spec.tcp_config)
    sites = (*spec.rplan.members, *spec.source_indices)
    at = {site: f"{spec.host}:{free_port(spec.host)}" for site in sites}
    argvs: dict[str, list[str]] = {}
    for member in spec.rplan.members:
        argv = ["serve-shard", *shared, *_shard_flags(spec, member)]
        argv += ["--listen", at[member]]
        for index in spec.source_indices:
            argv += ["--source", f"{index}={at[index]}"]
        argvs[member_name(member)] = argv
    for index in spec.source_indices:
        argv = ["serve-source", *shared, "--index", str(index)]
        argv += ["--listen", at[index], "--linger", str(linger)]
        for member in spec.fanout[index]:
            argv += ["--shard", f"{member.label}={at[member]}"]
        argvs[f"source{index}"] = argv
    check_carried(spec, argvs)
    return argvs


def check_carried(spec: FleetSpec, argvs: dict[str, list[str]]) -> None:
    """Raise :class:`ValueError` naming every field of ``spec`` that the
    children would not see: one that reads back differently once a child
    parses its command line the way it will, or a non-default one that no
    flag expresses at all."""
    from repro import cli

    lost: set[str] = set()
    expressed = set(_STRUCTURAL)
    parser = cli.build_parser()
    for argv in argvs.values():
        args = parser.parse_args(argv)
        config, carried = cli._workload_config(args), cli._site_fields(args)
        expressed.update(carried, {"config"})
        lost.update(
            f"config.{f.name}"
            for f in dataclasses.fields(config)
            if getattr(spec.config, f.name) != getattr(config, f.name)
        )
        lost.update(
            name
            for name, value in carried.items()
            if name not in _STRUCTURAL and getattr(spec, name) != value
        )
    lost.update(
        f.name
        for f in dataclasses.fields(spec)
        if f.name not in expressed and getattr(spec, f.name) != f.default
    )
    if lost:
        raise ValueError(
            "a multi-process deployment cannot carry these settings on its"
            f" command lines: {', '.join(sorted(lost))}"
        )


__all__ = [
    "FleetSpec",
    "check_carried",
    "child_argvs",
    "free_port",
    "member_name",
]
