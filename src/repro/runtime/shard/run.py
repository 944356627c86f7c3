"""A whole fleet on one event loop (:func:`run_sharded`), and what any
hosting of a fleet reports (:class:`ShardedRunResult`)."""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

from repro.consistency.levels import ConsistencyLevel
from repro.consistency.oracle import RunRecorder
from repro.harness.config import ExperimentConfig
from repro.harness.runner import record_predicate_cache_delta
from repro.relational.predicate import compile_cache_stats
from repro.relational.relation import Relation
from repro.runtime import kernel
from repro.runtime.chaos import ChaosStats
from repro.formats.errors import RuntimeHostError
from repro.harness.sites import Sites, SourceSite, WarehouseSite, build_sites
from repro.runtime.nodes import links_for
from repro.runtime.shard.spec import FleetSpec
from repro.simulation.metrics import MetricsCollector
from repro.simulation.trace import TraceLog
from repro.sources.server import DataSourceServer
from repro.warehouse.sharding import ShardMember, ShardPlan


@dataclass
class ShardedRunResult:
    """Per-view outcomes of one sharded run (or one shard's serve mode)."""

    config: ExperimentConfig
    n_shards: int
    transport: str
    time_scale: float
    plan: ShardPlan
    final_views: dict[str, Relation]
    levels: dict[str, ConsistencyLevel]
    recorders: dict[str, RunRecorder]
    metrics: MetricsCollector
    updates_total: int
    deliveries_total: int
    wall_seconds: float
    chaos_profile: str | None = None
    chaos_stats: ChaosStats | None = None
    #: shard id -> updates replayed from durable state (recovered runs).
    recovered_pending: dict[int, int] | None = None
    #: hot standbys per shard (0 = no replication).
    replicas: int = 0
    #: shard id -> label of the member promoted after its primary died.
    promotions: dict[int, str] | None = None
    #: structured protocol counters of a mid-run view migration (None
    #: when no rebalance was requested); ``plan`` then holds the
    #: POST-migration assignment.
    rebalance_stats: dict | None = None

    @property
    def installs(self) -> int:
        """Install *transactions* summed over shards (NOT source updates:
        an update fanned out to k shards is installed k times here)."""
        return self.metrics.counters.get("installs", 0)

    @property
    def installs_by_view(self) -> dict[str, int]:
        """Install count per maintained view, from its own recorder."""
        return {
            name: len(self.recorders[name].snapshots)
            for name in sorted(self.final_views)
        }

    @property
    def installs_by_shard(self) -> dict[int, int]:
        """Install counts folded onto the hosting shard."""
        out: dict[int, int] = {}
        for name, count in self.installs_by_view.items():
            shard = self.plan.shard_of(name)
            out[shard] = out.get(shard, 0) + count
        return dict(sorted(out.items()))

    @property
    def updates_per_sec(self) -> float:
        """Unique source updates per wall second (not per-shard deliveries)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.updates_total / self.wall_seconds

    def min_level(self) -> ConsistencyLevel:
        """Weakest per-view verdict (NONE when verification was skipped)."""
        if not self.levels:
            return ConsistencyLevel.NONE
        return min(self.levels.values())

    def verified_at(self, level: ConsistencyLevel) -> bool:
        """Every view reached at least ``level``."""
        return bool(self.levels) and all(
            achieved >= level for achieved in self.levels.values()
        )

    def __repr__(self) -> str:
        # Bounded for the same reason as ``RunResult.__repr__``.
        return (
            f"{type(self).__name__}({self.config.algorithm},"
            f" installs={self.installs})"
        )

    def report(self) -> str:
        lines = [
            f"sharded run      : {self.n_shards} shard(s),"
            f" {self.replicas} standby(s) each,"
            f" {len(self.plan.views)} view(s), {self.transport} transport"
            f" (time scale {self.time_scale} s/unit)",
            f"plan             : {self.plan.describe()}",
        ]
        if self.promotions:
            lines.append(
                "promotions       : "
                + ", ".join(
                    f"shard {shard} -> {label}"
                    for shard, label in sorted(self.promotions.items())
                )
            )
        if self.rebalance_stats:
            rs = self.rebalance_stats
            lines.append(
                f"rebalance        : {rs['view']!r} shard {rs['from_shard']}"
                f" -> {rs['to_shard']},"
                f" gap fwd={rs['gap_forwarded']} pen={rs['pen_retained']}"
                f" catchup={rs['catchup_installs']} dup={rs['dup_dropped']}"
                f" {'complete' if rs['completed'] else 'INCOMPLETE'}"
            )
        if self.chaos_profile is not None and self.chaos_stats is not None:
            lines.append(
                f"chaos profile    : {self.chaos_profile}"
                f" ({self.chaos_stats.faults_injected} faults injected)"
            )
        lines.append(
            f"updates          : {self.updates_total} unique,"
            f" {self.deliveries_total} shard deliveries,"
            f" {self.installs} install txns"
        )
        by_shard = self.installs_by_shard
        lines.append(
            "view installs    : "
            + ", ".join(f"sh{shard}={count}" for shard, count in by_shard.items())
        )
        lines.append(
            f"throughput       : {self.updates_per_sec:.1f} distinct updates/s"
            f" over {self.wall_seconds:.3f}s"
        )
        counters = self.metrics.counters
        if self.config.locality != "off":
            lines.append(
                f"locality         : mode={self.config.locality}"
                f" aux_hits={counters.get('locality_aux_hits', 0)}"
                f" cache_hits={counters.get('locality_cache_hits', 0)}"
                f" dedup_saved={counters.get('locality_dedup_saved', 0)}"
            )
        for name in sorted(self.final_views):
            level = self.levels.get(name)
            shown = level.name.lower() if level is not None else "unchecked"
            lines.append(
                f"view {name:<12}: {self.final_views[name].distinct_count}"
                f" rows, shard {self.plan.shard_of(name)}, {shown}"
            )
        return "\n".join(lines)


def collect_result(
    spec: FleetSpec,
    sites: dict[int, WarehouseSite],
    wall_seconds: float,
    plan: ShardPlan,
    migrated: str | None = None,
    **fields,
) -> ShardedRunResult:
    """Read views, recorders and verdicts off each shard's authoritative
    site (``sites``: shard id -> the member that speaks for it).

    ``plan`` is the assignment at the *end* of the run (the launch plan
    unless a rebalance moved ``migrated``; see
    :meth:`~repro.harness.sites.WarehouseSite.final_recorders`).
    """
    recorders: dict[str, RunRecorder] = {}
    final_views: dict[str, Relation] = {}
    for shard, site in sorted(sites.items()):
        recorders.update(site.final_recorders(migrated))
        for view in plan.views_for(shard):
            final_views[view.name] = site.warehouse.view_contents(view.name)
    levels: dict[str, ConsistencyLevel] = {}
    if spec.config.check_consistency:
        levels = {
            name: recorders[name].classify(
                max_vectors=spec.config.max_check_vectors
            )
            for name in final_views
        }
    return ShardedRunResult(
        config=spec.config,
        n_shards=spec.n_shards,
        transport=spec.transport,
        time_scale=spec.time_scale,
        plan=plan,
        final_views=final_views,
        levels=levels,
        recorders=recorders,
        deliveries_total=sum(
            site.primary_recorder.updates_delivered for site in sites.values()
        ),
        wall_seconds=wall_seconds,
        replicas=spec.replicas,
        **fields,
    )


class ShardedSourceFront(DataSourceServer):
    """:class:`DataSourceServer` under the name ``bench/trace.py`` wraps
    for a sharded fleet's sources (``runtime.shard.ShardedSourceFront.
    local_update``, a ``must_call`` of ``bench/workloads.json``).  It
    exists only for ``bench/``: once a bench-only change points those two
    files at ``DataSourceServer``, it and ``SourceSite``'s ``server``
    parameter go."""

    local_update = DataSourceServer.local_update


def new_runtime(spec: FleetSpec):
    """The kernel a fleet (or a single served site) of ``spec`` runs on."""
    # Looked up on the package at call time: tests/runtime/conftest.py
    # swaps ``repro.runtime.shard.AsyncRuntime`` for a subclass that
    # checks every quiescence verdict against the kernel's own.
    from repro.runtime import shard

    return shard.AsyncRuntime(time_scale=spec.time_scale)


class Fleet:
    """Every site of one :class:`FleetSpec`, live on one runtime.

    :meth:`start` builds the sites with
    :func:`~repro.harness.sites.build_sites` over the spec's
    :meth:`~FleetSpec.site_plan`.  What a fault hook may touch:
    :attr:`members` / :attr:`sources` (the sites), :meth:`kill`, and the
    :attr:`promotions`, :attr:`armed` and :attr:`on_death` the fleet
    keeps for the hooks.
    """

    def __init__(self, spec: FleetSpec):
        self.spec = spec
        self.runtime = new_runtime(spec)
        self.metrics = MetricsCollector()
        self.links = links_for(
            spec.transport,
            self.runtime,
            self.metrics,
            spec.chaos,
            spec.config.seed,
            spec.host,
            spec.tcp_config,
        )
        self.sites = Sites({}, {}, [])
        #: shard id -> label of the member promoted after its primary died.
        self.promotions: dict[int, str] = {}
        #: fault spec -> whatever its ``arm`` keeps for its ``settle``.
        self.armed: dict = {}
        #: called with each member that :meth:`kill` takes down.
        self.on_death: list = []

    async def start(self) -> None:
        spec = self.spec
        trace = TraceLog(enabled=True) if spec.config.trace else None
        self.sites = await build_sites(
            self.runtime,
            self.links,
            spec.config,
            spec.workload,
            self.metrics,
            trace,
            spec.site_plan(),
            server=ShardedSourceFront,
        )

    @property
    def members(self) -> dict[ShardMember, WarehouseSite]:
        return self.sites.warehouses

    @property
    def sources(self) -> dict[int, SourceSite]:
        return self.sites.sources

    @property
    def dead(self) -> set[ShardMember]:
        return self.sites.dead

    def kill(self, member: ShardMember) -> None:
        """The member is gone: its inbox is sealed (models the process
        disappearing while peers keep sending) and it no longer counts
        towards quiescence or speaks for its shard."""
        self.dead.add(member)
        self.members[member].inbox.seal()
        for hook in self.on_death:
            hook(member)

    def authority(self, shard: int) -> WarehouseSite:
        """Who speaks for ``shard``: its primary, or -- after a failover
        -- the first surviving standby (mute on the answer path until
        promoted).  Only its views, verdicts and recorders appear on the
        result."""
        for member in self.spec.rplan.members_by_shard[shard]:
            if member not in self.dead:
                return self.members[member]
        raise RuntimeHostError(f"shard {shard}: no surviving member")

    def quiescent(self) -> bool:
        return self.runtime.settled() and self.sites.quiescent()

    def result(self, wall_seconds: float, plan=None, **fields) -> ShardedRunResult:
        plan = plan if plan is not None else self.spec.plan
        chaos = self.links.chaos
        recovered = {
            member.shard: len(site.recovered_state.pending)
            for member, site in self.members.items()
            if member.is_primary and site.recovered_state is not None
        }
        return collect_result(
            self.spec,
            {shard: self.authority(shard) for shard in plan.active_shards},
            wall_seconds,
            plan=plan,
            metrics=self.metrics,
            updates_total=self.spec.workload.total_updates,
            chaos_profile=chaos.name if chaos is not None else None,
            chaos_stats=self.links.chaos_stats,
            recovered_pending=recovered or None,
            **fields,
        )

    async def aclose(self) -> None:
        await self.sites.aclose()
        await self.links.aclose()
        await self.runtime.aclose()


async def run_sharded_async(config: ExperimentConfig, **fields) -> ShardedRunResult:
    """Run one sharded experiment to quiescence on the current loop.

    ``fields`` are :class:`FleetSpec`'s: the fleet is
    ``FleetSpec(config, **fields)``, built, run until every update is
    delivered everywhere and nothing is in flight, and read off.  A
    ``crash_plans`` entry ends the run in the
    :class:`~repro.durability.errors.SimulatedCrash` it injects (the
    crash-restart harness's phase one); a ``failover`` / ``rebalance``
    that never fired, or a migration that did not complete, ends it in
    :class:`RuntimeHostError`.  On the result only each shard's
    authoritative member shows, ``plan`` is the post-migration
    assignment, and ``promotions`` / ``rebalance_stats`` /
    ``recovered_pending`` / ``chaos_stats`` say what the faults did.
    """
    spec = FleetSpec(config, **fields)
    predicate_stats_before = compile_cache_stats()
    fleet = Fleet(spec)
    try:
        await fleet.start()
        for fault in spec.faults:
            fault.arm(fleet)
        started = _time.perf_counter()
        await fleet.runtime.wait_until(fleet.quiescent, timeout=spec.timeout)
        wall = _time.perf_counter() - started
        record_predicate_cache_delta(fleet.metrics, predicate_stats_before)
        outcome: dict = {}
        for fault in spec.faults:
            outcome.update(fault.settle(fleet))
        return fleet.result(wall, **outcome)
    finally:
        await fleet.aclose()


def run_sharded(config: ExperimentConfig, **fields) -> ShardedRunResult:
    """Blocking wrapper: one sharded experiment in a fresh event loop."""
    return kernel.run(run_sharded_async(config, **fields))


__all__ = [
    "Fleet",
    "ShardedSourceFront",
    "ShardedRunResult",
    "collect_result",
    "new_runtime",
    "run_sharded",
    "run_sharded_async",
]
