"""Single-call distributed runs and the serve-* entry points.

:func:`run_distributed` is the runtime twin of
:func:`repro.harness.runner.run_experiment`: both build their fleet with
:func:`repro.harness.sites.build_sites` from the same
:class:`~repro.harness.config.ExperimentConfig` and the same seeded
workload.  Only the host differs: here the sites run on an
:class:`AsyncRuntime` and talk through real transports -- loopback TCP
sessions (``transport="tcp"``) or in-process direct hand-off
(``transport="local"``) -- where the simulator runs them on its event
heap over :class:`~repro.simulation.links.SimLinks`.  Latency-model knobs
are ignored: the network *is* the latency.  Everything else -- metrics,
trace, consistency oracle and verdict, report rendering -- is the same
machinery, so a distributed run and a simulator run are directly
comparable.

Quiescence replaces the simulator's empty event heap: the run is over when
the kernel is settled and the fleet quiescent
(:meth:`~repro.harness.sites.Sites.quiescent`, the test a sharded fleet
uses too) -- every update delivered, no transport frame in flight.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from functools import partial

from repro.formats.errors import TransportRetriesExceeded
from repro.harness.config import ExperimentConfig
from repro.harness.results import RunResult
from repro.harness.runner import build_workload, record_predicate_cache_delta
from repro.harness.sites import (
    WAREHOUSE,
    SourceSite,
    build_sites,
    family_codec,
    one_warehouse,
    replica_group,
)
from repro.relational.predicate import compile_cache_stats
from repro.runtime.chaos import ChaosConfig, ChaosStats, profile
from repro.runtime.kernel import AsyncRuntime, run
from repro.runtime.nodes import (
    TcpLinks,
    drained_for,
    links_for,
    require_claimed,
    serve_site,
)
from repro.runtime.tcp import TcpChannelConfig, probe_peer
from repro.simulation.metrics import MetricsCollector
from repro.simulation.rng import RngRegistry
from repro.simulation.trace import TraceLog
from repro.sources.server import destination_label
from repro.sources.updater import ScheduledUpdater
from repro.warehouse.registry import algorithm_info
from repro.warehouse.sharding import view_family


@dataclass(repr=False)  # keep RunResult's bounded __repr__
class DistributedRunResult(RunResult):
    """A :class:`RunResult` produced by the asyncio runtime."""

    transport: str = "tcp"
    time_scale: float = 0.01
    chaos_profile: str | None = None
    chaos_stats: ChaosStats | None = None

    def report(self) -> str:
        lines = (
            f"transport        : {self.transport}"
            f" (time scale {self.time_scale} s/unit)\n"
        )
        if self.chaos_profile is not None and self.chaos_stats is not None:
            lines += (
                f"chaos profile    : {self.chaos_profile}"
                f" ({self.chaos_stats.faults_injected} faults injected)\n"
            )
        return lines + super().report()


async def run_distributed_async(
    config: ExperimentConfig,
    transport: str = "tcp",
    time_scale: float = 0.01,
    host: str = "127.0.0.1",
    timeout: float = 60.0,
    tcp_config: TcpChannelConfig | None = None,
    chaos: "ChaosConfig | str | None" = None,
) -> DistributedRunResult:
    """Run one distributed experiment to quiescence on the current loop.

    ``chaos`` injects deterministic transport faults: a profile name from
    :data:`repro.runtime.chaos.PROFILES` or an explicit
    :class:`~repro.runtime.chaos.ChaosConfig`.  Faults live *below* the
    FIFO contract (delays, duplicates, drops with retransmission,
    crash-restart blackouts), so protocol code still sees exactly-once
    in-order delivery -- the run should end in the same state as a
    healthy one, just later.
    """
    if transport not in ("tcp", "local"):
        raise ValueError(f"unknown transport {transport!r}")
    chaos = profile(chaos)
    predicate_stats_before = compile_cache_stats()
    workload = build_workload(config, RngRegistry(config.seed))
    runtime = AsyncRuntime(time_scale=time_scale)
    metrics = MetricsCollector()
    trace = TraceLog(enabled=True) if config.trace else None
    links = links_for(
        transport, runtime, metrics, chaos, config.seed, host, tcp_config
    )
    sites = await build_sites(runtime, links, config, workload, metrics, trace)

    started = _time.perf_counter()
    try:
        await runtime.wait_until(
            lambda: runtime.settled() and sites.quiescent(), timeout=timeout
        )
        wall = _time.perf_counter() - started
        record_predicate_cache_delta(metrics, predicate_stats_before)

        return DistributedRunResult.judged(
            sites.warehouses[WAREHOUSE],
            runtime.now,
            wall,
            metrics,
            trace,
            transport=transport,
            time_scale=time_scale,
            chaos_profile=chaos.name if chaos is not None else None,
            chaos_stats=links.chaos_stats,
        )
    finally:
        await sites.aclose()
        await links.aclose()
        await runtime.aclose()


def run_distributed(config: ExperimentConfig, **options) -> DistributedRunResult:
    """Blocking wrapper: run one distributed experiment in a fresh loop
    (``options`` are :func:`run_distributed_async`'s)."""
    return run(run_distributed_async(config, **options))


def quick_distributed(
    algorithm: str = "sweep",
    transport: str = "tcp",
    time_scale: float = 0.01,
    timeout: float = 60.0,
    **overrides,
) -> DistributedRunResult:
    """Distributed twin of :func:`repro.quick_run` (one-call entry point);
    ``overrides`` are :class:`~repro.harness.config.ExperimentConfig`
    fields."""
    config = ExperimentConfig(algorithm=algorithm, **overrides)
    return run_distributed(
        config, transport=transport, time_scale=time_scale, timeout=timeout
    )


# ---------------------------------------------------------------------------
# Multi-process entry points (repro serve-warehouse / serve-source)
# ---------------------------------------------------------------------------

async def serve_warehouse_async(
    config: ExperimentConfig,
    source_addresses: dict[int, tuple[str, int]],
    listen_host: str = "127.0.0.1",
    listen_port: int = 0,
    time_scale: float = 0.01,
    expect_updates: int | None = None,
    timeout: float = 3600.0,
    tcp_config: TcpChannelConfig | None = None,
    probe: bool = True,
    durable_dir: str | None = None,
    checkpoint_policy=None,
    fsync_batch: int = 8,
) -> DistributedRunResult:
    """Host the warehouse site of a multi-process deployment: the path
    of ``serve-shard`` (:func:`~repro.runtime.nodes.serve_site`, whose
    ``probe`` and ``expect_updates`` these are; ``None`` serves until
    cancelled).

    Every participating process derives the identical view and initial
    state from ``config`` (same seed, same generator streams), so the
    site rebuilds the source histories from the seeded schedule and
    judges its own view: one below the algorithm's claimed consistency
    level raises :class:`~repro.runtime.nodes.VerificationError` (the CLI
    exits non-zero), unless ``config.check_consistency`` is off.

    ``durable_dir`` makes the site crash-restartable: it checkpoints and
    WAL-logs there, and a process restarted on the same directory
    recovers and picks the protocol up where the durable state left it
    (see :mod:`repro.durability`).
    """
    info = algorithm_info(config.algorithm)
    if info.architecture == "centralized":
        raise ValueError(
            f"{info.name!r} needs the centralized architecture's single"
            " source site, which no serve command hosts; run it with"
            " `repro run-distributed`"
        )
    workload = build_workload(config, RngRegistry(config.seed))
    plan = one_warehouse(
        config,
        workload,
        durable_dirs={WAREHOUSE: durable_dir},
        checkpoint_policy=checkpoint_policy,
        fsync_batch=fsync_batch,
    )

    def judged(site, wall, metrics, trace) -> DistributedRunResult:
        result = DistributedRunResult.judged(
            site, site.runtime.now, wall, metrics, trace,
            transport="tcp", time_scale=time_scale,
        )
        if result.classified_level is not None:
            levels = {site.views[0].name: result.classified_level}
            require_claimed("warehouse", levels, config)
        return result

    return await serve_site(
        AsyncRuntime(time_scale=time_scale),
        config,
        workload,
        plan,
        source_addresses,
        (listen_host, listen_port),
        tcp_config,
        timeout,
        judged,
        probe=probe,
        expect_updates=expect_updates,
        forever=expect_updates is None,
    )


async def serve_source_async(
    config: ExperimentConfig,
    index: int,
    destinations: dict,
    listen_host: str = "127.0.0.1",
    listen_port: int = 0,
    time_scale: float = 0.01,
    drive: bool = True,
    exit_when_done: bool = True,
    linger: float = 3.0,
    timeout: float = 3600.0,
    tcp_config: TcpChannelConfig | None = None,
    probe: bool = True,
) -> None:
    """Host one data-source site of a multi-process deployment.

    ``destinations`` maps every warehouse the site feeds to its
    listener's address: ``{WAREHOUSE: address}`` for a single warehouse
    (``repro serve-source --warehouse``), or one
    :class:`~repro.warehouse.sharding.ShardMember` per member of a
    sharded fleet, standbys included (``--shard``).

    With ``drive=True`` the source replays its share of the seeded update
    schedule (the same schedule a simulator run with this config would
    apply); ``exit_when_done`` returns once the schedule drained, every
    outbound frame was acknowledged, and no query has arrived for
    ``linger`` wall seconds.  The linger window matters because *other*
    sources' updates sweep through this site too: the local schedule
    draining does not mean the warehouse is done asking questions.

    Dead peers are tolerated per replica group (see
    :func:`~repro.harness.sites.replica_group`): a destination that is
    unreachable at the ``probe`` (every address is connectivity-checked
    before any update is replayed) or exhausts its channel's retry budget
    mid-run is dropped iff another member of its group is live.  Losing a
    group's last member -- or the single warehouse -- fails the process
    with :class:`~repro.formats.errors.TransportRetriesExceeded`
    (non-zero exit from the CLI) instead of silently dropping the run.
    """
    workload = build_workload(config, RngRegistry(config.seed))
    view = workload.view
    runtime = AsyncRuntime(time_scale=time_scale)
    links = TcpLinks(
        runtime, None, tcp_config=tcp_config, listen=(listen_host, listen_port)
    )
    # (name_of refuses index 0: no serve command hosts the central site.)
    name = view.name_of(index)
    links.peers.update(
        {
            f"{name}->{destination_label(key)}": address
            for key, address in destinations.items()
        }
    )
    site = SourceSite(
        runtime,
        links,
        config,
        workload,
        index,
        destinations=destinations,
        codec=family_codec(view_family(view, max(1, config.n_views))),
    )
    await links.start()
    site.tolerate_dead_members()
    host, port = site.listener.address
    print(
        f"source[{name}] serving"
        f" {[destination_label(key) for key in sorted(destinations)]}"
        f" listening on {host}:{port}",
        flush=True,
    )
    try:
        if probe:
            await _probe_destinations(site, destinations, tcp_config)
        updater = None
        if drive and index in workload.schedules:
            updater = ScheduledUpdater(
                runtime, name, site.server.local_update, workload.schedules[index]
            )
        if updater is not None and exit_when_done:
            await runtime.wait_until(
                drained_for(site, updater, linger), timeout=timeout
            )
        else:
            await runtime.until_failure()  # serve until cancelled (Ctrl-C)
    finally:
        await site.aclose()
        await runtime.aclose()


async def _probe_destinations(site: SourceSite, destinations, tcp_config) -> None:
    """Probe with replica-group tolerance: a destination that died before
    this site finished starting up is dropped iff another member of its
    group is reachable."""
    unreachable: dict = {}
    reachable: set = set()
    for key, (host, port) in sorted(destinations.items()):
        label = destination_label(key)
        try:
            await probe_peer(
                host,
                port,
                tcp_config,
                what=f"warehouse {label}",
                heard=partial(site.listener.heard, f"{label}->{site.name}"),
            )
            reachable.add(replica_group(key))
        except TransportRetriesExceeded as exc:
            unreachable[key] = exc
    for key, error in unreachable.items():
        if replica_group(key) not in reachable:
            raise error
        print(
            f"source[{site.name}] member {destination_label(key)}"
            " unreachable at probe time; surviving member(s)"
            f" carry shard {replica_group(key)}",
            flush=True,
        )
        await site.drop_member(key)


__all__ = [
    "DistributedRunResult",
    "quick_distributed",
    "run_distributed",
    "run_distributed_async",
    "serve_source_async",
    "serve_warehouse_async",
]
