"""Single-call distributed runs and the serve-* entry points.

:func:`run_distributed` is the runtime twin of
:func:`repro.harness.runner.run_experiment`: the same
:class:`~repro.harness.config.ExperimentConfig` produces the same seeded
workload, but the sites are hosted on an :class:`AsyncRuntime` and talk
through real transports -- loopback TCP sessions (``transport="tcp"``) or
in-process direct hand-off (``transport="local"``).  Latency-model knobs are
ignored: the network *is* the latency.  Everything else -- metrics, trace,
consistency oracle, report rendering -- is the same machinery, so a
distributed run and a simulator run are directly comparable.

Quiescence detection replaces the simulator's empty event heap: the run is
over when every scheduled update was applied and delivered, every process
is parked on a mailbox, and no transport has frames in flight -- stable
across two consecutive polls.
"""

from __future__ import annotations

import asyncio
import time as _time
from dataclasses import dataclass
from functools import partial

from repro.consistency.levels import ConsistencyLevel
from repro.consistency.oracle import RunRecorder
from repro.harness.config import ExperimentConfig
from repro.harness.results import RunResult
from repro.harness.runner import build_workload, record_predicate_cache_delta
from repro.relational.predicate import compile_cache_stats
from repro.runtime.chaos import ChaosConfig, ChaosStats, profile
from repro.runtime.kernel import AsyncRuntime
from repro.runtime.nodes import (
    SourceSite,
    TcpLinks,
    WarehouseNode,
    WarehouseSite,
    drained_for,
    hold_until_delivered,
    links_for,
    site_name,
)
from repro.runtime.tcp import TcpChannelConfig, probe_peer
from repro.simulation.metrics import MetricsCollector
from repro.simulation.rng import RngRegistry
from repro.simulation.trace import TraceLog
from repro.sources.updater import ScheduledUpdater
from repro.warehouse.registry import algorithm_info


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


class _System:
    """The sites of one distributed run, and the updaters driving them."""

    def __init__(
        self,
        warehouse_site: WarehouseSite,
        sources: list[SourceSite],
        updaters: list[ScheduledUpdater],
    ):
        self.warehouse_site = warehouse_site
        self.sources = sources
        self.updaters = updaters

    def quiescent(self) -> bool:
        return (
            all(updater.done for updater in self.updaters)
            and self.warehouse_site.quiescent()
            and all(source.quiescent() for source in self.sources)
        )

    async def aclose(self) -> None:
        for site in (self.warehouse_site, *self.sources):
            await site.aclose()


def _recorder(workload) -> RunRecorder:
    """An oracle recorder that knows every source's initial state."""
    view = workload.view
    recorder = RunRecorder(view)
    for index in range(1, view.n_relations + 1):
        name = view.name_of(index)
        recorder.register_source(index, name, workload.initial_states[name])
    return recorder


async def _start(
    runtime: AsyncRuntime,
    links,
    config: ExperimentConfig,
    workload,
    recorder: RunRecorder,
    metrics: MetricsCollector,
    trace: TraceLog | None,
) -> _System:
    """Build the sites in the order they need each other: the warehouse's
    inbox, the sources that send to it, the warehouse that queries them
    -- then start the updaters."""
    warehouse = WarehouseNode(runtime, links, config, workload)
    await links.start()
    sources = {
        index: SourceSite(runtime, links, config, workload, index, trace)
        for index in warehouse.sources
    }
    for site in sources.values():
        site.server.add_update_listener(recorder.on_source_update)
    await links.start()
    warehouse.connect(sources, recorder, metrics, trace)

    def local_update(index: int):
        if 0 in sources:  # the central site holds every relation
            return partial(sources[0].server.local_update, index)
        return sources[index].server.local_update

    updaters = [
        ScheduledUpdater(
            runtime, workload.view.name_of(index), local_update(index), schedule
        )
        for index, schedule in sorted(workload.schedules.items())
    ]
    return _System(warehouse, list(sources.values()), updaters)


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
    info = algorithm_info(config.algorithm)

    runtime = AsyncRuntime(time_scale=time_scale)
    metrics = MetricsCollector()
    trace = TraceLog(enabled=config.trace)
    recorder = _recorder(workload)
    links = links_for(
        transport, runtime, metrics, chaos, config.seed, host, tcp_config
    )
    system = await _start(
        runtime,
        links,
        config,
        workload,
        recorder,
        metrics,
        trace if config.trace else None,
    )

    started = _time.perf_counter()
    try:
        total = workload.total_updates

        def finished() -> bool:
            return (
                recorder.updates_delivered >= total
                and runtime.settled()
                and system.quiescent()
            )

        await runtime.wait_until(finished, timeout=timeout)
        wall = _time.perf_counter() - started
        record_predicate_cache_delta(metrics, predicate_stats_before)

        warehouse = system.warehouse_site.warehouse
        result = DistributedRunResult(
            config=config,
            info=info,
            final_view=warehouse.current_view(),
            sim_time=runtime.now,
            wall_seconds=wall,
            metrics=metrics,
            recorder=recorder,
            warehouse=warehouse,
            trace=trace if config.trace else None,
            transport=transport,
            time_scale=time_scale,
            chaos_profile=chaos.name if chaos is not None else None,
            chaos_stats=links.chaos_stats,
        )
        if config.check_consistency:
            for level in (
                ConsistencyLevel.CONVERGENCE,
                ConsistencyLevel.WEAK,
                ConsistencyLevel.STRONG,
                ConsistencyLevel.COMPLETE,
            ):
                result.consistency[level] = recorder.check(
                    level, max_vectors=config.max_check_vectors
                )
            result.classified_level = recorder.classify(
                max_vectors=config.max_check_vectors
            )
        return result
    finally:
        await system.aclose()
        await links.aclose()
        await runtime.aclose()


def run_distributed(
    config: ExperimentConfig,
    transport: str = "tcp",
    time_scale: float = 0.01,
    host: str = "127.0.0.1",
    timeout: float = 60.0,
    tcp_config: TcpChannelConfig | None = None,
    chaos: "ChaosConfig | str | None" = None,
) -> DistributedRunResult:
    """Blocking wrapper: run one distributed experiment in a fresh loop."""
    return asyncio.run(
        run_distributed_async(
            config,
            transport=transport,
            time_scale=time_scale,
            host=host,
            timeout=timeout,
            tcp_config=tcp_config,
            chaos=chaos,
        )
    )


def quick_distributed(
    algorithm: str = "sweep",
    n_sources: int = 3,
    n_updates: int = 20,
    seed: int = 0,
    transport: str = "tcp",
    time_scale: float = 0.01,
    **overrides,
) -> DistributedRunResult:
    """Distributed twin of :func:`repro.quick_run` (one-call entry point)."""
    timeout = overrides.pop("timeout", 60.0)
    config = ExperimentConfig(
        algorithm=algorithm,
        n_sources=n_sources,
        n_updates=n_updates,
        seed=seed,
        **overrides,
    )
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
    """Host the warehouse site of a multi-process deployment.

    Every participating process derives the identical view and initial
    state from ``config`` (same seed, same generator streams).  When
    ``expect_updates`` is given the call returns a result after that many
    updates were delivered and the site went quiescent; otherwise it
    serves until cancelled.

    With ``probe=True`` every source address is connectivity-checked up
    front (with the channel retry budget), so a mistyped or dead peer
    surfaces as :class:`~repro.runtime.errors.TransportRetriesExceeded`
    instead of the site waiting forever for updates that cannot arrive.

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
    view = workload.view
    runtime = AsyncRuntime(time_scale=time_scale)
    metrics = MetricsCollector()
    trace = TraceLog(enabled=config.trace)
    recorder = _recorder(workload)
    links = TcpLinks(
        runtime, metrics, tcp_config=tcp_config, listen=(listen_host, listen_port)
    )
    links.peers.update(
        {
            f"wh->{site_name(view, index)}": address
            for index, address in source_addresses.items()
        }
    )
    node = WarehouseNode(runtime, links, config, workload, durable_dir)
    node.connect(
        source_addresses,
        recorder,
        metrics,
        trace if config.trace else None,
        checkpoint_policy,
        fsync_batch,
    )
    await links.start()
    print(
        f"warehouse[{config.algorithm}] listening on"
        f" {node.address[0]}:{node.address[1]}"
    )
    recovered = node.recovered_state
    if recovered is not None:
        print(
            f"warehouse recovered generation {recovered.generation}:"
            f" {recovered.installs} installs, {len(recovered.pending)}"
            f" pending update(s) replayed"
        )
        if expect_updates is not None:
            # This incarnation only sees what the durable state has not
            # yet installed: the replayed pending plus the remainder.
            expect_updates += len(recovered.pending) - recovered.delivered_total
    started = _time.perf_counter()
    try:
        if probe:
            for index, (phost, pport) in sorted(source_addresses.items()):
                await probe_peer(phost, pport, tcp_config, what=f"source R{index}")
        if expect_updates is None:
            await runtime.until_failure()  # serve until cancelled (Ctrl-C)
        hold_until_delivered(runtime, recorder, expect_updates)
        await runtime.wait_until(
            lambda: recorder.updates_delivered >= expect_updates
            and runtime.settled()
            and node.quiescent(),
            timeout=timeout,
        )
        result = DistributedRunResult(
            config=config,
            info=info,
            final_view=node.warehouse.current_view(),
            sim_time=runtime.now,
            wall_seconds=_time.perf_counter() - started,
            metrics=metrics,
            recorder=recorder,
            warehouse=node.warehouse,
            trace=trace if config.trace else None,
            transport="tcp",
            time_scale=time_scale,
        )
        # Source histories live in other processes; only warehouse-local
        # consistency accounting is possible here.
        return result
    finally:
        await node.aclose()
        await runtime.aclose()


async def serve_source_async(
    config: ExperimentConfig,
    index: int,
    warehouse_address: tuple[str, int],
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

    With ``drive=True`` the source replays its share of the seeded update
    schedule (the same schedule a simulator run with this config would
    apply); ``exit_when_done`` returns once the schedule drained, every
    outbound frame was acknowledged, and no query has arrived for
    ``linger`` wall seconds.  The linger window matters because *other*
    sources' updates sweep through this site too: the local schedule
    draining does not mean the warehouse is done asking questions.

    With ``probe=True`` the warehouse address is connectivity-checked
    before any update is replayed, so an unreachable warehouse fails the
    process (:class:`~repro.runtime.errors.TransportRetriesExceeded`,
    non-zero exit from the CLI) instead of silently dropping the run.
    """
    workload = build_workload(config, RngRegistry(config.seed))
    runtime = AsyncRuntime(time_scale=time_scale)
    links = TcpLinks(
        runtime, None, tcp_config=tcp_config, listen=(listen_host, listen_port)
    )
    # (name_of refuses index 0: no serve command hosts the central site.)
    name = workload.view.name_of(index)
    links.peers[f"{name}->wh"] = warehouse_address
    site = SourceSite(runtime, links, config, workload, index)
    await links.start()
    host, port = site.listener.address
    print(f"source[{name}] listening on {host}:{port}")
    try:
        if probe:
            await probe_peer(
                warehouse_address[0],
                warehouse_address[1],
                tcp_config,
                what="warehouse",
                heard=partial(site.listener.heard, f"wh->{name}"),
            )
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


__all__ = [
    "DistributedRunResult",
    "quick_distributed",
    "run_distributed",
    "run_distributed_async",
    "serve_source_async",
    "serve_warehouse_async",
]
