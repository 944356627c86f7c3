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
from repro.harness.runner import (
    algorithm_kwargs,
    build_workload,
    record_predicate_cache_delta,
)
from repro.relational.predicate import compile_cache_stats
from repro.warehouse.locality import build_locality
from repro.runtime.chaos import (
    ChaosConfig,
    ChaosLocalChannel,
    ChaosStats,
    ChaosTcpProxy,
    profile,
)
from repro.runtime.kernel import AsyncRuntime
from repro.runtime.nodes import (
    CentralSourceNode,
    SourceNode,
    WarehouseNode,
    drained_for,
    hold_until_delivered,
    make_backend,
)
from repro.runtime.tcp import TcpChannelConfig, probe_peer
from repro.runtime.transport import LocalChannel
from repro.simulation.mailbox import Mailbox
from repro.simulation.metrics import MetricsCollector
from repro.simulation.rng import RngRegistry
from repro.simulation.trace import TraceLog
from repro.sources.central import CentralSource
from repro.sources.server import DataSourceServer
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
    """Everything one distributed run wires together."""

    def __init__(self) -> None:
        self.updaters: list[ScheduledUpdater] = []
        self.source_nodes: list = []
        self.warehouse_node: WarehouseNode | None = None
        self.warehouse = None
        self.channels: list[LocalChannel] = []
        self.backends: list = []
        self.mailboxes: list[Mailbox] = []
        self.proxies: list[ChaosTcpProxy] = []
        self.chaos_stats: ChaosStats | None = None

    def quiescent(self) -> bool:
        if not all(updater.done for updater in self.updaters):
            return False
        if self.warehouse is not None and self.warehouse.pending_work():
            return False
        if self.warehouse_node is not None:
            if not self.warehouse_node.quiescent():
                return False
            if not all(node.quiescent() for node in self.source_nodes):
                return False
        if not all(channel.idle for channel in self.channels):
            return False
        return all(len(box) == 0 for box in self.mailboxes)

    async def aclose(self) -> None:
        if self.warehouse_node is not None:
            await self.warehouse_node.aclose()
        for node in self.source_nodes:
            await node.aclose()
        for proxy in self.proxies:
            await proxy.aclose()
        for backend in self.backends:
            backend.close()


async def _wire_tcp(
    runtime: AsyncRuntime,
    config: ExperimentConfig,
    workload,
    recorder: RunRecorder,
    metrics: MetricsCollector,
    trace: TraceLog | None,
    host: str,
    tcp_config: TcpChannelConfig | None,
    chaos: ChaosConfig | None = None,
    source_tcp_config: TcpChannelConfig | None = None,
) -> _System:
    view = workload.view
    info = algorithm_info(config.algorithm)
    system = _System()
    # Mixed-fleet knob: sources may run a different transport config than
    # the warehouse (e.g. a v1-only source against a v3 warehouse -- the
    # handshake then negotiates each pair down independently).
    if source_tcp_config is None:
        source_tcp_config = tcp_config
    if chaos is not None and chaos.active:
        system.chaos_stats = ChaosStats()

    async def _front(link: str, address: tuple[str, int]) -> tuple[str, int]:
        """Interpose a chaos proxy on one link (or pass through)."""
        if system.chaos_stats is None:
            return address
        proxy = ChaosTcpProxy(
            runtime,
            link,
            address,
            chaos,
            seed=config.seed,
            stats=system.chaos_stats,
            listen_host=host,
        )
        await proxy.start()
        system.proxies.append(proxy)
        return proxy.address

    # The warehouse listener must exist before sources dial it; sources'
    # listeners must exist before the warehouse dials them.  TcpChannel
    # dials lazily with retry, so either order works -- starting all
    # listeners before constructing the warehouse merely avoids pointless
    # reconnect cycles.
    if info.architecture == "centralized":
        # The warehouse needs the central node's listener address and the
        # central node needs the warehouse's: break the cycle by bringing
        # the central node up against a placeholder address and patching
        # its (lazily dialed, not yet used) outbound channel afterwards.
        placeholder = ("127.0.0.1", 1)
        central_node = CentralSourceNode(
            runtime,
            view,
            initial=workload.initial_states,
            warehouse_address=placeholder,
            query_service_time=config.query_service_time,
            metrics=metrics,
            trace=trace,
            listen_host=host,
            tcp_config=source_tcp_config,
        )
        await central_node.start()
        warehouse_node = WarehouseNode(
            runtime,
            view,
            config.algorithm,
            {0: await _front("wh->central", central_node.address)},
            initial_view=view.evaluate(workload.initial_states),
            recorder=recorder,
            metrics=metrics,
            trace=trace,
            listen_host=host,
            tcp_config=tcp_config,
            algorithm_kwargs=algorithm_kwargs(config),
            locality=build_locality(config, [view], workload.initial_states),
        )
        await warehouse_node.start()
        # Patch the central node's outbound channel now that the
        # warehouse address is known (it has not dialed yet: no frames
        # were sent before the updaters start).
        central_node.to_warehouse.host, central_node.to_warehouse.port = (
            await _front("central->wh", warehouse_node.address)
        )
        central = central_node.source
        central.add_update_listener(recorder.on_source_update)
        for index in range(1, view.n_relations + 1):
            recorder.register_source(
                index,
                view.name_of(index),
                workload.initial_states[view.name_of(index)],
            )
        system.source_nodes.append(central_node)
        system.updaters = [
            ScheduledUpdater(
                runtime,
                f"R{index}",
                (lambda delta, i=index: central.local_update(i, delta)),
                schedule,
            )
            for index, schedule in sorted(workload.schedules.items())
        ]
        system.mailboxes = [warehouse_node.inbox, central.query_inbox]
        system.warehouse_node = warehouse_node
        system.warehouse = warehouse_node.warehouse
        return system

    # Distributed architecture: one node per source.
    servers: dict[int, DataSourceServer] = {}
    placeholder = ("127.0.0.1", 1)
    for index in range(1, view.n_relations + 1):
        name = view.name_of(index)
        initial = workload.initial_states[name]
        backend = make_backend(config, view, index, initial)
        system.backends.append(backend)
        node = SourceNode(
            runtime,
            view,
            index,
            backend,
            warehouse_address=placeholder,
            query_service_time=config.query_service_time,
            metrics=metrics,
            trace=trace,
            listen_host=host,
            tcp_config=source_tcp_config,
        )
        await node.start()
        node.server.add_update_listener(recorder.on_source_update)
        recorder.register_source(index, name, initial)
        servers[index] = node.server
        system.source_nodes.append(node)
        system.mailboxes.append(node.server.query_inbox)

    warehouse_node = WarehouseNode(
        runtime,
        view,
        config.algorithm,
        {
            index: await _front(f"wh->{node.name}", node.address)
            for index, node in zip(servers, system.source_nodes)
        },
        initial_view=view.evaluate(workload.initial_states),
        recorder=recorder,
        metrics=metrics,
        trace=trace,
        listen_host=host,
        tcp_config=tcp_config,
        algorithm_kwargs=algorithm_kwargs(config),
        locality=build_locality(config, [view], workload.initial_states),
    )
    await warehouse_node.start()
    for node in system.source_nodes:
        node.to_warehouse.host, node.to_warehouse.port = await _front(
            f"{node.name}->wh", warehouse_node.address
        )
    system.mailboxes.append(warehouse_node.inbox)
    system.warehouse_node = warehouse_node
    system.warehouse = warehouse_node.warehouse
    system.updaters = [
        ScheduledUpdater(
            runtime, view.name_of(index), servers[index].local_update, schedule
        )
        for index, schedule in sorted(workload.schedules.items())
    ]
    return system


def _wire_local(
    runtime: AsyncRuntime,
    config: ExperimentConfig,
    workload,
    recorder: RunRecorder,
    metrics: MetricsCollector,
    trace: TraceLog | None,
    chaos: ChaosConfig | None = None,
) -> _System:
    view = workload.view
    info = algorithm_info(config.algorithm)
    system = _System()
    if chaos is not None and chaos.active:
        system.chaos_stats = ChaosStats()

    def _channel(link: str, destination) -> LocalChannel:
        if system.chaos_stats is None:
            return LocalChannel(runtime, link, destination, metrics)
        return ChaosLocalChannel(
            runtime,
            link,
            destination,
            metrics,
            config=chaos,
            seed=config.seed,
            stats=system.chaos_stats,
        )

    inbox = Mailbox(runtime, "warehouse-inbox")
    system.mailboxes.append(inbox)

    if info.architecture == "centralized":
        to_wh = _channel("central->wh", inbox)
        system.channels.append(to_wh)
        central = CentralSource(
            runtime,
            view,
            to_wh,
            initial=workload.initial_states,
            query_service_time=config.query_service_time,
            trace=trace,
        )
        central.add_update_listener(recorder.on_source_update)
        for index in range(1, view.n_relations + 1):
            recorder.register_source(
                index,
                view.name_of(index),
                workload.initial_states[view.name_of(index)],
            )
        down = _channel("wh->central", central.query_inbox)
        system.channels.append(down)
        query_channels = {0: down}
        system.mailboxes.append(central.query_inbox)
        system.updaters = [
            ScheduledUpdater(
                runtime,
                f"R{index}",
                (lambda delta, i=index: central.local_update(i, delta)),
                schedule,
            )
            for index, schedule in sorted(workload.schedules.items())
        ]
    else:
        query_channels = {}
        servers: dict[int, DataSourceServer] = {}
        for index in range(1, view.n_relations + 1):
            name = view.name_of(index)
            initial = workload.initial_states[name]
            backend = make_backend(config, view, index, initial)
            system.backends.append(backend)
            to_wh = _channel(f"{name}->wh", inbox)
            system.channels.append(to_wh)
            server = DataSourceServer(
                runtime,
                name,
                index,
                backend,
                to_wh,
                query_service_time=config.query_service_time,
                trace=trace,
            )
            server.add_update_listener(recorder.on_source_update)
            recorder.register_source(index, name, initial)
            down = _channel(f"wh->{name}", server.query_inbox)
            system.channels.append(down)
            query_channels[index] = down
            servers[index] = server
            system.mailboxes.append(server.query_inbox)
        system.updaters = [
            ScheduledUpdater(
                runtime, view.name_of(index), servers[index].local_update, schedule
            )
            for index, schedule in sorted(workload.schedules.items())
        ]

    system.warehouse = info.cls(
        runtime,
        view,
        query_channels,
        initial_view=view.evaluate(workload.initial_states),
        recorder=recorder,
        metrics=metrics,
        trace=trace,
        inbox=inbox,
        locality=build_locality(config, [view], workload.initial_states),
        **algorithm_kwargs(config),
    )
    return system


async def run_distributed_async(
    config: ExperimentConfig,
    transport: str = "tcp",
    time_scale: float = 0.01,
    host: str = "127.0.0.1",
    timeout: float = 60.0,
    tcp_config: TcpChannelConfig | None = None,
    chaos: "ChaosConfig | str | None" = None,
    source_tcp_config: TcpChannelConfig | None = None,
) -> DistributedRunResult:
    """Run one distributed experiment to quiescence on the current loop.

    ``chaos`` injects deterministic transport faults: a profile name from
    :data:`repro.runtime.chaos.PROFILES` or an explicit
    :class:`~repro.runtime.chaos.ChaosConfig`.  Faults live *below* the
    FIFO contract (delays, duplicates, drops with retransmission,
    crash-restart blackouts), so protocol code still sees exactly-once
    in-order delivery -- the run should end in the same state as a
    healthy one, just later.

    ``source_tcp_config`` (TCP transport only) gives the source nodes a
    different transport config than the warehouse -- the mixed-fleet
    case, e.g. a warehouse advertising codec v3 against sources that
    only speak v1; each channel pair negotiates down independently.
    Defaults to ``tcp_config`` (a homogeneous fleet).
    """
    if transport not in ("tcp", "local"):
        raise ValueError(f"unknown transport {transport!r}")
    chaos = profile(chaos)
    predicate_stats_before = compile_cache_stats()
    rngs = RngRegistry(config.seed)
    workload = build_workload(config, rngs)
    view = workload.view
    info = algorithm_info(config.algorithm)

    runtime = AsyncRuntime(time_scale=time_scale)
    metrics = MetricsCollector()
    trace = TraceLog(enabled=config.trace)
    recorder = RunRecorder(view)
    trace_arg = trace if config.trace else None

    if transport == "tcp":
        system = await _wire_tcp(
            runtime,
            config,
            workload,
            recorder,
            metrics,
            trace_arg,
            host,
            tcp_config,
            chaos,
            source_tcp_config=source_tcp_config,
        )
    else:
        system = _wire_local(
            runtime, config, workload, recorder, metrics, trace_arg, chaos
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

        result = DistributedRunResult(
            config=config,
            info=info,
            final_view=system.warehouse.current_view(),
            sim_time=runtime.now,
            wall_seconds=wall,
            metrics=metrics,
            recorder=recorder,
            warehouse=system.warehouse,
            trace=trace if config.trace else None,
            transport=transport,
            time_scale=time_scale,
            chaos_profile=chaos.name if chaos is not None else None,
            chaos_stats=system.chaos_stats,
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
        await runtime.aclose()


def run_distributed(
    config: ExperimentConfig,
    transport: str = "tcp",
    time_scale: float = 0.01,
    host: str = "127.0.0.1",
    timeout: float = 60.0,
    tcp_config: TcpChannelConfig | None = None,
    chaos: "ChaosConfig | str | None" = None,
    source_tcp_config: TcpChannelConfig | None = None,
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
            source_tcp_config=source_tcp_config,
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
    rngs = RngRegistry(config.seed)
    workload = build_workload(config, rngs)
    view = workload.view
    info = algorithm_info(config.algorithm)
    runtime = AsyncRuntime(time_scale=time_scale)
    metrics = MetricsCollector()
    trace = TraceLog(enabled=config.trace)
    recorder = RunRecorder(view)
    for index in range(1, view.n_relations + 1):
        recorder.register_source(
            index, view.name_of(index), workload.initial_states[view.name_of(index)]
        )
    node = WarehouseNode(
        runtime,
        view,
        config.algorithm,
        source_addresses,
        initial_view=view.evaluate(workload.initial_states),
        recorder=recorder,
        metrics=metrics,
        trace=trace if config.trace else None,
        listen_host=listen_host,
        listen_port=listen_port,
        tcp_config=tcp_config,
        algorithm_kwargs=algorithm_kwargs(config),
        locality=build_locality(config, [view], workload.initial_states),
        durable_dir=durable_dir,
        checkpoint_policy=checkpoint_policy,
        fsync_batch=fsync_batch,
    )
    await node.start()
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
                what = "central source" if index == 0 else f"source R{index}"
                await probe_peer(phost, pport, tcp_config, what=what)
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
    rngs = RngRegistry(config.seed)
    workload = build_workload(config, rngs)
    view = workload.view
    runtime = AsyncRuntime(time_scale=time_scale)
    backend = make_backend(
        config, view, index, workload.initial_states[view.name_of(index)]
    )
    node = SourceNode(
        runtime,
        view,
        index,
        backend,
        warehouse_address=warehouse_address,
        query_service_time=config.query_service_time,
        listen_host=listen_host,
        listen_port=listen_port,
        tcp_config=tcp_config,
    )
    await node.start()
    print(f"source[{node.name}] listening on {node.address[0]}:{node.address[1]}")
    try:
        if probe:
            await probe_peer(
                warehouse_address[0],
                warehouse_address[1],
                tcp_config,
                what="warehouse",
                heard=partial(node.listener.heard, f"wh->{node.name}"),
            )
        updater = None
        if drive and index in workload.schedules:
            updater = ScheduledUpdater(
                runtime, node.name, node.server.local_update, workload.schedules[index]
            )
        if updater is not None and exit_when_done:
            await runtime.wait_until(
                drained_for(node, updater, linger), timeout=timeout
            )
        else:
            await runtime.until_failure()  # serve until cancelled (Ctrl-C)
    finally:
        await node.aclose()
        backend.close()
        await runtime.aclose()


__all__ = [
    "DistributedRunResult",
    "quick_distributed",
    "run_distributed",
    "run_distributed_async",
    "serve_source_async",
    "serve_warehouse_async",
]
