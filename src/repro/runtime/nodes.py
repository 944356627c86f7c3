"""Deployable sites: one warehouse node, one node per data source.

A node owns exactly what one OS process would own in a real deployment:
its protocol objects (the unchanged :class:`DataSourceServer` /
warehouse algorithm), an inbound :class:`ChannelListener` and its outbound
:class:`TcpChannel` sessions.  ``repro serve-source`` and
``repro serve-warehouse`` host one node per process;
``repro run-distributed`` (and the quickstart example) host all nodes on
one event loop but still talk TCP through the loopback interface -- same
code path, same frames.

Channel naming mirrors the simulator: ``"R2->wh"`` carries source 2's
update notices *and* query answers (sharing one FIFO session is the
linchpin of SWEEP's local compensation), ``"wh->R2"`` carries the
warehouse's queries.  The centralized (ECA) architecture uses
``"central->wh"`` / ``"wh->central"``.
"""

from __future__ import annotations

import time as _time

from repro.consistency.oracle import RunRecorder
from repro.durability.errors import RecoveryError
from repro.durability.manager import (
    CheckpointPolicy,
    CrashPlan,
    DurabilityManager,
    LoggingMailbox,
)
from repro.durability.recovery import attach_durability, load_state
from repro.relational.relation import Relation
from repro.relational.view import ViewDefinition
from repro.runtime.codec import CODEC_VERSION_MAX, WireCodec
from repro.runtime.kernel import AsyncRuntime
from repro.runtime.tcp import ChannelListener, TcpChannel, TcpChannelConfig
from repro.simulation.mailbox import Mailbox
from repro.simulation.metrics import MetricsCollector
from repro.simulation.trace import TraceLog
from repro.sources.base import SourceBackend
from repro.sources.central import CentralSource
from repro.sources.memory import MemoryBackend
from repro.sources.server import DataSourceServer
from repro.sources.sqlite import SqliteBackend
from repro.warehouse.base import QueueDrivenWarehouse
from repro.warehouse.registry import algorithm_info


def _listener_codec_cap(tcp_config: TcpChannelConfig | None) -> int:
    """The codec version a node's listener welcomes.

    A node configured with ``--codec-version`` speaks at most that
    version in *both* directions -- outbound channels advertise it,
    and the inbound listener caps its welcome with it.  An unconfigured
    node accepts whatever the peer can speak.
    """
    return CODEC_VERSION_MAX if tcp_config is None else tcp_config.codec_version


def make_backend(config, view: ViewDefinition, index: int, initial) -> SourceBackend:
    """Source ``index``'s backend of the kind ``config.backend`` names."""
    if config.backend == "sqlite":
        return SqliteBackend(view, index, initial)
    return MemoryBackend(view, index, initial)


class SourceNode:
    """One data-source site: backend + Figure 3 server over TCP."""

    def __init__(
        self,
        runtime: AsyncRuntime,
        view: ViewDefinition,
        index: int,
        backend: SourceBackend,
        warehouse_address: tuple[str, int],
        query_service_time: float = 0.0,
        metrics: MetricsCollector | None = None,
        trace: TraceLog | None = None,
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
        tcp_config: TcpChannelConfig | None = None,
    ):
        self.runtime = runtime
        self.view = view
        self.index = index
        self.name = view.name_of(index)
        self.codec = WireCodec(view)
        self.to_warehouse = TcpChannel(
            runtime,
            f"{self.name}->wh",
            warehouse_address[0],
            warehouse_address[1],
            self.codec,
            metrics,
            tcp_config,
        )
        self.server = DataSourceServer(
            runtime,
            self.name,
            index,
            backend,
            self.to_warehouse,
            query_service_time=query_service_time,
            trace=trace,
        )
        self.listener = ChannelListener(
            runtime,
            listen_host,
            listen_port,
            codec_version_max=_listener_codec_cap(tcp_config),
        )
        self.listener.register(f"wh->{self.name}", self.server.query_inbox, self.codec)

    async def start(self) -> None:
        await self.listener.start()

    @property
    def address(self) -> tuple[str, int]:
        """Where the warehouse should dial this source's query channel."""
        return self.listener.address

    def quiescent(self) -> bool:
        """No outbound frames in flight, no queries waiting locally."""
        return self.to_warehouse.idle and len(self.server.query_inbox) == 0

    async def aclose(self) -> None:
        await self.to_warehouse.aclose()
        await self.listener.aclose()

    def __repr__(self) -> str:
        return f"SourceNode({self.name!r}, listen={self.listener.port})"


class CentralSourceNode:
    """The single-site source of the centralized (ECA) architecture."""

    def __init__(
        self,
        runtime: AsyncRuntime,
        view: ViewDefinition,
        initial: dict[str, Relation],
        warehouse_address: tuple[str, int],
        query_service_time: float = 0.0,
        metrics: MetricsCollector | None = None,
        trace: TraceLog | None = None,
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
        tcp_config: TcpChannelConfig | None = None,
    ):
        self.runtime = runtime
        self.view = view
        self.name = "central"
        self.codec = WireCodec(view)
        self.to_warehouse = TcpChannel(
            runtime,
            "central->wh",
            warehouse_address[0],
            warehouse_address[1],
            self.codec,
            metrics,
            tcp_config,
        )
        self.source = CentralSource(
            runtime,
            view,
            self.to_warehouse,
            initial=initial,
            query_service_time=query_service_time,
            trace=trace,
        )
        self.listener = ChannelListener(
            runtime,
            listen_host,
            listen_port,
            codec_version_max=_listener_codec_cap(tcp_config),
        )
        self.listener.register("wh->central", self.source.query_inbox, self.codec)

    async def start(self) -> None:
        await self.listener.start()

    @property
    def address(self) -> tuple[str, int]:
        return self.listener.address

    def quiescent(self) -> bool:
        return self.to_warehouse.idle and len(self.source.query_inbox) == 0

    async def aclose(self) -> None:
        await self.to_warehouse.aclose()
        await self.listener.aclose()


class WarehouseSite:
    """What hosting a warehouse takes, whichever warehouse and transport.

    With ``durable_dir`` the site checkpoints its views and WAL-logs
    every delivered update there (log-before-ack: a listener only acks a
    frame once the :class:`LoggingMailbox` has appended it), and a site
    restarted on the same directory recovers and resumes mid-protocol --
    see :mod:`repro.durability`.  The durable state is read *first*: it
    decides the inbox, the listener's ``adopt_next`` and the session
    :attr:`epoch` of the query channels the subclass builds before it
    hands its warehouse to :meth:`host`, which resumes it and starts
    logging.
    """

    def __init__(self, runtime, label: str, views, durable_dir: str | None):
        self.runtime = runtime
        self.durable_dir = durable_dir
        self.recovered_state = (
            load_state(durable_dir, list(views))
            if durable_dir is not None
            else None
        )
        mailbox = LoggingMailbox if durable_dir is not None else Mailbox
        self.inbox: Mailbox = mailbox(runtime, f"{label}-inbox")
        self.listener: ChannelListener | None = None
        self.query_channels: dict = {}
        self.warehouse = None
        self.durability: DurabilityManager | None = None

    @property
    def epoch(self) -> int:
        """A recovered site announces a higher session epoch so the
        sources' listeners reset their FIFO expectations to its hellos."""
        state = self.recovered_state
        return state.generation + 1 if state is not None else 0

    def host(
        self,
        warehouse,
        checkpoint_policy: CheckpointPolicy | None = None,
        fsync_batch: int = 8,
        crash_plan: CrashPlan | None = None,
    ) -> None:
        self.warehouse = warehouse
        if self.durable_dir is not None:
            self.durability = attach_durability(
                warehouse,
                self.durable_dir,
                self.recovered_state,
                policy=checkpoint_policy,
                fsync_batch=fsync_batch,
                crash_plan=crash_plan,
            )

    async def start(self) -> None:
        if self.listener is not None:
            await self.listener.start()

    @property
    def address(self) -> tuple[str, int]:
        """Where sources should dial their update/answer channel."""
        return self.listener.address

    def quiescent(self) -> bool:
        """Inbox drained, no queued updates mid-algorithm, channels idle."""
        if len(self.inbox) != 0:
            return False
        if self.warehouse.pending_work():
            return False
        return all(channel.idle for channel in self.query_channels.values())

    async def aclose(self) -> None:
        if self.durability is not None:
            self.durability.close()
        for channel in self.query_channels.values():
            await channel.aclose()
        if self.listener is not None:
            await self.listener.aclose()


class WarehouseNode(WarehouseSite):
    """The warehouse site: hosts any registered maintenance algorithm.

    ``source_addresses`` maps 1-based source indices to ``(host, port)``
    of each :class:`SourceNode` listener -- or ``{0: address}`` for the
    centralized architecture, matching the simulator harness's convention
    of keying the central query channel as index 0.

    Only queue-driven algorithms can run with ``durable_dir``; the rest
    are rejected loudly.
    """

    def __init__(
        self,
        runtime: AsyncRuntime,
        view: ViewDefinition,
        algorithm: str,
        source_addresses: dict[int, tuple[str, int]],
        initial_view: Relation | None = None,
        recorder: RunRecorder | None = None,
        metrics: MetricsCollector | None = None,
        trace: TraceLog | None = None,
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
        tcp_config: TcpChannelConfig | None = None,
        algorithm_kwargs: dict | None = None,
        locality=None,
        durable_dir: str | None = None,
        checkpoint_policy: CheckpointPolicy | None = None,
        crash_plan: CrashPlan | None = None,
        fsync_batch: int = 8,
    ):
        super().__init__(runtime, "warehouse", [view], durable_dir)
        self.view = view
        self.info = algorithm_info(algorithm)
        self.codec = WireCodec(view)
        self.listener = ChannelListener(
            runtime,
            listen_host,
            listen_port,
            adopt_next=self.recovered_state is not None,
            codec_version_max=_listener_codec_cap(tcp_config),
        )
        if self.info.architecture == "centralized":
            inbound = ["central->wh"]
        else:
            inbound = [
                f"{view.name_of(index)}->wh"
                for index in range(1, view.n_relations + 1)
            ]
        for channel_name in inbound:
            self.listener.register(channel_name, self.inbox, self.codec)
        self.query_channels = {
            index: TcpChannel(
                runtime,
                self._query_channel_name(index),
                host,
                port,
                self.codec,
                metrics,
                tcp_config,
                epoch=self.epoch,
            )
            for index, (host, port) in sorted(source_addresses.items())
        }
        warehouse = self.info.cls(
            runtime,
            view,
            self.query_channels,
            initial_view=initial_view,
            recorder=recorder,
            metrics=metrics,
            trace=trace,
            inbox=self.inbox,
            locality=locality,
            **(algorithm_kwargs or {}),
        )
        if durable_dir is not None and not isinstance(
            warehouse, QueueDrivenWarehouse
        ):
            raise RecoveryError(
                f"algorithm {self.info.name!r} is not queue-driven and"
                " cannot run with --durable-dir"
            )
        self.host(warehouse, checkpoint_policy, fsync_batch, crash_plan)

    def _query_channel_name(self, index: int) -> str:
        if index == 0:
            return "wh->central"
        return f"wh->{self.view.name_of(index)}"

    def __repr__(self) -> str:
        return (
            f"WarehouseNode({self.info.name!r}, listen={self.listener.port},"
            f" sources={sorted(self.query_channels)})"
        )


def hold_until_delivered(
    runtime: AsyncRuntime, recorder: RunRecorder, target: int
) -> None:
    """Keep ``runtime``'s quiescence waiter parked until ``recorder`` has
    seen ``target`` deliveries.

    A site that hosts no updater has no kernel timer to tell it that
    updates are still due -- they arrive from other processes -- so the
    recorder's delivery hook releases the hold instead of a poll finding
    the count reached.
    """
    if recorder.updates_delivered >= target:
        return
    release = runtime.hold()
    on_delivery = recorder.on_delivery

    def counted(notice) -> None:
        on_delivery(notice)
        if recorder.updates_delivered == target:
            release()

    recorder.on_delivery = counted


def drained_for(node, updater, linger: float):
    """Predicate for a driving source site's exit: its schedule drained,
    every outbound frame was acknowledged, and no query has arrived for
    ``linger`` wall seconds -- *other* sources' updates sweep through this
    site too, so the local schedule draining does not mean the warehouse
    is done asking questions."""
    drained_at: list[float] = []

    def finished() -> bool:
        if not (updater.done and node.quiescent()):
            drained_at.clear()
            return False
        now = _time.monotonic()
        if not drained_at:
            drained_at.append(now)
        last = max(node.listener.last_frame_wall, drained_at[0])
        return now - last >= linger

    return finished


__all__ = [
    "CentralSourceNode",
    "SourceNode",
    "WarehouseNode",
    "WarehouseSite",
    "drained_for",
    "hold_until_delivered",
    "make_backend",
]
