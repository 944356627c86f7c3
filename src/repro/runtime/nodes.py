"""Deployable sites, and the links between them.

A site owns exactly what one OS process would own in a real deployment:
its protocol objects (the unchanged :class:`DataSourceServer`,
:class:`CentralSource` or warehouse algorithm) and the channels it sends
on.  Sites are transport-blind: they ask a *links* object to ``bind``
mailboxes under channel names and to make the ``channel`` with a given
name, and :class:`LocalLinks` (direct hand-off) or :class:`TcpLinks`
(listeners and FIFO sessions) answers.  That is the whole difference
between ``transport="local"`` and ``"tcp"``, and between a fleet on one
event loop (``repro run-distributed``) and one site per OS process
(``repro serve-warehouse`` / ``serve-source``).  The sharded sites of
:mod:`repro.runtime.shard.node` run over the same links.

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
from repro.harness.config import ExperimentConfig
from repro.harness.runner import algorithm_kwargs
from repro.relational.view import ViewDefinition
from repro.runtime.chaos import (
    ChaosLocalChannel,
    ChaosStats,
    ChaosTcpProxy,
    profile,
)
from repro.runtime.codec import WireCodec
from repro.runtime.kernel import AsyncRuntime
from repro.runtime.tcp import ChannelListener, TcpChannel, TcpChannelConfig
from repro.runtime.transport import LocalChannel
from repro.simulation.mailbox import Mailbox
from repro.simulation.metrics import MetricsCollector
from repro.simulation.trace import TraceLog
from repro.sources.base import SourceBackend
from repro.sources.central import CentralSource
from repro.sources.memory import MemoryBackend
from repro.sources.server import DataSourceServer
from repro.sources.sqlite import SqliteBackend
from repro.warehouse.base import QueueDrivenWarehouse
from repro.warehouse.locality import build_locality
from repro.warehouse.registry import algorithm_info
from repro.workloads.scenarios import Workload


# ---------------------------------------------------------------------------
# Links: the channel factory a transport is
# ---------------------------------------------------------------------------

class LocalLinks:
    """``transport="local"``: a channel hands each message straight to the
    mailbox bound under its name (through the chaos layer when ``chaos``
    names an active profile, its faults keyed by ``seed``).  Bind before
    asking for the channel."""

    def __init__(
        self,
        runtime,
        metrics: MetricsCollector | None,
        chaos=None,
        seed: int = 0,
    ):
        self.runtime = runtime
        self.metrics = metrics
        self.chaos = profile(chaos)
        self.seed = seed
        active = self.chaos is not None and self.chaos.active
        #: what the fault layer did, when a profile is active.
        self.chaos_stats = ChaosStats() if active else None
        self._bound: dict[str, Mailbox] = {}

    def bind(self, routes: dict[str, Mailbox], codec, adopt_next=False) -> None:
        self._bound.update(routes)

    def channel(self, name: str, codec, epoch: int = 0):
        if self.chaos_stats is None:
            return LocalChannel(self.runtime, name, self._bound[name], self.metrics)
        return ChaosLocalChannel(
            self.runtime,
            name,
            self._bound[name],
            self.metrics,
            config=self.chaos,
            seed=self.seed,
            stats=self.chaos_stats,
        )

    async def start(self) -> None:
        """Make every name bound so far reachable (here: it already is)."""

    async def aclose(self) -> None:
        """Release what the links, not the sites, own (here: nothing)."""


class TcpLinks(LocalLinks):
    """``transport="tcp"``: one listener per ``bind``, one FIFO session per
    channel, dialled where :attr:`peers` says the channel's name listens.

    :meth:`start` starts the listeners bound since the last call and
    enters their names into :attr:`peers` (behind a chaos proxy on
    ``host`` when a profile is active), so a channel can only be made once
    its peer is up; a peer in another process is entered by hand.
    ``tcp_config`` configures the sessions.
    """

    def __init__(
        self,
        runtime,
        metrics: MetricsCollector | None,
        chaos=None,
        seed: int = 0,
        host: str = "127.0.0.1",
        tcp_config: TcpChannelConfig | None = None,
        listen: tuple[str, int] | None = None,
    ):
        super().__init__(runtime, metrics, chaos, seed)
        self.host = host
        self.tcp_config = tcp_config
        self.listen = listen if listen is not None else (host, 0)
        self.peers: dict[str, tuple[str, int]] = {}
        self._unstarted: list[tuple[ChannelListener, list[str]]] = []
        self._proxies: list[ChaosTcpProxy] = []

    def bind(self, routes: dict[str, Mailbox], codec, adopt_next=False):
        listener = ChannelListener(self.runtime, *self.listen, adopt_next=adopt_next)
        for name, mailbox in routes.items():
            listener.register(name, mailbox, codec)
        self._unstarted.append((listener, list(routes)))
        return listener

    def channel(self, name: str, codec, epoch: int = 0) -> TcpChannel:
        host, port = self.peers[name]
        return TcpChannel(
            self.runtime,
            name,
            host,
            port,
            codec,
            self.metrics,
            self.tcp_config,
            epoch=epoch,
        )

    async def start(self) -> None:
        while self._unstarted:
            listener, names = self._unstarted.pop(0)
            await listener.start()
            for name in names:
                self.peers[name] = await self._through_chaos(
                    name, listener.address
                )

    async def _through_chaos(self, link: str, address: tuple[str, int]):
        if self.chaos_stats is None:
            return address
        proxy = ChaosTcpProxy(
            self.runtime,
            link,
            address,
            self.chaos,
            seed=self.seed,
            stats=self.chaos_stats,
            listen_host=self.host,
        )
        await proxy.start()
        self._proxies.append(proxy)
        return proxy.address

    async def aclose(self) -> None:
        for proxy in self._proxies:
            await proxy.aclose()


def links_for(
    transport: str,
    runtime,
    metrics: MetricsCollector | None,
    chaos=None,
    seed: int = 0,
    host: str = "127.0.0.1",
    tcp_config: TcpChannelConfig | None = None,
) -> LocalLinks:
    """The links of a fleet hosted on one event loop."""
    if transport == "tcp":
        return TcpLinks(runtime, metrics, chaos, seed, host, tcp_config)
    return LocalLinks(runtime, metrics, chaos, seed)


# ---------------------------------------------------------------------------
# The sites of a single-warehouse fleet
# ---------------------------------------------------------------------------

def make_backend(config, view: ViewDefinition, index: int, initial) -> SourceBackend:
    """Source ``index``'s backend of the kind ``config.backend`` names."""
    if config.backend == "sqlite":
        return SqliteBackend(view, index, initial)
    return MemoryBackend(view, index, initial)


def site_name(view: ViewDefinition, index: int) -> str:
    """The source site behind query-channel key ``index``: ``"central"``
    for 0 (the centralized architecture), else the relation's name."""
    return "central" if index == 0 else view.name_of(index)


class SourceSite:
    """One source site: the Figure 3 :class:`DataSourceServer` over source
    ``index``'s backend -- or, for ``index == 0``, the centralized
    architecture's :class:`CentralSource`, which holds every relation.

    Its update/answer channel is ``links.channel("<name>->wh")`` (the
    warehouse must be bound first); its query inbox is bound as
    ``"wh-><name>"``.
    """

    def __init__(
        self,
        runtime,
        links,
        config: ExperimentConfig,
        workload: Workload,
        index: int,
        trace: TraceLog | None = None,
    ):
        view = workload.view
        self.name = site_name(view, index)
        self.codec = WireCodec(view)
        self.to_warehouse = links.channel(f"{self.name}->wh", self.codec)
        self.backend = None
        if index == 0:
            self.server = CentralSource(
                runtime,
                view,
                self.to_warehouse,
                initial=workload.initial_states,
                query_service_time=config.query_service_time,
                trace=trace,
            )
        else:
            self.backend = make_backend(
                config, view, index, workload.initial_states[self.name]
            )
            self.server = DataSourceServer(
                runtime,
                self.name,
                index,
                self.backend,
                self.to_warehouse,
                query_service_time=config.query_service_time,
                trace=trace,
            )
        self.listener = links.bind(
            {f"wh->{self.name}": self.server.query_inbox}, self.codec
        )

    def quiescent(self) -> bool:
        """No outbound frames in flight, no queries waiting locally."""
        return self.to_warehouse.idle and len(self.server.query_inbox) == 0

    async def aclose(self) -> None:
        await self.to_warehouse.aclose()
        if self.listener is not None:
            await self.listener.aclose()
        if self.backend is not None:
            self.backend.close()

    def __repr__(self) -> str:
        return f"SourceSite({self.name!r})"


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

    Building is two steps because the sites of a fleet need each other:
    the constructor reads the durable state under ``durable_dir`` and
    binds the inbox as ``"<source>->wh"`` for each of :attr:`sources`
    (now sources can address it); :meth:`connect` then asks the links for
    the query channels and hosts the warehouse.  :attr:`sources` are the
    relation indices, or ``[0]`` for the centralized architecture -- the
    simulator harness's key for the central query channel.

    Only queue-driven algorithms can run with ``durable_dir``; the rest
    are rejected loudly.
    """

    def __init__(
        self,
        runtime: AsyncRuntime,
        links,
        config: ExperimentConfig,
        workload: Workload,
        durable_dir: str | None = None,
    ):
        self.info = algorithm_info(config.algorithm)
        if durable_dir is not None and not issubclass(
            self.info.cls, QueueDrivenWarehouse
        ):
            raise RecoveryError(
                f"algorithm {self.info.name!r} is not queue-driven and"
                " cannot run with --durable-dir"
            )
        self.view = view = workload.view
        super().__init__(runtime, "warehouse", [view], durable_dir)
        self.links = links
        self.config = config
        self.workload = workload
        self.codec = WireCodec(view)
        if self.info.architecture == "centralized":
            self.sources = [0]
        else:
            self.sources = list(range(1, view.n_relations + 1))
        self.listener = links.bind(
            {f"{site_name(view, index)}->wh": self.inbox for index in self.sources},
            self.codec,
            adopt_next=self.recovered_state is not None,
        )

    def connect(
        self,
        sources,
        recorder: RunRecorder,
        metrics: MetricsCollector,
        trace: TraceLog | None = None,
        checkpoint_policy: CheckpointPolicy | None = None,
        fsync_batch: int = 8,
    ) -> None:
        """Dial ``sources`` (indices) and host the warehouse over them."""
        view, config = self.view, self.config
        initial, state = self.workload.initial_states, self.recovered_state
        # A recovering warehouse starts from its checkpoint, not a join.
        initial_view = state.view_states[view.name] if state else view.evaluate(initial)
        self.query_channels = {
            index: self.links.channel(
                f"wh->{site_name(view, index)}", self.codec, self.epoch
            )
            for index in sorted(sources)
        }
        warehouse = self.info.cls(
            self.runtime,
            view,
            self.query_channels,
            initial_view=initial_view,
            recorder=recorder,
            metrics=metrics,
            trace=trace,
            inbox=self.inbox,
            locality=build_locality(config, [view], initial),
            **algorithm_kwargs(config),
        )
        self.host(warehouse, checkpoint_policy, fsync_batch)

    def __repr__(self) -> str:
        return (
            f"WarehouseNode({self.info.name!r},"
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
    "LocalLinks",
    "SourceSite",
    "TcpLinks",
    "WarehouseNode",
    "WarehouseSite",
    "drained_for",
    "hold_until_delivered",
    "links_for",
    "make_backend",
    "site_name",
]
