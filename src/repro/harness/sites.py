"""The sites of a fleet, whichever host runs them.

A site owns what one OS process would own in a real deployment: its
protocol objects (the unchanged :class:`DataSourceServer`,
:class:`CentralSource` or warehouse algorithm) and the channels it sends
on.  Sites ask a *links* object to ``bind`` mailboxes under channel names
and to make the ``channel`` with a given name;
:class:`~repro.simulation.links.SimLinks` (the simulator),
:class:`~repro.runtime.nodes.LocalLinks` and
:class:`~repro.runtime.nodes.TcpLinks` (the asyncio runtime) answer.
:func:`build_sites` wires one single-warehouse fleet over any of them.
This module sits below both hosts: it imports nothing from
:mod:`repro.runtime`.

Channel names are the paper's Figure 3: ``"R2->wh"`` carries source 2's
update notices *and* query answers (one FIFO channel: the linchpin of
SWEEP's local compensation), ``"wh->R2"`` the warehouse's queries; the
centralized (ECA) architecture uses ``"central->wh"`` / ``"wh->central"``.
"""

from __future__ import annotations

from functools import partial

from repro.consistency.oracle import RunRecorder
from repro.durability.errors import RecoveryError
from repro.durability.manager import (
    CheckpointPolicy,
    CrashPlan,
    DurabilityManager,
    LoggingMailbox,
)
from repro.durability.recovery import attach_durability, load_state
from repro.formats.codec import WireCodec
from repro.harness.config import ExperimentConfig
from repro.relational.view import ViewDefinition
from repro.simulation.mailbox import Mailbox
from repro.simulation.metrics import MetricsCollector
from repro.simulation.trace import TraceLog
from repro.sources.base import SourceBackend
from repro.sources.central import CentralSource
from repro.sources.memory import MemoryBackend
from repro.sources.server import DataSourceServer, destination_label
from repro.sources.sqlite import SqliteBackend
from repro.sources.updater import ScheduledUpdater
from repro.warehouse.base import QueueDrivenWarehouse
from repro.warehouse.locality import build_locality
from repro.warehouse.registry import algorithm_info
from repro.warehouse.sweep import SweepOptions
from repro.workloads.scenarios import Workload


def algorithm_kwargs(config: ExperimentConfig) -> dict:
    """Per-algorithm constructor options encoded in a config."""
    if config.algorithm == "sweep":
        return {
            "options": SweepOptions(
                parallel=config.sweep_parallel,
                merge_queue_updates=config.sweep_merge_queue_updates,
            )
        }
    if config.algorithm == "batched-sweep":
        return {"max_batch": config.batch_max, "adaptive": config.batch_adaptive}
    if config.algorithm == "nested-sweep":
        return {"max_depth": config.nested_max_depth}
    if config.algorithm == "pipelined-sweep":
        return {"max_parallel": config.pipeline_max_parallel}
    return {}


def make_backend(config, view: ViewDefinition, index: int, initial) -> SourceBackend:
    """Source ``index``'s backend of the kind ``config.backend`` names."""
    if config.backend == "sqlite":
        return SqliteBackend(view, index, initial)
    return MemoryBackend(view, index, initial)


def family_codec(views: list[ViewDefinition]) -> WireCodec:
    """The codec every site of a fleet maintaining ``views`` speaks.  A
    partial of its base view (``views[0]``) travels untagged."""
    return WireCodec(views[0], extra_views=tuple(views[1:]))


def site_name(view: ViewDefinition, index: int) -> str:
    """The source site behind query-channel key ``index``: ``"central"``
    for 0 (the centralized architecture), else the relation's name."""
    return "central" if index == 0 else view.name_of(index)


#: The one destination of a single-warehouse fleet.
WAREHOUSE = "wh"


def replica_group(destination) -> object:
    """The group a destination's work survives in: a shard member's shard
    (a standby carries it when its primary is gone); the single
    warehouse is a group of one."""
    return getattr(destination, "shard", destination)


class SourceSite:
    """One source site: the Figure 3 :class:`DataSourceServer` over source
    ``index``'s backend -- or, for ``index == 0``, the centralized
    architecture's :class:`CentralSource`, which holds every relation.

    ``destinations`` are the warehouses it feeds: :data:`WAREHOUSE` alone
    (the default), or the shard members a sharded fleet's fan-out lists
    for it, standbys included.  Destination ``d`` gets the
    update/answer channel ``links.channel("<name>-><d>")`` (the
    destination must be bound first) and a query inbox bound as
    ``"<d>-><name>"``, where ``<d>`` is ``wh`` or the member's label.
    ``codec`` defaults to the workload view's; a sharded fleet's sites
    all speak the family's.  ``server`` is the relation source's class:
    :class:`DataSourceServer`, or the subclass that only renames it for
    ``bench/``'s tracer (``repro.runtime.shard.ShardedSourceFront``).
    """

    def __init__(
        self,
        runtime,
        links,
        config: ExperimentConfig,
        workload: Workload,
        index: int,
        trace: TraceLog | None = None,
        destinations=(WAREHOUSE,),
        codec: WireCodec | None = None,
        server=DataSourceServer,
    ):
        view = workload.view
        self.name = site_name(view, index)
        self.codec = codec if codec is not None else WireCodec(view)
        self.channels = {
            key: links.channel(
                f"{self.name}->{destination_label(key)}", self.codec
            )
            for key in sorted(destinations)
        }
        self.backend = None
        if index == 0:
            self.server = CentralSource(
                runtime,
                view,
                self.channels[WAREHOUSE],
                initial=workload.initial_states,
                query_service_time=config.query_service_time,
                trace=trace,
            )
            self.query_inboxes = {WAREHOUSE: self.server.query_inbox}
        else:
            self.backend = make_backend(
                config, view, index, workload.initial_states[self.name]
            )
            self.server = server(
                runtime,
                self.name,
                index,
                self.backend,
                self.channels,
                query_service_time=config.query_service_time,
                trace=trace,
            )
            self.query_inboxes = self.server.query_inboxes
        self.listener = links.bind(
            {
                f"{destination_label(key)}->{self.name}": inbox
                for key, inbox in self.query_inboxes.items()
            },
            self.codec,
        )

    def quiescent(self) -> bool:
        """No outbound frames in flight, no queries waiting locally."""
        return all(channel.idle for channel in self.channels.values()) and all(
            len(inbox) == 0 for inbox in self.query_inboxes.values()
        )

    async def drop_member(self, destination) -> None:
        """Stop feeding a destination known dead before any frame was sent."""
        channel = self.channels.pop(destination)
        self.server.drop_member(destination)
        await channel.aclose()

    def tolerate_dead_members(self) -> None:
        """Arm every channel with replica-group dead-peer tolerance.

        A channel that exhausts its retry budget mid-run (only a TCP
        channel has a budget) asks whether its destination's
        :func:`replica_group` still has a live channel: if so the
        destination is given up (frames dropped, its query inbox sealed)
        and the site keeps going; when the group's *last* member -- or
        the single warehouse -- is gone, the channel's
        :class:`~repro.formats.errors.TransportRetriesExceeded` propagates.
        """
        for key, channel in self.channels.items():
            if hasattr(channel, "on_give_up"):
                channel.on_give_up = self._give_up_handler(key)

    def _give_up_handler(self, destination):
        group = replica_group(destination)

        def _handler(error) -> bool:
            survivors = [
                destination_label(key)
                for key, channel in self.channels.items()
                if key != destination
                and replica_group(key) == group
                and not getattr(channel, "dead", False)
            ]
            if not survivors:
                return False
            print(
                f"source[{self.name}] member {destination_label(destination)}"
                f" unreachable, surviving member(s) {survivors} carry"
                f" shard {group}: {error}",
                flush=True,
            )
            self.query_inboxes[destination].seal()
            return True

        return _handler

    def close(self) -> None:
        """Release the backend (all a simulated site holds)."""
        if self.backend is not None:
            self.backend.close()

    async def aclose(self) -> None:
        for channel in self.channels.values():
            await channel.aclose()
        if self.listener is not None:
            await self.listener.aclose()
        self.close()

    def __repr__(self) -> str:
        return (
            f"SourceSite({self.name!r},"
            f" {[destination_label(k) for k in sorted(self.channels)]})"
        )


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
        self.listener = None
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
    key of the central query channel.

    Only queue-driven algorithms can run with ``durable_dir``; the rest
    are rejected loudly.
    """

    def __init__(
        self,
        runtime,
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


# ---------------------------------------------------------------------------
# One single-warehouse fleet
# ---------------------------------------------------------------------------

class Sites:
    """The sites of one single-warehouse fleet, and the updaters driving
    them."""

    def __init__(
        self,
        warehouse_site: WarehouseNode,
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

    def close(self) -> None:
        """Release the sources' backends (all a simulated fleet holds)."""
        for source in self.sources:
            source.close()

    async def aclose(self) -> None:
        for site in (self.warehouse_site, *self.sources):
            await site.aclose()


def make_recorder(workload: Workload) -> RunRecorder:
    """An oracle recorder that knows every source's initial state."""
    view = workload.view
    recorder = RunRecorder(view)
    for index in range(1, view.n_relations + 1):
        name = view.name_of(index)
        recorder.register_source(index, name, workload.initial_states[name])
    return recorder


async def build_sites(
    runtime,
    links,
    config: ExperimentConfig,
    workload: Workload,
    recorder: RunRecorder,
    metrics: MetricsCollector,
    trace: TraceLog | None,
) -> Sites:
    """Build the sites in the order they need each other: the warehouse's
    inbox, the sources that send to it, the updaters that drive them, the
    warehouse that queries them.

    Processes start in that order too (sources, updaters, warehouse);
    on the simulator, zero-delay starts fire in spawn order, so the order
    is part of every simulated result.  ``links.start()`` only suspends
    on links with something to start (TCP listeners).
    """
    warehouse = WarehouseNode(runtime, links, config, workload)
    await links.start()
    sources = {
        index: SourceSite(runtime, links, config, workload, index, trace)
        for index in warehouse.sources
    }
    for site in sources.values():
        site.server.add_update_listener(recorder.on_source_update)
    await links.start()

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
    warehouse.connect(sources, recorder, metrics, trace)
    return Sites(warehouse, list(sources.values()), updaters)


__all__ = [
    "WAREHOUSE",
    "SourceSite",
    "Sites",
    "WarehouseNode",
    "WarehouseSite",
    "algorithm_kwargs",
    "build_sites",
    "family_codec",
    "make_backend",
    "make_recorder",
    "replica_group",
    "site_name",
]
