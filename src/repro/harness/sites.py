"""The sites of a fleet, whichever host runs them.

A site owns what one OS process would own in a real deployment: its
protocol objects (the unchanged :class:`DataSourceServer`,
:class:`CentralSource` or warehouse algorithm) and the channels it sends
on.  There are two kinds: a :class:`SourceSite` per source and a
:class:`WarehouseSite` per warehouse member -- the single warehouse is the
one-member, one-view fleet.  Sites ask a *links* object to ``bind``
mailboxes under channel names and to make the ``channel`` with a given
name; :class:`~repro.simulation.links.SimLinks` (the simulator),
:class:`~repro.runtime.nodes.LocalLinks` and
:class:`~repro.runtime.nodes.TcpLinks` (the asyncio runtime) answer.
:func:`build_sites` wires every fleet -- one warehouse or a sharded
family, all sites on one host or one site per process -- from a
:class:`SitePlan` of members x sources over any of them.  This module
sits below both hosts: it imports nothing from :mod:`repro.runtime`.

Channel names are the paper's Figure 3: ``"R2->wh"`` carries source 2's
update notices *and* query answers (one FIFO channel: the linchpin of
SWEEP's local compensation), ``"wh->R2"`` the warehouse's queries; the
centralized (ECA) architecture uses ``"central->wh"`` / ``"wh->central"``.
A shard member's channels carry its label instead of ``wh``
(``"R2->sh0"``, ``"sh0r1->R2"``), so a standby owns its own FIFO
sessions alongside its primary's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from repro.relational.view import ViewDefinition, evaluate_views
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
from repro.warehouse.batched import BatchedSweepWarehouse
from repro.warehouse.locality import build_locality
from repro.warehouse.multiview import MultiViewSweepWarehouse
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


#: algorithm -> the scheduler that hosts a view family under it.
FAMILY_SCHEDULERS = {
    "sweep": MultiViewSweepWarehouse,
    "batched-sweep": BatchedSweepWarehouse,
}


@dataclass
class SitePlan:
    """The members x sources that :func:`build_sites` wires.

    ``hosted`` maps each warehouse member -- :data:`WAREHOUSE`, or a
    sharded fleet's :class:`~repro.warehouse.sharding.ShardMember` -- to
    the views it maintains and ``expected`` to the deliveries it waits
    for; ``fanout`` maps each source index to the members its updates
    travel to (every member binds and queries every source of it).
    ``family`` is the view family every site's codec spans, each member
    hosting its views with the family's scheduler
    (:data:`FAMILY_SCHEDULERS`); ``None`` is the single warehouse of the
    workload's own view under the registered algorithm (Figure 4's
    :class:`~repro.warehouse.sweep.SweepWarehouse` for ``sweep``).
    ``remote_sources`` leaves the source sites to other processes.
    """

    hosted: dict
    fanout: dict[int, tuple]
    expected: dict
    family: list[ViewDefinition] | None = None
    durable_dirs: dict = field(default_factory=dict)
    crash_plans: dict = field(default_factory=dict)
    checkpoint_policy: CheckpointPolicy | None = None
    fsync_batch: int = 8
    remote_sources: bool = False


def one_warehouse(config, workload: Workload, family=None, **fields) -> SitePlan:
    """The plan of a fleet with one warehouse, :data:`WAREHOUSE`, hosting
    the workload's own view -- or the view ``family`` -- fed by every
    source (by the central site alone, in the centralized architecture).
    ``fields`` are :class:`SitePlan`'s."""
    view = workload.view
    if algorithm_info(config.algorithm).architecture == "centralized":
        indices = [0]
    else:
        indices = range(1, view.n_relations + 1)
    return SitePlan(
        hosted={WAREHOUSE: family or [view]},
        fanout={index: (WAREHOUSE,) for index in indices},
        expected={WAREHOUSE: workload.total_updates},
        family=family,
        **fields,
    )


class WarehouseSite:
    """One warehouse site: a member's views behind FIFO channels to its
    sources (Figure 3), whichever warehouse, host and transport.

    The site owns the durable state, the inbox, one oracle recorder per
    hosted view (:attr:`primary_recorder` is the first view's: the site's
    delivery order) and :attr:`expected`, the deliveries it waits for
    before it is :meth:`done`.  Building is two steps because the sites
    of a fleet need each other: the constructor reads the durable state
    and binds the inbox as ``"<source>-><label>"`` for each of
    ``sources`` -- relation indices, or ``[0]`` for the centralized
    architecture's central site -- where the label is ``wh`` or the
    member's (``sh0``, ``sh0r1``); :meth:`connect` then dials
    ``"<label>-><source>"`` and hosts the warehouse.

    With ``durable_dir`` the site checkpoints its views and WAL-logs
    every delivered update there (log-before-ack: a listener only acks a
    frame once the :class:`LoggingMailbox` has appended it), and a site
    restarted on the same directory recovers and resumes mid-protocol
    (:mod:`repro.durability`); only queue-driven algorithms can.
    """

    def __init__(
        self,
        runtime,
        links,
        config: ExperimentConfig,
        workload: Workload,
        member,
        views: list[ViewDefinition],
        sources,
        codec: WireCodec,
        expected: int,
        family: bool = False,
        durable_dir: str | None = None,
    ):
        self.info = algorithm_info(config.algorithm)
        if family and config.algorithm not in FAMILY_SCHEDULERS:
            raise ValueError(
                f"a view family runs under {'/'.join(FAMILY_SCHEDULERS)},"
                f" not {config.algorithm!r}"
            )
        if durable_dir is not None and not (
            family or issubclass(self.info.cls, QueueDrivenWarehouse)
        ):
            raise RecoveryError(
                f"algorithm {self.info.name!r} is not queue-driven and"
                " cannot run with --durable-dir"
            )
        self.runtime = runtime
        self.links = links
        self.config = config
        self.workload = workload
        self.member = member
        self.label = destination_label(member)
        self.views = views
        self.sources = sources
        self.codec = codec
        self.family = family
        self.durable_dir = durable_dir
        self.recovered_state = state = (
            load_state(durable_dir, list(views)) if durable_dir is not None else None
        )
        mailbox = LoggingMailbox if durable_dir is not None else Mailbox
        self.inbox: Mailbox = mailbox(runtime, f"{self.label}-inbox")
        #: view name -> oracle recorder (a migrating view's moves with it).
        self.recorders = {view.name: RunRecorder(view) for view in views}
        chain = workload.view
        for recorder in self.recorders.values():
            for index in range(1, chain.n_relations + 1):
                name = chain.name_of(index)
                recorder.register_source(index, name, workload.initial_states[name])
        self.primary_recorder = self.recorders[views[0].name]
        self.expected = expected
        if state is not None:
            # Only this incarnation's deliveries count: the replayed
            # checkpoint/WAL pending, plus whatever the durable marks
            # have not fenced off as redeliveries.
            self.expected += len(state.pending) - state.delivered_total
        self.listener = links.bind(
            {
                f"{site_name(workload.view, index)}->{self.label}": self.inbox
                for index in sources
            },
            codec,
            adopt_next=state is not None,
        )
        self.query_channels: dict = {}
        self.warehouse = None
        self.durability: DurabilityManager | None = None

    def connect(
        self,
        initial_views: dict,
        metrics: MetricsCollector,
        trace: TraceLog | None = None,
        checkpoint_policy: CheckpointPolicy | None = None,
        fsync_batch: int = 8,
        crash_plan: CrashPlan | None = None,
    ) -> None:
        """Dial the sources and host the warehouse over them, starting
        from ``initial_views`` -- or, recovering, from its checkpoint."""
        config, views, state = self.config, self.views, self.recovered_state
        contents = state.view_states if state is not None else initial_views
        # A recovered site announces a higher session epoch so the sources'
        # listeners reset their FIFO expectations to its hellos.
        epoch = state.generation + 1 if state is not None else 0
        self.query_channels = {
            index: self.links.channel(
                f"{self.label}->{site_name(self.workload.view, index)}",
                self.codec,
                epoch,
            )
            for index in sorted(self.sources)
        }
        cls, options = self.info.cls, algorithm_kwargs(config)
        if self.family:
            cls = FAMILY_SCHEDULERS[config.algorithm]
            if config.algorithm == "sweep":
                options = {}  # the family's SWEEP takes no SweepOptions
            options.update(
                extra_views=views[1:],
                initial_views=contents,
                extra_recorders={v.name: self.recorders[v.name] for v in views[1:]},
            )
        self.warehouse = cls(
            self.runtime,
            views[0],
            self.query_channels,
            initial_view=contents[views[0].name],
            recorder=self.primary_recorder,
            metrics=metrics,
            trace=trace,
            inbox=self.inbox,
            locality=build_locality(config, views, self.workload.initial_states),
            **options,
        )
        if self.durable_dir is not None:
            self.durability = attach_durability(
                self.warehouse,
                self.durable_dir,
                state,
                policy=checkpoint_policy,
                fsync_batch=fsync_batch,
                crash_plan=crash_plan,
            )

    def final_recorders(self, migrated: str | None = None) -> dict[str, RunRecorder]:
        """The recorders once the run is over: every view's takes the
        primary's delivery order -- except a ``migrated`` view's, which
        owns its spliced one (donor prefix + catch-up + steady state)."""
        primary = self.views[0].name
        for name, recorder in self.recorders.items():
            if name not in (primary, migrated):
                recorder.deliveries = list(self.primary_recorder.deliveries)
        return self.recorders

    def quiescent(self) -> bool:
        """Inbox drained, no queued updates mid-algorithm, channels idle."""
        if len(self.inbox) != 0:
            return False
        if self.warehouse.pending_work():
            return False
        return all(channel.idle for channel in self.query_channels.values())

    def done(self) -> bool:
        """Every expected update delivered, and nothing left to do."""
        return (
            self.primary_recorder.updates_delivered >= self.expected
            and self.quiescent()
        )

    async def aclose(self) -> None:
        if self.durability is not None:
            self.durability.close()
        for channel in self.query_channels.values():
            await channel.aclose()
        if self.listener is not None:
            await self.listener.aclose()

    def __repr__(self) -> str:
        return f"WarehouseSite({self.label}, views={[v.name for v in self.views]})"


# ---------------------------------------------------------------------------
# One fleet
# ---------------------------------------------------------------------------

class Sites:
    """The sites of one fleet, and the updaters driving them.

    :attr:`warehouses` maps each member to its site; a member in
    :attr:`dead` (its process gone) no longer counts towards quiescence.
    """

    def __init__(
        self,
        warehouses: dict,
        sources: dict[int, SourceSite],
        updaters: list[ScheduledUpdater],
    ):
        self.warehouses = warehouses
        self.sources = sources
        self.updaters = updaters
        self.dead: set = set()

    def quiescent(self) -> bool:
        """Every updater done, every live warehouse done, every source
        quiescent."""
        return (
            all(updater.done for updater in self.updaters)
            and all(
                site.done()
                for member, site in self.warehouses.items()
                if member not in self.dead
            )
            and all(source.quiescent() for source in self.sources.values())
        )

    def close(self) -> None:
        """Release the sources' backends (all a simulated fleet holds)."""
        for source in self.sources.values():
            source.close()

    async def aclose(self) -> None:
        for site in (*self.warehouses.values(), *self.sources.values()):
            await site.aclose()


async def build_sites(
    runtime,
    links,
    config: ExperimentConfig,
    workload: Workload,
    metrics: MetricsCollector,
    trace: TraceLog | None = None,
    plan: SitePlan | None = None,
    server=DataSourceServer,
) -> Sites:
    """Build ``plan``'s sites (default: :func:`one_warehouse`) in the
    order they need each other: the warehouses' inboxes, the sources that
    send to them, the updaters that drive the sources, the warehouses that
    query them.  Every view starts from one wide join per sweep class of
    the family, however many members host it; a recovering member joins
    nothing.  ``server`` is :class:`SourceSite`'s.

    Processes start in that order too (sources, updaters, warehouses);
    on the simulator, zero-delay starts fire in spawn order, so the order
    is part of every simulated result.  ``links.start()`` only suspends
    on links with something to start (TCP listeners).
    """
    plan = plan if plan is not None else one_warehouse(config, workload)
    family = plan.family or [workload.view]
    codec = family_codec(family)
    warehouses = {
        member: WarehouseSite(
            runtime,
            links,
            config,
            workload,
            member,
            views,
            plan.fanout,
            codec,
            plan.expected[member],
            family=plan.family is not None,
            durable_dir=plan.durable_dirs.get(member),
        )
        for member, views in plan.hosted.items()
    }
    await links.start()
    sources: dict[int, SourceSite] = {}
    updaters: list[ScheduledUpdater] = []
    if not plan.remote_sources:
        # Every recorder -- each member classifies against its own
        # delivery order -- sees every source commit.
        recorders = [
            recorder
            for site in warehouses.values()
            for recorder in site.recorders.values()
        ]

        def on_source_update(notice) -> None:
            for recorder in recorders:
                recorder.history.on_source_update(notice)

        for index, members in sorted(plan.fanout.items()):
            source = sources[index] = SourceSite(
                runtime, links, config, workload, index, trace,
                destinations=members, codec=codec, server=server,
            )
            source.server.add_update_listener(on_source_update)
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
    initial_views = {}
    if any(site.recovered_state is None for site in warehouses.values()):
        initial_views = evaluate_views(family, workload.initial_states)
    for member, site in warehouses.items():
        site.connect(
            initial_views,
            metrics,
            trace,
            plan.checkpoint_policy,
            plan.fsync_batch,
            plan.crash_plans.get(member),
        )
    return Sites(warehouses, sources, updaters)


__all__ = [
    "FAMILY_SCHEDULERS",
    "WAREHOUSE",
    "SitePlan",
    "SourceSite",
    "Sites",
    "WarehouseSite",
    "algorithm_kwargs",
    "build_sites",
    "family_codec",
    "make_backend",
    "one_warehouse",
    "replica_group",
    "site_name",
]
