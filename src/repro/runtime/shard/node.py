"""The two sites of a sharded fleet.

A fleet is built from two site types: a :class:`ShardNode` per
replica-group member and a :class:`ShardedSourceNode` per source.  Both
are transport-blind: they run over the *links* of
:mod:`repro.runtime.nodes` (:class:`~repro.runtime.nodes.LocalLinks` or
:class:`~repro.runtime.nodes.TcpLinks`), which :func:`make_links` builds
from a spec -- the same links the single-warehouse sites run over.

Channel names are the simulator's: ``"R2->sh0"`` carries source 2's
update notices *and* its answers to member ``sh0`` (one FIFO session --
the linchpin of SWEEP's local compensation), ``"sh0->R2"`` carries that
member's queries.
"""

from __future__ import annotations

from repro.consistency.oracle import RunRecorder
from repro.harness.config import ExperimentConfig
from repro.harness.sites import WarehouseSite, make_backend
from repro.relational.relation import Relation
from repro.relational.view import ViewDefinition
from repro.formats.codec import WireCodec
from repro.runtime.nodes import LocalLinks, links_for
from repro.runtime.shard.front import ShardedSourceFront
from repro.runtime.shard.spec import FleetSpec
from repro.runtime.tcp import TcpChannel
from repro.simulation.mailbox import Mailbox
from repro.simulation.metrics import MetricsCollector
from repro.simulation.trace import TraceLog
from repro.warehouse.batched import BatchedSweepWarehouse
from repro.warehouse.locality import build_locality
from repro.warehouse.multiview import MultiViewSweepWarehouse
from repro.warehouse.sharding import ShardMember


def make_links(spec: FleetSpec, runtime, metrics) -> LocalLinks:
    """The links every site of ``spec``'s fleet runs over."""
    return links_for(
        spec.transport,
        runtime,
        metrics,
        spec.chaos,
        spec.config.seed,
        spec.host,
        spec.tcp_config,
    )


# ---------------------------------------------------------------------------
# The member site
# ---------------------------------------------------------------------------

#: algorithm -> the view-family scheduler that hosts it.
_WAREHOUSES = {
    "sweep": MultiViewSweepWarehouse,
    "batched-sweep": BatchedSweepWarehouse,
}


def _family_codec(views: list[ViewDefinition]) -> WireCodec:
    return WireCodec(views[0], extra_views=tuple(views[1:]))


def build_shard_warehouse(
    runtime,
    views: list[ViewDefinition],
    query_channels: dict,
    initial_states: dict[str, Relation],
    initial_views: dict[str, Relation],
    recorders: dict[str, RunRecorder] | None,
    config: ExperimentConfig,
    inbox: Mailbox,
    metrics: MetricsCollector,
    trace: TraceLog | None,
):
    """One shard's warehouse over its assigned views (SWEEP or batched).

    ``initial_views`` holds every assigned view's starting contents.
    Every shard warehouse can seal, donate or adopt a view in a live
    rebalance (:mod:`repro.warehouse.migration`); it is inert until the
    coordinator attaches a migration state.
    """
    warehouse = _WAREHOUSES.get(config.algorithm)
    if warehouse is None:
        raise ValueError(
            "sharded runtime supports sweep/batched-sweep, not"
            f" {config.algorithm!r}"
        )
    primary = views[0]
    recorders = recorders or {}
    options = {}
    if config.algorithm == "batched-sweep":
        options = dict(max_batch=config.batch_max, adaptive=config.batch_adaptive)
    return warehouse(
        runtime,
        primary,
        query_channels,
        locality=build_locality(config, views, initial_states),
        initial_view=initial_views[primary.name],
        recorder=recorders.get(primary.name),
        metrics=metrics,
        trace=trace,
        inbox=inbox,
        extra_views=views[1:],
        initial_views=initial_views,
        extra_recorders={
            v.name: recorders[v.name] for v in views[1:] if v.name in recorders
        },
        **options,
    )


class ShardNode(WarehouseSite):
    """One replica-group member: a shard's warehouse as a deployable site.

    Channel names derive from the member label, so a standby (``sh0r1``)
    owns its own FIFO sessions alongside the primary's (``sh0``).
    Building is two steps because the sites of a fleet need each other:
    the constructor reads the durable state under ``durable_dir`` and
    binds the inbox (now sources can address this member);
    :meth:`connect` then dials the sources and hosts the warehouse.
    ``expect_updates`` overrides how many deliveries the member waits
    for before it is :meth:`done` (default: every update of the sources
    its views reference).
    """

    def __init__(
        self,
        spec: FleetSpec,
        runtime,
        member: ShardMember,
        links,
        durable_dir: str | None,
        metrics: MetricsCollector,
        trace: TraceLog | None = None,
        expect_updates: int | None = None,
    ):
        self.views = spec.hosted_views(member.shard)
        super().__init__(runtime, member.label, self.views, durable_dir)
        self.spec = spec
        self.member = member
        self.links = links
        self.metrics = metrics
        self.trace = trace
        #: view name -> oracle recorder (a migrating view's moves with it).
        self.recorders = {view.name: RunRecorder(view) for view in self.views}
        for recorder in self.recorders.values():
            for index in spec.source_indices:
                name = spec.chain.name_of(index)
                recorder.register_source(
                    index, name, spec.workload.initial_states[name]
                )
        self.primary_recorder = self.recorders[self.views[0].name]
        # The sources' codec spans the family, and a partial of the codec's
        # base view travels untagged: a codec over only the hosted views
        # would send the shard primary's partials as the family's first.
        self.codec = _family_codec(spec.family)
        self.expected = (
            expect_updates
            if expect_updates is not None
            else spec.expected_deliveries(member)
        )
        state = self.recovered_state
        if state is not None:
            # Only this incarnation's deliveries count: the replayed
            # checkpoint/WAL pending, plus whatever the durable marks
            # have not fenced off as redeliveries.
            self.expected += len(state.pending) - state.delivered_total
        self.listener = links.bind(
            {
                f"{spec.chain.name_of(index)}->{member.label}": self.inbox
                for index in spec.source_indices
            },
            self.codec,
            adopt_next=state is not None,
        )

    def connect(self, sources, crash_plan=None) -> None:
        """Dial ``sources`` (indices) and host the warehouse over them."""
        spec, label = self.spec, self.member.label
        # A recovering member starts from its checkpoint and joins nothing.
        state = self.recovered_state
        self.query_channels = {
            index: self.links.channel(
                f"{label}->{spec.chain.name_of(index)}", self.codec, self.epoch
            )
            for index in sorted(sources)
        }
        self.host(
            build_shard_warehouse(
                self.runtime,
                self.views,
                self.query_channels,
                spec.workload.initial_states,
                spec.initial_views if state is None else state.view_states,
                self.recorders,
                spec.config,
                self.inbox,
                self.metrics,
                self.trace,
            ),
            spec.checkpoint_policy,
            spec.fsync_batch,
            crash_plan,
        )

    def done(self) -> bool:
        """Every expected update delivered, and nothing left to do."""
        return (
            self.primary_recorder.updates_delivered >= self.expected
            and self.quiescent()
        )

    def __repr__(self) -> str:
        return (
            f"ShardNode({self.member.label},"
            f" views={[v.name for v in self.views]})"
        )


# ---------------------------------------------------------------------------
# The source site
# ---------------------------------------------------------------------------

class ShardedSourceNode:
    """One data-source site serving the members in ``members``.

    Each :class:`ShardMember` in ``members`` (a replicated deployment
    lists standbys too) gets its own update/answer channel and its own
    query inbox, bound as ``"<member>-><source>"``.
    """

    def __init__(
        self,
        spec: FleetSpec,
        runtime,
        index: int,
        links,
        members,
        trace: TraceLog | None = None,
    ):
        chain = spec.chain
        self.index = index
        self.name = chain.name_of(index)
        self.backend = make_backend(
            spec.config, chain, index, spec.workload.initial_states[self.name]
        )
        self.codec = _family_codec(spec.family)
        self.update_channels = {
            key: links.channel(f"{self.name}->{key.label}", self.codec)
            for key in sorted(members)
        }
        self.front = ShardedSourceFront(
            runtime,
            chain,
            index,
            self.backend,
            self.update_channels,
            query_service_time=spec.config.query_service_time,
            trace=trace,
        )
        self.listener = links.bind(
            {
                f"{key.label}->{self.name}": inbox
                for key, inbox in self.front.query_inboxes.items()
            },
            self.codec,
        )

    def quiescent(self) -> bool:
        return (
            all(ch.idle for ch in self.update_channels.values())
            and self.front.quiescent()
        )

    async def drop_member(self, key) -> None:
        """Stop routing to a member known dead before any frame was sent."""
        channel = self.update_channels.pop(key, None)
        self.front.drop_member(key)
        if channel is not None:
            await channel.aclose()

    def tolerate_dead_members(self) -> None:
        """Arm every update channel with hot-standby dead-peer tolerance.

        A channel that exhausts its retry budget mid-run checks whether
        the member's replica group still has a live channel: if so the
        member is marked dead (frames dropped, its query inbox sealed)
        and the fleet keeps going; a shard whose *last* member died
        propagates :class:`TransportRetriesExceeded` as before.
        """
        for key, channel in self.update_channels.items():
            if isinstance(channel, TcpChannel):
                channel.on_give_up = self._give_up_handler(key)

    def _give_up_handler(self, member: ShardMember):
        def _handler(error) -> bool:
            survivors = [
                k
                for k, ch in self.update_channels.items()
                if k != member
                and k.shard == member.shard
                and not getattr(ch, "dead", False)
            ]
            if not survivors:
                return False
            print(
                f"source[{self.name}] member {member.label} unreachable,"
                f" surviving member(s)"
                f" {[k.label for k in survivors]} carry shard"
                f" {member.shard}: {error}",
                flush=True,
            )
            self.front.query_inboxes[member].seal()
            return True

        return _handler

    async def aclose(self) -> None:
        for channel in self.update_channels.values():
            await channel.aclose()
        if self.listener is not None:
            await self.listener.aclose()
        self.backend.close()

    def __repr__(self) -> str:
        return (
            f"ShardedSourceNode({self.name!r},"
            f" members={[k.label for k in sorted(self.update_channels)]})"
        )


__all__ = [
    "ShardNode",
    "ShardedSourceNode",
    "build_shard_warehouse",
    "make_links",
]
