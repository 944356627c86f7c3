"""The runtime's links between sites, and serving one warehouse site
whose sources run in other processes.

The sites live in :mod:`repro.harness.sites`, below both hosts; a fleet
on the asyncio runtime builds them over :class:`LocalLinks` (direct
hand-off) or :class:`TcpLinks` (listeners and FIFO sessions), as the
simulator does over :class:`~repro.simulation.links.SimLinks`.  That is
the whole difference between ``transport="local"`` and ``"tcp"``,
between one event loop (``repro run-distributed``, ``run-sharded``) and
one site per OS process (``repro serve-*``), and between either and
``repro run``.

``serve-warehouse`` and ``serve-shard`` share one path: :func:`serve_site`
builds the member's site and serves until it is done, and
:func:`require_claimed` holds its views to the algorithm's claimed level.
"""

from __future__ import annotations

import dataclasses
import time as _time

from repro.consistency.oracle import RunRecorder
from repro.formats.errors import RuntimeHostError
from repro.harness.sites import SitePlan, build_sites, site_name
from repro.runtime.chaos import (
    ChaosLocalChannel,
    ChaosStats,
    ChaosTcpProxy,
    profile,
)
from repro.runtime.kernel import AsyncRuntime
from repro.runtime.tcp import ChannelListener, TcpChannel, TcpChannelConfig, probe_peer
from repro.runtime.transport import LocalChannel
from repro.simulation.mailbox import Mailbox
from repro.simulation.metrics import MetricsCollector
from repro.simulation.trace import TraceLog
from repro.sources.messages import UpdateNotice
from repro.sources.server import destination_label
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
# Waiting on sites hosted in other processes
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# One warehouse site per process: serve-warehouse and serve-shard
# ---------------------------------------------------------------------------

class VerificationError(RuntimeHostError):
    """A served warehouse's views fell short of their algorithm's claimed
    consistency level."""


def seed_history_from_workload(
    recorders: dict[str, RunRecorder], workload: Workload
) -> None:
    """Reconstruct every source's update history from the shared schedule.

    A served warehouse never observes remote sources' commits directly,
    but the schedule is a pure function of the shared config -- so the
    history the oracle needs (dense per-source sequence of deltas) can be
    derived locally, exactly as the source process will replay it.
    """
    for index, schedule in sorted(workload.schedules.items()):
        ordered = sorted(schedule, key=lambda u: u.time)
        for seq, update in enumerate(ordered, start=1):
            notice = UpdateNotice(
                source_index=index,
                seq=seq,
                delta=update.delta,
                applied_at=update.time,
                txn_id=update.txn_id,
                txn_total=update.txn_total,
            )
            for recorder in recorders.values():
                recorder.history.on_source_update(notice)


async def serve_site(
    runtime,
    config,
    workload: Workload,
    plan: SitePlan,
    source_addresses: dict[int, tuple[str, int]],
    listen: tuple[str, int],
    tcp_config: TcpChannelConfig | None,
    timeout: float,
    judge,
    probe: bool = True,
    expect_updates: int | None = None,
    forever: bool = False,
):
    """Host the one warehouse site of ``plan`` on ``runtime``, listening
    on ``listen``, until it is done; return ``judge(site, wall seconds,
    metrics, trace)``.  Its sources are other processes, at
    ``source_addresses`` (index -> address), which it binds and dials.

    Every process derives the same workload from the shared config, so
    the site's recorders get the sources' histories from the schedule
    (:func:`seed_history_from_workload`) and ``judge`` can hold its views
    to their claim (:func:`require_claimed`).  With ``probe`` every source
    is connectivity-checked first: a dead or mistyped peer raises
    :class:`~repro.formats.errors.TransportRetriesExceeded` instead of
    the site waiting forever for updates that cannot arrive.  The site is
    done after ``expect_updates`` deliveries (default: the plan's count)
    once nothing is in flight; ``forever`` serves until cancelled.
    """
    (member,) = plan.hosted
    label = destination_label(member)
    if expect_updates is not None:
        plan.expected[member] = expect_updates
    plan = dataclasses.replace(
        plan,
        fanout={index: plan.fanout.get(index, ()) for index in source_addresses},
        remote_sources=True,
    )
    metrics = MetricsCollector()
    links = TcpLinks(runtime, metrics, tcp_config=tcp_config, listen=listen)
    links.peers.update(
        {
            f"{label}->{site_name(workload.view, index)}": address
            for index, address in source_addresses.items()
        }
    )
    trace = TraceLog(enabled=True) if config.trace else None
    sites = await build_sites(runtime, links, config, workload, metrics, trace, plan)
    site = sites.warehouses[member]
    seed_history_from_workload(site.recorders, workload)
    state, recovered = site.recovered_state, ""
    if state is not None:
        recovered = (
            f" (recovered generation {state.generation},"
            f" {len(state.pending)} pending replayed)"
        )
    host, port = site.listener.address
    print(
        f"warehouse[{label}] hosting {[view.name for view in site.views]}"
        f" listening on {host}:{port}{recovered}",
        flush=True,
    )
    try:
        started = _time.perf_counter()
        if probe:
            for index, (host, port) in sorted(source_addresses.items()):
                await probe_peer(host, port, tcp_config, what=f"source R{index}")
        if forever:
            await runtime.until_failure()  # serve until cancelled (Ctrl-C)
        hold_until_delivered(runtime, site.primary_recorder, site.expected)
        await runtime.wait_until(
            lambda: runtime.settled() and site.done(), timeout=timeout
        )
        return judge(site, _time.perf_counter() - started, metrics, trace)
    finally:
        await sites.aclose()
        await runtime.aclose()


def require_claimed(what: str, levels: dict, config) -> None:
    """Raise :class:`VerificationError` naming every view of ``levels``
    (view name -> achieved level) below ``config.algorithm``'s claim."""
    claimed = algorithm_info(config.algorithm).claimed_consistency
    failing = {
        name: level.name.lower()
        for name, level in levels.items()
        if level < claimed
    }
    if failing:
        raise VerificationError(
            f"{what}: views below claimed {claimed.name.lower()}: {failing}"
        )


__all__ = [
    "LocalLinks",
    "TcpLinks",
    "VerificationError",
    "drained_for",
    "hold_until_delivered",
    "links_for",
    "require_claimed",
    "seed_history_from_workload",
    "serve_site",
]
