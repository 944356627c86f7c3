"""The runtime's links between sites, and waiting on remote sites.

The sites live in :mod:`repro.harness.sites`, below both hosts; a fleet
on the asyncio runtime builds them over :class:`LocalLinks` (direct
hand-off) or :class:`TcpLinks` (listeners and FIFO sessions), as the
simulator does over :class:`~repro.simulation.links.SimLinks`.  That is
the whole difference between ``transport="local"`` and ``"tcp"``,
between one event loop (``repro run-distributed``) and one site per OS
process (``repro serve-*``), and between either and ``repro run``.  The
sharded sites of :mod:`repro.runtime.shard.node` run over the same links.
"""

from __future__ import annotations

import time as _time

from repro.consistency.oracle import RunRecorder
from repro.runtime.chaos import (
    ChaosLocalChannel,
    ChaosStats,
    ChaosTcpProxy,
    profile,
)
from repro.runtime.kernel import AsyncRuntime
from repro.runtime.tcp import ChannelListener, TcpChannel, TcpChannelConfig
from repro.runtime.transport import LocalChannel
from repro.simulation.mailbox import Mailbox
from repro.simulation.metrics import MetricsCollector


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


__all__ = [
    "LocalLinks",
    "TcpLinks",
    "drained_for",
    "hold_until_delivered",
    "links_for",
]
