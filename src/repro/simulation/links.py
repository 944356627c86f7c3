"""The simulator's links: the named channels a fleet's sites ask for
(see :mod:`repro.harness.sites`), beside the runtime's ``LocalLinks`` /
``TcpLinks`` in :mod:`repro.runtime.nodes`."""

from __future__ import annotations

from repro.simulation.channel import Channel
from repro.simulation.kernel import Simulator
from repro.simulation.latency import build_latency_model
from repro.simulation.mailbox import Mailbox
from repro.simulation.metrics import MetricsCollector
from repro.simulation.rng import RngRegistry


class SimLinks:
    """``channel(name)`` is a :class:`Channel` into the mailbox bound
    under ``name``, FIFO unless ``config.fifo_channels`` is off, its
    latency drawn from ``config``'s model (``latency_model`` around
    ``latency``) on the stream ``latency:<site>-up`` for ``"<site>->wh"``,
    ``latency:<site>-down`` for ``"wh-><site>"`` and ``latency:<name>``
    for a shard member's channel (``"R1->sh0"``, ``"sh0r1->R1"``), so
    every channel draws from its own stream.  Bind before asking for the
    channel."""

    def __init__(
        self,
        sim: Simulator,
        config,
        rngs: RngRegistry,
        metrics: MetricsCollector,
    ):
        self.sim = sim
        self.config = config
        self.rngs = rngs
        self.metrics = metrics
        self._bound: dict[str, Mailbox] = {}

    def bind(self, routes: dict[str, Mailbox], codec, adopt_next=False) -> None:
        self._bound.update(routes)

    def channel(self, name: str, codec, epoch: int = 0) -> Channel:
        sender, _, receiver = name.partition("->")
        if receiver == "wh":
            end = f"{sender}-up"
        elif sender == "wh":
            end = f"{receiver}-down"
        else:
            end = name
        latency = build_latency_model(
            self.config.latency_model,
            self.config.latency,
            self.rngs.stream(f"latency:{end}"),
        )
        return Channel(
            self.sim,
            name,
            self._bound[name],
            latency,
            self.metrics,
            enforce_fifo=self.config.fifo_channels,
        )

    async def start(self) -> None:
        """Make every name bound so far reachable (here: it already is)."""


__all__ = ["SimLinks"]
