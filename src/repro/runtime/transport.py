"""Transport channels: the runtime's stand-ins for simulator channels.

A transport channel duck-types :class:`repro.simulation.channel.Channel`:
protocol code calls the synchronous ``send(message)`` and the channel
guarantees reliable FIFO delivery into the destination mailbox -- the one
communication assumption the paper's correctness argument needs
(Section 2).  Two implementations ship:

* :class:`LocalChannel` -- an in-process direct hand-off into the
  destination mailbox (FIFO by construction); and
* :class:`repro.runtime.tcp.TcpChannel` -- length-prefixed binwire frames
  over a TCP session with sequence numbers, acknowledgements and
  reconnect.

Both apply **backpressure** with a bound on what ``send`` accepts:
it raises :class:`TransportOverflowError` when the bound is hit, and pacing
producers ``await channel.drain()`` to stay below the high-water mark
(protocol traffic is self-limiting; only workload injectors need to pace).
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

from repro.formats.errors import TransportOverflowError
from repro.simulation.channel import Message
from repro.simulation.metrics import MetricsCollector

if TYPE_CHECKING:
    from repro.runtime.kernel import AsyncRuntime
    from repro.simulation.mailbox import Mailbox


class RuntimeChannel:
    """Shared accounting for transport channels (metrics + FIFO contract)."""

    def __init__(
        self,
        runtime: "AsyncRuntime",
        name: str,
        metrics: MetricsCollector | None = None,
        max_queue: int = 1024,
    ):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.runtime = runtime
        self.name = name
        self.metrics = metrics
        self.max_queue = max_queue
        self.sent_count = 0
        #: what a pacing producer inside :meth:`drain` sleeps on; resolved
        #: (and dropped) when ``queued`` goes down
        self._drain_waiter: asyncio.Future | None = None

    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Enqueue ``message`` for reliable FIFO delivery (synchronous)."""
        raise NotImplementedError

    @property
    def idle(self) -> bool:
        """True when no sent message is still queued or in flight."""
        raise NotImplementedError

    @property
    def queued(self) -> int:
        """Messages accepted by ``send`` but not yet delivered/acked."""
        raise NotImplementedError

    async def drain(self, below: int | None = None) -> None:
        """Wait until the send queue holds fewer than ``below`` messages.

        Defaults to half the bound -- the pacing hook for producers that
        could otherwise outrun the network.
        """
        limit = below if below is not None else max(1, self.max_queue // 2)
        while self.queued >= limit:
            if self._drain_waiter is None:
                self._drain_waiter = asyncio.get_running_loop().create_future()
            await self.runtime.until_failure(self._drain_waiter)

    async def flush(self, timeout: float = 30.0) -> None:
        """Wait (wall seconds) until every accepted message was delivered."""
        await self.runtime.wait_until(
            lambda: self.idle, timeout=timeout, stable_polls=1
        )

    async def aclose(self) -> None:
        """Release transport resources (idempotent)."""

    # ------------------------------------------------------------------
    def _dequeued(self) -> None:
        """``queued`` went down (subclasses call this): wake ``drain()``."""
        if self._drain_waiter is not None:
            self._drain_waiter.set_result(None)
            self._drain_waiter = None

    def _account(self, message: Message) -> None:
        message.sent_at = self.runtime.now
        self.sent_count += 1
        if self.metrics is not None:
            self.metrics.record_message(
                self.name, message.kind, message.payload_rows()
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, sent={self.sent_count})"


class LocalChannel(RuntimeChannel):
    """In-process transport: ``send`` puts the message in the mailbox.

    The mailbox wakes its consumer through a zero-delay kernel event, so
    the receiver is never re-entered from the sender and FIFO is the
    mailbox's own.  With no queue to fill, ``max_queue`` bounds what a
    producer may hand off before it yields to the runtime's ready queue.
    """

    def __init__(
        self,
        runtime: "AsyncRuntime",
        name: str,
        destination: "Mailbox",
        metrics: MetricsCollector | None = None,
        max_queue: int = 1024,
    ):
        super().__init__(runtime, name, metrics, max_queue)
        self.destination = destination
        self._unyielded = 0

    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        self._account(message)
        if self._unyielded >= self.max_queue:
            raise TransportOverflowError(
                f"channel {self.name!r}: {self.max_queue} messages handed"
                " off without yielding; pace the producer with drain()"
            )
        if self._unyielded == 0:
            self.runtime.schedule(0.0, self._yielded)
        self._unyielded += 1
        message.delivered_at = message.sent_at
        self.destination.put(message)

    @property
    def idle(self) -> bool:
        return self._unyielded == 0

    @property
    def queued(self) -> int:
        return self._unyielded

    # ------------------------------------------------------------------
    def _yielded(self) -> None:
        self._unyielded = 0
        self._dequeued()


__all__ = ["LocalChannel", "RuntimeChannel"]
