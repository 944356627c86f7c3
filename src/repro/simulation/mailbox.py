"""Single-consumer mailboxes: the receive side of every channel.

A :class:`Mailbox` buffers delivered messages in FIFO order.  One process
at a time may wait on it with ``yield mailbox.get()``; concurrent waiters
would make delivery order ambiguous, so a second waiter raises
:class:`MailboxOwnershipError`.

Messages become visible in the exact order :meth:`put` was called, and a
waiting process is woken via a zero-delay kernel event -- never re-entered
synchronously from the sender -- which keeps causality (and hence the FIFO
reasoning SWEEP depends on) easy to audit in traces.

Instead of a consumer process, a mailbox may have a *router*
(:meth:`route`): a plain callback handed each message, one message per
zero-delay kernel event, exactly where the waiting process would have
been woken -- the same order at the cost of no generator resume.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.simulation.errors import MailboxOwnershipError, ProcessKilled

if TYPE_CHECKING:
    from repro.simulation.kernel import Simulator
    from repro.simulation.process import Process


@dataclass(frozen=True, slots=True)
class Get:
    """Effect: receive the next message from ``mailbox``."""

    mailbox: "Mailbox"


class Mailbox:
    """FIFO message buffer with at most one waiting consumer."""

    def __init__(self, sim: "Simulator", name: str):
        self.sim = sim
        self.name = name
        self._queue: deque[Any] = deque()
        self._waiter: "Process | None" = None
        self._router: Callable[[Any], None] | None = None
        self._wakeup_scheduled = False
        self._sealed = False

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def put(self, message: Any) -> None:
        """Deliver ``message``; wakes the waiting consumer, if any."""
        if self._sealed:
            return
        self._queue.append(message)
        self._maybe_wake()

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def get(self) -> Get:
        """The effect to yield: ``msg = yield mailbox.get()``."""
        return Get(self)

    def route(self, router: Callable[[Any], None]) -> None:
        """Hand every message to ``router`` in place of a consumer process.

        Each message is routed in its own zero-delay kernel event.  A
        router that raises :class:`ProcessKilled` ends the routing, as the
        exception would end a consumer process; any other exception also
        ends it and propagates to the kernel.
        """
        if self._waiter is not None or self._router is not None:
            raise MailboxOwnershipError(
                f"mailbox {self.name!r} already has a consumer"
            )
        self._router = router
        self._maybe_wake()

    def peek_all(self) -> tuple[Any, ...]:
        """Non-destructive snapshot of buffered messages.

        The warehouse's concurrent-update detection scans its update queue
        without consuming (SWEEP leaves interfering updates queued for their
        own later ViewChange).
        """
        return tuple(self._queue)

    def remove(self, message: Any) -> bool:
        """Remove the first occurrence of ``message`` (identity or equality).

        Nested SWEEP removes absorbed concurrent updates from the queue.
        Returns True when a message was removed.
        """
        for i, queued in enumerate(self._queue):
            if queued is message or queued == message:
                del self._queue[i]
                return True
        return False

    def __len__(self) -> int:
        return len(self._queue)

    def seal(self) -> None:
        """Drop everything queued and discard all future deliveries.

        A killed warehouse member's mailboxes would otherwise keep
        accumulating fanned-out frames and hold the run out of
        quiescence forever; sealing models the process being gone while
        its peers keep sending.
        """
        self._queue.clear()
        self._sealed = True

    @property
    def sealed(self) -> bool:
        return self._sealed

    # ------------------------------------------------------------------
    # Kernel plumbing
    # ------------------------------------------------------------------
    def _register_waiter(self, process: "Process") -> None:
        if self._router is not None:
            raise MailboxOwnershipError(
                f"mailbox {self.name!r} is routed; {process.name!r} cannot wait"
            )
        if self._waiter is not None and self._waiter is not process:
            raise MailboxOwnershipError(
                f"mailbox {self.name!r} already has waiter"
                f" {self._waiter.name!r}; {process.name!r} cannot wait too"
            )
        self._waiter = process
        self._maybe_wake()

    def _maybe_wake(self) -> None:
        if (
            (self._waiter is None and self._router is None)
            or not self._queue
            or self._wakeup_scheduled
        ):
            return
        self._wakeup_scheduled = True
        self.sim.schedule(0.0, self._deliver)

    def _deliver(self) -> None:
        if self._router is not None:
            self._route_one()
            return
        self._wakeup_scheduled = False
        if self._waiter is None or not self._queue:
            return
        process = self._waiter
        self._waiter = None
        message = self._queue.popleft()
        process.resume(message)

    def _route_one(self) -> None:
        # Until the router returns the wake-up counts as scheduled, as it
        # would while a woken consumer runs: a put it makes here queues
        # behind the wake-up scheduled below.
        try:
            if self._queue:
                self._router(self._queue.popleft())
        except ProcessKilled:
            self._router = None
        except BaseException:
            self._router = None
            raise
        finally:
            self._wakeup_scheduled = False
        self._maybe_wake()

    def __repr__(self) -> str:
        waiting = f", waiter={self._waiter.name!r}" if self._waiter else ""
        return f"Mailbox({self.name!r}, {len(self._queue)} queued{waiting})"


__all__ = ["Get", "Mailbox"]
