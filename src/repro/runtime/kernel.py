"""AsyncRuntime: the simulation kernel interface over a real event loop.

The protocol stack never talks to the :class:`~repro.simulation.kernel.
Simulator` class itself -- only to a four-method contract: ``now``,
``schedule``, ``schedule_at`` and ``spawn``.  :class:`AsyncRuntime`
implements that same contract on top of asyncio's wall clock, so the
*unchanged* generator processes (:class:`~repro.simulation.process.Process`),
mailboxes (:class:`~repro.simulation.mailbox.Mailbox`) and every warehouse
algorithm run over real time and real transports with zero forks.

Time is kept in the simulator's *virtual units*: ``time_scale`` is the
number of wall seconds one virtual unit takes, so a workload generated for
the simulator (commit times, service times) replays at a configurable real
speed and the metrics (install delay, staleness) remain in the same units
as simulator runs.

The runtime keeps its own schedule.  Kernel timers live on one heap with
one loop timer armed at the earliest deadline; when it fires, every
kernel timer due by then runs, and then the zero-delay ready queue, in the
same loop turn.  :func:`run` is how the program builds its loop: on
Linux an :class:`OnTimeSelector`, because epoll cannot wake before a whole
millisecond and would make every kernel timer late by half of one.
"""

from __future__ import annotations

import asyncio
import heapq
import select
import selectors
from collections import deque
from collections.abc import Callable, Coroutine, Generator
from typing import Any, TypeVar

from repro.formats.errors import QuiescenceTimeout
from repro.simulation.process import Process

#: Zero-delay callbacks one ``_pump`` call may run before it hands the loop
#: back, so timers, sockets and ``wait_until`` run between slices however
#: long the ready queue keeps refilling itself.
_PUMP_SLICE = 256

#: glibc's ``FD_SETSIZE``: ``select(2)`` cannot wait on a descriptor
#: numbered this high or higher.
_FD_SETSIZE = 1024

T = TypeVar("T")


class _OnTimeEpoll:
    """An epoll object whose ``poll`` waits with microsecond resolution.

    ``EpollSelector.select`` rounds a positive timeout up to a whole
    millisecond before it calls ``poll``; :class:`OnTimeSelector` leaves
    the unrounded one in ``wait``.  That wait is spent in ``select(2)`` on
    the epoll descriptor itself, which is readable once an event is ready,
    and the events are then collected without blocking.  A descriptor too
    high for ``select(2)`` keeps epoll's own millisecond wait.
    """

    def __init__(self) -> None:
        epoll = select.epoll()
        self.fd = epoll.fileno()
        self.fileno = epoll.fileno
        self.register = epoll.register
        self.modify = epoll.modify
        self.unregister = epoll.unregister
        self.close = epoll.close
        self._poll = epoll.poll
        self.on_time = self.fd < _FD_SETSIZE
        #: the timeout of the ``select`` in progress, unrounded
        self.wait: float | None = None

    def poll(self, timeout: float = -1, maxevents: int = -1) -> list:
        if timeout > 0 and self.on_time:
            select.select((self.fd,), (), (), self.wait)
            timeout = 0
        return self._poll(timeout, maxevents)


class OnTimeSelector(selectors.DefaultSelector):
    """The epoll selector, waking when the loop's earliest timer is due.

    ``epoll_wait`` counts its timeout in whole milliseconds, so the stock
    selector wakes up to 1 ms after the deadline asyncio asked for.  The
    wait still happens inside ``super().select`` (what observes the loop
    from outside, such as a tracer wrapping ``DefaultSelector.select``,
    sees an ordinary selector), only with microsecond resolution.
    Used only where ``DefaultSelector`` is epoll; see :func:`new_event_loop`.
    """

    _selector_cls = _OnTimeEpoll

    def select(self, timeout: float | None = None) -> list:
        self._selector.wait = timeout
        return super().select(timeout)


def new_event_loop() -> asyncio.AbstractEventLoop:
    """A fresh event loop on the :class:`OnTimeSelector` where the
    platform's selector is epoll, else the platform's own loop (kqueue
    already counts its timeouts in nanoseconds)."""
    if selectors.DefaultSelector is getattr(selectors, "EpollSelector", None):
        return asyncio.SelectorEventLoop(OnTimeSelector())
    return asyncio.new_event_loop()


def run(coro: Coroutine[Any, Any, T]) -> T:
    """Run ``coro`` to completion on a fresh :func:`new_event_loop`.

    The program's one way to own a loop (``asyncio.run`` with the loop
    chosen here): on return or failure, leftover tasks are cancelled,
    async generators and the default executor are shut down and the loop
    is closed.
    """
    loop = new_event_loop()
    try:
        asyncio.set_event_loop(loop)
        return loop.run_until_complete(coro)
    finally:
        try:
            _cancel_all_tasks(loop)
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            asyncio.set_event_loop(None)
            loop.close()


def _cancel_all_tasks(loop: asyncio.AbstractEventLoop) -> None:
    """Cancel the tasks left on ``loop`` and let them finish, reporting
    any that failed (what ``asyncio.run`` does on its way out)."""
    pending = asyncio.all_tasks(loop)
    for task in pending:
        task.cancel()
    if not pending:
        return
    loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
    for task in pending:
        if not task.cancelled() and task.exception() is not None:
            loop.call_exception_handler(
                {
                    "message": "unhandled exception during shutdown",
                    "exception": task.exception(),
                    "task": task,
                }
            )


class AsyncRuntime:
    """Drop-in kernel for the protocol stack, backed by an asyncio loop.

    Must be constructed inside a running event loop (transports and
    processes are loop-bound); any loop works, :func:`run`'s keeps time
    best.  ``time_scale`` converts virtual time units to wall seconds
    (``0.01`` replays a simulator workload at 100 units/s).
    """

    def __init__(self, time_scale: float = 1.0):
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        self.time_scale = float(time_scale)
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()
        self._processes: list[Process] = []
        self._tasks: list[asyncio.Task] = []
        self._failures: list[BaseException] = []
        #: resolved by the first recorded failure
        self._failed: asyncio.Future = self._loop.create_future()
        #: reasons the runtime cannot be quiescent yet: kernel timers that
        #: have not fired plus caller-declared :meth:`hold`s
        self._holds = 0
        #: what a parked ``wait_until`` sleeps on; resolved (and dropped)
        #: when holds reach 0
        self._released: asyncio.Future | None = None
        self._events_executed = 0
        self._closed = False
        self._ready: deque[Callable[[], None]] = deque()
        self._pump_armed = False
        #: kernel timers: (wall deadline, arming order, callback)
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._timer_seq = 0
        #: the one loop timer, armed at the earliest kernel deadline
        self._alarm: asyncio.TimerHandle | None = None
        self._alarm_at = 0.0
        #: number of the kernel callback running now (0: none is)
        self.current_event = 0

    # ------------------------------------------------------------------
    # The kernel contract (duck-type of Simulator)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Wall time elapsed since construction, in virtual units."""
        return (self._loop.time() - self._t0) / self.time_scale

    @property
    def events_executed(self) -> int:
        """Scheduled callbacks fired so far (parity with the simulator)."""
        return self._events_executed

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` virtual units of wall time.

        Zero-delay callbacks (process starts, mailbox wake-ups -- the hot
        path) go on a FIFO ready queue that one loop callback runs to
        completion, so a message's whole causal chain costs one loop turn
        instead of one turn per hop.  Later ones are kernel timers.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        if delay == 0:
            self._ready.append(callback)
            if not self._pump_armed:
                self._pump_armed = True
                self._loop.call_soon(self._pump)
        else:
            self._add_timer(self._loop.time() + delay * self.time_scale, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute virtual ``time`` (clamped to now).

        Timers due at one virtual instant share one wall deadline.
        """
        if time > self.now:
            self._add_timer(self._t0 + time * self.time_scale, callback)
        else:
            self.schedule(0.0, callback)

    def spawn(self, name: str, generator: Generator) -> Process:
        """Host an unchanged simulation process on the event loop."""
        process = Process(self, name, generator)
        self._processes.append(process)
        self.schedule(0.0, process.start)
        return process

    @property
    def processes(self) -> tuple[Process, ...]:
        """Every process ever spawned on this runtime."""
        return tuple(self._processes)

    # ------------------------------------------------------------------
    # Async-native extensions
    # ------------------------------------------------------------------
    def create_task(self, coro: Coroutine, name: str = "") -> asyncio.Task:
        """Spawn an async task whose failure fails the whole runtime."""
        task = self._loop.create_task(coro, name=name)
        task.add_done_callback(self._on_task_done)
        self._tasks.append(task)
        return task

    async def sleep(self, duration: float) -> None:
        """Sleep ``duration`` virtual units of wall time on a kernel timer
        (so the quiescence waiter stays parked meanwhile)."""
        woke = self._loop.create_future()

        def wake() -> None:
            if not woke.done():  # a cancelled sleeper's future already is
                woke.set_result(None)

        self.schedule(duration, wake)
        await woke

    def record_failure(self, exc: BaseException) -> None:
        """Register a fatal error; ``wait_until``/``check`` re-raise it."""
        self._failures.append(exc)
        if not self._failed.done():
            self._failed.set_result(None)

    def check(self) -> None:
        """Raise the first recorded failure, if any."""
        if self._failures:
            raise self._failures[0]

    async def until_failure(
        self, *wakers: asyncio.Future, timeout: float | None = None
    ) -> None:
        """Sleep until a failure is recorded, then raise it.

        The wait is one ``asyncio.wait`` on the failure signal: an idle
        process makes no wake-up at all, and a failure surfaces within two
        loop turns of being recorded.  Returns without raising when one of
        ``wakers`` completes or ``timeout`` wall seconds pass.
        """
        self.check()
        await asyncio.wait(
            (self._failed, *wakers),
            timeout=timeout,
            return_when=asyncio.FIRST_COMPLETED,
        )
        self.check()

    def hold(self) -> Callable[[], None]:
        """Keep ``wait_until`` parked until the returned release is called.

        For work the caller knows is still to come but the kernel cannot
        see -- a serving site still owed deliveries by remote peers.  A
        kernel timer holds the runtime the same way until it has fired.
        The release is one-shot: calling it again is a no-op, so a double
        release cannot cancel out somebody else's hold.
        """
        self._holds += 1
        spent = False

        def release() -> None:
            nonlocal spent
            if not spent:
                spent = True
                self._release()

        return release

    @property
    def holds(self) -> int:
        """Kernel timers not yet fired plus unreleased :meth:`hold`s."""
        return self._holds

    async def wait_until(
        self,
        predicate: Callable[[], bool],
        timeout: float = 30.0,
        poll: float = 0.005,
        stable_polls: int = 2,
    ) -> None:
        """Wait for quiescence: nothing held and ``predicate`` stable.

        While a kernel timer is outstanding some process is mid-``Delay``
        (a scheduled update still due, a source inside its service time),
        so the runtime is not quiescent whatever ``predicate`` says: the
        waiter parks on "holds reached 0, a failure, or the deadline" and
        costs no loop wake-up.  Only with nothing held -- the drain tail
        after the last scheduled update -- is ``predicate`` polled every
        ``poll`` until it holds ``stable_polls`` times in a row.

        ``timeout`` and ``poll`` are **wall seconds** (deadlines guard real
        hangs, not virtual schedules).  The first failure recorded by any
        process or transport is re-raised within two loop turns.
        """
        deadline = self._loop.time() + timeout
        consecutive = 0
        while True:
            self.check()
            if self._holds:
                consecutive = 0
            elif predicate():
                consecutive += 1
                if consecutive >= stable_polls:
                    return
            else:
                consecutive = 0
            remaining = deadline - self._loop.time()
            if remaining <= 0:
                blocked = ", ".join(p.name for p in self.blocked_processes())
                raise QuiescenceTimeout(
                    f"not quiescent after {timeout}s: {self._holds} timer(s)"
                    f" or hold(s) outstanding, blocked processes:"
                    f" {blocked or 'none'}"
                )
            if self._holds:
                if self._released is None:
                    self._released = self._loop.create_future()
                await self.until_failure(self._released, timeout=remaining)
            else:
                await asyncio.sleep(poll)

    def blocked_processes(self) -> list[Process]:
        """Processes currently waiting on a mailbox (diagnostics)."""
        return [p for p in self._processes if p.is_blocked]

    def settled(self) -> bool:
        """True when every process has either finished or awaits a mailbox
        and no zero-delay callback is waiting to run.

        A process mid-``Delay`` (e.g. a pending scheduled update or a
        source still inside its service time) keeps the runtime unsettled.
        """
        return not self._ready and all(
            p.finished or p.is_blocked for p in self._processes
        )

    async def aclose(self) -> None:
        """Cancel every runtime-owned task (idempotent)."""
        self._closed = True
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()

    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Run ready callbacks FIFO, including ones they enqueue."""
        ready = self._ready
        budget = _PUMP_SLICE
        while ready and budget:
            budget -= 1
            self._guarded(ready.popleft())
        self.current_event = 0
        if ready:
            self._loop.call_soon(self._pump)
        else:
            self._pump_armed = False

    def _add_timer(self, deadline: float, callback: Callable[[], None]) -> None:
        self._holds += 1
        self._timer_seq += 1
        heapq.heappush(self._timers, (deadline, self._timer_seq, callback))
        if self._alarm is None or deadline < self._alarm_at:
            self._arm()

    def _arm(self) -> None:
        """Point the one loop timer at the earliest kernel deadline."""
        if self._alarm is not None:
            self._alarm.cancel()
        self._alarm_at = self._timers[0][0]
        self._alarm = self._loop.call_at(self._alarm_at, self._fire_timers)

    def _fire_timers(self) -> None:
        """Run every kernel timer due by now, then the ready queue.

        Zero-delay callbacks the timers schedule wait until the last due
        timer has run: a burst committed at one instant is all delivered
        before anything reacts to it (batched SWEEP sees the whole burst).
        """
        timers = self._timers
        due = max(self._loop.time(), self._alarm_at)
        self._alarm = None
        pump_pending = self._pump_armed
        self._pump_armed = True
        while timers and timers[0][0] <= due:
            callback = heapq.heappop(timers)[2]
            # Released after the callback: a process that delays again
            # re-arms first, so back-to-back ``Delay``s never read as
            # "nothing held".
            self._guarded(callback)
            self._release()
        if timers and (self._alarm is None or timers[0][0] < self._alarm_at):
            self._arm()
        if pump_pending:
            self.current_event = 0
        else:
            self._pump()

    def _release(self) -> None:
        self._holds -= 1
        if not self._holds and self._released is not None:
            self._released.set_result(None)
            self._released = None

    def _guarded(self, callback: Callable[[], None]) -> None:
        self.current_event = self._events_executed = self._events_executed + 1
        try:
            callback()
        except BaseException as exc:  # noqa: BLE001 - re-raised via check()
            self.record_failure(exc)

    def _on_task_done(self, task: asyncio.Task) -> None:
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            self.record_failure(exc)

    def __repr__(self) -> str:
        return (
            f"AsyncRuntime(now={self.now:.3f}, scale={self.time_scale},"
            f" processes={len(self._processes)}, tasks={len(self._tasks)})"
        )


__all__ = ["AsyncRuntime", "OnTimeSelector", "new_event_loop", "run"]
