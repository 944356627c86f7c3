"""AsyncRuntime drives unchanged simulation processes over a real loop."""

import asyncio
import selectors
import statistics
import time

import pytest

from repro.consistency.oracle import RunRecorder
from repro.relational.delta import Delta
from repro.runtime import AsyncRuntime, QuiescenceTimeout
from repro.runtime import kernel
from repro.runtime.kernel import _PUMP_SLICE, OnTimeSelector, run
from repro.runtime.nodes import hold_until_delivered
from repro.simulation.mailbox import Mailbox
from repro.simulation.process import Delay
from repro.sources.messages import UpdateNotice

from .loop_spy import LoopSpy


def test_requires_running_loop():
    with pytest.raises(RuntimeError):
        AsyncRuntime()


def test_rejects_nonpositive_time_scale():
    async def main():
        AsyncRuntime(time_scale=0.0)

    with pytest.raises(ValueError):
        run(main())


def test_drives_generator_process_with_delay_and_mailbox():
    """The simulator's process vocabulary (Delay/Get) works verbatim."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        box = Mailbox(runtime, "box")
        log = []

        def consumer():
            yield Delay(5.0)
            log.append(("woke", round(runtime.now)))
            msg = yield box.get()
            log.append(("got", msg))
            msg = yield box.get()
            log.append(("got", msg))

        process = runtime.spawn("consumer", consumer())
        box.put("a")
        await runtime.sleep(6.0)
        box.put("b")
        await runtime.wait_until(lambda: process.finished, timeout=5.0)
        await runtime.aclose()
        return log

    log = run(main())
    assert log[0][0] == "woke" and log[0][1] >= 5
    assert log[1:] == [("got", "a"), ("got", "b")]


def test_now_advances_in_virtual_units():
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        await runtime.sleep(10.0)
        return runtime.now

    now = run(main())
    assert 10.0 <= now < 100.0  # ~10 virtual units, generous upper bound


def test_scheduled_callback_failure_surfaces_in_wait_until():
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)

        def boom():
            raise RuntimeError("scheduled failure")

        runtime.schedule(0.0, boom)
        await runtime.wait_until(lambda: False, timeout=5.0)

    with pytest.raises(RuntimeError, match="scheduled failure"):
        run(main())


def test_process_failure_surfaces_in_wait_until():
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)

        def bad():
            yield Delay(0.1)
            raise ValueError("process failure")

        runtime.spawn("bad", bad())
        await runtime.wait_until(lambda: False, timeout=5.0)

    with pytest.raises(ValueError, match="process failure"):
        run(main())


def test_wait_until_timeout_raises_quiescence_timeout():
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        await runtime.wait_until(lambda: False, timeout=0.05)

    with pytest.raises(QuiescenceTimeout):
        run(main())


def test_settled_tracks_blocked_and_finished_processes():
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        box = Mailbox(runtime, "box")

        def waiter():
            yield box.get()

        process = runtime.spawn("waiter", waiter())
        await runtime.wait_until(runtime.settled, timeout=5.0)
        blocked = [p.name for p in runtime.blocked_processes()]
        box.put("done")
        await runtime.wait_until(lambda: process.finished, timeout=5.0)
        return blocked, runtime.settled()

    blocked, settled = run(main())
    assert blocked == ["waiter"]
    assert settled


def test_schedule_rejects_negative_delay():
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        with pytest.raises(ValueError):
            runtime.schedule(-1.0, lambda: None)

    run(main())


# ---------------------------------------------------------------------------
# The zero-delay ready queue (one loop callback pumps it to completion)
# ---------------------------------------------------------------------------

def test_zero_delay_chain_runs_before_later_loop_callbacks():
    """``a`` schedules ``b``: both run inside the pump's one loop turn,
    ahead of a ``call_soon`` queued after ``a`` was scheduled."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        order = []

        def a():
            order.append("a")
            runtime.schedule(0.0, lambda: order.append("b"))

        runtime.schedule(0.0, a)
        asyncio.get_running_loop().call_soon(order.append, "marker")
        assert not runtime.settled()  # ready queue non-empty
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        return order, runtime.settled(), runtime.events_executed

    order, settled, executed = run(main())
    assert order == ["a", "b", "marker"]
    assert settled
    assert executed == 2


def test_pump_slice_keeps_tasks_and_timers_running():
    """A callback that re-schedules itself forever yields the loop every
    ``_PUMP_SLICE`` callbacks: other tasks and timers still make progress."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        spins = 0
        stop = False
        timer_fired = asyncio.Event()

        def spin():
            nonlocal spins
            spins += 1
            if not stop:
                runtime.schedule(0.0, spin)

        async def ticker():
            seen = []
            for _ in range(5):
                await asyncio.sleep(0)
                seen.append(spins)
            return seen

        runtime.schedule(0.0, spin)
        runtime.schedule(0.001, timer_fired.set)
        seen = await asyncio.wait_for(ticker(), timeout=5.0)
        await asyncio.wait_for(timer_fired.wait(), timeout=5.0)
        stop = True
        await runtime.wait_until(runtime.settled, timeout=5.0)
        return seen

    seen = run(main())
    gaps = [b - a for a, b in zip(seen, seen[1:])]
    assert gaps and all(0 < gap <= _PUMP_SLICE for gap in gaps)


def test_raising_callback_is_recorded_once_and_does_not_stop_the_pump():
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        ran = []

        def boom():
            raise RuntimeError("pump failure")

        runtime.schedule(0.0, lambda: ran.append("before"))
        runtime.schedule(0.0, boom)
        runtime.schedule(0.0, lambda: ran.append("after"))
        await asyncio.sleep(0)
        assert ran == ["before", "after"]
        assert len(runtime._failures) == 1
        assert runtime.events_executed == 3
        runtime.check()

    with pytest.raises(RuntimeError, match="pump failure"):
        run(main())


# ---------------------------------------------------------------------------
# The tickless quiescence waiter: parked while anything is held
# ---------------------------------------------------------------------------

def test_waiter_parks_while_a_kernel_timer_is_outstanding():
    """300 ms mid-``Delay``: the waiter arms its deadline once and the loop
    turns for the timer, not 60 times for a 5 ms poll."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        polled = []

        def sleeper():
            yield Delay(300.0)

        process = runtime.spawn("sleeper", sleeper())

        def finished():
            polled.append(runtime.holds)
            return process.finished

        await asyncio.sleep(0)  # the process starts and arms its Delay
        assert runtime.holds == 1 and not runtime.settled()
        spy = LoopSpy()
        await runtime.wait_until(finished, timeout=5.0)
        return spy.turns, len(spy.timers), polled

    turns, timers, polled = run(main())
    assert polled == [0, 0]  # evaluated only with nothing held, twice stable
    assert timers == 2  # the park's deadline + one confirmation sleep
    assert turns <= 6


def test_hold_parks_the_waiter_until_released():
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        loop = asyncio.get_running_loop()
        release = runtime.hold()
        started = loop.time()
        loop.call_later(0.1, release)
        spy = LoopSpy()
        await runtime.wait_until(lambda: True, timeout=5.0, stable_polls=1)
        return loop.time() - started, runtime.holds, spy.turns

    elapsed, holds, turns = run(main())
    assert elapsed >= 0.1
    assert holds == 0
    assert turns <= 4


def test_double_release_cannot_cancel_an_outstanding_timer():
    """A release is one-shot: a second call must not drive ``holds``
    negative, or the next kernel timer would bring it back to 0 and the
    waiter would confirm quiescence with a ``Delay`` outstanding."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        woke = []

        def sleeper():
            yield Delay(50.0)  # 50 ms of wall time
            woke.append(runtime.now)

        release = runtime.hold()
        release()
        release()
        held = [runtime.holds]
        runtime.spawn("sleeper", sleeper())
        await asyncio.sleep(0)  # the process starts and arms its timer
        held.append(runtime.holds)
        waiter = asyncio.ensure_future(
            runtime.wait_until(lambda: True, timeout=5.0, stable_polls=1)
        )
        await asyncio.sleep(0.02)
        parked = (not waiter.done(), list(woke))
        await waiter
        return held, parked, len(woke), runtime.holds

    assert run(main()) == ([0, 1], (True, []), 1, 0)


def test_runtime_sleep_is_a_kernel_timer():
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        task = asyncio.ensure_future(runtime.sleep(50.0))
        await asyncio.sleep(0)
        held = runtime.holds
        await runtime.wait_until(lambda: True, timeout=5.0, stable_polls=1)
        return held, task.done(), runtime.holds

    assert run(main()) == (1, True, 0)


def test_failure_while_parked_surfaces_at_once_not_at_the_timeout():
    """The failing process is not the one the waiter is parked behind."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        spy = LoopSpy()
        failed_at = []

        def long_sleeper():
            yield Delay(20_000.0)

        def bad():
            yield Delay(50.0)
            failed_at.append(spy.turns)
            raise ValueError("failure while parked")

        runtime.spawn("long-sleeper", long_sleeper())
        runtime.spawn("bad", bad())
        started = spy.loop.time()
        try:
            await runtime.wait_until(runtime.settled, timeout=20.0)
        except ValueError:
            return spy.turns - failed_at[0], spy.loop.time() - started
        return None

    turns_after_failure, elapsed = run(main())
    # one turn for the failure signal's callback, one for the waiter's task
    assert turns_after_failure <= 2
    assert elapsed < 1.0


def test_until_failure_raises_the_failure_and_returns_on_a_waker():
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        loop = asyncio.get_running_loop()
        waker = loop.create_future()
        loop.call_later(0.02, waker.set_result, None)
        await runtime.until_failure(waker)  # returns: no failure
        await runtime.until_failure(timeout=0.01)  # returns: timed out
        spy = LoopSpy()
        loop.call_later(0.05, runtime.record_failure, RuntimeError("late"))
        try:
            await runtime.until_failure()
        except RuntimeError:
            return spy.turns, len(spy.timers)
        return None

    turns, timers = run(main())
    assert timers == 1  # the test's own call_later; the wait armed none
    assert turns <= 4


def test_never_finishing_updater_times_out_at_the_deadline_naming_the_blocked():
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        box = Mailbox(runtime, "box")

        def stuck_consumer():
            yield box.get()

        def endless_updater():
            while True:
                yield Delay(40.0)

        runtime.spawn("stuck-consumer", stuck_consumer())
        runtime.spawn("endless-updater", endless_updater())
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            await runtime.wait_until(runtime.settled, timeout=0.3)
        except QuiescenceTimeout as exc:
            return loop.time() - started, str(exc)
        return None

    elapsed, message = run(main())
    assert 0.3 <= elapsed <= 0.35
    assert "stuck-consumer" in message
    assert "1 timer(s)" in message


def test_hold_until_delivered_releases_at_the_target_delivery(paper_view):
    """A site without an updater is parked by its delivery count: the
    recorder's hook releases the hold at the target, later deliveries
    and an already-reached target hold nothing."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        recorder = RunRecorder(paper_view)
        hold_until_delivered(runtime, recorder, 3)
        held = [runtime.holds]
        for seq in range(1, 5):
            recorder.on_delivery(
                UpdateNotice(1, seq, Delta(paper_view.schema_of(1)), float(seq))
            )
            held.append(runtime.holds)
        hold_until_delivered(runtime, recorder, 4)  # already there
        held.append(runtime.holds)
        return held, recorder.updates_delivered

    held, delivered = run(main())
    assert held == [1, 1, 1, 0, 0, 0]
    assert delivered == 4


# ---------------------------------------------------------------------------
# Keeping time: one timer heap, a selector that wakes when asked
# ---------------------------------------------------------------------------

def _median_wait_ms(selector, timeout, tries=21):
    waits = []
    for _ in range(tries):
        started = time.perf_counter()
        selector.select(timeout)
        waits.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(waits), min(waits)


epoll_only = pytest.mark.skipif(
    selectors.DefaultSelector is not getattr(selectors, "EpollSelector", None),
    reason="the on-time selector replaces epoll only",
)


@epoll_only
def test_the_runtimes_selector_wakes_when_asked_not_on_the_next_millisecond():
    """epoll counts its timeout in whole milliseconds: a 0.2 ms select on
    the stock selector waits at least 1 ms.  The loop :func:`run` builds
    waits about what it was asked to."""

    async def main():
        return asyncio.get_running_loop()._selector

    loop_selector = run(main())
    assert isinstance(loop_selector, OnTimeSelector)
    with OnTimeSelector() as selector:
        median, _ = _median_wait_ms(selector, 0.0002)
    assert median < 0.8


@epoll_only
def test_a_descriptor_select_cannot_hold_keeps_epolls_wait(monkeypatch):
    monkeypatch.setattr(kernel, "_FD_SETSIZE", 0)
    with OnTimeSelector() as selector:
        _, shortest = _median_wait_ms(selector, 0.0002, tries=5)
    assert shortest >= 0.9


@epoll_only
def test_the_on_time_wait_happens_inside_the_default_selectors_select(
    monkeypatch,
):
    """What wraps ``DefaultSelector.select`` (a tracer setting idle time
    apart) still sees the whole wait."""
    inside = []
    select = selectors.DefaultSelector.select

    def timed(self, timeout=None):
        started = time.perf_counter()
        try:
            return select(self, timeout)
        finally:
            inside.append(time.perf_counter() - started)

    monkeypatch.setattr(selectors.DefaultSelector, "select", timed)
    with OnTimeSelector() as selector:
        selector.select(0.003)
    assert inside and inside[0] >= 0.003


def test_a_platform_selector_other_than_epoll_is_used_as_it_is(monkeypatch):
    monkeypatch.setattr(selectors, "DefaultSelector", selectors.SelectSelector)

    async def main():
        return type(asyncio.get_running_loop()._selector)

    assert run(main()) is selectors.SelectSelector


def test_timers_due_at_one_instant_all_run_before_what_they_schedule():
    """A burst committed at one instant: every due timer runs, then the
    zero-delay callbacks they scheduled, and the loop armed one timer
    for the three."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        order = []

        def timer(name):
            def fire():
                order.append(name)
                runtime.schedule(0.0, lambda: order.append(name.upper()))

            return fire

        spy = LoopSpy()
        for name in "abc":
            runtime.schedule_at(5.0, timer(name))
        await runtime.wait_until(lambda: len(order) == 6, timeout=5.0)
        armed = [cb for cb in spy.timers if cb == runtime._fire_timers]
        return order, len(armed), runtime.holds

    order, armed, holds = run(main())
    assert order == ["a", "b", "c", "A", "B", "C"]
    assert armed == 1
    assert holds == 0


def test_an_earlier_timer_rearms_the_one_loop_timer():
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        order = []
        runtime.schedule(40.0, lambda: order.append("late"))
        runtime.schedule(10.0, lambda: order.append("early"))
        runtime.schedule(10.0, lambda: order.append("early, second"))
        await runtime.wait_until(lambda: len(order) == 3, timeout=5.0)
        return order

    assert run(main()) == ["early", "early, second", "late"]


def test_the_runtime_keeps_working_on_a_callers_own_loop():
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        box = Mailbox(runtime, "box")
        got = []

        def consumer():
            yield Delay(5.0)
            got.append((yield box.get()))

        process = runtime.spawn("consumer", consumer())
        box.put("a")
        await runtime.wait_until(lambda: process.finished, timeout=5.0)
        return got, runtime.holds

    assert asyncio.run(main()) == (["a"], 0)
