"""AsyncRuntime drives unchanged simulation processes over a real loop."""

import asyncio

import pytest

from repro.runtime import AsyncRuntime, QuiescenceTimeout
from repro.runtime.kernel import _PUMP_SLICE
from repro.simulation.mailbox import Mailbox
from repro.simulation.process import Delay


def run(coro):
    return asyncio.run(coro)


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
