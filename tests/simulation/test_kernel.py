"""Unit tests for the simulator core: clock, events, processes."""

import pytest

from repro.simulation.errors import (
    DeadProcessError,
    MailboxOwnershipError,
    ProcessKilled,
    SimulationError,
    StalledSimulationError,
)
from repro.simulation.events import EventQueue
from repro.simulation.kernel import Simulator
from repro.simulation.mailbox import Mailbox
from repro.simulation.process import Delay


class TestEventQueue:
    def test_ordering_by_time(self):
        q = EventQueue()
        fired = []
        q.push(2.0, lambda: fired.append("b"))
        q.push(1.0, lambda: fired.append("a"))
        while (e := q.pop()) is not None:
            e.callback()
        assert fired == ["a", "b"]

    def test_fifo_at_equal_time(self):
        q = EventQueue()
        fired = []
        for i in range(5):
            q.push(1.0, lambda i=i: fired.append(i))
        while (e := q.pop()) is not None:
            e.callback()
        assert fired == [0, 1, 2, 3, 4]

    def test_cancellation(self):
        q = EventQueue()
        e = q.push(1.0, lambda: None)
        e.cancel()
        assert q.pop() is None
        assert len(q) == 0
        assert not q

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        e = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        e.cancel()
        assert q.peek_time() == 2.0


class TestSchedule:
    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(5.0, lambda: times.append(sim.now))
        sim.schedule(1.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0, 5.0]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule_at(0.5, lambda: None))
        with pytest.raises(ValueError):
            sim.run()

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [2.0]

    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_run_for(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(sim.now))
        sim.run_for(2.0)
        assert fired == []
        sim.run_for(2.0)
        assert fired == [3.0]

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(1.0, rearm)
        with pytest.raises(StalledSimulationError):
            sim.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_events_executed_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_executed == 2


class TestProcesses:
    def test_delay_effect(self):
        sim = Simulator()
        trace = []

        def body():
            trace.append(sim.now)
            yield Delay(3.0)
            trace.append(sim.now)

        sim.spawn("p", body())
        sim.run()
        assert trace == [0.0, 3.0]

    def test_mailbox_get_blocks_until_put(self):
        sim = Simulator()
        box = Mailbox(sim, "box")
        got = []

        def consumer():
            msg = yield box.get()
            got.append((sim.now, msg))

        sim.spawn("c", consumer())
        sim.schedule(4.0, lambda: box.put("hello"))
        sim.run()
        assert got == [(4.0, "hello")]

    def test_buffered_message_consumed_immediately(self):
        sim = Simulator()
        box = Mailbox(sim, "box")
        box.put("early")
        got = []

        def consumer():
            got.append((yield box.get()))

        sim.spawn("c", consumer())
        sim.run()
        assert got == ["early"]

    def test_messages_fifo(self):
        sim = Simulator()
        box = Mailbox(sim, "box")
        got = []

        def consumer():
            for _ in range(3):
                got.append((yield box.get()))

        sim.spawn("c", consumer())
        for i in range(3):
            box.put(i)
        sim.run()
        assert got == [0, 1, 2]

    def test_yield_from_subprotocol(self):
        sim = Simulator()
        box = Mailbox(sim, "box")
        out = []

        def helper():
            msg = yield box.get()
            return msg * 2

        def main():
            value = yield from helper()
            out.append(value)

        sim.spawn("m", main())
        box.put(21)
        sim.run()
        assert out == [42]

    def test_process_exception_propagates(self):
        sim = Simulator()

        def bad():
            yield Delay(1.0)
            raise RuntimeError("boom")

        p = sim.spawn("bad", bad())
        with pytest.raises(RuntimeError):
            sim.run()
        assert p.finished
        assert isinstance(p.failed, RuntimeError)

    def test_unsupported_effect(self):
        sim = Simulator()

        def weird():
            yield "not-an-effect"

        p = sim.spawn("w", weird())
        with pytest.raises(SimulationError):
            sim.run()
        assert p.finished

    def test_resume_dead_process_rejected(self):
        sim = Simulator()

        def quick():
            return
            yield  # pragma: no cover

        p = sim.spawn("q", quick())
        sim.run()
        assert p.finished
        with pytest.raises(DeadProcessError):
            p.resume(None)

    def test_blocked_processes_listed(self):
        sim = Simulator()
        box = Mailbox(sim, "box")

        def waiter():
            yield box.get()

        p = sim.spawn("w", waiter())
        sim.run()
        assert p.is_blocked
        assert sim.blocked_processes() == [p]
        assert "blocked" in repr(p)

    def test_two_processes_interleave_deterministically(self):
        sim = Simulator()
        order = []

        def worker(name, delay):
            for _ in range(3):
                yield Delay(delay)
                order.append((name, sim.now))

        sim.spawn("a", worker("a", 2.0))
        sim.spawn("b", worker("b", 3.0))
        sim.run()
        assert order == [
            # at t=6.0 both are due; "b" scheduled its wakeup first (at t=3)
            ("a", 2.0), ("b", 3.0), ("a", 4.0), ("b", 6.0), ("a", 6.0), ("b", 9.0),
        ]

    def test_negative_delay_effect_rejected(self):
        with pytest.raises(ValueError):
            Delay(-1.0)


class TestRoutedMailbox:
    """A router takes a consumer process's place at no generator resume:
    one message per zero-delay event, where the consumer would have been
    woken."""

    def _order(self, consume):
        """Events of a run where two producers put at one instant and a
        third event is scheduled between the puts."""
        sim = Simulator()
        box = Mailbox(sim, "box")
        order = []
        consume(sim, box, order)

        def produce():
            box.put("a")
            sim.schedule(0.0, lambda: order.append("other"))
            box.put("b")

        sim.schedule(1.0, produce)
        sim.run()
        return order

    def test_routes_in_the_order_a_consumer_process_would_receive(self):
        def process(sim, box, order):
            def consumer():
                while True:
                    order.append((yield box.get()))

            sim.spawn("c", consumer())

        def router(sim, box, order):
            box.route(order.append)

        assert self._order(router) == self._order(process) == [
            "a", "other", "b",
        ]

    def test_process_killed_ends_the_routing_only(self):
        sim = Simulator()
        box = Mailbox(sim, "box")
        routed = []

        def router(message):
            if message == "kill":
                raise ProcessKilled("router")
            routed.append(message)

        box.route(router)
        for message in ("a", "kill", "b"):
            box.put(message)
        sim.run()
        assert routed == ["a"]
        assert len(box) == 1  # "b" stays queued, as at a dead consumer

    def test_a_routed_mailbox_has_no_other_consumer(self):
        sim = Simulator()
        box = Mailbox(sim, "box")
        box.route(lambda message: None)
        with pytest.raises(MailboxOwnershipError):
            box.route(lambda message: None)

        def consumer():
            yield box.get()

        sim.spawn("c", consumer())
        with pytest.raises(MailboxOwnershipError, match="routed"):
            sim.run()
