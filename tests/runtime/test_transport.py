"""Transport guarantees: FIFO order, backpressure, flush — both transports."""

import asyncio

import pytest

from repro.harness.config import ExperimentConfig
from repro.relational.delta import Delta
from repro.runtime import (
    AsyncRuntime,
    ChannelListener,
    LocalChannel,
    TcpChannel,
    TcpChannelConfig,
    TransportOverflowError,
    WireCodec,
    run_distributed,
)
from repro.runtime.kernel import run
from repro.simulation.channel import Message
from repro.simulation.mailbox import Mailbox
from repro.simulation.metrics import MetricsCollector
from repro.sources.messages import UpdateNotice

from .loop_spy import LoopSpy


class Sink:
    """Mailbox stand-in that records delivery order."""

    def __init__(self):
        self.items = []

    def put(self, message):
        self.items.append(message)

    def __len__(self):
        return len(self.items)


def make_notice(view, seq):
    """An UpdateNotice whose delta row encodes ``seq`` for order checks."""
    return UpdateNotice(
        source_index=1,
        seq=seq,
        delta=Delta(view.schema_of(1), {(seq, seq): 1}),
        applied_at=float(seq),
    )


def seqs(sink):
    return [m.payload.seq for m in sink.items]


# ---------------------------------------------------------------------------
# LocalChannel
# ---------------------------------------------------------------------------

def test_local_channel_preserves_send_order(paper_view):
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        sink = Sink()
        channel = LocalChannel(runtime, "R1->wh", sink)
        for seq in range(1, 51):
            channel.send(Message("update", "R1", make_notice(paper_view, seq)))
        await channel.flush()
        await runtime.aclose()
        return seqs(sink)

    assert run(main()) == list(range(1, 51))


def test_local_channel_fifo_under_concurrent_senders(paper_view):
    """Interleaved async producers: delivery order == send order."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        sink = Sink()
        channel = LocalChannel(runtime, "R1->wh", sink)
        sent = []

        async def producer(offset):
            for i in range(25):
                seq = offset + i
                sent.append(seq)
                channel.send(
                    Message("update", "R1", make_notice(paper_view, seq))
                )
                await asyncio.sleep(0)  # force interleaving

        await asyncio.gather(producer(100), producer(200), producer(300))
        await channel.flush()
        await runtime.aclose()
        return sent, seqs(sink)

    sent, delivered = run(main())
    assert delivered == sent  # exact send order, not merely per-producer


def test_local_channel_overflow_raises(paper_view):
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        sink = Sink()
        channel = LocalChannel(runtime, "R1->wh", sink, max_queue=4)
        # Saturate without yielding so the delivery task cannot drain.
        with pytest.raises(TransportOverflowError):
            for seq in range(1, 100):
                channel.send(
                    Message("update", "R1", make_notice(paper_view, seq))
                )
        await channel.flush()
        await runtime.aclose()
        return len(sink)

    assert run(main()) == 4  # everything accepted was still delivered


def test_local_channel_drain_paces_producer(paper_view):
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        sink = Sink()
        channel = LocalChannel(runtime, "R1->wh", sink, max_queue=8)
        for seq in range(1, 101):
            await channel.drain()
            channel.send(Message("update", "R1", make_notice(paper_view, seq)))
        await channel.flush()
        await runtime.aclose()
        return seqs(sink)

    assert run(main()) == list(range(1, 101))


def test_local_channel_records_metrics(paper_view):
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        metrics = MetricsCollector()
        channel = LocalChannel(runtime, "R1->wh", Sink(), metrics)
        for seq in range(1, 6):
            channel.send(Message("update", "R1", make_notice(paper_view, seq)))
        await channel.flush()
        await runtime.aclose()
        return metrics

    metrics = run(main())
    assert metrics.messages_total == 5
    assert metrics.messages_of_kind("update") == 5


# ---------------------------------------------------------------------------
# TcpChannel + ChannelListener
# ---------------------------------------------------------------------------

def test_tcp_channel_delivers_in_order(paper_view):
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        codec = WireCodec(paper_view)
        sink = Sink()
        listener = ChannelListener(runtime)
        listener.register("R1->wh", sink, codec)
        await listener.start()
        channel = TcpChannel(
            runtime, "R1->wh", *listener.address, codec
        )
        for seq in range(1, 41):
            channel.send(Message("update", "R1", make_notice(paper_view, seq)))
        await channel.flush()
        await channel.aclose()
        await listener.aclose()
        await runtime.aclose()
        return seqs(sink)

    assert run(main()) == list(range(1, 41))


def test_tcp_fifo_under_concurrent_senders_on_two_channels(paper_view):
    """Two channels into one listener: each keeps its own FIFO order."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        codec = WireCodec(paper_view)
        sink_a, sink_b = Sink(), Sink()
        listener = ChannelListener(runtime)
        listener.register("R1->wh", sink_a, codec)
        listener.register("R2->wh", sink_b, codec)
        await listener.start()
        chan_a = TcpChannel(runtime, "R1->wh", *listener.address, codec)
        chan_b = TcpChannel(runtime, "R2->wh", *listener.address, codec)

        async def produce(channel, offset):
            for i in range(30):
                channel.send(
                    Message("update", "x", make_notice(paper_view, offset + i))
                )
                await asyncio.sleep(0)

        await asyncio.gather(produce(chan_a, 100), produce(chan_b, 500))
        await chan_a.flush()
        await chan_b.flush()
        await chan_a.aclose()
        await chan_b.aclose()
        await listener.aclose()
        await runtime.aclose()
        return seqs(sink_a), seqs(sink_b)

    got_a, got_b = run(main())
    assert got_a == list(range(100, 130))
    assert got_b == list(range(500, 530))


def test_tcp_overflow_raises(paper_view):
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        codec = WireCodec(paper_view)
        config = TcpChannelConfig(max_queue=4)
        # No listener: nothing drains, the bounded window must fill.
        channel = TcpChannel(runtime, "R1->wh", "127.0.0.1", 1, codec, None, config)
        with pytest.raises(TransportOverflowError):
            for seq in range(1, 100):
                channel.send(
                    Message("update", "R1", make_notice(paper_view, seq))
                )
        await channel.aclose()
        await runtime.aclose()

    run(main())


def test_drain_is_woken_by_the_queue_shrinking_not_by_a_clock(paper_view):
    """A producer pacing 100 messages through a window of 8 -- over the
    hand-off and over TCP, where an ack is what shrinks the queue --
    sleeps on the channel's signal: ``drain`` arms no timer at all."""

    async def main(make_channel):
        runtime = AsyncRuntime(time_scale=0.001)
        sink = Sink()
        channel, aclose = await make_channel(runtime, sink)
        spy = LoopSpy()
        armed = 0
        # seq 0 dials and handshakes (TCP arms its one-off timers here)
        channel.send(Message("update", "R1", make_notice(paper_view, 0)))
        await channel.flush()
        waits = 0
        for seq in range(1, 101):
            if channel.queued >= 4:
                waits += 1
            before = len(spy.timers)
            await channel.drain()
            armed += len(spy.timers) - before
            channel.send(Message("update", "R1", make_notice(paper_view, seq)))
        await channel.flush()
        await aclose()
        await runtime.aclose()
        return seqs(sink), waits, armed

    async def local(runtime, sink):
        async def nothing():
            pass

        return LocalChannel(runtime, "R1->wh", sink, max_queue=8), nothing

    async def tcp(runtime, sink):
        codec = WireCodec(paper_view)
        listener = ChannelListener(runtime)
        listener.register("R1->wh", sink, codec)
        await listener.start()
        channel = TcpChannel(
            runtime, "R1->wh", *listener.address, codec, None,
            TcpChannelConfig(max_queue=8),
        )

        async def aclose():
            await channel.aclose()
            await listener.aclose()

        return channel, aclose

    for make_channel in (local, tcp):
        got, waits, armed = run(main(make_channel))
        assert got == list(range(0, 101))
        assert waits > 10  # the producer really was paced
        assert armed == 0


def test_tcp_listener_survives_channel_restart(paper_view):
    """Receiver state is per channel name: a new sender object resumes."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        codec = WireCodec(paper_view)
        sink = Sink()
        listener = ChannelListener(runtime)
        listener.register("R1->wh", sink, codec)
        await listener.start()

        first = TcpChannel(runtime, "R1->wh", *listener.address, codec)
        for seq in (1, 2, 3):
            first.send(Message("update", "R1", make_notice(paper_view, seq)))
        await first.flush()
        await first.aclose()

        second = TcpChannel(runtime, "R1->wh", *listener.address, codec)
        second._next_seq = first._next_seq  # same channel, new connection
        for seq in (4, 5):
            second.send(Message("update", "R1", make_notice(paper_view, seq)))
        await second.flush()
        await second.aclose()
        await listener.aclose()
        await runtime.aclose()
        return seqs(sink), listener.connections_accepted

    got, connections = run(main())
    assert got == [1, 2, 3, 4, 5]
    assert connections == 2


# ---------------------------------------------------------------------------
# LocalChannel is a direct hand-off
# ---------------------------------------------------------------------------

def test_local_channel_send_is_a_direct_handoff(paper_view):
    """When ``send`` returns the message is already in the mailbox,
    stamped; the consumer still wakes through a kernel event, not
    re-entrantly from the sender."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        box = Mailbox(runtime, "wh-inbox")
        got = []

        def consumer():
            while True:
                got.append((yield box.get()))

        runtime.spawn("consumer", consumer())
        await runtime.wait_until(runtime.settled, timeout=5.0)
        channel = LocalChannel(runtime, "R1->wh", box)
        message = Message("update", "R1", make_notice(paper_view, 1))
        channel.send(message)
        at_return = (len(box), list(got), channel.idle, runtime.settled())
        await channel.flush()
        await runtime.aclose()
        return message, at_return, got

    message, (buffered, got_at_return, idle, settled), got = run(main())
    assert buffered == 1 and got_at_return == []
    assert not idle and not settled  # quiescence sees the pending wake-up
    assert message.sent_at is not None
    assert message.delivered_at == message.sent_at
    assert got == [message]


def test_local_fleet_has_no_delivery_tasks(monkeypatch):
    names = []
    original = AsyncRuntime.create_task

    def recording(self, coro, name=""):
        names.append(name)
        return original(self, coro, name)

    monkeypatch.setattr(AsyncRuntime, "create_task", recording)
    config = ExperimentConfig(algorithm="sweep", n_sources=3, n_updates=5, seed=3)
    result = run_distributed(config, transport="local", time_scale=0.001)
    assert result.recorder.updates_delivered == 5
    assert not [name for name in names if name.startswith("deliver:")]
