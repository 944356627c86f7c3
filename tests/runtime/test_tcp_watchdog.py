"""The per-session silence watchdog: ``read_timeout`` without a timer per ack.

``TcpChannel`` used to wrap every ack read in ``asyncio.wait_for`` -- a
task and a timer handle per frame.  One watchdog per session now raises
the same ``asyncio.TimeoutError`` after the same ``read_timeout`` of
silence; these tests pin both halves: the error still comes, and a
healthy session's acks cost no task and no timer.
"""

import asyncio

import pytest

from repro.runtime import (
    AsyncRuntime,
    ChannelListener,
    TcpChannel,
    TcpChannelConfig,
    WireCodec,
)
from repro.runtime.kernel import run
from repro.runtime.tcp import _SilenceWatchdog, read_frame, write_frame

from .loop_spy import LoopSpy
from .test_tcp_flaky import Sink, make_message, seqs


def test_watchdog_raises_timeout_error_after_the_silence_window():
    async def main():
        loop = asyncio.get_running_loop()
        started = loop.time()
        with pytest.raises(asyncio.TimeoutError):
            with _SilenceWatchdog(0.1):
                await loop.create_future()  # a peer that never speaks
        return loop.time() - started

    assert 0.1 <= run(main()) <= 0.15


def test_watchdog_window_restarts_at_every_frame_without_rearming():
    """Frames every 20 ms for 200 ms keep a 100 ms watchdog quiet; the
    timeout comes 100 ms after the *last* frame.  The handle is re-armed
    only when it fires: 3-4 timers for 10 frames, not one per frame."""

    async def main():
        loop = asyncio.get_running_loop()
        frames = asyncio.Queue()
        for k in range(1, 11):
            loop.call_later(0.02 * k, frames.put_nowait, k)
        armed = LoopSpy().timers
        heard = []
        with pytest.raises(asyncio.TimeoutError):
            with _SilenceWatchdog(0.1) as watchdog:
                while True:
                    heard.append(await frames.get())
                    watchdog.heard()
                    last = loop.time()
        return heard, loop.time() - last, len(armed)

    heard, silence, armed = run(main())
    assert heard == list(range(1, 11))
    assert 0.1 <= silence <= 0.15
    assert armed <= 4


def test_watchdog_leaves_other_errors_and_cancellation_alone():
    async def main():
        loop = asyncio.get_running_loop()
        armed = LoopSpy().timers
        with pytest.raises(ConnectionResetError):
            with _SilenceWatchdog(5.0):
                raise ConnectionResetError("peer went away")

        async def reader():
            with _SilenceWatchdog(5.0):
                await loop.create_future()

        task = asyncio.ensure_future(reader())
        await asyncio.sleep(0)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        await asyncio.sleep(0)
        # both handles were cancelled on exit: nothing left to fire
        return [h for h in loop._scheduled if not h.cancelled()], len(armed)

    pending, armed = run(main())
    assert pending == []
    assert armed == 2


def test_silent_peer_times_out_the_session_after_read_timeout(paper_view):
    """The peer completes the handshake, then reads frames and never acks:
    ``read_timeout`` later the session is abandoned (``TimeoutError`` in
    the writer's retry loop, as before), the channel redials and resends
    the unacknowledged suffix."""

    async def main():
        loop = asyncio.get_running_loop()
        runtime = AsyncRuntime(time_scale=0.001)
        codec = WireCodec(paper_view)
        sessions = []  # (time of handshake, hello's "next", frames seen)

        async def silent_peer(reader, writer):
            hello = await read_frame(reader)
            seen = []
            sessions.append((loop.time(), hello["next"], seen))
            write_frame(writer, {"t": "welcome", "expect": 1, "codec": 3})
            await writer.drain()
            try:
                while True:
                    seen.append((await read_frame(reader))["seq"])
            except (asyncio.IncompleteReadError, ConnectionError):
                writer.close()

        server = await asyncio.start_server(silent_peer, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        config = TcpChannelConfig(
            read_timeout=0.2, backoff_initial=0.01, max_retries=3
        )
        channel = TcpChannel(
            runtime, "R1->wh", "127.0.0.1", port, codec, None, config
        )
        channel.send(make_message(paper_view, 1))
        while len(sessions) < 2:
            await asyncio.sleep(0.01)
        runtime.check()  # a timed-out session is recoverable, not fatal
        reconnects, queued = channel.reconnects, channel.queued
        await channel.aclose()
        server.close()
        await server.wait_closed()
        await runtime.aclose()
        return sessions, reconnects, queued

    sessions, reconnects, queued = run(main())
    (first_at, first_next, first_seen), (second_at, second_next, _) = sessions[:2]
    assert first_seen == [1]  # delivered, never acknowledged
    assert 0.2 <= second_at - first_at <= 0.3  # read_timeout + one back-off
    assert (first_next, second_next) == (1, 1)  # the resend starts at seq 1
    assert reconnects == 1 and queued == 1


def test_healthy_session_spends_no_task_and_no_timer_per_ack(paper_view):
    """200 messages, each acknowledged before the next is sent: 200 ack
    reads, 200 idle waits of the writer.  Tasks created and timers armed
    meanwhile: none (one ``wait_for`` task + timer per ack and one
    ``Event.wait`` task per idle wait before)."""

    async def main():
        loop = asyncio.get_running_loop()
        runtime = AsyncRuntime(time_scale=0.001)
        codec = WireCodec(paper_view)
        sink = Sink()
        listener = ChannelListener(runtime)
        listener.register("R1->wh", sink, codec)
        await listener.start()
        channel = TcpChannel(
            runtime, "R1->wh", *listener.address, codec, None, TcpChannelConfig()
        )

        async def send_and_await_ack(seq):
            channel.send(make_message(paper_view, seq))
            while not channel.idle:
                await asyncio.sleep(0)  # a bare yield: no timer, no task

        await send_and_await_ack(1)  # dial, handshake, arm the watchdog
        tasks_before = len(asyncio.all_tasks())
        created = []

        def counting_factory(loop, coro, **kwargs):
            created.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        loop.set_task_factory(counting_factory)
        armed = LoopSpy().timers
        for seq in range(2, 202):
            await send_and_await_ack(seq)
        loop.set_task_factory(None)
        tasks_after = len(asyncio.all_tasks())
        await channel.aclose()
        await listener.aclose()
        await runtime.aclose()
        return seqs(sink), created, armed, tasks_after - tasks_before

    got, created, armed, growth = run(main())
    assert got == list(range(1, 202))
    assert created == []
    assert armed == []
    assert growth == 0
