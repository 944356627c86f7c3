"""TCP resilience: retries with backoff, reconnects, bounded failure."""

import asyncio
import socket

import pytest

from repro.relational.delta import Delta
from repro.runtime import (
    AsyncRuntime,
    ChannelListener,
    TcpChannel,
    TcpChannelConfig,
    TransportRetriesExceeded,
    WireCodec,
)
from repro.runtime.kernel import run
from repro.simulation.channel import Message
from repro.sources.messages import UpdateNotice


class Sink:
    def __init__(self):
        self.items = []

    def put(self, message):
        self.items.append(message)


def make_message(view, seq):
    return Message(
        "update",
        "R1",
        UpdateNotice(
            source_index=1,
            seq=seq,
            delta=Delta(view.schema_of(1), {(seq, seq): 1}),
            applied_at=float(seq),
        ),
    )


def seqs(sink):
    return [m.payload.seq for m in sink.items]


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_sender_retries_until_listener_appears(paper_view):
    """Messages sent before the receiver exists arrive once it starts."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        codec = WireCodec(paper_view)
        port = free_port()
        config = TcpChannelConfig(
            connect_timeout=1.0, backoff_initial=0.02, max_retries=20
        )
        channel = TcpChannel(
            runtime, "R1->wh", "127.0.0.1", port, codec, None, config
        )
        for seq in (1, 2, 3):
            channel.send(make_message(paper_view, seq))
        await asyncio.sleep(0.15)  # let several dials fail first

        sink = Sink()
        listener = ChannelListener(runtime, "127.0.0.1", port)
        listener.register("R1->wh", sink, codec)
        await listener.start()
        await channel.flush(timeout=10.0)
        reconnects = channel.reconnects
        await channel.aclose()
        await listener.aclose()
        await runtime.aclose()
        return seqs(sink), reconnects

    got, reconnects = run(main())
    assert got == [1, 2, 3]
    assert reconnects >= 1  # at least one failed dial before the listener


def test_session_resumes_after_midstream_connection_kill(paper_view):
    """A proxy drops the first connection mid-stream; nothing is lost or duplicated."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        codec = WireCodec(paper_view)
        sink = Sink()
        listener = ChannelListener(runtime)
        listener.register("R1->wh", sink, codec)
        await listener.start()

        # Forwarding proxy that hard-closes its first connection after a
        # few frames have passed, then forwards faithfully.
        kills_left = [1]

        async def handle_proxy(client_reader, client_writer):
            upstream_reader, upstream_writer = await asyncio.open_connection(
                *listener.address
            )
            doomed = kills_left[0] > 0
            if doomed:
                kills_left[0] -= 1
            budget = [600]  # bytes to forward before the kill

            async def pump(reader, writer, meter):
                try:
                    while True:
                        data = await reader.read(512)
                        if not data:
                            break
                        if meter and doomed:
                            budget[0] -= len(data)
                            if budget[0] <= 0:
                                break
                        writer.write(data)
                        await writer.drain()
                finally:
                    writer.close()

            await asyncio.gather(
                pump(client_reader, upstream_writer, meter=True),
                pump(upstream_reader, client_writer, meter=False),
                return_exceptions=True,
            )

        proxy = await asyncio.start_server(handle_proxy, "127.0.0.1", 0)
        proxy_port = proxy.sockets[0].getsockname()[1]

        config = TcpChannelConfig(backoff_initial=0.02, max_retries=10)
        channel = TcpChannel(
            runtime, "R1->wh", "127.0.0.1", proxy_port, codec, None, config
        )
        for seq in range(1, 31):
            channel.send(make_message(paper_view, seq))
            await asyncio.sleep(0.002)
        await channel.flush(timeout=10.0)
        reconnects = channel.reconnects
        await channel.aclose()
        proxy.close()
        await proxy.wait_closed()
        await listener.aclose()
        await runtime.aclose()
        return seqs(sink), reconnects

    got, reconnects = run(main())
    assert got == list(range(1, 31))  # exactly once, in order
    assert reconnects >= 1  # the kill really happened


def test_bounded_retries_surface_as_runtime_failure(paper_view):
    """A dead peer fails the channel after max_retries, not never."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        codec = WireCodec(paper_view)
        config = TcpChannelConfig(
            connect_timeout=0.2,
            backoff_initial=0.01,
            backoff_max=0.02,
            max_retries=2,
        )
        channel = TcpChannel(
            runtime, "R1->wh", "127.0.0.1", free_port(), codec, None, config
        )
        channel.send(make_message(paper_view, 1))
        try:
            await channel.flush(timeout=10.0)
        finally:
            await channel.aclose()
            await runtime.aclose()

    with pytest.raises(TransportRetriesExceeded):
        run(main())


def test_idle_channel_does_not_dial(paper_view):
    """Lazy dialing: no frames queued means no connection attempts."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        codec = WireCodec(paper_view)
        config = TcpChannelConfig(connect_timeout=0.2, max_retries=1)
        # Dead address: eager dialing would exhaust retries immediately.
        channel = TcpChannel(
            runtime, "R1->wh", "127.0.0.1", free_port(), codec, None, config
        )
        await asyncio.sleep(0.3)
        runtime.check()  # no TransportRetriesExceeded recorded
        assert channel.reconnects == 0
        await channel.aclose()
        await runtime.aclose()

    run(main())
