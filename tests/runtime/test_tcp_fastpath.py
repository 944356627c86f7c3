"""TCP fast path: frame compression, multi-message frames, the handshake.

Covers the transport-level throughput work in isolation from the
protocol: the MSB-flagged zlib frame encoding roundtrips through real
stream objects, bursts of queued messages coalesce into one ``mb``
frame, and a sender refuses a receiver whose welcome does not prove it
reads v3 records.
"""

import asyncio
import struct

import pytest

from repro.relational.delta import Delta
from repro.runtime import (
    AsyncRuntime,
    ChannelListener,
    TcpChannel,
    TcpChannelConfig,
    WireCodec,
    WireProtocolError,
)
from repro.runtime.tcp import read_frame, write_frame
from repro.simulation.channel import Message
from repro.simulation.metrics import MetricsCollector
from repro.sources.messages import UpdateNotice


class Sink:
    def __init__(self):
        self.items = []

    def put(self, message):
        self.items.append(message)

    def __len__(self):
        return len(self.items)


class BufferWriter:
    """StreamWriter stand-in that accumulates written bytes."""

    def __init__(self):
        self.data = bytearray()

    def write(self, chunk):
        self.data.extend(chunk)


def make_notice(view, seq, rows=None):
    return UpdateNotice(
        source_index=1,
        seq=seq,
        delta=Delta(view.schema_of(1), rows or {(seq, seq): 1}),
        applied_at=float(seq),
    )


def seqs(sink):
    return [m.payload.seq for m in sink.items]


def run(coro):
    return asyncio.run(coro)


def decode_frame(data: bytes) -> dict:
    """Feed raw bytes through a real StreamReader and read one frame."""

    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return run(main())


# ---------------------------------------------------------------------------
# Frame encoding
# ---------------------------------------------------------------------------

def test_large_frame_is_compressed_and_roundtrips():
    obj = {"t": "msg", "rows": [[i, i, 1] for i in range(500)]}
    writer = BufferWriter()
    write_frame(writer, obj, compress_min=64)
    (prefix,) = struct.unpack(">I", bytes(writer.data[:4]))
    assert prefix & 0x80000000  # MSB marks the zlib body
    assert decode_frame(bytes(writer.data)) == obj


def test_small_frame_stays_uncompressed():
    obj = {"t": "ack", "seq": 4}
    writer = BufferWriter()
    write_frame(writer, obj, compress_min=64)
    (prefix,) = struct.unpack(">I", bytes(writer.data[:4]))
    assert not prefix & 0x80000000
    assert decode_frame(bytes(writer.data)) == obj


def test_incompressible_frame_falls_back_to_plain():
    """When zlib cannot shrink the body the plain encoding is kept."""
    obj = {"t": "x9Qz"}  # tiny body: zlib's header overhead always loses
    writer = BufferWriter()
    write_frame(writer, obj, compress_min=1)
    (prefix,) = struct.unpack(">I", bytes(writer.data[:4]))
    assert not prefix & 0x80000000
    assert decode_frame(bytes(writer.data)) == obj


def test_compression_disabled_with_none():
    obj = {"t": "msg", "rows": [[i, i, 1] for i in range(500)]}
    writer = BufferWriter()
    write_frame(writer, obj, compress_min=None)
    (prefix,) = struct.unpack(">I", bytes(writer.data[:4]))
    assert not prefix & 0x80000000


def body_of_length(n):
    """An object whose binwire body is exactly ``n`` bytes and
    compressible (a run of one character)."""
    from repro.formats import binwire

    obj = {"p": "a" * (n - 9)}  # the document wraps the run in 9 bytes
    assert len(binwire.dumps(obj)) == n
    return obj


@pytest.mark.parametrize(
    "body_len,expect_compressed",
    [(63, False), (64, True), (65, True)],
)
def test_compression_threshold_is_inclusive(body_len, expect_compressed):
    """Bodies of exactly ``compress_min`` bytes compress; one byte below
    stays plain -- the boundary must not drift between codec versions."""
    obj = body_of_length(body_len)
    writer = BufferWriter()
    write_frame(writer, obj, compress_min=64)
    (prefix,) = struct.unpack(">I", bytes(writer.data[:4]))
    assert bool(prefix & 0x80000000) == expect_compressed
    # the prefix's low bits are the on-wire body length, flag stripped
    assert (prefix & 0x7FFFFFFF) == len(writer.data) - 4
    if expect_compressed:
        assert len(writer.data) - 4 < body_len  # it actually shrank
    assert decode_frame(bytes(writer.data)) == obj


# ---------------------------------------------------------------------------
# Multi-message frames and codec negotiation
# ---------------------------------------------------------------------------

async def _burst_over_tcp(paper_view, channel_config, n=30):
    """Send ``n`` messages in one burst; return (channel stats, seqs)."""
    runtime = AsyncRuntime(time_scale=0.001)
    codec = WireCodec(paper_view)
    sink = Sink()
    metrics = MetricsCollector()
    listener = ChannelListener(runtime)
    listener.register("R1->wh", sink, codec)
    await listener.start()
    channel = TcpChannel(
        runtime, "R1->wh", *listener.address, codec, metrics, channel_config
    )
    # No yields between sends: the writer task sees a backlog and must
    # coalesce it rather than write frame by frame.
    for seq in range(1, n + 1):
        channel.send(Message("update", "R1", make_notice(paper_view, seq)))
    await channel.flush()
    stats = {
        "wire_sessions": metrics.counters["wire_sessions"],
        "batches_sent": channel.batches_sent,
    }
    await channel.aclose()
    await listener.aclose()
    await runtime.aclose()
    return stats, seqs(sink)


def test_burst_coalesces_into_multi_message_frames(paper_view):
    stats, got = run(_burst_over_tcp(paper_view, TcpChannelConfig()))
    assert got == list(range(1, 31))  # FIFO preserved through mb frames
    assert stats["wire_sessions"] == 1
    assert stats["batches_sent"] >= 1


@pytest.mark.parametrize(
    "welcome",
    [
        lambda hello: {"t": "welcome", "expect": hello["next"], "codec": 2},
        lambda hello: {"t": "welcome", "expect": hello["next"]},
        lambda hello: {"t": "welcome", "codec": 3},
    ],
    ids=["codec-below-3", "no-codec", "no-expect"],
)
def test_sender_refuses_a_receiver_that_cannot_read_records(paper_view, welcome):
    """A welcome that does not prove the receiver reads v3 records -- a
    ``codec`` below 3, or none (a receiver predating negotiation) -- or
    that names no expected sequence fails the sender with a typed
    :class:`WireProtocolError`: no silent downgrade, no bare ``KeyError``
    and no reconnect loop."""

    async def main():
        hellos = []

        async def older_receiver(reader, writer):
            hello = await read_frame(reader)
            hellos.append(hello)
            write_frame(writer, welcome(hello))
            await writer.drain()
            while True:  # acknowledge whatever arrives
                try:
                    frame = await read_frame(reader)
                except Exception:
                    return
                last = frame["frames"][-1] if frame["t"] == "mb" else frame
                write_frame(writer, {"t": "ack", "seq": last["seq"]})
                await writer.drain()

        server = await asyncio.start_server(older_receiver, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        runtime = AsyncRuntime(time_scale=0.001)
        channel = TcpChannel(
            runtime, "R1->wh", host, port, WireCodec(paper_view), None,
            TcpChannelConfig(),
        )
        channel.send(Message("update", "R1", make_notice(paper_view, 1)))
        try:
            with pytest.raises(WireProtocolError, match="R1->wh"):
                await channel.flush(timeout=5.0)
        finally:
            await channel.aclose()
            server.close()
            await server.wait_closed()
            await runtime.aclose()
        return hellos

    hellos = run(main())
    assert len(hellos) == 1  # refused once, not retried
    assert hellos[0]["codec"] == 3
