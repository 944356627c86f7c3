"""TCP fast path: frame compression, multi-message frames, negotiation.

Covers the transport-level throughput work in isolation from the
protocol: the MSB-flagged zlib frame encoding roundtrips through real
stream objects, bursts of queued messages coalesce into one ``mb`` frame
when both ends speak codec v2, and a v1 peer on either side of the
handshake downgrades the channel cleanly.
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
)
from repro.runtime.codec import CODEC_VERSION_DEFAULT
from repro.runtime.tcp import read_frame, write_frame
from repro.simulation.channel import Message
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
    """An object whose canonical JSON body is exactly ``n`` bytes and
    compressible (a run of one character)."""
    obj = {"p": "a" * (n - 8)}  # {"p":"..."} wraps the run in 8 bytes
    import json

    assert len(json.dumps(obj, separators=(",", ":")).encode()) == n
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
    listener = ChannelListener(runtime)
    listener.register("R1->wh", sink, codec)
    await listener.start()
    channel = TcpChannel(
        runtime, "R1->wh", *listener.address, codec, None, channel_config
    )
    # No yields between sends: the writer task sees a backlog and must
    # coalesce it rather than write frame by frame.
    for seq in range(1, n + 1):
        channel.send(Message("update", "R1", make_notice(paper_view, seq)))
    await channel.flush()
    stats = {
        "negotiated_codec": channel.negotiated_codec,
        "batches_sent": channel.batches_sent,
    }
    await channel.aclose()
    await listener.aclose()
    await runtime.aclose()
    return stats, seqs(sink)


def test_burst_coalesces_into_multi_message_frames(paper_view):
    stats, got = run(_burst_over_tcp(paper_view, TcpChannelConfig()))
    assert got == list(range(1, 31))  # FIFO preserved through mb frames
    assert stats["negotiated_codec"] == CODEC_VERSION_DEFAULT
    assert stats["batches_sent"] >= 1


def test_v1_sender_disables_batching(paper_view):
    """A sender pinned to codec v1 never emits mb frames."""
    config = TcpChannelConfig(codec_version=1)
    stats, got = run(_burst_over_tcp(paper_view, config))
    assert got == list(range(1, 31))
    assert stats["negotiated_codec"] == 1
    assert stats["batches_sent"] == 0


def test_negotiated_codec_is_pairwise_min(paper_view):
    """The welcome clamps to min(sender, listener); absent key means v1."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        codec = WireCodec(paper_view)
        listener = ChannelListener(runtime)
        listener.register("R1->wh", Sink(), codec)
        await listener.start()
        host, port = listener.address

        reader, writer = await asyncio.open_connection(host, port)
        write_frame(writer, {"t": "hello", "channel": "R1->wh", "resume": 1})
        await writer.drain()
        welcome = await read_frame(reader, timeout=5.0)
        writer.close()
        await writer.wait_closed()
        await listener.aclose()
        await runtime.aclose()
        return welcome

    welcome = run(main())
    assert welcome["t"] == "welcome"
    # Listener speaks v2 but must clamp to the hello's version (absent -> 1).
    assert welcome["codec"] == 1


def test_welcome_without_codec_key_downgrades_sender(paper_view):
    """The mirror case: a *receiver* predating negotiation omits the codec
    key from its welcome, and the v2 sender must fall back to v1 -- plain
    per-message frames, no mb batching."""

    async def main():
        frames = []

        async def legacy_receiver(reader, writer):
            hello = await read_frame(reader)
            assert hello["t"] == "hello"
            # Old receiver: acknowledges the session but says nothing
            # about codecs.
            write_frame(writer, {"t": "welcome", "expect": hello["next"]})
            await writer.drain()
            while True:
                try:
                    frame = await read_frame(reader)
                except Exception:
                    return
                frames.append(frame)
                if frame.get("t") == "msg":
                    write_frame(writer, {"t": "ack", "seq": frame["seq"]})
                    await writer.drain()

        server = await asyncio.start_server(legacy_receiver, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        runtime = AsyncRuntime(time_scale=0.001)
        codec = WireCodec(paper_view)
        channel = TcpChannel(
            runtime, "R1->wh", host, port, codec, None, TcpChannelConfig()
        )
        for seq in range(1, 11):
            channel.send(Message("update", "R1", make_notice(paper_view, seq)))
        await channel.flush()
        stats = {
            "negotiated_codec": channel.negotiated_codec,
            "batches_sent": channel.batches_sent,
        }
        await channel.aclose()
        server.close()
        await server.wait_closed()
        await runtime.aclose()
        return stats, frames

    stats, frames = run(main())
    assert stats["negotiated_codec"] == 1
    assert stats["batches_sent"] == 0
    kinds = {frame["t"] for frame in frames}
    assert "mb" not in kinds  # every message crossed as a v1 frame
    assert [f["seq"] for f in frames if f["t"] == "msg"] == list(range(1, 11))
