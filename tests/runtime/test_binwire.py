"""The binary serialization kernel, and every message type through it.

Two layers of coverage:

* kernel contract -- :mod:`repro.runtime.binwire` round-trips exactly
  the JSON value model (fuzzed against ``json`` itself), rejects what
  JSON would reject, and fails loudly on truncated or trailing bytes,
  lying counts and invalid UTF-8 -- as do ``read_frame`` and the
  listener, with :class:`WireProtocolError`;
* transport matrix -- every protocol payload type crosses a real frame
  (``read_frame`` through an ``asyncio.StreamReader``, and a listener
  through a socket) with compression off and on: our v3 frames, and the
  JSON frames of an older sender carrying the checked-in v1/v2
  envelopes (``data/wire_v1.json`` / ``wire_v2.json``), decode to
  exactly the encoded message.
"""

import asyncio
import enum
import json
import math
import random
import struct
from types import SimpleNamespace

import pytest

from repro.runtime import (
    AsyncRuntime,
    ChannelListener,
    WireCodec,
    WireProtocolError,
)
from repro.runtime import binwire
from repro.runtime.tcp import read_frame, write_frame
from tests.runtime.wire_fixtures import (
    HOSTILE_SHAPES,
    bodies,
    fixture_messages,
    hostile_envelope,
    older_peer_frame,
    same_message,
    variant_of,
)


# ---------------------------------------------------------------------------
# Kernel contract
# ---------------------------------------------------------------------------

SAMPLES = [
    None,
    True,
    False,
    0,
    1,
    -1,
    63,
    -64,  # fixint boundary (one byte)
    64,
    -65,  # first varint ints
    2**40,
    -(2**40),
    2**100,
    -(2**100),
    0.0,
    -0.5,
    1e300,
    float("inf"),
    float("-inf"),
    "",
    "t",
    "request_id",  # static-table hit
    "definitely-not-in-the-static-table",
    "snow☃\U0001f600",
    "x" * 5000,
    [],
    {},
    [1, [2, [3, [4]]]],
    {"a": {"b": {"c": [None, True, -7]}}},
    {"f": [1, 2, 1, 3, 4, -1], "w": 2},
]


@pytest.mark.parametrize("value", SAMPLES, ids=repr)
def test_kernel_round_trip(value):
    assert binwire.loads(binwire.dumps(value)) == value


def test_tuple_encodes_as_list():
    assert binwire.loads(binwire.dumps((1, (2, 3)))) == [1, [2, 3]]


class _Level(enum.IntEnum):
    STRONG = 3
    WIDE = 70


#: Elements around every branch of the list encoder's inline int path.
_LIST_ELEMENTS = [
    0, 1, -1, 63, -63, -64, 64, -65,  # fixint | first two-byte varints
    0x3FFF >> 1, -(0x4000 >> 1),  # zigzag 0x3FFE / 0x3FFF: last two-byte
    0x4000 >> 1, -(0x4000 >> 1) - 1,  # zigzag 0x4000 / 0x4001: general
    2**63, -(2**63), 2**80,
    True, False, None, 1.5, -0.0,
    _Level.STRONG, _Level.WIDE,
    [5, -70, [8192, True]], (1, 2),
]


def _scalar_path_bytes(items) -> bytes:
    """What the list would encode to one ``_encode`` call per element
    (the encoding before lists inlined their ints)."""
    buf = bytearray((binwire.MAGIC, binwire.FORMAT, binwire._TAG_LIST))
    binwire._append_varint(buf, len(items))
    for item in items:
        if isinstance(item, (list, tuple)):
            buf += _scalar_path_bytes(item)[2:]
        else:
            buf += binwire.dumps(item)[2:]
    return bytes(buf)


def test_flat_int_list_fast_path_is_byte_identical():
    doc = binwire.dumps(_LIST_ELEMENTS)
    assert doc == _scalar_path_bytes(_LIST_ELEMENTS)
    expected = json.loads(json.dumps(_LIST_ELEMENTS))  # tuples, enums -> JSON
    assert binwire.loads(doc) == expected
    assert [type(x) for x in binwire.loads(doc)] == [type(x) for x in expected]
    # The shape the fast path exists for: a v3 row block / checkpoint body.
    flat = [v for k in range(-200, 20000, 97) for v in (k, -k, k % 64)]
    assert binwire.dumps(flat) == _scalar_path_bytes(flat)
    assert binwire.loads(binwire.dumps({"f": flat, "w": 3})) == {"f": flat, "w": 3}


def test_nan_round_trips_as_nan():
    out = binwire.loads(binwire.dumps(float("nan")))
    assert math.isnan(out)


def test_bytes_round_trip():
    blob = bytes(range(256))
    assert binwire.loads(binwire.dumps({"body": blob}))["body"] == blob


def test_non_string_dict_key_rejected():
    with pytest.raises(binwire.BinwireError, match="keys must be str"):
        binwire.dumps({1: "x"})


def test_unencodable_value_rejected():
    with pytest.raises(binwire.BinwireError, match="cannot encode"):
        binwire.dumps({"x": object()})


def test_bad_magic_rejected():
    with pytest.raises(binwire.BinwireError, match="magic"):
        binwire.loads(b'{"t":"msg"}')


def test_unknown_format_rejected():
    doc = bytearray(binwire.dumps(1))
    doc[1] = 99
    with pytest.raises(binwire.BinwireError, match="format"):
        binwire.loads(bytes(doc))


def test_truncated_document_rejected():
    doc = binwire.dumps({"kind": "query", "rows": list(range(50))})
    for cut in (2, 3, len(doc) // 2, len(doc) - 1):
        with pytest.raises(binwire.BinwireError):
            binwire.loads(doc[:cut])


def test_trailing_bytes_rejected():
    with pytest.raises(binwire.BinwireError, match="trailing"):
        binwire.loads(binwire.dumps(1) + b"\x00")


#: A 7-byte document whose list count claims 2**32 - 1 elements.
LYING_LIST = bytes([0xB3, 1, 0x08, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F])
#: The same lie as a dict pair count.
LYING_DICT = bytes([0xB3, 1, 0x09, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F])
#: A string definition whose two bytes are not UTF-8.
BAD_UTF8 = bytes([0xB3, 1, 0x05, 0x02, 0xFF, 0xFE])


@pytest.mark.parametrize("doc", [LYING_LIST, LYING_DICT], ids=["list", "dict"])
def test_count_beyond_the_bytes_left_is_refused_before_allocating(doc):
    with pytest.raises(binwire.BinwireError, match="exceeds"):
        binwire.loads(doc)


def test_count_that_fits_is_still_read():
    assert binwire.loads(bytes([0xB3, 1, 0x08, 0x02, 0x80, 0x82])) == [0, 1]
    assert binwire.loads(bytes([0xB3, 1, 0x08, 0x00])) == []


def test_invalid_utf8_string_is_a_binwire_error():
    with pytest.raises(binwire.BinwireError, match="UTF-8"):
        binwire.loads(BAD_UTF8)


def _read_body(body: bytes) -> dict:
    """``read_frame`` over one uncompressed frame holding ``body``."""

    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(struct.pack(">I", len(body)) + body)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(main())


@pytest.mark.parametrize(
    "body",
    [BAD_UTF8, b'{"t":"\xff"}'],
    ids=["binwire", "json"],
)
def test_read_frame_turns_invalid_utf8_into_a_protocol_error(body):
    with pytest.raises(WireProtocolError, match="undecodable"):
        _read_body(body)


@pytest.mark.parametrize(
    "body",
    [b"[1,2]", b"7", b'"msg"', binwire.dumps([1, 2]), binwire.dumps(None)],
    ids=["json-list", "json-int", "json-str", "binwire-list", "binwire-none"],
)
def test_read_frame_refuses_a_frame_that_is_not_an_object(body):
    with pytest.raises(WireProtocolError, match="not an object"):
        _read_body(body)


@pytest.mark.parametrize(
    "frame",
    [
        [1, 2],
        {"t": "mb", "frames": [{"m": {}}]},
        {"t": "mb", "frames": [{"seq": 1}]},
        {"t": "mb", "frames": [5]},
        {"t": "mb", "frames": 5},
        {"t": "msg", "seq": "one", "m": {}},
    ],
    ids=["list", "mb-no-seq", "mb-no-m", "mb-int-entry", "mb-int-frames",
         "msg-bad-seq"],
)
def test_listener_records_a_malformed_frame_as_a_protocol_error(
    paper_view, frame
):
    """Whatever a peer sends after the handshake, the session ends with a
    :class:`WireProtocolError` recorded on the runtime -- never with an
    ``AttributeError``/``KeyError`` that escapes the handler."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        listener = ChannelListener(runtime)
        listener.register("R1->wh", asyncio.Queue(), WireCodec(paper_view))
        await listener.start()
        reader, writer = await asyncio.open_connection(*listener.address)
        write_frame(writer, {"t": "hello", "channel": "R1->wh", "next": 1})
        await writer.drain()
        assert (await read_frame(reader, timeout=5.0))["t"] == "welcome"
        write_frame(writer, frame)
        await writer.drain()
        assert await asyncio.wait_for(reader.read(), 5.0) == b""  # closed
        writer.close()
        await listener.aclose()
        try:
            with pytest.raises(WireProtocolError):
                runtime.check()
        finally:
            await runtime.aclose()

    asyncio.run(main())


@pytest.mark.parametrize("shape", HOSTILE_SHAPES)
def test_listener_records_a_hostile_envelope_as_a_protocol_error(
    paper_view, shape
):
    """An older sender's JSON ``msg`` frame whose envelope is malformed
    ends the session with a :class:`WireProtocolError` recorded on the
    runtime.  (An untyped error used to escape the handler: the sender
    reconnected, its handshake refilled its retry budget, and it resent
    the same frame forever.)"""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        listener = ChannelListener(runtime)
        listener.register(
            "R1->wh", SimpleNamespace(put=lambda message: None),
            WireCodec(paper_view, extra_views=(variant_of(paper_view),)),
        )
        await listener.start()
        reader, writer = await asyncio.open_connection(*listener.address)
        hello = {"t": "hello", "channel": "R1->wh", "next": 1, "codec": 1}
        writer.write(_frame_bytes(1, hello, None))
        frame = {"t": "msg", "seq": 1, "m": hostile_envelope(shape)}
        writer.write(_frame_bytes(1, frame, None))
        await writer.drain()
        assert (await read_frame(reader, timeout=5.0))["t"] == "welcome"
        assert await asyncio.wait_for(reader.read(), 5.0) == b""  # closed
        writer.close()
        await listener.aclose()
        try:
            with pytest.raises(WireProtocolError, match="malformed envelope"):
                runtime.check()
        finally:
            await runtime.aclose()

    asyncio.run(main())


@pytest.mark.parametrize(
    "hello",
    [
        {"t": "hello", "channel": ["R1->wh"], "next": 1},
        {"t": "hello", "channel": "R1->wh", "next": "one"},
        {"t": "hello", "channel": "R1->wh", "next": 1, "epoch": [2]},
        {"t": "hello", "channel": "R1->wh", "next": 1, "codec": None},
    ],
    ids=["list-channel", "str-next", "list-epoch", "none-codec"],
)
def test_listener_records_a_malformed_hello_as_a_protocol_error(
    paper_view, hello
):
    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        listener = ChannelListener(runtime)
        listener.register("R1->wh", asyncio.Queue(), WireCodec(paper_view))
        await listener.start()
        reader, writer = await asyncio.open_connection(*listener.address)
        write_frame(writer, hello)
        await writer.drain()
        assert await asyncio.wait_for(reader.read(), 5.0) == b""  # closed
        writer.close()
        await listener.aclose()
        try:
            with pytest.raises(WireProtocolError):
                runtime.check()
        finally:
            await runtime.aclose()

    asyncio.run(main())


def test_json_never_sniffs_as_binary():
    """Compact JSON of any protocol shape starts with a byte < 0x80,
    so the first-byte sniff can never misroute a JSON frame."""
    for obj in ({"t": "msg"}, [1, 2], "x", 7, -7, 1.5, True, None):
        body = json.dumps(obj, separators=(",", ":")).encode()
        assert not binwire.is_binary(body)
    assert binwire.is_binary(binwire.dumps({"t": "msg"}))


def test_static_table_is_collision_free_and_pinned():
    assert len(set(binwire.STATIC_STRINGS)) == len(binwire.STATIC_STRINGS)
    # The table is part of format 1: a changed prefix breaks every
    # document already on disk.  Appending new entries is fine.
    assert binwire.FORMAT == 1
    assert binwire.STATIC_STRINGS[:6] == (
        "t", "msg", "mb", "ack", "hello", "welcome"
    )


def test_static_table_strings_cost_two_bytes():
    # magic + format + dict tag + count + (ref tag + index) + fixint
    assert len(binwire.dumps({"request_id": 7})) == 2 + 2 + 2 + 1


def _random_value(rng, depth=0):
    roll = rng.random()
    if depth > 3 or roll < 0.4:
        return rng.choice(
            [
                None,
                True,
                False,
                rng.randint(-(2**48), 2**48),
                rng.randint(-64, 63),
                rng.random() * 1e9,
                rng.choice(["", "seq", "kind", "R1->wh", "warehouse", "☃"]),
            ]
        )
    if roll < 0.7:
        return [_random_value(rng, depth + 1) for _ in range(rng.randint(0, 5))]
    return {
        rng.choice(["t", "kind", "rows", "payload", f"k{i}"]): _random_value(
            rng, depth + 1
        )
        for i in range(rng.randint(0, 5))
    }


def test_fuzz_matches_json_round_trip():
    """For every JSON-shaped value, binwire and json agree exactly."""
    rng = random.Random(0xB3)
    for _ in range(500):
        value = _random_value(rng)
        via_json = json.loads(json.dumps(value))
        assert binwire.loads(binwire.dumps(value)) == via_json


# ---------------------------------------------------------------------------
# Every message type x codec version x compression
# ---------------------------------------------------------------------------

def _frame_bytes(version: int, frame: dict, compress_min) -> bytes:
    """``frame`` as a sender of codec ``version`` put it on the wire:
    ours through ``write_frame``, an older sender's as a JSON frame."""
    if version < 3:
        return older_peer_frame(frame, compress_min)
    writer = BufferWriter()
    write_frame(writer, frame, compress_min=compress_min)
    return bytes(writer.data)


class BufferWriter:
    def __init__(self):
        self.data = bytearray()

    def write(self, chunk):
        self.data.extend(chunk)


def _read_frames(data: bytes) -> list[dict]:
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames = []
        while not reader.at_eof():
            frames.append(await read_frame(reader))
        return frames

    return asyncio.run(main())


def _fixtures(paper_view):
    variant = variant_of(paper_view)
    codec = WireCodec(paper_view, extra_views=(variant,))
    return codec, fixture_messages(paper_view, variant)


@pytest.mark.parametrize("compress_min", [None, 0], ids=["plain", "zlib"])
@pytest.mark.parametrize("version", [1, 2, 3], ids=["v1", "v2", "v3"])
def test_every_message_type_survives_the_wire(paper_view, version, compress_min):
    """Our v3 frames, and an older sender's JSON frames of the checked-in
    v1/v2 envelopes, decode to exactly the message that was encoded."""
    codec, messages = _fixtures(paper_view)
    for message, body in zip(messages, bodies(version, codec, messages)):
        raw = _frame_bytes(version, {"t": "msg", "seq": 1, "m": body}, compress_min)
        if compress_min is None:
            (prefix,) = struct.unpack(">I", raw[:4])
            assert binwire.is_binary(raw[4:4 + prefix]) == (version == 3)
        [frame] = _read_frames(raw)
        copy = codec.decode_message(frame["m"])
        assert same_message(copy, message), type(message.payload).__name__


@pytest.mark.parametrize("version", [1, 2, 3], ids=["v1", "v2", "v3"])
def test_cross_version_decode(paper_view, version):
    """A listener never needs to know the sender's version.  A raw socket
    plays a sender of each one -- an older sender says hello in JSON and
    sends JSON ``msg`` frames (v1) or one ``mb`` frame (v2) of the
    checked-in envelopes -- and the listener welcomes it with ``codec``
    3, acknowledges in binwire and delivers exactly the encoded
    messages."""
    codec, messages = _fixtures(paper_view)
    entries = [
        {"seq": seq, "m": body}
        for seq, body in enumerate(bodies(version, codec, messages), start=1)
    ]
    if version == 1:  # v1 senders never batched
        frames = [{"t": "msg", **entry} for entry in entries]
    else:
        frames = [{"t": "mb", "frames": entries}]

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        delivered = []
        listener = ChannelListener(runtime)
        listener.register("R1->wh", SimpleNamespace(put=delivered.append), codec)
        await listener.start()
        reader, writer = await asyncio.open_connection(*listener.address)
        hello = {"t": "hello", "channel": "R1->wh", "next": 1, "codec": version}
        writer.write(_frame_bytes(version, hello, None))
        await writer.drain()
        header = await reader.readexactly(4)
        welcome_body = await reader.readexactly(struct.unpack(">I", header)[0])
        assert binwire.is_binary(welcome_body)
        assert binwire.loads(welcome_body) == {
            "t": "welcome", "expect": 1, "codec": 3
        }
        acks = []
        for frame in frames:
            writer.write(_frame_bytes(version, frame, None))
            await writer.drain()
            acks.append(await read_frame(reader, timeout=5.0))
        writer.close()
        await listener.aclose()
        runtime.check()
        await runtime.aclose()
        return acks, delivered

    acks, delivered = asyncio.run(main())
    assert acks[-1] == {"t": "ack", "seq": len(messages)}
    assert len(delivered) == len(messages)
    for copy, message in zip(delivered, messages):
        assert same_message(copy, message), type(message.payload).__name__
