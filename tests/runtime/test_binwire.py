"""The binary serialization kernel, and every message type through it.

Two layers of coverage:

* kernel contract -- :mod:`repro.formats.binwire` round-trips exactly
  the JSON value model (fuzzed against ``json`` itself), rejects what
  JSON would reject, and fails loudly on truncated or trailing bytes,
  lying counts and invalid UTF-8 -- as do ``read_frame`` and the
  listener, with :class:`WireProtocolError`;
* transport matrix -- every protocol payload type crosses a real frame
  (``read_frame`` through an ``asyncio.StreamReader``, and a listener
  through a socket) with compression off and on, and decodes to exactly
  the encoded message; an older peer -- a JSON frame, a hello without
  ``codec`` 3, a v1/v2 envelope dict (``data/wire_v1.json`` /
  ``wire_v2.json``) -- is refused by name.
"""

import asyncio
import enum
import json
import math
import random
import struct
from types import SimpleNamespace

import pytest

from repro.formats import binwire
from repro.formats.errors import UnsupportedFormatError
from repro.runtime import (
    AsyncRuntime,
    ChannelListener,
    WireCodec,
    WireProtocolError,
)
from repro.runtime.tcp import read_frame, write_frame
from tests.hostile import check_hostile, lying_varint
from tests.runtime.wire_fixtures import (
    HOSTILE_SHAPES,
    bodies,
    fixture_messages,
    hostile_envelope,
    load_envelopes,
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
    """The list as its elements' own encodings, back to back."""
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
    # A long flat int list: a fallback row block's shape.
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
    """Every truncation of a document is refused; every bit flip and a
    lying count decode or raise :class:`BinwireError`, nothing else."""
    doc = binwire.dumps(
        {"kind": "query", "rows": list(range(50)), "body": b"\x00\xff" * 5,
         "at": 1.5, "ok": [True, None, -(2**40)], "name": "snow\u2603"}
    )
    decoded = check_hostile(
        doc, binwire.loads, binwire.BinwireError, lies=[lying_varint(doc, 3)]
    )
    assert not [label for label in decoded if label.startswith("truncated")]


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
    "body, match",
    [(BAD_UTF8, "undecodable"), (b'{"t":"\xff"}', "JSON frame")],
    ids=["binwire", "json"],
)
def test_read_frame_turns_invalid_utf8_into_a_protocol_error(body, match):
    """Bad UTF-8 in a binwire string is undecodable; a JSON frame is
    refused before anything in it is decoded."""
    with pytest.raises(WireProtocolError, match=match):
        _read_body(body)


@pytest.mark.parametrize(
    "body, match",
    [
        (b"[1,2]", "undecodable"),
        (b"7", "undecodable"),
        (b'"msg"', "undecodable"),
        (binwire.dumps([1, 2]), "not an object"),
        (binwire.dumps(None), "not an object"),
    ],
    ids=["json-list", "json-int", "json-str", "binwire-list", "binwire-none"],
)
def test_read_frame_refuses_a_frame_that_is_not_an_object(body, match):
    """A document that is not an object is refused; JSON text that is not
    an object is not a binwire document at all."""
    with pytest.raises(WireProtocolError, match=match):
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
        write_frame(writer, _HELLO)
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


#: A current sender's hello.
_HELLO = {"t": "hello", "channel": "R1->wh", "next": 1, "codec": 3}


async def _listener_failure(view, frames: list[bytes], welcomed: bool):
    """Play a raw-socket sender of ``frames`` (wire bytes, the hello
    first) against a listener; return the error the runtime recorded."""
    runtime = AsyncRuntime(time_scale=0.001)
    listener = ChannelListener(runtime)
    listener.register(
        "R1->wh", SimpleNamespace(put=lambda message: None),
        WireCodec(view, extra_views=(variant_of(view),)),
    )
    await listener.start()
    reader, writer = await asyncio.open_connection(*listener.address)
    for frame in frames:
        writer.write(frame)
    await writer.drain()
    if welcomed:
        assert (await read_frame(reader, timeout=5.0))["t"] == "welcome"
    assert await asyncio.wait_for(reader.read(), 5.0) == b""  # closed
    writer.close()
    await listener.aclose()
    try:
        with pytest.raises(WireProtocolError) as info:
            runtime.check()
    finally:
        await runtime.aclose()
    return info.value


@pytest.mark.parametrize("shape", HOSTILE_SHAPES)
def test_listener_records_a_hostile_envelope_as_a_protocol_error(
    paper_view, shape
):
    """A ``msg`` frame whose envelope is a malformed v1/v2 dict ends the
    session with a :class:`WireProtocolError` recorded on the runtime: the
    dict is refused as what it is.  (An untyped error used to escape the
    handler: the sender reconnected, its handshake refilled its retry
    budget, and it resent the same frame forever.)"""
    frame = {"t": "msg", "seq": 1, "m": hostile_envelope(shape)}
    error = asyncio.run(_listener_failure(
        paper_view, [_frame_bytes(_HELLO), _frame_bytes(frame)], welcomed=True
    ))
    assert isinstance(error, UnsupportedFormatError)
    assert "v1/v2 envelope dict" in str(error)


def _older_peer(version: int) -> list[bytes]:
    """The frames a sender of codec ``version`` (1 or 2) sent: a JSON
    hello, then its checked-in envelopes in JSON ``msg`` frames (v1) or
    one JSON ``mb`` frame (v2)."""
    hello = {**_HELLO, "codec": version}
    entries = [
        {"seq": seq, "m": envelope}
        for seq, envelope in enumerate(load_envelopes(version), start=1)
    ]
    if version == 1:  # v1 senders never batched
        frames = [{"t": "msg", **entry} for entry in entries]
    else:
        frames = [{"t": "mb", "frames": entries}]
    return [older_peer_frame(frame) for frame in (hello, *frames)]


@pytest.mark.parametrize(
    "frames, welcomed, found",
    [
        (lambda: _older_peer(1), False, "a JSON frame"),
        (lambda: _older_peer(2), False, "a JSON frame"),
        (lambda: [_frame_bytes({**_HELLO, "codec": 1})], False, "hello codec 1"),
        (lambda: [_frame_bytes({**_HELLO, "codec": 2})], False, "hello codec 2"),
        (
            lambda: [_frame_bytes({k: v for k, v in _HELLO.items() if k != "codec"})],
            False, "hello codec None",
        ),
        (
            lambda: [
                _frame_bytes(_HELLO),
                _frame_bytes({"t": "msg", "seq": 1, "m": load_envelopes(2)[0]}),
            ],
            True, "a v1/v2 envelope dict",
        ),
    ],
    ids=["v1-sender", "v2-sender", "hello-codec-1", "hello-codec-2",
         "hello-without-codec", "dict-envelope"],
)
def test_listener_refuses_an_older_peer_by_name(paper_view, frames, welcomed, found):
    """An older peer is refused, not read: the runtime records one
    :class:`UnsupportedFormatError` -- also a :class:`WireProtocolError`
    -- that names what arrived and asks for the peer to be upgraded."""
    error = asyncio.run(_listener_failure(paper_view, frames(), welcomed))
    assert isinstance(error, UnsupportedFormatError)
    assert f"{found} is no longer read" in str(error)
    assert "upgrade the peer" in str(error)


@pytest.mark.parametrize(
    "hello",
    [
        {"t": "hello", "channel": ["R1->wh"], "next": 1},
        {"t": "hello", "channel": "R1->wh", "next": "one", "codec": 3},
        {"t": "hello", "channel": "R1->wh", "next": 1, "epoch": [2], "codec": 3},
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
    """An older peer's JSON frame is an object, so it starts with ``{``;
    a binwire document starts with its magic byte.  The refusal's
    first-byte test can never take one for the other."""
    for obj in ({"t": "msg"}, {}, {"t": "hello", "codec": 1}):
        assert json.dumps(obj, separators=(",", ":")).encode()[:1] == b"{"
    for value in ({"t": "msg"}, [1, 2], "x", 7, -7, 1.5, True, None, b"{"):
        assert binwire.dumps(value)[:1] == bytes([binwire.MAGIC]) != b"{"


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
# Every message type x compression
# ---------------------------------------------------------------------------

def _frame_bytes(frame: dict, compress_min=None) -> bytes:
    """``frame`` as our ``write_frame`` puts it on the wire."""
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
@pytest.mark.parametrize("version", [3], ids=["v3"])  # the one format read
def test_every_message_type_survives_the_wire(paper_view, version, compress_min):
    """Our v3 frames decode to exactly the message that was encoded."""
    codec, messages = _fixtures(paper_view)
    for message, body in zip(messages, bodies(codec, messages)):
        raw = _frame_bytes({"t": "msg", "seq": 1, "m": body}, compress_min)
        [frame] = _read_frames(raw)
        copy = codec.decode_message(frame["m"])
        assert same_message(copy, message), type(message.payload).__name__


@pytest.mark.parametrize("compress_min", [None, 0], ids=["plain", "zlib"])
@pytest.mark.parametrize("version", [1, 2], ids=["v1", "v2"])
def test_an_older_peers_json_frame_is_refused(paper_view, version, compress_min):
    """The JSON ``msg`` frame of an older sender, compressed or not, is
    refused by name before its v1/v2 envelope is looked at."""
    for envelope in load_envelopes(version):
        frame = {"t": "msg", "seq": 1, "m": envelope}
        with pytest.raises(UnsupportedFormatError, match="a JSON frame") as info:
            _read_frames(older_peer_frame(frame, compress_min))
        assert isinstance(info.value, WireProtocolError)


@pytest.mark.parametrize("version", [3], ids=["v3"])  # the one format read
def test_cross_version_decode(paper_view, version):
    """A raw socket plays a current sender -- a binwire hello, then one
    ``mb`` frame of every payload type -- and the listener welcomes it
    with ``codec`` 3, acknowledges in binwire and delivers exactly the
    encoded messages.  (Older senders are refused:
    :func:`test_listener_refuses_an_older_peer_by_name`.)"""
    codec, messages = _fixtures(paper_view)
    entries = [
        {"seq": seq, "m": body}
        for seq, body in enumerate(bodies(codec, messages), start=1)
    ]
    frames = [{"t": "mb", "frames": entries}]

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        delivered = []
        listener = ChannelListener(runtime)
        listener.register("R1->wh", SimpleNamespace(put=delivered.append), codec)
        await listener.start()
        reader, writer = await asyncio.open_connection(*listener.address)
        writer.write(_frame_bytes({**_HELLO, "codec": version}))
        await writer.drain()
        header = await reader.readexactly(4)
        welcome_body = await reader.readexactly(struct.unpack(">I", header)[0])
        assert binwire.loads(welcome_body) == {
            "t": "welcome", "expect": 1, "codec": 3
        }
        acks = []
        for frame in frames:
            writer.write(_frame_bytes(frame))
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
