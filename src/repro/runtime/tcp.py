"""TCP transport: length-prefixed frames with FIFO sessions.

Wire format
-----------
Every frame is a 4-byte big-endian length followed by a
:mod:`repro.runtime.binwire` document.  The envelope ``m`` of a ``msg``
frame or ``mb`` entry is a bytes value: the message's packed v3 record
(see :mod:`repro.runtime.codec`), so binwire only walks the frame's few
keys and sequence numbers.  The length's most significant bit flags a
zlib-compressed body (large snapshot payloads shrink by an order of
magnitude); the remaining 31 bits are the on-wire body length.  Five
frame types flow on a connection::

    {"t": "hello",   "channel": name, "next": seq,
     "codec": 3, "epoch": e?}                        sender -> receiver
    {"t": "welcome", "expect": seq, "codec": 3}      receiver -> sender
    {"t": "msg",     "seq": n, "m": record}          sender -> receiver
    {"t": "mb",      "frames": [{"seq", "m"}, ...]}  sender -> receiver
    {"t": "ack",     "seq": n}                       receiver -> sender

One format is written; nothing is negotiated.  ``codec`` tells an older
peer what this one reads: a listener welcomes every sender with
``"codec": 3``, and a sender refuses (:class:`WireProtocolError`) a
welcome that has no ``expect``, no ``codec`` or a ``codec`` below 3 --
a receiver that cannot read records.  Readers stay lenient:
:func:`read_frame` sniffs the body's first byte (binwire's magic
``0xB3`` can never start compact JSON) and so also takes the JSON frames
of older senders, whose ``m`` is a v1/v2 envelope dict that
:meth:`WireCodec.decode_message` still reads.

The **fast path**: protocol messages accepted by ``send`` while the
writer task was busy are flushed as one ``mb`` frame -- one frame
serialization, one ``write``, one ``drain()``, one ack for the whole
batch -- so a k-update burst costs O(1) syscalls instead of O(k).
Encoding happens at write time, not in ``send``.

Session guarantees
------------------
A *channel* is one direction of the paper's source<->warehouse link; its
name (e.g. ``"R2->wh"``) identifies it across reconnects.  The sender
numbers messages 1, 2, 3, ... and keeps everything unacknowledged in a
bounded window; the receiver tracks the next expected sequence number *per
channel name* (surviving reconnects), acknowledges each frame cumulatively
and drops duplicates.  After a connection failure the sender reconnects
(bounded retries, exponential backoff, connect/read timeouts), says hello,
learns the receiver's ``expect`` and resends exactly the suffix the
receiver has not seen.  The result is exactly-once, in-order delivery per
channel -- the reliable FIFO assumption of Section 2 -- on top of an
unreliable connection lifecycle.

Crash-restart epochs
--------------------
Sequence state on both ends normally outlives connections but not
processes.  Durability (see :mod:`repro.durability`) restores the
*protocol* state after a crash; the transport resynchronizes with two
small extensions, both wire-compatible with peers that predate them:

* a restarted **sender** numbers frames from 1 again and announces a
  higher ``epoch`` in its hello (the durable generation).  The listener
  tracks the highest epoch seen per channel and, on an increase, resets
  its expected sequence to the hello's ``next``.  A hello with an epoch
  *below* the highest seen is a stale pre-crash sender and is rejected.
* a restarted **listener** (``adopt_next=True``) lost its expect
  counters.  A healthy sender's ``next`` (its oldest unacked frame) is
  normally at or below the receiver's expect; seeing ``next`` *above*
  expect proves the counter was lost, and the listener adopts ``next``.
  Frames below it were acked pre-crash -- and updates are only acked
  after the durability layer logged them, so nothing adopted-over is
  lost.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
import zlib
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from repro.runtime import binwire
from repro.runtime.codec import CODEC_VERSION, WireCodec
from repro.runtime.errors import (
    TransportOverflowError,
    TransportRetriesExceeded,
    WireProtocolError,
)
from repro.runtime.kernel import AsyncRuntime
from repro.runtime.transport import RuntimeChannel
from repro.simulation.channel import Message
from repro.simulation.mailbox import Mailbox
from repro.simulation.metrics import MetricsCollector

_HEADER = struct.Struct(">I")
_MAX_FRAME = 64 * 1024 * 1024
_COMPRESSED_FLAG = 0x80000000


async def read_frame(
    reader: asyncio.StreamReader, timeout: float | None = None
) -> dict:
    """Read one length-prefixed frame (raises on EOF/oversize/timeout).

    A set MSB in the length prefix marks a zlib-compressed body; readers
    always accept both, so compression needs no negotiation of its own.
    The (decompressed) body's first byte picks the deserializer -- binwire
    magic or JSON -- so a reader also accepts the JSON frames of older
    senders.
    """

    async def _read() -> dict:
        header = await reader.readexactly(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        compressed = bool(length & _COMPRESSED_FLAG)
        length &= ~_COMPRESSED_FLAG
        if length > _MAX_FRAME:
            raise WireProtocolError(f"frame of {length} bytes exceeds limit")
        body = await reader.readexactly(length)
        try:
            if compressed:
                body = zlib.decompress(body)
            if binwire.is_binary(body):
                frame = binwire.loads(body)
            else:
                frame = json.loads(body)
        # ValueError: bad JSON, bad binwire, or invalid UTF-8 in either.
        except (ValueError, zlib.error) as exc:
            raise WireProtocolError(f"undecodable frame: {exc}") from exc
        if type(frame) is not dict:
            raise WireProtocolError(
                f"frame is a {type(frame).__name__}, not an object"
            )
        return frame

    if timeout is None:
        return await _read()
    return await asyncio.wait_for(_read(), timeout)


def write_frame(
    writer: asyncio.StreamWriter,
    obj: dict,
    compress_min: int | None = None,
) -> tuple[int, int]:
    """Serialize one frame onto ``writer`` through :mod:`repro.runtime.
    binwire` (caller drains).

    Bodies of at least ``compress_min`` bytes are zlib-compressed and
    flagged via the length prefix's MSB; ``None`` disables compression.
    Returns ``(raw_len, wire_len)`` -- serialized body bytes before and
    after compression -- for the caller's byte accounting.
    """
    body = binwire.dumps(obj)
    raw_len = len(body)
    if compress_min is not None and raw_len >= compress_min:
        packed = zlib.compress(body, 1)
        if len(packed) < raw_len:
            writer.write(_HEADER.pack(len(packed) | _COMPRESSED_FLAG) + packed)
            return raw_len, len(packed)
    writer.write(_HEADER.pack(raw_len) + body)
    return raw_len, raw_len


@dataclass(frozen=True)
class TcpChannelConfig:
    """Knobs for one outbound TCP channel (times in wall seconds)."""

    connect_timeout: float = 5.0
    read_timeout: float = 30.0
    max_retries: int = 8
    backoff_initial: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    max_queue: int = 1024
    #: The codec version written; 3 is the only one.  Kept so that
    #: configurations naming it still load.
    codec_version: int = CODEC_VERSION
    #: Compress frame bodies at least this large (None disables).
    compress_min_bytes: int | None = 16 * 1024

    def __post_init__(self) -> None:
        if self.codec_version != CODEC_VERSION:
            raise ValueError(
                f"codec_version must be {CODEC_VERSION} (the only format"
                f" written), got {self.codec_version!r}"
            )


async def probe_peer(
    host: str,
    port: int,
    config: TcpChannelConfig | None = None,
    what: str = "peer",
    heard: Callable[[], bool] | None = None,
) -> None:
    """Verify a peer listener is reachable before serving against it.

    Outbound :class:`TcpChannel` sessions dial lazily -- a serve-mode
    process whose peer is down otherwise waits forever (warehouse with a
    dead source) or drains an empty schedule and exits 0 (source with a
    dead warehouse).  This probe applies the channel's own retry budget
    and backoff up front: connect, immediately close (the listener treats
    a frameless connection as an ordinary disconnect), and raise
    :class:`TransportRetriesExceeded` when every attempt fails.

    ``heard`` reports that the peer has meanwhile dialed *us* (see
    :meth:`ChannelListener.heard`), which proves the address as well as a
    connect does: a peer that came up, finished a short run and exited
    between two back-off attempts is not a dead peer.
    """
    cfg = config if config is not None else TcpChannelConfig()
    delay = cfg.backoff_initial
    last_error: Exception | None = None
    for _ in range(max(1, cfg.max_retries)):
        if heard is not None and heard():
            return
        try:
            _, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), cfg.connect_timeout
            )
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
            return
        except (OSError, asyncio.TimeoutError) as exc:
            last_error = exc
            await asyncio.sleep(delay)
            delay = min(delay * cfg.backoff_factor, cfg.backoff_max)
    if heard is not None and heard():
        return
    raise TransportRetriesExceeded(
        f"{what}: {host}:{port} unreachable after {max(1, cfg.max_retries)}"
        f" attempts ({last_error})"
    )


class _SilenceWatchdog:
    """Turn ``timeout`` seconds without :meth:`heard` into a timeout error.

    A context manager for a read loop: the enclosed task gets
    ``asyncio.TimeoutError`` -- what ``asyncio.wait_for`` around each read
    would raise -- but from one timer handle for the whole session.  The
    handle is re-armed only when it fires (for whatever is left of the
    window since the last frame), so a frame costs a clock read, not a
    task and a timer.
    """

    def __init__(self, timeout: float):
        self._timeout = timeout
        self._loop = asyncio.get_running_loop()
        self._task = asyncio.current_task()
        self._heard_at = self._loop.time()
        self._expired = False
        self._handle = self._loop.call_later(timeout, self._fire)

    def heard(self) -> None:
        """The peer spoke: the silence window starts over."""
        self._heard_at = self._loop.time()

    def _fire(self) -> None:
        left = self._heard_at + self._timeout - self._loop.time()
        if left > 0:
            self._handle = self._loop.call_later(left, self._fire)
        else:
            self._expired = True
            self._task.cancel()

    def __enter__(self) -> "_SilenceWatchdog":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self._handle.cancel()
        if self._expired and exc_type is asyncio.CancelledError:
            raise asyncio.TimeoutError from exc


class TcpChannel(RuntimeChannel):
    """Outbound half of a FIFO session; duck-types the simulator Channel.

    ``send`` is synchronous (called from protocol code); a writer task owns
    the connection: it dials with bounded retry and exponential backoff,
    performs the hello/welcome handshake, streams pending frames and
    processes acknowledgements.  The retry budget refills after every
    successful handshake, so a long-lived channel survives any number of
    *separate* outages while still failing fast on a dead peer.
    """

    def __init__(
        self,
        runtime: AsyncRuntime,
        name: str,
        host: str,
        port: int,
        codec: WireCodec,
        metrics: MetricsCollector | None = None,
        config: TcpChannelConfig | None = None,
        epoch: int = 0,
    ):
        cfg = config if config is not None else TcpChannelConfig()
        super().__init__(runtime, name, metrics, cfg.max_queue)
        self.host = host
        self.port = port
        self.codec = codec
        self.config = cfg
        #: crash-restart incarnation; a nonzero epoch tells the listener
        #: this sender restarted and renumbered its frames from 1.
        self.epoch = epoch
        self._next_seq = 1
        #: messages accepted but not yet written on the current connection;
        #: encoding is deferred to write time.
        self._pending: deque[tuple[int, Message]] = deque()
        #: messages written but not yet acknowledged
        self._inflight: deque[tuple[int, Message]] = deque()
        self._wake = asyncio.Event()
        self._closed = False
        self._session_established = False
        self.reconnects = 0
        self.batches_sent = 0
        #: Optional dead-peer tolerance hook.  Called with the
        #: :class:`TransportRetriesExceeded` when the retry budget is
        #: exhausted; returning True marks the channel dead (queued
        #: frames dropped, future sends ignored) instead of failing the
        #: runtime -- how a source tolerates a crashed standby whose
        #: replica group still has a live member.
        self.on_give_up = None
        self.dead = False
        self._task = runtime.create_task(self._run(), f"tcp-writer:{name}")

    # ------------------------------------------------------------------
    # The Channel contract
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        if self.dead:
            return
        if self.queued >= self.max_queue:
            raise TransportOverflowError(
                f"channel {self.name!r}: bounded send window full"
                f" ({self.max_queue} frames); pace the producer with drain()"
            )
        self._account(message)
        self._pending.append((self._next_seq, message))
        self._next_seq += 1
        self._wake.set()

    @property
    def idle(self) -> bool:
        return not self._pending and not self._inflight

    @property
    def queued(self) -> int:
        return len(self._pending) + len(self._inflight)

    async def aclose(self) -> None:
        self._closed = True
        self._wake.set()

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        cfg = self.config
        retries = 0
        backoff = cfg.backoff_initial
        while not self._closed:
            if self.idle:
                # Dial lazily: a channel with nothing to send holds no
                # connection, so peers may come up (and go away) in any
                # order without burning this channel's retry budget.
                self._wake.clear()
                if self.idle and not self._closed:
                    await self._wake.wait()
                continue
            try:
                await self._session()
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
                if self._session_established:
                    # The budget bounds attempts per outage, not per
                    # lifetime: refill it after every completed handshake.
                    retries = 0
                    backoff = cfg.backoff_initial
                retries += 1
                if retries > cfg.max_retries:
                    error = TransportRetriesExceeded(
                        f"channel {self.name!r}: {self.host}:{self.port}"
                        f" unreachable after {cfg.max_retries} retries"
                    )
                    if self.on_give_up is not None and self.on_give_up(error):
                        self.dead = True
                        self._pending.clear()
                        self._inflight.clear()
                        self._dequeued()
                        return
                    raise error from None
                self.reconnects += 1
                await asyncio.sleep(backoff)
                backoff = min(backoff * cfg.backoff_factor, cfg.backoff_max)

    async def _session(self) -> None:
        """One connection: handshake, then stream frames until it breaks."""
        cfg = self.config
        self._session_established = False
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), cfg.connect_timeout
        )
        try:
            oldest = self._inflight[0][0] if self._inflight else (
                self._pending[0][0] if self._pending else self._next_seq
            )
            hello = {
                "t": "hello",
                "channel": self.name,
                "next": oldest,
                "codec": CODEC_VERSION,
            }
            if self.epoch:
                hello["epoch"] = self.epoch
            write_frame(writer, hello)
            await writer.drain()
            welcome = await read_frame(reader, cfg.read_timeout)
            self._rewind(self._expected_by(welcome))
            if self.metrics is not None:
                self.metrics.increment("wire_sessions")
            self._session_established = True

            # A plain task (not runtime-guarded): a dropped connection here
            # is a *recoverable* event consumed by the writer's retry loop,
            # not a fatal runtime failure.  Its end wakes the writer.
            ack_task = asyncio.ensure_future(self._read_acks(reader))
            ack_task.add_done_callback(lambda _task: self._wake.set())
            try:
                while not self._closed:
                    self._write_pending(writer)
                    await writer.drain()
                    self._wake.clear()
                    if not self._pending and not ack_task.done():
                        await self._wake.wait()
                    if ack_task.done():
                        # Surface connection loss noticed by the ack reader.
                        ack_task.result()
                        raise ConnectionResetError("ack stream ended")
            finally:
                ack_task.cancel()
                try:
                    await ack_task
                except (asyncio.CancelledError, Exception):
                    pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    def _expected_by(self, welcome: dict) -> int:
        """The welcome's ``expect``, once it proves the peer reads records."""
        if welcome.get("t") != "welcome":
            raise WireProtocolError(
                f"channel {self.name!r}: expected welcome, got {welcome!r}"
            )
        codec = welcome.get("codec")
        expect = welcome.get("expect")
        if type(codec) is not int or codec < CODEC_VERSION:
            raise WireProtocolError(
                f"channel {self.name!r}: the receiver reads codec {codec!r};"
                f" this sender writes only v{CODEC_VERSION} records"
            )
        if type(expect) is not int:
            raise WireProtocolError(
                f"channel {self.name!r}: welcome without an expected"
                f" sequence: {welcome!r}"
            )
        return expect

    def _write_pending(self, writer: asyncio.StreamWriter) -> None:
        """Flush every accepted message; the caller drains once.

        A multi-message burst leaves as a single ``mb`` frame -- one
        serialization, one write, one ack.
        """
        if not self._pending:
            return
        compress_min = self.config.compress_min_bytes
        burst: list[tuple[int, Message]] = []
        while self._pending:
            entry = self._pending.popleft()
            self._inflight.append(entry)
            burst.append(entry)
        started = time.perf_counter_ns()
        raw_total = wire_total = 0
        if len(burst) > 1:
            frames = [
                {"seq": seq, "m": self.codec.encode_message(message)}
                for seq, message in burst
            ]
            raw_total, wire_total = write_frame(
                writer, {"t": "mb", "frames": frames}, compress_min
            )
            self.batches_sent += 1
        else:
            for seq, message in burst:
                frame = {
                    "t": "msg",
                    "seq": seq,
                    "m": self.codec.encode_message(message),
                }
                raw, wire = write_frame(writer, frame, compress_min)
                raw_total += raw
                wire_total += wire
        if self.metrics is not None:
            self.metrics.increment("wire_bytes_precompress", raw_total)
            self.metrics.increment("wire_bytes_total", wire_total)
            self.metrics.increment(
                "encode_ns", time.perf_counter_ns() - started
            )

    async def _read_acks(self, reader: asyncio.StreamReader) -> None:
        """Apply cumulative acks until the connection breaks or the peer
        has been silent for ``read_timeout`` (``asyncio.TimeoutError``)."""
        with _SilenceWatchdog(self.config.read_timeout) as watchdog:
            while True:
                frame = await read_frame(reader)
                watchdog.heard()
                if frame.get("t") != "ack":
                    raise WireProtocolError(
                        f"channel {self.name!r}: unexpected frame {frame!r}"
                    )
                acked = int(frame["seq"])
                while self._inflight and self._inflight[0][0] <= acked:
                    self._inflight.popleft()
                self._dequeued()

    def _rewind(self, expect: int) -> None:
        """Align the send window with the receiver's expected sequence."""
        retransmit = [entry for entry in self._inflight if entry[0] >= expect]
        self._inflight.clear()
        for entry in reversed(retransmit):
            self._pending.appendleft(entry)


class ChannelListener:
    """Inbound endpoint: accepts FIFO sessions for registered channels.

    Per-channel receive state (next expected sequence number) lives here,
    keyed by channel name, so it survives any number of reconnects by the
    sending side.  ``adopt_next=True`` marks a listener whose process was
    restarted from durable state: its expect counters restarted at 1, so
    a healthy sender's hello ``next`` above expect is adopted rather than
    treated as a gap (see the module docstring's crash-restart notes).
    """

    def __init__(
        self,
        runtime: AsyncRuntime,
        host: str = "127.0.0.1",
        port: int = 0,
        adopt_next: bool = False,
    ):
        self.runtime = runtime
        self.host = host
        self.port = port
        self.adopt_next = adopt_next
        self._registrations: dict[str, tuple[Mailbox, WireCodec]] = {}
        self._expect: dict[str, int] = {}
        #: highest crash-restart epoch seen per channel.
        self._epochs: dict[str, int] = {}
        self._server: asyncio.AbstractServer | None = None
        self.connections_accepted = 0
        self._heard: set[str] = set()
        #: wall clock (time.monotonic) of the last frame handled; lets a
        #: serving process linger until its peers have gone quiet.
        self.last_frame_wall = 0.0

    # ------------------------------------------------------------------
    def register(self, channel: str, destination: Mailbox, codec: WireCodec) -> None:
        """Accept frames for ``channel`` and deliver them to ``destination``."""
        self._registrations[channel] = (destination, codec)
        self._expect.setdefault(channel, 1)

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def heard(self, channel: str) -> bool:
        """True once the sender of ``channel`` completed a handshake here."""
        return channel in self._heard

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        name = "?"
        try:
            hello = await read_frame(reader, timeout=30.0)
            if hello.get("t") != "hello":
                raise WireProtocolError(f"expected hello, got {hello!r}")
            name = hello.get("channel", "?")
            if type(name) is not str or name not in self._registrations:
                raise WireProtocolError(f"unknown channel {name!r}")
            try:
                epoch = int(hello.get("epoch", 0))
                announced = int(hello.get("next", 1))
                # Checked, not negotiated: every version a sender
                # writes is read.
                int(hello.get("codec", 1))
            except (TypeError, ValueError) as exc:
                raise WireProtocolError(f"malformed hello {hello!r}") from exc
            self.connections_accepted += 1
            self._heard.add(name)
            destination, codec = self._registrations[name]
            known = self._epochs.get(name, 0)
            if epoch > known:
                # The sender restarted and renumbered: realign with it.
                self._epochs[name] = epoch
                self._expect[name] = announced
            elif epoch < known:
                raise WireProtocolError(
                    f"channel {name!r}: stale epoch {epoch}"
                    f" (highest seen {known})"
                )
            elif self.adopt_next and announced > self._expect[name]:
                # Our expect counter restarted below the sender's oldest
                # unacked frame; everything below was acked (and logged)
                # before the crash.
                self._expect[name] = announced
            write_frame(
                writer,
                {
                    "t": "welcome",
                    "expect": self._expect[name],
                    "codec": CODEC_VERSION,
                },
            )
            await writer.drain()
            while True:
                frame = await read_frame(reader)
                self.last_frame_wall = time.monotonic()
                kind = frame.get("t")
                if kind == "msg":
                    entries = (frame,)
                elif kind == "mb" and type(frame.get("frames")) is list:
                    entries = frame["frames"]
                else:
                    raise WireProtocolError(f"unexpected frame {frame!r}")
                for entry in entries:
                    try:
                        seq = int(entry["seq"])
                        body = entry["m"]
                    except (KeyError, TypeError, ValueError) as exc:
                        raise WireProtocolError(
                            f"channel {name!r}: malformed {kind!r} entry"
                            f" {entry!r} ({type(exc).__name__}: {exc})"
                        ) from exc
                    expect = self._expect[name]
                    if seq > expect:
                        raise WireProtocolError(
                            f"channel {name!r}: sequence gap (got {seq},"
                            f" expected {expect})"
                        )
                    if seq == expect:  # not a duplicate from a resend
                        message = codec.decode_message(body)
                        message.delivered_at = self.runtime.now
                        destination.put(message)
                        self._expect[name] = expect + 1
                # One cumulative ack per wire frame, batched or not.
                write_frame(writer, {"t": "ack", "seq": self._expect[name] - 1})
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError, asyncio.TimeoutError):
            pass  # sender reconnects and resumes the session
        except asyncio.CancelledError:
            pass  # event loop shutdown cancels handler tasks
        except WireProtocolError as exc:
            self.runtime.record_failure(exc)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    def __repr__(self) -> str:
        return (
            f"ChannelListener({self.host}:{self.port},"
            f" channels={sorted(self._registrations)})"
        )


__all__ = [
    "ChannelListener",
    "TcpChannel",
    "TcpChannelConfig",
    "probe_peer",
    "read_frame",
    "write_frame",
]
