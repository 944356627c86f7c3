"""Deterministic fault injection under the runtime's FIFO transports.

SWEEP's correctness argument (Section 4) needs exactly one communication
property: reliable FIFO channels.  The transports provide it -- but a
transport that is only ever exercised on a healthy loopback proves
nothing about the session machinery (sequence numbers, duplicate
suppression, reconnect-and-resume) that *implements* the property.  This
module injects faults **below** the FIFO contract, so the protocol still
sees exactly-once in-order delivery while the delivery path suffers:

* **delay bursts** -- whole runs of consecutive messages held back;
* **duplicate delivery** -- a wire copy re-injected after a lag, which
  the receive filter must suppress;
* **drops** -- a wire attempt lost and retransmitted (for TCP: the
  connection killed mid-frame, forcing reconnect-and-resume);
* **crash-restart blackouts** -- periodic windows during which the link
  is dark (for TCP: dials are accepted and immediately closed, as a
  crashed-and-restarting peer would);
* **source stalls / bursts** -- the *sending side* goes quiet for a
  while and then releases the held block back-to-back: head-of-line
  latency that preserves FIFO but turns a smooth update stream into
  burst arrivals (the arrival pattern batched schedulers and the
  durability WAL see under real source hiccups);
* **reorders within the retry budget** -- a frame attempts the wire out
  of order; the receive filter rejects it by sequence number and the
  in-order retransmit lands within ``retransmit_delay`` (for TCP, where
  a byte stream cannot reorder, the connection is killed instead and the
  session resumes in order).

Every fault decision is a pure function of ``(seed, channel name, event
key)`` -- :class:`FaultPlan` draws each decision from its own
freshly-keyed RNG -- so a fault schedule is reproducible regardless of
how the event loop interleaves tasks.

:data:`PROFILES` names the stock fault mixes the conformance harness
(``python -m repro conformance``) sweeps every algorithm through.
"""

from __future__ import annotations

import asyncio
import random
import struct
from collections import deque
from dataclasses import dataclass, fields

from repro.runtime.errors import TransportOverflowError
from repro.runtime.transport import RuntimeChannel
from repro.simulation.channel import Message
from repro.simulation.metrics import MetricsCollector

_HEADER = struct.Struct(">I")
_LENGTH_MASK = 0x7FFFFFFF


@dataclass(frozen=True)
class ChaosConfig:
    """One named fault mix.  All durations are in *virtual* time units.

    A zero probability (or period) disables that fault; the default
    instance is entirely healthy, so wrapping a channel with it changes
    nothing but accounting.
    """

    name: str = "healthy"
    #: Probability that a whole block of ``delay_burst`` consecutive
    #: messages is delayed (bursty latency, not i.i.d. jitter).
    delay_prob: float = 0.0
    #: Mean of the exponential extra latency applied to a delayed message.
    delay_mean: float = 0.0
    #: Number of consecutive messages sharing one burst decision.
    delay_burst: int = 1
    #: Probability a delivered message is followed by a duplicate wire copy.
    dup_prob: float = 0.0
    #: How long after the original the duplicate lands.
    dup_lag: float = 2.0
    #: Probability one wire attempt is lost (local) / one frame kills the
    #: connection (TCP), forcing a retransmit or reconnect-and-resume.
    drop_prob: float = 0.0
    #: Pause between a lost wire attempt and its retransmission.
    retransmit_delay: float = 1.0
    #: Lost attempts are capped per message so progress is guaranteed.
    max_drops_per_message: int = 3
    #: Period of crash-restart blackout windows (0 disables them).
    crash_period: float = 0.0
    #: How long each blackout keeps the link dark.
    crash_downtime: float = 0.0
    #: Probability a block of ``stall_burst`` messages opens a source
    #: stall: the sender goes quiet, everything queued behind waits too
    #: (head-of-line, FIFO preserved), then the block lands back-to-back.
    stall_prob: float = 0.0
    #: Mean of the exponential stall length.
    stall_mean: float = 0.0
    #: Messages sharing one stall decision (the burst released after it).
    stall_burst: int = 1
    #: Probability a frame attempts the wire out of order.  The receive
    #: filter rejects it and the in-order retransmit follows within
    #: ``retransmit_delay`` -- reorder bounded by the retry budget.
    reorder_prob: float = 0.0

    @property
    def active(self) -> bool:
        """True when any fault can actually fire."""
        return (
            self.delay_prob > 0
            or self.dup_prob > 0
            or self.drop_prob > 0
            or (self.crash_period > 0 and self.crash_downtime > 0)
            or (self.stall_prob > 0 and self.stall_mean > 0)
            or self.reorder_prob > 0
        )


#: Stock fault mixes, tuned so a conformance run at ``time_scale=0.002``
#: sees faults comparable to its update inter-arrival gap (i.e. sweeps
#: routinely race with both updates and injected faults).
PROFILES: dict[str, ChaosConfig] = {
    "healthy": ChaosConfig(),
    "delay": ChaosConfig(
        name="delay", delay_prob=0.35, delay_mean=8.0, delay_burst=3
    ),
    "dup": ChaosConfig(name="dup", dup_prob=0.35, dup_lag=3.0),
    "drop": ChaosConfig(name="drop", drop_prob=0.3, retransmit_delay=1.5),
    "crash": ChaosConfig(
        name="crash",
        drop_prob=0.12,
        retransmit_delay=1.0,
        crash_period=40.0,
        crash_downtime=6.0,
    ),
    "hostile": ChaosConfig(
        name="hostile",
        delay_prob=0.25,
        delay_mean=5.0,
        delay_burst=2,
        dup_prob=0.2,
        dup_lag=2.0,
        drop_prob=0.15,
        retransmit_delay=1.0,
        crash_period=60.0,
        crash_downtime=5.0,
    ),
    # Source-side profiles: faults originate at the sending site rather
    # than on the wire.
    "source-stall": ChaosConfig(
        name="source-stall", stall_prob=0.2, stall_mean=10.0, stall_burst=2
    ),
    "source-burst": ChaosConfig(
        name="source-burst", stall_prob=0.45, stall_mean=4.0, stall_burst=5
    ),
    "source-reorder": ChaosConfig(
        name="source-reorder", reorder_prob=0.3, retransmit_delay=1.0
    ),
    # What a crashing-and-recovering peer looks like from the outside:
    # long dark windows plus stalls while it replays its durable state.
    # (Actual kill-and-recover of a *shard* is driven by the scenario
    # harness -- CrashRestart in repro.harness.scenarios -- which pairs
    # this profile with a CrashPlan.)
    "crash-restart": ChaosConfig(
        name="crash-restart",
        drop_prob=0.1,
        retransmit_delay=1.0,
        crash_period=30.0,
        crash_downtime=8.0,
        stall_prob=0.15,
        stall_mean=5.0,
        stall_burst=2,
    ),
}


def profile(name_or_config: "str | ChaosConfig | None") -> ChaosConfig | None:
    """Resolve a profile name (or pass a config/None through)."""
    if name_or_config is None or isinstance(name_or_config, ChaosConfig):
        return name_or_config
    try:
        return PROFILES[name_or_config]
    except KeyError:
        raise KeyError(
            f"unknown chaos profile {name_or_config!r};"
            f" available: {sorted(PROFILES)}"
        ) from None


@dataclass
class ChaosStats:
    """What the fault layer actually did during one run (all channels)."""

    delays_injected: int = 0
    dups_injected: int = 0
    dups_suppressed: int = 0
    drops_injected: int = 0
    connections_killed: int = 0
    blackouts_hit: int = 0
    stalls_injected: int = 0
    reorders_injected: int = 0
    #: out-of-order wire attempts the receive filter rejected.
    reorders_suppressed: int = 0

    @property
    def faults_injected(self) -> int:
        return (
            self.delays_injected
            + self.dups_injected
            + self.drops_injected
            + self.connections_killed
            + self.blackouts_hit
            + self.stalls_injected
            + self.reorders_injected
        )

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class FaultPlan:
    """Deterministic fault decisions for one channel.

    Each query draws from a RNG keyed by ``(seed, scope, decision, event
    key)``; no RNG state is shared between decisions, so the schedule is
    independent of task interleaving and identical across reruns.
    """

    def __init__(self, config: ChaosConfig, seed: int, scope: str):
        self.config = config
        self.seed = seed
        self.scope = scope

    def _rng(self, *key: object) -> random.Random:
        return random.Random(f"{self.seed}:{self.scope}:" + ":".join(map(str, key)))

    # ------------------------------------------------------------------
    def delay(self, key: int) -> float:
        """Extra latency for event ``key`` (0.0 when not in a delayed burst)."""
        cfg = self.config
        if cfg.delay_prob <= 0 or cfg.delay_mean <= 0:
            return 0.0
        block = (key - 1) // max(1, cfg.delay_burst)
        if self._rng("burst", block).random() >= cfg.delay_prob:
            return 0.0
        return self._rng("delay", key).expovariate(1.0 / cfg.delay_mean)

    def duplicated(self, key: int) -> bool:
        """Whether event ``key``'s wire frame gets a duplicate copy."""
        cfg = self.config
        return cfg.dup_prob > 0 and self._rng("dup", key).random() < cfg.dup_prob

    def drop_attempts(self, key: int) -> int:
        """Failed wire attempts before event ``key`` goes through."""
        cfg = self.config
        if cfg.drop_prob <= 0:
            return 0
        lost = 0
        while (
            lost < cfg.max_drops_per_message
            and self._rng("drop", key, lost).random() < cfg.drop_prob
        ):
            lost += 1
        return lost

    def killed(self, key: int) -> bool:
        """TCP only: whether forwarding event ``key`` kills the connection."""
        cfg = self.config
        return cfg.drop_prob > 0 and self._rng("kill", key).random() < cfg.drop_prob

    def stall(self, key: int) -> float:
        """Source-stall length opened by event ``key`` (0.0 for most).

        Decisions are per block of ``stall_burst`` events, and only the
        block head pays the sleep -- the rest of the block rides its wake
        and lands as a burst.
        """
        cfg = self.config
        if cfg.stall_prob <= 0 or cfg.stall_mean <= 0:
            return 0.0
        burst = max(1, cfg.stall_burst)
        block = (key - 1) // burst
        if key != block * burst + 1:
            return 0.0
        if self._rng("stall-block", block).random() >= cfg.stall_prob:
            return 0.0
        return self._rng("stall", block).expovariate(1.0 / cfg.stall_mean)

    def reordered(self, key: int) -> bool:
        """Whether event ``key`` provokes an out-of-order wire attempt."""
        cfg = self.config
        return (
            cfg.reorder_prob > 0
            and self._rng("reorder", key).random() < cfg.reorder_prob
        )

    def blackout_remaining(self, now: float) -> float:
        """Virtual time left in the blackout covering ``now`` (0 if none).

        Windows open at ``k * crash_period`` for ``k >= 1`` and last
        ``crash_downtime`` -- a crashed peer that restarts on a cadence.
        """
        cfg = self.config
        if cfg.crash_period <= 0 or cfg.crash_downtime <= 0 or now < cfg.crash_period:
            return 0.0
        phase = now % cfg.crash_period
        if phase < cfg.crash_downtime:
            return cfg.crash_downtime - phase
        return 0.0


class ChaosLocalChannel(RuntimeChannel):
    """A :class:`LocalChannel` twin whose wire misbehaves on schedule.

    The channel keeps its own miniature session layer -- send-side
    sequence numbers, a receive-side expected-sequence filter -- exactly
    the machinery :class:`~repro.runtime.tcp.TcpChannel` uses, so drops
    retransmit and duplicates are suppressed while the destination
    mailbox still observes exactly-once FIFO delivery.
    """

    def __init__(
        self,
        runtime,
        name: str,
        destination,
        metrics: MetricsCollector | None = None,
        max_queue: int = 1024,
        config: ChaosConfig | None = None,
        seed: int = 0,
        stats: ChaosStats | None = None,
    ):
        super().__init__(runtime, name, metrics, max_queue)
        self.destination = destination
        self.config = config if config is not None else ChaosConfig()
        self.plan = FaultPlan(self.config, seed, name)
        self.stats = stats if stats is not None else ChaosStats()
        self._pending: deque[tuple[int, Message]] = deque()
        self._next_seq = 1
        self._expect = 1
        self._undelivered = 0
        self._wake = asyncio.Event()
        self._task = runtime.create_task(self._deliver_loop(), f"chaos:{name}")

    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        if self._undelivered >= self.max_queue:
            raise TransportOverflowError(
                f"channel {self.name!r}: bounded send queue full"
                f" ({self.max_queue} messages); pace the producer with drain()"
            )
        self._account(message)
        self._pending.append((self._next_seq, message))
        self._next_seq += 1
        self._undelivered += 1
        self._wake.set()

    @property
    def idle(self) -> bool:
        return self._undelivered == 0

    @property
    def queued(self) -> int:
        return self._undelivered

    # ------------------------------------------------------------------
    async def _deliver_loop(self) -> None:
        while True:
            if not self._pending:
                self._wake.clear()
                if not self._pending:
                    await self._wake.wait()
                continue
            seq, message = self._pending[0]
            # Crash-restart blackout: the link is dark, nothing moves.
            remaining = self.plan.blackout_remaining(self.runtime.now)
            if remaining > 0:
                self.stats.blackouts_hit += 1
                await self.runtime.sleep(remaining)
            # Source stall: the sender goes quiet; everything queued
            # behind this message waits too (head-of-line, FIFO kept),
            # then the held block lands back-to-back.
            stall = self.plan.stall(seq)
            if stall > 0:
                self.stats.stalls_injected += 1
                await self.runtime.sleep(stall)
            # Lost wire attempts: the paper's reliable channel is built
            # from retransmission, so a drop costs time, not messages.
            for _ in range(self.plan.drop_attempts(seq)):
                self.stats.drops_injected += 1
                await self.runtime.sleep(self.config.retransmit_delay)
            delay = self.plan.delay(seq)
            if delay > 0:
                self.stats.delays_injected += 1
                await self.runtime.sleep(delay)
            if self.plan.reordered(seq) and len(self._pending) > 1:
                # Out-of-order wire attempt: the frame *behind* this one
                # tries to jump the queue.  The receive filter rejects it
                # by sequence number, and its in-order (re)transmission
                # happens on its own turn, within the retry budget.
                self.stats.reorders_injected += 1
                next_seq, next_message = self._pending[1]
                self._wire_deliver(next_seq, next_message)
                await self.runtime.sleep(self.config.retransmit_delay)
            self._wire_deliver(seq, message)
            if self.plan.duplicated(seq):
                # The duplicate lands *after* later traffic may have gone
                # through -- the receive filter must reject it by seq.
                self.stats.dups_injected += 1
                self.runtime.schedule(
                    self.config.dup_lag,
                    lambda s=seq, m=message: self._wire_deliver(s, m),
                )
            self._pending.popleft()
            self._undelivered -= 1
            self._dequeued()

    def _wire_deliver(self, seq: int, message: Message) -> None:
        """The receive filter: deliver in-sequence frames exactly once."""
        if seq != self._expect:
            if seq > self._expect:
                self.stats.reorders_suppressed += 1
            else:
                self.stats.dups_suppressed += 1
            return
        message.delivered_at = self.runtime.now
        self.destination.put(message)
        self._expect += 1


class ChaosTcpProxy:
    """A frame-aware TCP proxy that misbehaves between two real sockets.

    Sits between a :class:`~repro.runtime.tcp.TcpChannel` and its
    :class:`~repro.runtime.tcp.ChannelListener`.  The client->server
    direction is forwarded frame by frame (4-byte length prefix kept
    verbatim, bodies never decoded) so individual frames can be delayed,
    duplicated, or turned into a mid-stream connection kill; the
    server->client direction (welcomes and acks) passes through
    untouched.  The first frame of every connection -- the hello -- is
    never faulted: a duplicated or dropped handshake is a *different*
    failure mode than the session resume under test.

    During a blackout window new dials are accepted and immediately
    closed and live connections are torn down, which is what dialing a
    crashed-and-restarting peer looks like from the outside.
    """

    def __init__(
        self,
        runtime,
        name: str,
        upstream: tuple[str, int],
        config: ChaosConfig,
        seed: int = 0,
        stats: ChaosStats | None = None,
        listen_host: str = "127.0.0.1",
    ):
        self.runtime = runtime
        self.name = name
        self.upstream = upstream
        self.config = config
        self.plan = FaultPlan(config, seed, f"proxy:{name}")
        self.stats = stats if stats is not None else ChaosStats()
        self.listen_host = listen_host
        self._server: asyncio.AbstractServer | None = None
        self._port = 0
        self._conn_count = 0
        self._live: set[asyncio.StreamWriter] = set()
        self._reaper: asyncio.Task | None = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.listen_host, 0
        )
        self._port = self._server.sockets[0].getsockname()[1]
        if self.config.crash_period > 0 and self.config.crash_downtime > 0:
            self._reaper = asyncio.ensure_future(self._crash_reaper())

    @property
    def address(self) -> tuple[str, int]:
        return (self.listen_host, self._port)

    async def aclose(self) -> None:
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except (asyncio.CancelledError, Exception):
                pass
            self._reaper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._live):
            writer.close()

    # ------------------------------------------------------------------
    async def _crash_reaper(self) -> None:
        """Kill every live connection when a blackout window opens."""
        in_blackout = False
        while True:
            dark = self.plan.blackout_remaining(self.runtime.now) > 0
            if dark and not in_blackout:
                self.stats.blackouts_hit += 1
                for writer in list(self._live):
                    writer.close()
            in_blackout = dark
            await asyncio.sleep(0.005)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._handle_inner(reader, writer)
        except asyncio.CancelledError:
            pass  # loop shutdown mid-connection: exit quietly

    async def _handle_inner(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self.plan.blackout_remaining(self.runtime.now) > 0:
            # The peer is "down": accept and slam the door; the dialing
            # channel backs off and retries until the restart.
            writer.close()
            return
        conn = self._conn_count
        self._conn_count += 1
        try:
            up_reader, up_writer = await asyncio.open_connection(*self.upstream)
        except OSError:
            writer.close()
            return
        self._live.update((writer, up_writer))
        # First pump to stop wins: a kill on the client->server side must
        # tear down the server->client side too, or the dialing channel
        # never learns its connection died.
        pumps = {
            asyncio.ensure_future(self._pump_frames(reader, up_writer, conn)),
            asyncio.ensure_future(self._pump_raw(up_reader, writer)),
        }
        try:
            await asyncio.wait(pumps, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for task in pumps:
                task.cancel()
            for task in pumps:
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
            self._live.discard(writer)
            self._live.discard(up_writer)
            for w in (writer, up_writer):
                w.close()
                try:
                    await w.wait_closed()
                except (OSError, asyncio.CancelledError):
                    pass

    async def _pump_frames(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        conn: int,
    ) -> None:
        """Forward client->server frames, injecting scheduled faults."""
        frame_idx = 0
        while True:
            header = await reader.readexactly(_HEADER.size)
            (prefix,) = _HEADER.unpack(header)
            body = await reader.readexactly(prefix & _LENGTH_MASK)
            frame_idx += 1
            key = conn * 1_000_003 + frame_idx
            if frame_idx > 1:  # never fault the hello handshake
                if self.plan.killed(key):
                    # Drop the frame *and* the connection: the sender's
                    # unacked window resends it after the reconnect.
                    self.stats.connections_killed += 1
                    return
                if self.plan.reordered(key):
                    # A byte stream cannot reorder; the closest
                    # observable effect is this frame not arriving in
                    # order -- kill the connection and let the session
                    # resume, which re-sends everything in order.
                    self.stats.reorders_injected += 1
                    return
                stall = self.plan.stall(key)
                if stall > 0:
                    # Head-of-line: the whole stream behind this frame
                    # waits with it, exactly like a stalled source.
                    self.stats.stalls_injected += 1
                    await self.runtime.sleep(stall)
                delay = self.plan.delay(key)
                if delay > 0:
                    self.stats.delays_injected += 1
                    await self.runtime.sleep(delay)
                if self.plan.duplicated(key):
                    self.stats.dups_injected += 1
                    writer.write(header + body)
            writer.write(header + body)
            await writer.drain()

    async def _pump_raw(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            data = await reader.read(4096)
            if not data:
                return
            writer.write(data)
            await writer.drain()

    def __repr__(self) -> str:
        return (
            f"ChaosTcpProxy({self.name!r}, {self.listen_host}:{self._port}"
            f" -> {self.upstream[0]}:{self.upstream[1]},"
            f" profile={self.config.name})"
        )


__all__ = [
    "ChaosConfig",
    "ChaosLocalChannel",
    "ChaosStats",
    "ChaosTcpProxy",
    "FaultPlan",
    "PROFILES",
    "profile",
]
