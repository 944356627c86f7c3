"""The chaos layer must misbehave *below* the FIFO contract, not break it.

Every test here drives real messages through a faulting transport and
asserts the two things the protocol stack is entitled to: exactly-once
delivery in send order, and deterministic fault schedules (same seed,
same faults).  The faults themselves are asserted via the stats
counters -- a chaos layer that injects nothing tests nothing.
"""

import asyncio
import math

import pytest

from repro.harness.config import ExperimentConfig
from repro.relational.delta import Delta
from repro.runtime import (
    PROFILES,
    AsyncRuntime,
    ChannelListener,
    ChaosConfig,
    ChaosLocalChannel,
    ChaosStats,
    ChaosTcpProxy,
    FaultPlan,
    TcpChannel,
    TcpChannelConfig,
    WireCodec,
    run_distributed,
)
from repro.runtime.chaos import profile
from repro.simulation.channel import Message
from repro.sources.messages import UpdateNotice
from repro.warehouse.registry import algorithm_info

from .loop_spy import LoopSpy


class Sink:
    def __init__(self):
        self.items = []

    def put(self, message):
        self.items.append(message)

    def __len__(self):
        return len(self.items)


def make_notice(view, seq):
    return UpdateNotice(
        source_index=1,
        seq=seq,
        delta=Delta(view.schema_of(1), {(seq, seq): 1}),
        applied_at=float(seq),
    )


def seqs(sink):
    return [m.payload.seq for m in sink.items]


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# FaultPlan: deterministic, seed-keyed decisions
# ---------------------------------------------------------------------------

HOSTILE = PROFILES["hostile"]


def plan_fingerprint(plan, n=200):
    return [
        (round(plan.delay(k), 6), plan.duplicated(k), plan.drop_attempts(k))
        for k in range(1, n + 1)
    ]


def test_fault_plan_is_deterministic():
    a = FaultPlan(HOSTILE, seed=7, scope="R1->wh")
    b = FaultPlan(HOSTILE, seed=7, scope="R1->wh")
    assert plan_fingerprint(a) == plan_fingerprint(b)


def test_fault_plan_varies_with_seed_and_scope():
    base = plan_fingerprint(FaultPlan(HOSTILE, seed=7, scope="R1->wh"))
    assert plan_fingerprint(FaultPlan(HOSTILE, seed=8, scope="R1->wh")) != base
    assert plan_fingerprint(FaultPlan(HOSTILE, seed=7, scope="R2->wh")) != base


def test_fault_plan_order_independent():
    """Decisions are keyed per event, not drawn from a shared stream."""
    plan = FaultPlan(HOSTILE, seed=3, scope="x")
    forward = [plan.drop_attempts(k) for k in range(1, 51)]
    backward = [plan.drop_attempts(k) for k in range(50, 0, -1)]
    assert forward == backward[::-1]


def test_blackout_windows_follow_crash_cadence():
    cfg = ChaosConfig(name="c", crash_period=40.0, crash_downtime=6.0)
    plan = FaultPlan(cfg, seed=0, scope="x")
    assert plan.blackout_remaining(0.0) == 0.0  # no window before one period
    assert plan.blackout_remaining(39.9) == 0.0
    assert plan.blackout_remaining(40.0) == pytest.approx(6.0)
    assert plan.blackout_remaining(43.0) == pytest.approx(3.0)
    assert plan.blackout_remaining(46.0) == 0.0
    assert plan.blackout_remaining(80.0) == pytest.approx(6.0)


def test_healthy_profile_is_inactive():
    assert not PROFILES["healthy"].active
    assert not ChaosConfig().active
    for name in ("delay", "dup", "drop", "crash", "hostile"):
        assert PROFILES[name].active, name


def test_profile_resolution():
    assert profile(None) is None
    assert profile("dup") is PROFILES["dup"]
    custom = ChaosConfig(name="mine", dup_prob=1.0)
    assert profile(custom) is custom
    with pytest.raises(KeyError):
        profile("no-such-profile")


# ---------------------------------------------------------------------------
# ChaosLocalChannel: exactly-once FIFO under every fault family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name",
    [
        "delay", "dup", "drop", "hostile",
        # Source-side profiles: the 40-deep send queue below guarantees
        # frames are pending together, so stalls and reorders do fire.
        "source-stall", "source-burst", "source-reorder",
    ],
)
def test_chaos_local_channel_exactly_once_fifo(paper_view, name):
    async def main():
        runtime = AsyncRuntime(time_scale=0.0005)
        sink = Sink()
        stats = ChaosStats()
        channel = ChaosLocalChannel(
            runtime, "R1->wh", sink, config=PROFILES[name], seed=0, stats=stats
        )
        for seq in range(1, 41):
            channel.send(Message("update", "R1", make_notice(paper_view, seq)))
        await channel.flush(timeout=30.0)
        await runtime.aclose()
        return seqs(sink), stats

    delivered, stats = run(main())
    assert delivered == list(range(1, 41))  # exactly once, in order
    assert stats.faults_injected > 0  # the profile actually fired


def test_chaos_local_channel_suppresses_every_duplicate(paper_view):
    """Injected duplicates exercise the receive filter, never the mailbox."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.0005)
        sink = Sink()
        stats = ChaosStats()
        channel = ChaosLocalChannel(
            runtime, "R1->wh", sink, config=PROFILES["dup"], seed=1, stats=stats
        )
        for seq in range(1, 31):
            channel.send(Message("update", "R1", make_notice(paper_view, seq)))
        await channel.flush(timeout=30.0)
        # Duplicates land dup_lag after their originals; wait them out.
        await runtime.wait_until(
            lambda: stats.dups_suppressed == stats.dups_injected, timeout=10.0
        )
        await runtime.aclose()
        return seqs(sink), stats

    delivered, stats = run(main())
    assert delivered == list(range(1, 31))
    assert stats.dups_injected > 0
    assert stats.dups_suppressed == stats.dups_injected


def test_chaos_local_channel_fault_schedule_reproducible(paper_view):
    """Same seed, same faults -- counters match run for run."""

    async def once():
        runtime = AsyncRuntime(time_scale=0.0005)
        stats = ChaosStats()
        channel = ChaosLocalChannel(
            runtime, "R1->wh", Sink(), config=PROFILES["hostile"], seed=5,
            stats=stats,
        )
        for seq in range(1, 31):
            channel.send(Message("update", "R1", make_notice(paper_view, seq)))
        await channel.flush(timeout=30.0)
        await runtime.aclose()
        return (stats.delays_injected, stats.dups_injected, stats.drops_injected)

    assert run(once()) == run(once())


# ---------------------------------------------------------------------------
# ChaosTcpProxy: faults between real sockets
# ---------------------------------------------------------------------------

async def _through_proxy(
    paper_view, config, seed=0, n=30, time_scale=0.0005, pace=0.0
):
    runtime = AsyncRuntime(time_scale=time_scale)
    codec = WireCodec(paper_view)
    sink = Sink()
    listener = ChannelListener(runtime)
    listener.register("R1->wh", sink, codec)
    await listener.start()
    stats = ChaosStats()
    proxy = ChaosTcpProxy(
        runtime, "R1->wh", listener.address, config, seed=seed, stats=stats
    )
    await proxy.start()
    channel = TcpChannel(
        runtime, "R1->wh", *proxy.address, codec, None,
        TcpChannelConfig(connect_timeout=2.0, backoff_initial=0.01),
    )
    for seq in range(1, n + 1):
        channel.send(Message("update", "R1", make_notice(paper_view, seq)))
        if pace:
            await runtime.sleep(pace)  # spread traffic across fault windows
        else:
            await asyncio.sleep(0)  # one frame per message: more fault points
    await channel.flush(timeout=60.0)
    reconnects = channel.reconnects
    await channel.aclose()
    await proxy.aclose()
    await listener.aclose()
    await runtime.aclose()
    return seqs(sink), stats, reconnects


def test_proxy_duplicated_frames_are_absorbed(paper_view):
    delivered, stats, _ = run(
        _through_proxy(paper_view, PROFILES["dup"], seed=2)
    )
    assert delivered == list(range(1, 31))
    assert stats.dups_injected > 0


def test_proxy_kills_force_reconnect_and_resume(paper_view):
    """A killed connection loses its frame; the session resends it."""
    delivered, stats, reconnects = run(
        _through_proxy(paper_view, PROFILES["drop"], seed=0)
    )
    assert delivered == list(range(1, 31))
    assert stats.connections_killed > 0
    assert reconnects >= stats.connections_killed


def test_proxy_blackout_refuses_then_recovers(paper_view):
    """During a blackout dials are slammed shut; traffic resumes after."""
    config = ChaosConfig(name="c", crash_period=8.0, crash_downtime=3.0)
    delivered, stats, reconnects = run(
        _through_proxy(
            paper_view, config, seed=0, n=40, time_scale=0.01, pace=0.5
        )
    )
    assert delivered == list(range(1, 41))
    assert stats.blackouts_hit > 0


def test_blackout_reaper_arms_one_timer_per_window():
    """The proxy's reaper sleeps until each blackout window opens instead
    of polling: over three windows of the crash profile it arms at most
    one loop timer per window (plus the one waiting for the next), and it
    counts every window crossed."""
    config = PROFILES["crash"]

    async def main():
        runtime = AsyncRuntime(time_scale=0.0025)  # 100 ms per period
        proxy = ChaosTcpProxy(runtime, "R1->wh", ("127.0.0.1", 9), config)
        await proxy.start()
        armed = LoopSpy().timers
        await asyncio.sleep(3.5 * config.crash_period * runtime.time_scale)
        crossed = math.floor(runtime.now / config.crash_period)
        hit = proxy.stats.blackouts_hit
        await proxy.aclose()
        await runtime.aclose()
        return crossed, hit, len(armed)

    crossed, hit, armed = run(main())
    assert crossed == 3
    assert hit == crossed
    # the reaper's timers (one per window, one pending) + this test's sleep
    assert armed <= crossed + 2


# ---------------------------------------------------------------------------
# End to end: a chaos run still reaches the claimed consistency level
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "transport,profile_name",
    [("local", "hostile"), ("tcp", "drop")],
)
def test_distributed_chaos_run_keeps_claimed_consistency(
    transport, profile_name
):
    config = ExperimentConfig(
        algorithm="sweep",
        n_sources=3,
        n_updates=10,
        seed=0,
        mean_interarrival=6.0,
        check_consistency=True,
    )
    result = run_distributed(
        config,
        transport=transport,
        time_scale=0.002,
        timeout=120.0,
        chaos=profile_name,
    )
    claimed = algorithm_info("sweep").claimed_consistency
    assert result.classified_level >= claimed
    assert result.chaos_profile == profile_name
    assert result.chaos_stats.faults_injected > 0
    assert result.updates_delivered == 10


def test_healthy_chaos_run_adds_no_machinery():
    """chaos='healthy' must not wrap channels or allocate proxies."""
    config = ExperimentConfig(
        algorithm="sweep", n_sources=2, n_updates=6, seed=0,
        mean_interarrival=4.0, check_consistency=True,
    )
    result = run_distributed(
        config, transport="local", time_scale=0.002, chaos="healthy"
    )
    assert result.chaos_profile == "healthy"
    assert result.chaos_stats is None  # inactive profile: plain channels
