"""Dead-peer behaviour of the serve modes (no silent hangs, no exit 0).

A long-lived site pointed at an unreachable peer must fail fast and
loud: :func:`probe_peer` burns the channel's retry budget and raises
:class:`TransportRetriesExceeded`, every ``serve-*`` entry point probes
its peers up front, and the CLI converts the error into a clean
``error:`` line and :data:`~repro.runtime.CLEAN_FAILURE_EXIT` (3) --
non-zero so nothing upstream mistakes it for success, but distinct from
a crash so a supervisor's restart policy leaves it alone.
"""

import asyncio

import pytest

from repro.cli import main
from repro.harness.config import ExperimentConfig
from repro.harness.sites import WAREHOUSE
from repro.runtime import (
    CLEAN_FAILURE_EXIT,
    AsyncRuntime,
    ChannelListener,
    TransportRetriesExceeded,
    WireCodec,
    free_port,
    probe_peer,
    serve_shard_async,
    serve_source_async,
    serve_warehouse_async,
)
from repro.runtime.tcp import TcpChannelConfig, read_frame, write_frame
from repro.simulation.mailbox import Mailbox
from repro.warehouse.sharding import ShardMember

#: A retry budget small enough that every test fails in well under a second.
TIGHT = TcpChannelConfig(
    connect_timeout=0.2,
    max_retries=2,
    backoff_initial=0.01,
    backoff_max=0.02,
)


def _config(**overrides):
    base = dict(
        algorithm="sweep",
        n_sources=3,
        n_updates=4,
        seed=0,
        mean_interarrival=2.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _dead_address():
    return ("127.0.0.1", free_port())


def test_probe_peer_raises_after_retry_budget():
    host, port = _dead_address()
    with pytest.raises(TransportRetriesExceeded, match="source R1"):
        asyncio.run(probe_peer(host, port, TIGHT, what="source R1"))


def test_probe_peer_passes_with_a_listener():
    async def scenario():
        server = await asyncio.start_server(
            lambda r, w: w.close(), "127.0.0.1", 0
        )
        host, port = server.sockets[0].getsockname()[:2]
        try:
            await probe_peer(host, port, TIGHT, what="source R1")
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())


def test_probe_accepts_a_peer_that_has_already_dialed_us():
    """A fleet can finish a short run inside one back-off gap of a late
    site's probe (seen as a 1-in-10 `ShardCrashed: member sh0 unreachable`
    from an update-less source whose shards had verified and exited): a
    peer that completed a handshake with our listener proved its address
    as well as a connect would have."""
    host, port = _dead_address()
    asked = []

    def heard():
        asked.append(len(asked))
        return len(asked) > 1  # the peer dials us during the first back-off

    asyncio.run(probe_peer(host, port, TIGHT, what="member sh0", heard=heard))
    assert asked == [0, 1]  # one refused connect, then the evidence

    with pytest.raises(TransportRetriesExceeded, match="member sh0"):
        asyncio.run(
            probe_peer(host, port, TIGHT, what="member sh0", heard=lambda: False)
        )


def test_listener_remembers_which_channels_it_heard_from(paper_view):
    async def scenario():
        runtime = AsyncRuntime(time_scale=0.001)
        codec = WireCodec(paper_view)
        listener = ChannelListener(runtime)
        for name in ("sh0->R2", "sh1->R2"):
            listener.register(name, Mailbox(runtime, name), codec)
        await listener.start()
        reader, writer = await asyncio.open_connection(*listener.address)
        hello = {"t": "hello", "channel": "sh0->R2", "next": 1, "codec": 3}
        write_frame(writer, hello)
        await writer.drain()
        assert (await read_frame(reader))["t"] == "welcome"
        writer.close()
        await writer.wait_closed()
        heard = listener.heard("sh0->R2"), listener.heard("sh1->R2")
        await listener.aclose()
        await runtime.aclose()
        return heard

    assert asyncio.run(scenario()) == (True, False)  # outlives the session


def test_serve_warehouse_fails_fast_on_dead_source():
    config = _config()
    sources = {i: _dead_address() for i in range(1, config.n_sources + 1)}
    with pytest.raises(TransportRetriesExceeded, match="unreachable"):
        asyncio.run(
            serve_warehouse_async(
                config,
                source_addresses=sources,
                expect_updates=config.n_updates,
                timeout=30.0,
                tcp_config=TIGHT,
            )
        )


def test_serve_source_fails_fast_on_dead_warehouse():
    with pytest.raises(TransportRetriesExceeded, match="unreachable"):
        asyncio.run(
            serve_source_async(
                _config(),
                index=1,
                destinations={WAREHOUSE: _dead_address()},
                timeout=30.0,
                tcp_config=TIGHT,
            )
        )


def test_serve_shard_fails_fast_on_dead_source():
    config = _config(n_views=2)
    sources = {i: _dead_address() for i in range(1, config.n_sources + 1)}
    with pytest.raises(TransportRetriesExceeded, match="unreachable"):
        asyncio.run(
            serve_shard_async(
                config,
                shard_id=0,
                n_shards=2,
                source_addresses=sources,
                expect_updates=config.n_updates,
                timeout=30.0,
                tcp_config=TIGHT,
            )
        )


# ---------------------------------------------------------------------------
# CLI: clean message, deliberate-failure exit code, never exit 0
# ---------------------------------------------------------------------------

def _base_cli_args():
    return [
        "--algorithm", "sweep", "--sources", "3", "--updates", "4",
        "--seed", "0", "--interarrival", "2.0",
        "--max-retries", "2", "--connect-timeout", "0.2",
    ]


def test_cli_serve_warehouse_exits_nonzero(capsys):
    host, port = _dead_address()
    rc = main(
        ["serve-warehouse", *_base_cli_args(),
         "--source", f"1={host}:{port}", "--expect-updates", "4"]
    )
    captured = capsys.readouterr()
    assert rc == CLEAN_FAILURE_EXIT
    assert "error:" in captured.err
    assert "unreachable" in captured.err


def test_cli_serve_source_exits_nonzero(capsys):
    host, port = _dead_address()
    rc = main(
        ["serve-source", *_base_cli_args(),
         "--index", "1", "--warehouse", f"{host}:{port}"]
    )
    captured = capsys.readouterr()
    assert rc == CLEAN_FAILURE_EXIT
    assert "error:" in captured.err
    assert "unreachable" in captured.err


def test_cli_serve_shard_exits_nonzero(capsys):
    host, port = _dead_address()
    rc = main(
        ["serve-shard", *_base_cli_args(), "--views", "2",
         "--shard-id", "0", "--shards", "2",
         "--source", f"1={host}:{port}"]
    )
    captured = capsys.readouterr()
    assert rc == CLEAN_FAILURE_EXIT
    assert "error:" in captured.err


# ---------------------------------------------------------------------------
# Replica groups: a dead standby is tolerated, a dead *shard* is not
# ---------------------------------------------------------------------------

def test_sharded_source_fails_when_every_member_of_a_shard_is_dead():
    # Both the primary and the standby are unreachable: no surviving
    # member carries shard 0, so the probe failure must propagate.
    addresses = {
        ShardMember(0): _dead_address(),
        ShardMember(0, 1): _dead_address(),
    }
    with pytest.raises(TransportRetriesExceeded, match="unreachable"):
        asyncio.run(
            serve_source_async(
                _config(n_views=2),
                index=1,
                destinations=addresses,
                timeout=30.0,
                tcp_config=TIGHT,
            )
        )


def test_fleet_tolerates_a_dead_standby():
    """Live primary + unreachable standby address: the fleet completes.

    Every source drops the standby member at probe time (its shard is
    still carried by the primary) and the shard verifies its views --
    the replica-group equivalent of "a crashed standby with a healthy
    primary is tolerated"."""
    config = _config(n_views=2)
    source_ports = {i: free_port() for i in range(1, config.n_sources + 1)}
    shard_port = free_port()
    members = {
        ShardMember(0): ("127.0.0.1", shard_port),
        ShardMember(0, 1): _dead_address(),
    }

    async def fleet():
        shard = serve_shard_async(
            config,
            shard_id=0,
            n_shards=1,
            source_addresses={
                i: ("127.0.0.1", port) for i, port in source_ports.items()
            },
            listen_port=shard_port,
            time_scale=0.001,
            expect_updates=config.n_updates,
            timeout=60.0,
            tcp_config=TIGHT,
        )
        sources = [
            serve_source_async(
                config,
                index=i,
                destinations=members,
                listen_port=source_ports[i],
                time_scale=0.001,
                linger=0.2,
                timeout=60.0,
                tcp_config=TIGHT,
            )
            for i in source_ports
        ]
        result, *_ = await asyncio.gather(shard, *sources)
        return result

    result = asyncio.run(fleet())
    # serve_shard_async(verify=True) would have raised on a view below
    # the claimed level, so reaching here already implies oracle success.
    assert result.deliveries_total == config.n_updates
    assert set(result.levels) == set(result.final_views)
