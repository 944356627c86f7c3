"""Simulator-vs-runtime equivalence: same workload, same final view.

The acceptance test of the runtime: an identical seeded
:class:`ExperimentConfig` must drive the simulator and the asyncio runtime
to the *same* final materialized view (both converge to the view over the
final source states, which depend only on the workload), with SWEEP
achieving complete consistency and its exact 2(n-1) per-update message
cost on real transports too.
"""

import asyncio

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_experiment
from repro.harness.sites import WAREHOUSE
from repro.runtime import (
    free_port,
    run_distributed,
    run_distributed_async,
    serve_source_async,
    serve_warehouse_async,
)

from .loop_spy import LoopSpy


def config_for(algorithm, **overrides):
    base = dict(
        algorithm=algorithm,
        n_sources=3,
        n_updates=10,
        seed=42,
        mean_interarrival=5.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_sweep_runtime_matches_simulator(transport):
    config = config_for("sweep")
    simulated = run_experiment(config)
    distributed = run_distributed(
        config, transport=transport, time_scale=0.001, timeout=60.0
    )

    assert distributed.final_view == simulated.final_view
    assert distributed.recorder.updates_delivered == config.n_updates

    # Complete consistency over a real transport, same as in simulation.
    assert distributed.consistency[ConsistencyLevel.COMPLETE].ok
    assert distributed.classified_level == ConsistencyLevel.COMPLETE

    # SWEEP's exact message cost: 2(n-1) query/answer messages per update
    # plus the update notice itself -- identical on both hosts.
    per_update = 2 * (config.n_sources - 1)
    for result in (simulated, distributed):
        queries = result.metrics.messages_of_kind("query")
        answers = result.metrics.messages_of_kind("answer")
        assert queries + answers == per_update * config.n_updates
        assert result.metrics.messages_of_kind("update") == config.n_updates


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_nested_sweep_runtime_matches_simulator(transport):
    config = config_for("nested-sweep", n_updates=8)
    simulated = run_experiment(config)
    distributed = run_distributed(
        config, transport=transport, time_scale=0.001, timeout=60.0
    )
    assert distributed.final_view == simulated.final_view
    assert distributed.consistency[ConsistencyLevel.STRONG].ok


@pytest.mark.parametrize("transport", ["local", "tcp"])
@pytest.mark.parametrize(
    "algorithm", ["pipelined-sweep", "eca", "strobe", "c-strobe"]
)
def test_other_algorithms_converge_to_simulator_view(algorithm, transport):
    """Every registered algorithm reaches the simulator's final view on
    both transports (ECA over the centralized site)."""
    config = config_for(algorithm, n_updates=8)
    simulated = run_experiment(config)
    distributed = run_distributed(
        config, transport=transport, time_scale=0.001, timeout=60.0
    )
    assert distributed.final_view == simulated.final_view
    assert distributed.consistency[ConsistencyLevel.CONVERGENCE].ok


def test_serve_entry_points_run_a_fleet_to_the_simulator_view():
    """One ``serve_warehouse_async`` and one ``serve_source_async`` per
    source, on one loop over loopback, told each other's addresses the way
    separate processes are: every update is delivered and the warehouse
    ends on the simulator's view."""
    config = config_for("sweep", n_updates=8, mean_interarrival=2.0)
    warehouse_port = free_port()
    source_ports = {i: free_port() for i in range(1, config.n_sources + 1)}

    async def fleet():
        warehouse = serve_warehouse_async(
            config,
            {i: ("127.0.0.1", port) for i, port in source_ports.items()},
            listen_port=warehouse_port,
            time_scale=0.001,
            expect_updates=config.n_updates,
            timeout=60.0,
        )
        sources = [
            serve_source_async(
                config,
                index,
                {WAREHOUSE: ("127.0.0.1", warehouse_port)},
                listen_port=port,
                time_scale=0.001,
                linger=0.2,
                timeout=60.0,
            )
            for index, port in source_ports.items()
        ]
        result, *_ = await asyncio.gather(warehouse, *sources)
        return result

    result = asyncio.run(fleet())
    assert result.updates_delivered == config.n_updates
    assert result.final_view == run_experiment(config).final_view


def test_sweep_tcp_with_sqlite_backend_matches():
    """Backend choice is orthogonal to the host: sqlite over TCP matches."""
    config = config_for("sweep", backend="sqlite", n_updates=6)
    simulated = run_experiment(config)
    distributed = run_distributed(
        config, transport="tcp", time_scale=0.001, timeout=60.0
    )
    assert distributed.final_view == simulated.final_view
    assert distributed.classified_level == ConsistencyLevel.COMPLETE


def test_distributed_result_report_mentions_transport():
    config = config_for("sweep", n_updates=4)
    result = run_distributed(
        config, transport="local", time_scale=0.001, timeout=60.0
    )
    text = result.report()
    assert "transport" in text and "local" in text
    assert repr(result) == "DistributedRunResult(sweep, installs=4)"


async def counting_loop_turns(coro):
    """Await ``coro``; returns ``(its result, event-loop iterations)``."""
    spy = LoopSpy()
    result = await coro
    return result, spy.turns


def test_local_sweep_costs_a_bounded_number_of_loop_turns_per_update():
    """An in-process message is one mailbox append and an update's causal
    chain runs inside one loop turn: ~2 loop iterations per update (12
    when every message cost a queue + task hop)."""
    config = config_for("sweep", n_updates=200, mean_interarrival=1.5)
    result, turns = asyncio.run(
        counting_loop_turns(
            run_distributed_async(
                config, transport="local", time_scale=0.001, timeout=60.0
            )
        )
    )
    assert turns <= 6 * config.n_updates
    assert result.metrics.messages_total == 5 * config.n_updates
    assert result.final_view == run_experiment(config).final_view


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_sparse_run_makes_no_loop_turn_between_updates(transport):
    """20 updates spread over more than a second of wall time: the loop
    wakes for the updates and their messages, never for the clock.  While
    an updater is mid-``Delay`` the quiescence waiter is parked on the
    kernel's timer count, so an idle gap costs nothing -- polling every
    5 ms made this run 540 turns local / 1,250 over TCP whatever it did.
    Local: the timer's turn plus the pump's, per update.  TCP: a socket
    event and a task resume at each end of each message and ack, ~5.4 per
    message."""
    config = config_for("sweep", n_updates=20, mean_interarrival=60.0)
    result, turns = asyncio.run(
        counting_loop_turns(
            run_distributed_async(
                config, transport=transport, time_scale=0.001, timeout=60.0
            )
        )
    )
    assert result.wall_seconds >= 1.0
    assert result.metrics.messages_total == 5 * config.n_updates
    if transport == "local":
        assert turns <= 4 * config.n_updates + 20
    else:
        assert turns <= 7 * result.metrics.messages_total + 50
    assert result.final_view == run_experiment(config).final_view
