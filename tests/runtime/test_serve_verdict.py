"""``serve-warehouse`` judges its own view, as ``serve-shard`` does.

Both serve paths rebuild the sources' histories from the seeded
schedule (every process derives the same workload from the shared
flags), so a warehouse served alone can classify its view and refuse a
run below its algorithm's claimed level.  The oracle mutant that drops
every third view change (``tests/consistency``) must fail the call with
:class:`VerificationError` and the CLI with a non-zero exit; the healthy
algorithm on the same fleet must pass.
"""

import asyncio
import threading

import pytest

from repro.cli import main
from repro.consistency.levels import ConsistencyLevel
from repro.harness.config import ExperimentConfig
from repro.harness.sites import WAREHOUSE
from repro.runtime import (
    CLEAN_FAILURE_EXIT,
    VerificationError,
    free_port,
    serve_source_async,
    serve_warehouse_async,
)
from repro.warehouse.registry import ALGORITHMS, AlgorithmInfo
from tests.consistency.test_oracle_catches_bugs import SkipInstallSweep

#: Updates far enough apart (10 ms each at the time scale below) that
#: every sweep finishes before the next update: the mutant drops the same
#: view changes on every run.
FLEET = dict(
    n_sources=2, n_updates=12, seed=3, mean_interarrival=10.0,
    insert_fraction=1.0, rows_per_relation=10,
)
TIME_SCALE = 0.001


@pytest.fixture
def mutant(monkeypatch):
    """Register the dropped-install SWEEP mutant, claiming SWEEP's level."""
    info = AlgorithmInfo(
        name=SkipInstallSweep.algorithm_name,
        cls=SkipInstallSweep,
        architecture="distributed",
        claimed_consistency=ConsistencyLevel.COMPLETE,
        message_cost="O(n)",
        requires_keys=False,
        requires_quiescence=False,
        comments="deliberately broken (test only)",
        in_paper_table=False,
    )
    monkeypatch.setitem(ALGORITHMS, info.name, info)
    return info.name


def _sources(config, warehouse_port, ports):
    return [
        serve_source_async(
            config,
            index,
            {WAREHOUSE: ("127.0.0.1", warehouse_port)},
            listen_port=port,
            time_scale=TIME_SCALE,
            linger=0.2,
            timeout=60.0,
        )
        for index, port in ports.items()
    ]


def _serve(algorithm):
    config = ExperimentConfig(algorithm=algorithm, **FLEET)
    warehouse_port = free_port()
    ports = {i: free_port() for i in range(1, config.n_sources + 1)}

    async def fleet():
        warehouse = serve_warehouse_async(
            config,
            {i: ("127.0.0.1", port) for i, port in ports.items()},
            listen_port=warehouse_port,
            time_scale=TIME_SCALE,
            expect_updates=config.n_updates,
            timeout=60.0,
        )
        result, *_ = await asyncio.gather(
            warehouse,
            *_sources(config, warehouse_port, ports),
            return_exceptions=True,
        )
        if isinstance(result, BaseException):
            raise result
        return result

    return asyncio.run(fleet())


def test_a_healthy_served_warehouse_reaches_its_claim():
    result = _serve("sweep")
    assert result.updates_delivered == FLEET["n_updates"]
    assert result.classified_level == ConsistencyLevel.COMPLETE


def test_a_served_mutant_fails_its_claim(mutant):
    with pytest.raises(VerificationError, match="below claimed complete"):
        _serve(mutant)


def test_the_cli_exits_nonzero_on_a_served_mutant(mutant, capsys):
    config = ExperimentConfig(algorithm=mutant, **FLEET)
    warehouse_port = free_port()
    ports = {i: free_port() for i in range(1, config.n_sources + 1)}

    async def sources():
        await asyncio.gather(*_sources(config, warehouse_port, ports))

    thread = threading.Thread(target=asyncio.run, args=(sources(),))
    thread.start()
    try:
        rc = main(
            [
                "serve-warehouse",
                "--algorithm", mutant,
                "--sources", str(FLEET["n_sources"]),
                "--updates", str(FLEET["n_updates"]),
                "--seed", str(FLEET["seed"]),
                "--interarrival", str(FLEET["mean_interarrival"]),
                "--insert-fraction", str(FLEET["insert_fraction"]),
                "--rows", str(FLEET["rows_per_relation"]),
                "--time-scale", str(TIME_SCALE),
                "--timeout", "60",
                "--listen", f"127.0.0.1:{warehouse_port}",
                *(f"--source={i}=127.0.0.1:{port}" for i, port in ports.items()),
            ]
        )
    finally:
        thread.join(timeout=60.0)
    assert rc == CLEAN_FAILURE_EXIT
    assert "below claimed complete" in capsys.readouterr().err
