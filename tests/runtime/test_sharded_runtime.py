"""Sharded warehouse runtime: per-shard consistency and process control.

A sharded run must inherit each scheduler's single-warehouse guarantee
per view -- the router only splits the view set, never a view -- so
SWEEP shards verify complete and batched-sweep shards verify strong,
on both transports.  The supervisor tests pin the crash contract:
one failing shard process takes the fleet down with
:class:`ShardCrashed`, never a silent success.
"""

import sys

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.harness.config import ExperimentConfig
from repro.runtime import (
    ShardCrashed,
    ShardSupervisor,
    launch_sharded_processes,
    run_sharded,
)


def config_for(algorithm, **overrides):
    base = dict(
        algorithm=algorithm,
        n_sources=3,
        n_updates=8,
        seed=42,
        mean_interarrival=2.0,
        n_views=4,
        check_consistency=True,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_sweep_sharded_is_complete_per_view():
    config = config_for("sweep")
    result = run_sharded(
        config, n_shards=2, transport="local", time_scale=0.001,
        timeout=60.0, strategy="round-robin",
    )
    assert len(result.final_views) == 4
    assert result.plan.active_shards == [0, 1]
    assert result.updates_total == config.n_updates
    # Every relation appears in every view, so each shard sees each update.
    assert result.deliveries_total == 2 * config.n_updates
    assert set(result.levels) == set(result.final_views)
    assert all(
        level == ConsistencyLevel.COMPLETE for level in result.levels.values()
    )
    assert result.verified_at(ConsistencyLevel.COMPLETE)
    assert result.min_level() == ConsistencyLevel.COMPLETE


def test_batched_sharded_is_strong_per_view():
    config = config_for("batched-sweep", batch_max=4)
    result = run_sharded(
        config, n_shards=2, transport="local", time_scale=0.001,
        timeout=60.0, strategy="round-robin",
    )
    assert result.verified_at(ConsistencyLevel.STRONG)


def test_sweep_sharded_over_tcp():
    config = config_for("sweep", n_updates=6)
    result = run_sharded(
        config, n_shards=2, transport="tcp", time_scale=0.001,
        timeout=60.0, strategy="round-robin",
    )
    assert result.verified_at(ConsistencyLevel.COMPLETE)
    assert result.transport == "tcp"


def test_four_shards_with_adaptive_batching():
    config = config_for(
        "batched-sweep", batch_max=4, batch_adaptive=True, n_updates=12,
        mean_interarrival=0.05,
    )
    result = run_sharded(
        config, n_shards=4, transport="local", time_scale=0.001,
        timeout=60.0, strategy="round-robin",
    )
    assert result.verified_at(ConsistencyLevel.STRONG)
    assert len(result.plan.active_shards) == 4


def test_single_shard_degenerates_to_multiview_warehouse():
    config = config_for("sweep", n_updates=6)
    result = run_sharded(
        config, n_shards=1, transport="local", time_scale=0.001, timeout=60.0,
    )
    assert result.plan.active_shards == [0]
    assert result.verified_at(ConsistencyLevel.COMPLETE)


def test_report_names_plan_views_and_verdicts():
    config = config_for("sweep", n_updates=4)
    result = run_sharded(
        config, n_shards=2, transport="local", time_scale=0.001,
        timeout=60.0, strategy="round-robin",
    )
    text = result.report()
    assert "2 shard(s)" in text
    assert "complete" in text
    for name in result.final_views:
        assert name in text
    assert repr(result) == f"ShardedRunResult(sweep, installs={result.installs})"


# ---------------------------------------------------------------------------
# Process supervision
# ---------------------------------------------------------------------------

def test_supervisor_raises_shard_crashed_on_nonzero_exit():
    supervisor = ShardSupervisor()
    supervisor.launch(
        "shard-0",
        [sys.executable, "-c", "import sys; sys.exit(3)"],
    )
    with pytest.raises(ShardCrashed, match="shard-0"):
        supervisor.wait(timeout=30.0)


def test_supervisor_crash_includes_stderr_tail():
    supervisor = ShardSupervisor()
    supervisor.launch(
        "shard-1",
        [
            sys.executable,
            "-c",
            "import sys; print('boom detail', file=sys.stderr); sys.exit(2)",
        ],
    )
    with pytest.raises(ShardCrashed, match="boom detail"):
        supervisor.wait(timeout=30.0)


def test_supervisor_collects_clean_fleet_output():
    supervisor = ShardSupervisor()
    supervisor.launch("a", [sys.executable, "-c", "print('ok-a')"])
    supervisor.launch("b", [sys.executable, "-c", "print('ok-b')"])
    outputs = supervisor.wait(timeout=30.0)
    assert outputs["a"].strip() == "ok-a"
    assert outputs["b"].strip() == "ok-b"


def test_multiprocess_sharded_deployment_verifies():
    """2 shard + 3 source processes: clean exit implies per-shard verification."""
    config = config_for("sweep", n_updates=4, n_views=2, mean_interarrival=1.0)
    outputs = launch_sharded_processes(
        config, n_shards=2, time_scale=0.005, strategy="round-robin",
        timeout=180.0,
    )
    assert outputs  # every process exited zero (shards verify before exiting)
