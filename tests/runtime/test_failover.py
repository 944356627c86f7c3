"""Hot-standby failover: promotion equivalence, fencing, and supervision.

The center of gravity is the equivalence claim: killing a primary at a
deterministic protocol point and promoting its standby must yield final
views byte-equal to an uncrashed run, with the scheduler's claimed
consistency level intact.  The mutation test pins the fencing argument
from the other side -- replaying the dead primary's last frame into the
standby (what a fence-skipping takeover would deliver) must fail the
oracle, proving the harness can see the bug it guards against.
"""

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.harness.config import ExperimentConfig
from repro.runtime import FailoverSpec, run_sharded
from repro.runtime import RuntimeHostError
from repro.runtime.shard import ShardSupervisor
from repro.warehouse.sharding import canonical_view_bytes


def config_for(algorithm, **overrides):
    base = dict(
        algorithm=algorithm,
        n_sources=3,
        n_updates=10,
        seed=7,
        mean_interarrival=4.0,
        n_views=4,
        check_consistency=True,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


RUN_ARGS = dict(
    n_shards=2, transport="local", time_scale=0.001,
    timeout=60.0, strategy="round-robin",
)


def kill_shard_of(baseline):
    return baseline.plan.active_shards[0]


# ---------------------------------------------------------------------------
# FailoverSpec validation
# ---------------------------------------------------------------------------

def test_failover_spec_requires_exactly_one_threshold():
    with pytest.raises(ValueError):
        FailoverSpec(shard=0)
    with pytest.raises(ValueError):
        FailoverSpec(shard=0, after_installs=1, after_queries=1)
    with pytest.raises(ValueError):
        FailoverSpec(shard=0, after_deliveries=0)
    spec = FailoverSpec(shard=1, after_installs=2)
    assert spec.shard == 1 and not spec.unfenced_replay


def test_failover_without_standby_is_rejected():
    config = config_for("sweep")
    with pytest.raises(ValueError, match="replicas"):
        run_sharded(
            config, failover=FailoverSpec(shard=0, after_installs=1),
            **RUN_ARGS,
        )


def test_kill_switch_that_never_fires_fails_the_run():
    # Threshold far beyond the workload: the run would silently degrade
    # into a no-op failover test, so the host refuses to pass it.
    config = config_for("sweep", n_updates=4)
    with pytest.raises(RuntimeHostError, match="never fired"):
        run_sharded(
            config, replicas=1,
            failover=FailoverSpec(shard=0, after_installs=10_000),
            **RUN_ARGS,
        )


# ---------------------------------------------------------------------------
# Promotion equivalence at each kill point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "algorithm,claimed",
    [
        ("sweep", ConsistencyLevel.COMPLETE),
        ("batched-sweep", ConsistencyLevel.STRONG),
    ],
)
@pytest.mark.parametrize(
    "threshold",
    [
        {"after_installs": 2},
        {"after_deliveries": 3},
        {"after_queries": 1},
    ],
    ids=["mid-batch", "mid-compensation", "mid-query"],
)
def test_promoted_standby_matches_uncrashed_baseline(
    algorithm, claimed, threshold
):
    config = config_for(
        algorithm, **({"batch_max": 3} if algorithm == "batched-sweep" else {})
    )
    baseline = run_sharded(config, **RUN_ARGS)
    shard = kill_shard_of(baseline)
    result = run_sharded(
        config, replicas=1,
        failover=FailoverSpec(shard=shard, **threshold),
        **RUN_ARGS,
    )
    assert result.promotions == {shard: f"sh{shard}r1"}
    assert result.verified_at(claimed)
    assert result.deliveries_total == baseline.deliveries_total
    assert set(result.final_views) == set(baseline.final_views)
    for name, view in baseline.final_views.items():
        assert canonical_view_bytes(result.final_views[name]) == (
            canonical_view_bytes(view)
        ), f"view {name} diverged after promotion"


def test_failover_over_tcp_transport():
    config = config_for("sweep", n_updates=8)
    baseline = run_sharded(config, **RUN_ARGS)
    shard = kill_shard_of(baseline)
    result = run_sharded(
        config, replicas=1,
        failover=FailoverSpec(shard=shard, after_deliveries=2),
        **{**RUN_ARGS, "transport": "tcp"},
    )
    assert result.promotions == {shard: f"sh{shard}r1"}
    assert result.verified_at(ConsistencyLevel.COMPLETE)
    for name, view in baseline.final_views.items():
        assert canonical_view_bytes(result.final_views[name]) == (
            canonical_view_bytes(view)
        )


def test_report_names_replicas_and_promotions():
    config = config_for("sweep", n_updates=6)
    shard = kill_shard_of(run_sharded(config, **RUN_ARGS))
    result = run_sharded(
        config, replicas=1,
        failover=FailoverSpec(shard=shard, after_installs=1),
        **RUN_ARGS,
    )
    report = result.report()
    assert "1 standby(s)" in report
    assert f"shard {shard} -> sh{shard}r1" in report


# ---------------------------------------------------------------------------
# Mutation: an unfenced takeover must fail the oracle
# ---------------------------------------------------------------------------

def test_unfenced_replay_mutation_fails_the_oracle():
    """Replaying the dead primary's in-flight frame breaks consistency.

    Insert-only workload so the duplicate lands as a double count rather
    than a NegativeCountError -- the oracle, not a crash, must be what
    catches it.
    """
    config = config_for("sweep", insert_fraction=1.0)
    baseline = run_sharded(config, **RUN_ARGS)
    shard = kill_shard_of(baseline)
    mutated = run_sharded(
        config, replicas=1,
        failover=FailoverSpec(
            shard=shard, after_deliveries=3, unfenced_replay=True
        ),
        **RUN_ARGS,
    )
    assert mutated.promotions == {shard: f"sh{shard}r1"}
    assert not mutated.verified_at(ConsistencyLevel.COMPLETE)
    assert any(
        canonical_view_bytes(mutated.final_views[name])
        != canonical_view_bytes(view)
        for name, view in baseline.final_views.items()
    ), "duplicate frame left every view byte-equal -- mutation not observed"


def test_unfenced_replay_fails_the_batched_completeness_check():
    # Under batching the duplicate surfaces in batch attribution: some
    # install's content no longer matches its delivery-order prefix.
    config = config_for("batched-sweep", insert_fraction=1.0, batch_max=3)
    shard = kill_shard_of(run_sharded(config, **RUN_ARGS))
    mutated = run_sharded(
        config, replicas=1,
        failover=FailoverSpec(
            shard=shard, after_deliveries=3, unfenced_replay=True
        ),
        **RUN_ARGS,
    )
    assert not mutated.verified_at(ConsistencyLevel.STRONG)
    checks = {
        name: recorder.check_batched()
        for name, recorder in mutated.recorders.items()
    }
    bad = [name for name, check in checks.items() if not check.ok]
    assert bad, "batched completeness check missed the duplicated frame"
    assert set(bad) <= {
        view.name for view in mutated.plan.views_for(shard)
    }, "the duplicate leaked beyond the killed shard's views"


# ---------------------------------------------------------------------------
# Supervisor promotion bookkeeping (no real processes)
# ---------------------------------------------------------------------------

class FakeProc:
    def __init__(self, code=None):
        self.code = code

    def poll(self):
        return self.code

    def communicate(self):
        return "", ""


def supervisor_with_pair(primary_code=None, standby_code=None):
    sup = ShardSupervisor()
    sup.procs["shard0"] = FakeProc(primary_code)
    sup.procs["shard0r1"] = FakeProc(standby_code)
    sup.standby_of["shard0r1"] = "shard0"
    return sup


def test_supervisor_promotes_standby_on_primary_crash():
    sup = supervisor_with_pair(primary_code=-9)
    assert sup._try_failover("shard0", -9)
    assert sup.promoted == {"shard0": "shard0r1"}
    assert "shard0" not in sup.procs
    assert "shard0r1" not in sup.standby_of
    assert any("promoted standby shard0r1" in line for line in sup.failover_log)


def test_supervisor_tolerates_standby_crash_with_healthy_primary():
    sup = supervisor_with_pair(standby_code=-9)
    assert sup._try_failover("shard0r1", -9)
    assert sup.promoted == {}
    assert "shard0r1" not in sup.procs
    assert any("tolerated" in line for line in sup.failover_log)


def test_supervisor_never_promotes_over_a_clean_failure():
    # Exit 3 is a verification failure: it reproduces on the standby
    # too, so promotion would just hide a wrong answer.
    sup = supervisor_with_pair(primary_code=3)
    assert not sup._try_failover("shard0", 3)
    assert sup.promoted == {}
    assert "shard0" in sup.procs


def test_supervisor_does_not_promote_a_dead_standby():
    sup = supervisor_with_pair(primary_code=-9, standby_code=-15)
    assert not sup._try_failover("shard0", -9)
    assert sup.promoted == {}


def test_supervisor_rejects_standby_for_unknown_primary():
    sup = ShardSupervisor()
    with pytest.raises(ValueError, match="unknown process"):
        sup.launch("ghost-standby", ["true"], standby_for="nope")
