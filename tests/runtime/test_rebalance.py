"""Live shard rebalancing: drain/handoff/re-route equivalence.

The center of gravity is the equivalence claim: sealing a view on its
donor shard mid-run, handing its state to another shard and re-routing
behind a fencing epoch must yield final views byte-equal to a run that
never migrated, with the scheduler's claimed consistency level intact.
The mutation test pins the straggler-forwarding argument from the other
side -- a donor that drops its post-seal gap copies leaves delivery
holes the oracle must see (via ``missing_deliveries``; the skipped
deltas often join to nothing, so snapshot checks alone cannot).
"""

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.harness.config import ExperimentConfig
from repro.runtime import FailoverSpec, RebalanceSpec, run_sharded
from repro.runtime import RuntimeHostError
from repro.warehouse.sharding import canonical_view_bytes


def config_for(algorithm, **overrides):
    base = dict(
        algorithm=algorithm,
        n_sources=3,
        n_updates=12,
        seed=7,
        mean_interarrival=6.0,
        n_views=4,
        check_consistency=True,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


RUN_ARGS = dict(
    n_shards=2, transport="local", time_scale=0.001,
    timeout=60.0, strategy="round-robin",
)

#: round-robin over 2 shards puts V, V#s2 on shard 0 -- so V#s2 is the
#: canonical migratable (non-primary) view, moving 0 -> 1.
MOVE = dict(view="V#s2", to_shard=1)


def assert_views_equal(result, baseline):
    assert set(result.final_views) == set(baseline.final_views)
    for name, view in baseline.final_views.items():
        assert canonical_view_bytes(result.final_views[name]) == (
            canonical_view_bytes(view)
        ), f"view {name} diverged after migration"


# ---------------------------------------------------------------------------
# RebalanceSpec validation and host-level refusals
# ---------------------------------------------------------------------------

def test_rebalance_spec_requires_exactly_one_threshold():
    with pytest.raises(ValueError):
        RebalanceSpec(**MOVE)
    with pytest.raises(ValueError):
        RebalanceSpec(**MOVE, after_installs=1, after_deliveries=1)
    with pytest.raises(ValueError):
        RebalanceSpec(**MOVE, after_deliveries=0)
    spec = RebalanceSpec(**MOVE, after_installs=2)
    assert spec.view == "V#s2" and not spec.skip_straggler_forwarding


def test_rebalance_rejects_durability_combo(tmp_path):
    config = config_for("sweep")
    with pytest.raises(ValueError, match="durability"):
        run_sharded(
            config, durable_dir=str(tmp_path),
            rebalance=RebalanceSpec(**MOVE, after_installs=1),
            **RUN_ARGS,
        )


def test_rebalance_rejects_primary_view():
    config = config_for("sweep")
    with pytest.raises(ValueError, match="primary"):
        run_sharded(
            config,
            rebalance=RebalanceSpec(
                view="V", to_shard=1, after_installs=1
            ),
            **RUN_ARGS,
        )


def test_trigger_that_never_fires_fails_the_run():
    # Threshold far beyond the workload: the run would silently degrade
    # into a no-op migration test, so the host refuses to pass it.
    config = config_for("sweep", n_updates=4)
    with pytest.raises(RuntimeHostError, match="never fired"):
        run_sharded(
            config,
            rebalance=RebalanceSpec(**MOVE, after_deliveries=10_000),
            **RUN_ARGS,
        )


# ---------------------------------------------------------------------------
# Migration equivalence at each protocol point
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
        {"after_installs": 1},
        {"after_deliveries": 2},
        {"after_deliveries": 8},
    ],
    ids=["mid-batch", "mid-compensation", "late-drain"],
)
def test_migrated_run_matches_static_baseline(algorithm, claimed, threshold):
    config = config_for(
        algorithm, **({"batch_max": 3} if algorithm == "batched-sweep" else {})
    )
    baseline = run_sharded(config, **RUN_ARGS)
    result = run_sharded(
        config, rebalance=RebalanceSpec(**MOVE, **threshold), **RUN_ARGS,
    )
    assert result.plan.shard_of("V#s2") == 1, "plan must show the new home"
    assert result.rebalance_stats["completed"]
    assert result.verified_at(claimed)
    assert_views_equal(result, baseline)
    assert result.recorders["V#s2"].missing_deliveries() == {}


def test_rebalance_over_tcp_transport():
    config = config_for("sweep", n_updates=8)
    baseline = run_sharded(config, **RUN_ARGS)
    result = run_sharded(
        config, rebalance=RebalanceSpec(**MOVE, after_deliveries=3),
        **{**RUN_ARGS, "transport": "tcp"},
    )
    assert result.verified_at(ConsistencyLevel.COMPLETE)
    assert result.rebalance_stats["completed"]
    assert_views_equal(result, baseline)


def test_rebalance_stats_and_report():
    config = config_for("sweep")
    result = run_sharded(
        config, rebalance=RebalanceSpec(**MOVE, after_deliveries=2),
        **RUN_ARGS,
    )
    stats = result.rebalance_stats
    assert stats["view"] == "V#s2"
    assert (stats["from_shard"], stats["to_shard"]) == (0, 1)
    assert stats["fired"] and stats["epoch"] == 1
    # One fence boundary per source, taken at fire time.
    assert sorted(stats["boundaries"]) == [1, 2, 3]
    roles = {m: s["role"] for m, s in stats["members"].items()}
    assert roles == {"sh0": "donor", "sh1": "recipient"}
    assert stats["members"]["sh1"]["catchup_done"]
    assert "rebalance" in result.report()
    assert "'V#s2' shard 0 -> 1" in result.report()


# ---------------------------------------------------------------------------
# Mutation: dropping the straggler window must be caught
# ---------------------------------------------------------------------------

def test_straggler_skipping_mutation_leaves_delivery_holes():
    """A donor that skips gap forwarding loses the (P, B] window.

    The skipped deltas may join to nothing, leaving every snapshot
    byte-identical -- so the catch is delivery-completeness, not view
    contents: the migrated view's recorder must report the exact
    source sequence numbers that never reached it.
    """
    config = config_for("sweep", seed=1)
    result = run_sharded(
        config,
        rebalance=RebalanceSpec(
            **MOVE, after_deliveries=2, skip_straggler_forwarding=True
        ),
        **RUN_ARGS,
    )
    stats = result.rebalance_stats
    assert stats["gap_skipped"] >= 1, "mutation vacuous: empty gap window"
    missing = result.recorders["V#s2"].missing_deliveries()
    assert missing, "oracle missed the dropped straggler window"
    assert sum(len(seqs) for seqs in missing.values()) >= stats["gap_skipped"]
    # Views that never migrated keep complete delivery records.
    for name, recorder in result.recorders.items():
        if name != "V#s2":
            assert recorder.missing_deliveries() == {}


# ---------------------------------------------------------------------------
# ReplicaPlan x rebalancing: standby subscriptions move too
# ---------------------------------------------------------------------------

def test_rebalance_moves_standby_subscription():
    config = config_for("sweep")
    baseline = run_sharded(config, **RUN_ARGS)
    result = run_sharded(
        config, replicas=1,
        rebalance=RebalanceSpec(**MOVE, after_deliveries=2),
        **RUN_ARGS,
    )
    stats = result.rebalance_stats
    roles = {m: s["role"] for m, s in stats["members"].items()}
    assert roles == {
        "sh0": "donor", "sh0r1": "donor",
        "sh1": "recipient", "sh1r1": "recipient",
    }
    # The standby pair ran the same seal/adopt protocol as the primaries.
    assert stats["members"]["sh1r1"]["catchup_done"]
    assert stats["completed"]
    assert_views_equal(result, baseline)


def test_failover_still_promotes_after_migration():
    """Kill the recipient's primary after the migration has completed.

    The promoted standby must own the migrated view -- its subscription,
    recorder and state moved during the handoff -- and serve it
    byte-equal to the never-migrated, never-crashed baseline.
    """
    config = config_for("sweep")
    baseline = run_sharded(config, **RUN_ARGS)
    result = run_sharded(
        config, replicas=1,
        rebalance=RebalanceSpec(**MOVE, after_installs=1),
        failover=FailoverSpec(shard=1, after_deliveries=9),
        **RUN_ARGS,
    )
    assert result.promotions == {1: "sh1r1"}
    assert result.plan.shard_of("V#s2") == 1
    assert result.verified_at(ConsistencyLevel.COMPLETE)
    assert_views_equal(result, baseline)
    assert result.recorders["V#s2"].missing_deliveries() == {}
