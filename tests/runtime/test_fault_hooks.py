"""Faults are hooks a spec asks for: the protocol-point trigger, the
un-faulted fleet it leaves alone, and donor death during a migration."""

import asyncio
import time

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.scenarios import Migrate, PrimaryKill, run_case
from repro.runtime import FailoverSpec, FleetSpec, RebalanceSpec, run_sharded
from repro.runtime.shard import ProtocolTrigger
from repro.runtime.shard.run import Fleet
from repro.warehouse.sharding import canonical_view_bytes

HOOKS = {
    "after_deliveries": "note_delivery",
    "after_installs": "_after_install",
    "after_queries": "send_query",
}


def spec_for(algorithm="sweep", **fields):
    config = ExperimentConfig(
        algorithm=algorithm, n_sources=3, n_updates=10, seed=7,
        mean_interarrival=4.0, n_views=4, batch_max=3,
    )
    return FleetSpec(
        config, n_shards=2, strategy="round-robin", time_scale=0.001,
        timeout=60.0, **fields,
    )


def drive(spec, arm=lambda fleet: None):
    """Host ``spec``'s fleet to quiescence; ``arm(fleet)`` runs on the
    built fleet first.  Returns the (closed) fleet."""

    async def hosted():
        fleet = Fleet(spec)
        try:
            await fleet.start()
            arm(fleet)
            await fleet.runtime.wait_until(fleet.quiescent, timeout=spec.timeout)
        finally:
            await fleet.aclose()
        return fleet

    return asyncio.run(hosted())


def count_calls(warehouse, hook):
    """An independent count of ``hook``'s calls, installed underneath
    whatever trigger wraps the hook afterwards."""
    calls = []
    original = getattr(warehouse, hook)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    setattr(warehouse, hook, counted)
    return calls


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_unfaulted_fleet_runs_on_its_classes_own_hooks(transport):
    fleet = drive(spec_for(transport=transport, replicas=1))
    assert len(fleet.members) == 4 and not fleet.armed
    for site in fleet.members.values():
        assert not set(HOOKS.values()) & set(vars(site.warehouse)), site
        assert site.primary_recorder.updates_delivered == 10


@pytest.mark.parametrize("algorithm", ["sweep", "batched-sweep"])
@pytest.mark.parametrize("point", HOOKS)
def test_trigger_fires_once_exactly_at_the_nth_event(point, algorithm):
    fired = []

    def arm(fleet):
        warehouse = fleet.members[fleet.spec.rplan.primary_of(0)].warehouse
        calls = count_calls(warehouse, HOOKS[point])
        for n in (1, 2):  # two triggers on one warehouse, one hook
            spec = FailoverSpec(shard=0, **{point: n})
            ProtocolTrigger(
                warehouse, spec, lambda n=n: fired.append((n, len(calls)))
            )
        # ... and one on another hook of the same warehouse.
        other = next(p for p in HOOKS if p != point)
        ProtocolTrigger(
            warehouse,
            FailoverSpec(shard=0, **{other: 1}),
            lambda: fired.append(other),
        )
        fired.append(calls)

    drive(spec_for(algorithm), arm)
    calls = fired.pop(0)
    assert len(calls) > 2, "the hook kept being called past both thresholds"
    assert sorted(f for f in fired if isinstance(f, tuple)) == [(1, 1), (2, 2)]
    assert fired.count(next(p for p in HOOKS if p != point)) == 1


def test_killing_trigger_takes_down_only_its_own_process():
    spec = spec_for(replicas=1)
    kill = FailoverSpec(shard=0, after_deliveries=3)

    def arm(fleet):
        victim = fleet.spec.rplan.primary_of(0)
        ProtocolTrigger(
            fleet.members[victim].warehouse,
            kill,
            lambda: fleet.kill(victim),
            kill="test kill",
        )

    fleet = drive(spec, arm)
    victim = spec.rplan.primary_of(0)
    assert fleet.dead == {victim}
    assert fleet.members[victim].primary_recorder.updates_delivered == 3
    assert fleet.authority(0).member.label == "sh0r1"
    assert fleet.authority(0).primary_recorder.updates_delivered == 10


# ---------------------------------------------------------------------------
# Donor death during a migration: detected at once, not survived
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_donor_primary_death_mid_handoff_fails_fast(seed):
    # Seeds 0 and 1 kill the donor's primary in the very hook call that
    # fires the migration (mid-batch / mid-compensation): the recipient
    # would wait for a handoff that never comes.
    started = time.perf_counter()
    row = run_case("sweep", seed, [Migrate(), PrimaryKill(kill_shard=0)])
    assert time.perf_counter() - started < 10.0, "waited out the timeout"
    assert not row["ok"]
    assert row["error"].startswith("RuntimeHostError: rebalance: donor primary")
    assert "sh0" in row["error"] and "awaiting seal" in row["error"]


def test_donor_primary_death_after_catch_up_still_promotes():
    config = ExperimentConfig(
        algorithm="sweep", n_sources=3, n_updates=10, seed=7,
        mean_interarrival=4.0, n_views=4,
    )
    common = dict(
        n_shards=2, strategy="round-robin", time_scale=0.001, timeout=60.0
    )
    twin = run_sharded(config, **common)
    result = run_sharded(
        config,
        replicas=1,
        rebalance=RebalanceSpec(view="V#s2", to_shard=1, after_installs=1),
        failover=FailoverSpec(shard=0, after_deliveries=9),
        **common,
    )
    assert result.promotions == {0: "sh0r1"}
    assert result.rebalance_stats["completed"]
    assert result.plan.shard_of("V#s2") == 1
    for name, view in twin.final_views.items():
        assert canonical_view_bytes(result.final_views[name]) == (
            canonical_view_bytes(view)
        ), name
