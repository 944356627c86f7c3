"""Sharded warehouse runtime: per-shard consistency and process control.

A sharded run must inherit each scheduler's single-warehouse guarantee
per view -- the router only splits the view set, never a view -- so
SWEEP shards verify complete and batched-sweep shards verify strong,
on both transports.  The supervisor tests pin the crash contract:
one failing shard process takes the fleet down with
:class:`ShardCrashed`, never a silent success.
"""

import asyncio
import sys

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.harness.config import ExperimentConfig
from repro.runtime import (
    RebalanceSpec,
    ShardCrashed,
    ShardSupervisor,
    launch_sharded_processes,
    run_sharded,
)
from repro.relational.view import ViewDefinition
from repro.runtime.shard import FleetSpec
from repro.runtime.shard.run import Fleet
from repro.simulation.process import Delay
from repro.sources.updater import ScheduledUpdater
from repro.warehouse.batched import BatchedSweepWarehouse
from repro.warehouse.multiview import MultiViewStateMixin
from repro.warehouse.sharding import canonical_view_bytes
from repro.warehouse.sweep import SweepWarehouse
from tests.warehouse.helpers import final_states, mixed_family


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


def test_a_family_under_another_algorithm_is_refused():
    config = config_for("nested-sweep")
    with pytest.raises(ValueError, match="sweep/batched-sweep.*'nested-sweep'"):
        run_sharded(
            config, n_shards=2, transport="local", time_scale=0.001,
            timeout=60.0, strategy="round-robin",
        )


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
# Sweep classes: a shard's same-join views share one partial view change
# ---------------------------------------------------------------------------

def test_one_shard_joins_once_per_step_whatever_the_family_size(sweep_step_spy):
    calls = {}
    for n_views in (1, 8):
        sweep_step_spy["partials_per_request"].clear()
        sweep_step_spy["compute_join_calls"] = 0
        config = config_for("sweep", n_views=n_views, mean_interarrival=0.05)
        result = run_sharded(
            config, n_shards=1, transport="local", time_scale=0.001,
            timeout=60.0,
        )
        assert result.verified_at(ConsistencyLevel.COMPLETE)
        assert set(sweep_step_spy["partials_per_request"]) == {1}
        calls[n_views] = (
            result.metrics.by_kind["query"].count,
            sweep_step_spy["compute_join_calls"],
        )
    # The paper's per-update cost: (n-1) queries, one join each.
    assert calls[1] == calls[8] == (2 * config.n_updates,) * 2


@pytest.mark.parametrize("transport", ["local", "tcp"])
@pytest.mark.parametrize(
    "algorithm,claimed",
    [
        ("sweep", ConsistencyLevel.COMPLETE),
        ("batched-sweep", ConsistencyLevel.STRONG),
    ],
)
def test_mixed_family_classes_are_exact(
    algorithm, claimed, transport, sweep_step_spy
):
    """Round-robin puts {V, V#sel | V#theta} on shard 0 (two classes, the
    second tagged on the wire with its non-primary representative) and
    {V#proj, V#both} on shard 1 (one class led by the shard's primary):
    every view must equal its own recomputation, under compensation."""
    views = mixed_family()
    compensations = 0
    for seed in range(50):
        sweep_step_spy["partials_per_request"].clear()
        config = config_for(
            algorithm, seed=seed, n_updates=10, n_views=len(views),
            mean_interarrival=0.05,
        )
        result = run_sharded(
            config, n_shards=2, transport=transport, time_scale=0.001,
            timeout=60.0, strategy="round-robin", views=views,
        )
        assert result.verified_at(claimed), seed
        compensations += result.metrics.counters.get("compensations", 0)
        if algorithm == "sweep":
            # One partial per class: 2 from shard 0, 1 from shard 1.
            assert set(sweep_step_spy["partials_per_request"]) == {1, 2}
        states = final_states(result)
        for view in views:
            assert canonical_view_bytes(result.final_views[view.name]) == (
                canonical_view_bytes(view.evaluate(states))
            ), (seed, view.name)
    assert compensations > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tcp_shard_led_by_a_non_base_view_decodes_its_own_partials(seed):
    """Round-robin over [V, V#theta] puts V#theta alone on shard 1.  The
    wire codec tags a partial by view name unless it is the codec's base
    view, so a shard whose codec started at V#theta sent its partials
    untagged and every source decoded them as V's (NegativeCountError)."""
    family = mixed_family()
    views = [family[0], family[-1]]
    config = config_for(
        "sweep", seed=seed, n_updates=20, mean_interarrival=10.0,
        n_views=len(views),
    )
    result = run_sharded(
        config, n_shards=2, transport="tcp", time_scale=0.001,
        timeout=60.0, strategy="round-robin", views=views,
    )
    assert result.plan.shard_of("V#theta") == 1
    assert result.verified_at(ConsistencyLevel.COMPLETE)
    states = final_states(result)
    for view in views:
        assert canonical_view_bytes(result.final_views[view.name]) == (
            canonical_view_bytes(view.evaluate(states))
        ), view.name


def hold_second_half_until_migrated(monkeypatch):
    """Each source commits the first half of its schedule on time and
    holds the rest until every recipient has caught up and dequeued its
    fences -- a hold on protocol state, not on the wall clock, so however
    the host stalls, the migrated view provably lives on in its new
    shard for half the run."""
    recipients = []
    attach = MultiViewStateMixin.attach_migration

    def recording_attach(self, state):
        attach(self, state)
        if state.role == "recipient":
            recipients.append(state)

    def migrated():
        return recipients and all(
            st.catchup_done and len(st.fenced) >= st.n_sources
            for st in recipients
        )

    def held_run(self):
        for k, update in enumerate(self.schedule):
            while 2 * k >= len(self.schedule) and not migrated():
                yield Delay(1.0)
            delay = update.time - self.sim.now
            if delay > 0:
                yield Delay(delay)
            self._apply(update.delta)
            self.applied += 1

    monkeypatch.setattr(MultiViewStateMixin, "attach_migration", recording_attach)
    monkeypatch.setattr(ScheduledUpdater, "_run", held_run)


def stall_donor_first_unit(monkeypatch, algorithm, delay=100.0):
    """Stall the donor's first unit of work by ``delay`` time units (100
    ms at ``time_scale=0.001``), as a loaded host can: the run's updates
    then all arrive before the donor seals.  Returns a list that records
    the stall."""
    cls, name = (
        (SweepWarehouse, "process_update") if algorithm == "sweep"
        else (BatchedSweepWarehouse, "process_batch")
    )
    unit = getattr(cls, name)
    stalled = []

    def stalling(self, work):
        if self._mig is not None and self._mig.role == "donor" and not stalled:
            stalled.append(True)
            yield Delay(delay)
        yield from unit(self, work)

    monkeypatch.setattr(cls, name, stalling)
    return stalled


@pytest.mark.parametrize("algorithm", ["sweep", "batched-sweep"])
def test_migrating_view_never_shares_a_class_across_positions(
    algorithm, monkeypatch
):
    """While ``V#s2`` catches up on its new shard it sits at its own
    position: whenever a class has several members, they all claim the
    same position vector -- and once it has caught up it shares again."""
    classify = MultiViewStateMixin._sweep_classes
    shared_with_migrant = []

    def checked(self, assignment):
        classes = classify(self, assignment)
        for members in classes:
            vectors = [
                # (a position of 0 may be absent or explicit)
                {i: n for i, n in self._claimed_vector_for(view).items() if n}
                for view in members
            ]
            assert all(vector == vectors[0] for vector in vectors), members
            if len(members) > 1 and self._mig is not None:
                shared_with_migrant.append(
                    self._mig.role == "recipient"
                    and any(v.name == "V#s2" for v in members)
                )
        return classes

    monkeypatch.setattr(MultiViewStateMixin, "_sweep_classes", checked)
    claimed = (
        ConsistencyLevel.COMPLETE if algorithm == "sweep"
        else ConsistencyLevel.STRONG
    )
    catchup_installs = 0
    # Saturated (every update arrives within ~1 ms, the move fires at the
    # 12th delivery): the donor seals with most of the run still queued,
    # so catch-up replays it.  Held: the second half of the run waits for
    # the migration to finish, so the view then lives on as a member of
    # its new shard's class -- even with the donor's first unit stalled,
    # which turns 2 ms pacing alone into the saturated leg.
    for held, interarrival, trigger in (
        (False, 0.05, dict(after_deliveries=12)),
        (True, 2.0, dict(after_installs=2)),
    ):
        if held:
            hold_second_half_until_migrated(monkeypatch)
            stalled = stall_donor_first_unit(monkeypatch, algorithm)
        config = config_for(
            algorithm, n_updates=24, seed=7, batch_max=2,
            mean_interarrival=interarrival,
        )
        result = run_sharded(
            config, n_shards=2, transport="local", time_scale=0.001,
            timeout=60.0, strategy="round-robin",
            rebalance=RebalanceSpec(view="V#s2", to_shard=1, **trigger),
        )
        assert result.rebalance_stats["completed"]
        assert result.plan.shard_of("V#s2") == 1
        assert result.verified_at(claimed)
        catchup_installs += result.rebalance_stats["catchup_installs"]
    assert stalled
    assert catchup_installs > 0
    assert any(shared_with_migrant)


@pytest.mark.parametrize("relaxed", [False, True])
@pytest.mark.parametrize("algorithm", ["sweep", "batched-sweep"])
def test_shared_floor_filters_no_queued_update(algorithm, relaxed, monkeypatch):
    """The migrated view answers ``None`` (its shard's floor) where its
    seq position equals the shard's applied count, and then shares a
    class.  The int floors it would have answered must remove nothing:
    every queued update lies above its position plus its share of the
    unit of work (the post-batch floor, which bounds the pre-batch one)
    -- also on a ``relaxed`` run, the straggler-skipping mutation, whose
    view reached that seq over a hole."""
    classify = MultiViewStateMixin._sweep_classes
    shared_units = []

    def checked(self, assignment):
        classes = classify(self, assignment)
        st = self._mig_active_view()
        if st is None:
            return classes
        name = st.view_def.name
        for members in classes:
            if len(members) == 1 or all(v.name != name for v in members):
                continue
            shared_units.append(len(assignment[name]))
            for j in range(1, self.view.n_relations + 1):
                mine = sum(n.source_index == j for n in assignment[name])
                explicit = st.pos.get(j, 0) + mine
                assert all(
                    queued.seq > explicit
                    for queued in self._queued_update_payloads()
                    if queued.source_index == j
                ), (j, explicit)
        return classes

    monkeypatch.setattr(MultiViewStateMixin, "_sweep_classes", checked)
    for interarrival, trigger in (
        (0.05, dict(after_deliveries=12)),
        (0.5, dict(after_installs=2)),
        (2.0, dict(after_installs=2)),
    ):
        config = config_for(
            algorithm, n_updates=24, seed=7, batch_max=2,
            mean_interarrival=interarrival,
        )
        result = run_sharded(
            config, n_shards=2, transport="local", time_scale=0.001,
            timeout=60.0, strategy="round-robin",
            rebalance=RebalanceSpec(
                view="V#s2", to_shard=1, skip_straggler_forwarding=relaxed,
                **trigger,
            ),
        )
        assert result.rebalance_stats["completed"]
    assert shared_units
    if algorithm == "batched-sweep":
        assert max(shared_units) > 1  # a real batch, so post- != pre-batch


# ---------------------------------------------------------------------------
# Start-up: one wide join per sweep class per fleet
# ---------------------------------------------------------------------------

@pytest.fixture
def wide_joins(monkeypatch):
    """Names of the views ``ViewDefinition.evaluate_wide`` ran for."""
    calls = []
    evaluate_wide = ViewDefinition.evaluate_wide

    def spy(self, states):
        calls.append(self.name)
        return evaluate_wide(self, states)

    monkeypatch.setattr(ViewDefinition, "evaluate_wide", spy)
    return calls


def _started(config, **fields) -> tuple[Fleet, dict]:
    """A fleet built and started (no update applied yet), then closed,
    with its members' view stores as they stood once started: closing
    yields to the event loop, and a recovering member may begin
    replaying its logged updates meanwhile."""

    async def start():
        fleet = Fleet(FleetSpec(config, **fields))
        try:
            await fleet.start()
            stores = {name: r.copy() for name, r in _stores(fleet).items()}
        finally:
            await fleet.aclose()
        return fleet, stores

    return asyncio.run(start())


def _stores(fleet: Fleet) -> dict:
    return {
        name: store.relation
        for site in fleet.members.values()
        for name, store in site.warehouse.stores.items()
    }


@pytest.mark.parametrize(
    "family, replicas, classes",
    [("view_family", 0, 1), ("view_family", 1, 1), ("mixed", 0, 2)],
)
def test_a_fleet_starts_with_one_wide_join_per_class(
    wide_joins, family, replicas, classes
):
    views = mixed_family() if family == "mixed" else None
    config = config_for("sweep", n_views=len(views) if views else 8)
    fleet, stores = _started(
        config, n_shards=2, strategy="round-robin", replicas=replicas,
        views=views,
    )
    assert fleet.spec.plan.active_shards == [0, 1]
    assert len(wide_joins) == classes
    states = fleet.spec.workload.initial_states
    assert set(stores) == {view.name for view in fleet.spec.family}
    for view in fleet.spec.family:
        assert stores[view.name] == view.evaluate(states), view.name


def test_a_recovering_member_evaluates_no_view(tmp_path, wide_joins):
    config = config_for("sweep", n_views=8)
    fields = dict(n_shards=2, strategy="round-robin", durable_dir=str(tmp_path))
    run_sharded(config, time_scale=0.001, timeout=60.0, **fields)
    wide_joins.clear()
    fleet, stores = _started(config, **fields)
    assert wide_joins == []
    for site in fleet.members.values():
        for name, relation in site.recovered_state.view_states.items():
            assert stores[name] == relation, name


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
