"""All-covered batched SWEEP: indexed copies and burst coalescing.

With every source covered by an auxiliary copy a batch never leaves the
warehouse, so two things must hold for the covered path to cost what a
remote ``ComputeJoin`` costs and to batch at all:

* every seeding route of :class:`AuxiliaryStore` yields a copy indexed on
  its join columns (``Relation.copy()`` drops indexes), and
* ``BatchedSweepWarehouse._update_view`` lets a burst's zero-delay
  deliveries land before it drains, so the burst is one composite install
  -- without changing the result, the claimed consistency level, or the
  behaviour of plans that still query a source.
"""

import dataclasses
import random
from types import SimpleNamespace

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.consistency.oracle import RunRecorder
from repro.durability.checkpoint import decode_view_handoff, encode_view_handoff
from repro.durability.encoding import decode_relation, encode_block
from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_experiment
from repro.relational.delta import Delta
from repro.relational.incremental import PartialView
from repro.relational.relation import BagBase
from repro.runtime import RebalanceSpec, run_distributed, run_sharded
from repro.simulation.channel import Message
from repro.simulation.errors import StalledSimulationError
from repro.simulation.kernel import Simulator
from repro.simulation.mailbox import Mailbox
from repro.simulation.process import Delay
from repro.sources.messages import UpdateNotice, make_rebalance_fence
from repro.sources.updater import ScheduledUpdate
from repro.warehouse.batched import BatchedSweepWarehouse
from repro.warehouse.locality import QueryLocality
from repro.warehouse.migration import MigrationMemberState
from repro.warehouse.multiview import MultiViewStateMixin
from repro.warehouse.sharding import canonical_view_bytes
from repro.workloads import UpdateStreamConfig, Workload, make_workload
from repro.workloads.paper_example import (
    paper_example_states,
    paper_example_view,
)
from tests.warehouse.helpers import mixed_family


# ---------------------------------------------------------------------------
# Index survival across the three seeding routes
# ---------------------------------------------------------------------------


def assert_answers_by_probe(monkeypatch, view, index, copy, states=None):
    """``copy`` is indexed on its join columns and a sweep step uses them
    (the step's partial is a row of ``states``, the paper's by default)."""
    for attr in view.join_attributes_of(index):
        assert copy.get_index((copy.schema.index_of(attr),)) is not None, attr

    real_items = BagBase.items

    def no_scan(self):
        assert self is not copy, "sweep step scanned the covered copy"
        return real_items(self)

    neighbour = index - 1 if index > 1 else index + 1
    states = paper_example_states() if states is None else states
    row = next(iter(states[view.name_of(neighbour)].rows()))
    partial = PartialView.initial(
        view, neighbour, Delta.insert(view.schema_of(neighbour), row)
    )
    with monkeypatch.context() as patch:
        patch.setattr(BagBase, "items", no_scan)
        partial.extend(index, copy)


class TestIndexSurvival:
    def test_copy_drops_indexes(self):
        """The behaviour the store compensates for, pinned."""
        relation = paper_example_states()["R2"]
        relation.create_index(("C",))
        assert relation.copy().get_index((0,)) is None

    def test_fresh_locality_indexes_every_copy(self, monkeypatch):
        view, states = paper_example_view(), paper_example_states()
        locality = QueryLocality(view, states, mode="aux")
        for index in (1, 2, 3):
            assert_answers_by_probe(
                monkeypatch, view, index, locality.aux.contents(index)
            )

    def test_resume_from_checkpoint_reindexes(self, monkeypatch):
        view, states = paper_example_view(), paper_example_states()
        locality = QueryLocality(view, states, mode="aux")
        recovered = {
            name: decode_relation(
                encode_block(rel), view.schema_of(view.index_of_name(name))
            )
            for name, rel in locality.aux_relations().items()
        }
        locality.resume_from(recovered)
        for index in (1, 2, 3):
            copy = locality.aux.contents(index)
            assert copy is not recovered[view.name_of(index)]
            assert_answers_by_probe(monkeypatch, view, index, copy)

    def test_copy_adopted_after_handoff_is_indexed(self, monkeypatch):
        view, states = paper_example_view(), paper_example_states()
        # Budget 3 covers R2 and R1; the donor's R3 copy is adoptable.
        locality = QueryLocality(view, states, mode="aux", budget_rows=3)
        assert not locality.covers(3)
        decoded = decode_view_handoff(
            encode_view_handoff(
                view.name, {}, view.evaluate(states), aux={"R3": states["R3"]}
            )
        )
        recipient = SimpleNamespace(
            locality=locality,
            applied_counts={},
            _mig=SimpleNamespace(
                stats={"aux_adopted": 0, "aux_adopt_skipped": 0}
            ),
        )
        MultiViewStateMixin._mig_adopt_aux(recipient, view, decoded)
        assert recipient._mig.stats["aux_adopted"] == 1
        assert_answers_by_probe(monkeypatch, view, 3, locality.aux.contents(3))
        # The adopted copy is consulted, not just maintained: the next
        # sweep step for R3 is answered at the warehouse.
        assert locality.covers(3) and locality.covers_all()
        row = next(iter(states["R2"].rows()))
        step = PartialView.initial(view, 2, Delta.insert(view.schema_of(2), row))
        assert locality.aux_answer(3, step) is not None

    def test_view_adopted_by_migration_is_indexed(self, monkeypatch):
        """Round-robin puts ``V#theta`` on shard 0; shard 1's family never
        joins on its extra condition's columns.  Migrating it onto shard 1
        (``locality=aux``, every source covered) must index them on every
        covered copy, so its sweep steps probe instead of scanning."""
        recipients = []
        catchup = MultiViewStateMixin._mig_catchup

        def spying_catchup(self):
            recipients.append(self)
            return catchup(self)

        monkeypatch.setattr(MultiViewStateMixin, "_mig_catchup", spying_catchup)
        views = mixed_family()
        theta = views[-1]
        config = ExperimentConfig(
            algorithm="sweep", n_sources=3, n_updates=12, seed=7,
            mean_interarrival=2.0, n_views=len(views), locality="aux",
            check_consistency=True,
        )
        result = run_sharded(
            config, n_shards=2, transport="local", time_scale=0.001,
            timeout=60.0, strategy="round-robin", views=views,
            rebalance=RebalanceSpec(
                view=theta.name, to_shard=1, after_installs=2
            ),
        )
        assert result.rebalance_stats["completed"]
        assert result.plan.shard_of(theta.name) == 1
        assert result.verified_at(ConsistencyLevel.COMPLETE)
        (recipient,) = recipients
        aux = recipient.locality.aux
        assert aux.indexes() == [1, 2, 3]
        copies = {theta.name_of(i): aux.contents(i) for i in aux.indexes()}
        for index in aux.indexes():
            assert_answers_by_probe(
                monkeypatch, theta, index, aux.contents(index), states=copies
            )

    def test_indexes_track_installed_deltas(self):
        view, states = paper_example_view(), paper_example_states()
        locality = QueryLocality(view, states, mode="aux")
        delta = Delta(view.schema_of(2))
        delta.add((3, 9), +1)
        delta.add((3, 7), -1)
        locality.on_installed(UpdateNotice(source_index=2, seq=1, delta=delta))
        index = locality.aux.contents(2).get_index((0,))
        assert index[(3,)] == {(3, 9)}

    def test_family_join_columns_are_all_indexed(self):
        """A family view joining on another column gets its own index."""
        from repro.relational.predicate import AttrEq
        from repro.relational.view import ViewDefinition

        view, states = paper_example_view(), paper_example_states()
        other = ViewDefinition(
            "W", view.relation_names, view.schemas,
            join_conditions=(AttrEq("A", "D"), AttrEq("C", "F")),
        )
        alone = QueryLocality(view, states, mode="aux")
        both = QueryLocality(view, states, mode="aux", family=[view, other])
        assert alone.aux.contents(1).get_index((0,)) is None  # V never joins A
        assert both.aux.contents(1).get_index((0,)) is not None  # W: A = D
        assert both.aux.contents(1).get_index((1,)) is not None  # V: B = C


# ---------------------------------------------------------------------------
# Equivalence: all-covered bursts vs. the remote twin
# ---------------------------------------------------------------------------


def bursty_workload(seed: int, insert_fraction: float = 0.5):
    """Bursts of same-instant updates over a seed-derived chain."""
    rng = random.Random(20_000 + seed)
    n_sources = rng.choice((3, 4))
    burst = rng.choice((4, 6, 9))
    workload = make_workload(
        n_sources,
        random.Random(seed),
        rows_per_relation=10,
        stream=UpdateStreamConfig(
            n_updates=3 * burst,
            mean_interarrival=1.0,
            distribution="fixed",
            insert_fraction=insert_fraction,
        ),
        match_fraction=1.0,
    )
    order = sorted(
        (update.time, index, position)
        for index, schedule in workload.schedules.items()
        for position, update in enumerate(schedule)
    )
    for k, (_, index, position) in enumerate(order):
        schedule = workload.schedules[index]
        schedule[position] = dataclasses.replace(
            schedule[position], time=10.0 + (k // burst) * 60.0
        )
    return workload


def run_bursts(seed, locality, runtime, insert_fraction=0.5, **overrides):
    workload = bursty_workload(seed, insert_fraction)
    config = ExperimentConfig(
        algorithm="batched-sweep",
        seed=seed,
        n_sources=workload.view.n_relations,
        workload=workload,
        locality=locality,
        latency=5.0,
        latency_model="constant",
        # Callers run the one or two verdicts they assert on.
        check_consistency=False,
        **overrides,
    )
    if runtime:
        return run_distributed(
            config, transport="local", time_scale=0.0005, timeout=60.0
        )
    return run_experiment(config)


@pytest.mark.parametrize("runtime", [False, True], ids=["simulator", "local"])
@pytest.mark.parametrize("seed", range(30))
def test_covered_bursts_match_remote_twin(seed, runtime):
    off = run_bursts(seed, "off", runtime)
    aux = run_bursts(seed, "aux", runtime)
    assert canonical_view_bytes(aux.final_view) == canonical_view_bytes(
        off.final_view
    )
    counters = aux.metrics.counters
    updates = aux.recorder.updates_delivered
    assert counters["updates_installed"] == updates
    assert counters["installs"] < updates
    assert counters.get("queries_sent", 0) == 0
    assert aux.recorder.check(ConsistencyLevel.STRONG).ok
    verdict = aux.recorder.check_batched()
    assert verdict.ok, verdict.detail


class TestOracleSeesMultiUpdateBatches:
    """``_local_wave_answer`` adds the batch's own ``Delta-R_j``; with
    singleton batches that term is always absent, so only a coalesced
    burst exercises it."""

    @staticmethod
    def run_chained_inserts():
        """One burst inserting (1,50) (50,60) (60,7): the new view row
        exists only through the batch's own deltas at R1 and R2."""
        view = paper_example_view()
        rows = {1: (1, 50), 2: (50, 60), 3: (60, 7)}
        workload = Workload(
            view=view,
            initial_states=paper_example_states(),
            schedules={
                index: [
                    ScheduledUpdate(
                        1.0, Delta.insert(view.schema_of(index), row)
                    )
                ]
                for index, row in rows.items()
            },
        )
        return run_experiment(
            ExperimentConfig(
                algorithm="batched-sweep",
                n_sources=3,
                workload=workload,
                locality="aux",
                latency=5.0,
                latency_model="constant",
            )
        )

    def test_skipping_the_batch_delta_is_rejected(self, monkeypatch):
        def skip_batch_delta(self, index, term, batch_delta):
            return self._live_locality().aux_answer(index, term)

        monkeypatch.setattr(
            BatchedSweepWarehouse, "_local_wave_answer", skip_batch_delta
        )
        res = self.run_chained_inserts()
        assert res.metrics.counters["installs"] == 1  # one batch of three
        assert not res.consistency[ConsistencyLevel.CONVERGENCE].ok
        assert not res.recorder.check_batched().ok

    def test_same_burst_passes_unmutated(self):
        res = self.run_chained_inserts()
        assert res.metrics.counters["installs"] == 1
        assert res.final_view.count((60, 7)) == 1
        assert res.classified_level >= ConsistencyLevel.STRONG
        assert res.recorder.check_batched().ok


# ---------------------------------------------------------------------------
# Settle loop edges (hand-wired warehouse on the simulator)
# ---------------------------------------------------------------------------


def covered_warehouse(cls=BatchedSweepWarehouse, budget_rows=0, **kwargs):
    view, states = paper_example_view(), paper_example_states()
    sim = Simulator()
    recorder = RunRecorder(view)
    warehouse = cls(
        sim,
        view,
        query_channels={},
        initial_view=view.evaluate(states),
        recorder=recorder,
        inbox=Mailbox(sim, "wh-inbox"),
        locality=QueryLocality(
            view, states, mode="aux", budget_rows=budget_rows
        ),
        **kwargs,
    )
    return sim, warehouse


def r1_insert(seq: int) -> Message:
    """Update ``seq`` of R1: a fresh row joining nothing (B=90)."""
    delta = Delta.insert(paper_example_view().schema_of(1), (1000 + seq, 90))
    return Message("update", "R1", UpdateNotice(1, seq, delta))


def batch_sizes(warehouse) -> list[int]:
    return [int(size) for size in warehouse.metrics.observations["batch_size"]]


class TestSettleLoop:
    def test_isolated_update_waits_one_zero_delay_turn(self):
        sim, warehouse = covered_warehouse()
        sim.run()
        before = sim.events_executed
        warehouse.inbox.put(r1_insert(1))
        sim.run()
        assert batch_sizes(warehouse) == [1]
        assert sim.now == 0.0
        # inbox wake, queue wake, one settle turn, dispatcher re-wait.
        assert sim.events_executed - before <= 4

    def test_popped_head_is_pending_work_while_settling(self):
        sim, warehouse = covered_warehouse()
        sim.run()
        warehouse.inbox.put(r1_insert(1))
        seen = []
        while sim.step():
            if warehouse._settling:
                seen.append(
                    (len(warehouse.update_queue), warehouse.pending_work())
                )
        assert seen and all(pending for _, pending in seen)
        assert (0, True) in seen  # nothing queued, head held: still visible
        assert not warehouse.pending_work()

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_endless_zero_delay_stream_stops_at_the_cap(self, adaptive):
        sim, warehouse = covered_warehouse(max_batch=4, adaptive=adaptive)

        def flood():
            seq = 0
            while True:
                seq += 1
                warehouse.inbox.put(r1_insert(seq))
                yield Delay(0.0)

        sim.spawn("flood", flood())
        with pytest.raises(StalledSimulationError):
            sim.run(max_events=2_000)
        sizes = batch_sizes(warehouse)
        assert len(sizes) > 20, "settling starved the installs"
        assert max(sizes) <= 4
        if not adaptive:
            assert set(sizes) == {4}
        else:
            assert sizes[0] == 1 and sizes[-1] == 4  # cap saw settled depth

    def test_finite_burst_is_one_batch(self):
        sim, warehouse = covered_warehouse()
        for seq in range(1, 8):
            warehouse.inbox.put(r1_insert(seq))
        sim.run()
        assert batch_sizes(warehouse) == [7]

    def test_fence_mid_burst_ends_the_drain(self):
        view = paper_example_view()
        sim, warehouse = covered_warehouse()
        warehouse.attach_migration(
            MigrationMemberState(
                role="donor", view_def=view, epoch=1, coordinator=None,
                member=None, n_sources=3,
            )
        )
        fence = make_rebalance_fence(1, 3, Delta(view.schema_of(1)), epoch=1)
        for seq in (1, 2, 3):
            warehouse.inbox.put(r1_insert(seq))
        warehouse.inbox.put(Message("update", "R1", fence))
        for seq in (4, 5):
            warehouse.inbox.put(r1_insert(seq))
        sim.run()
        assert batch_sizes(warehouse) == [3, 2]
        assert warehouse._mig.boundaries == {1: 3}
        assert [
            snap.claimed_vector[1] for snap in warehouse.recorder.snapshots
        ] == [3, 5]

    def test_max_batch_one_never_settles(self):
        sim, warehouse = covered_warehouse(max_batch=1)
        for seq in (1, 2, 3):
            warehouse.inbox.put(r1_insert(seq))
        settled = []
        while sim.step():
            settled.append(warehouse._settling)
        assert not any(settled)
        assert batch_sizes(warehouse) == [1, 1, 1]


class TestPartiallyCoveredPlanUntouched:
    """A plan that still queries one source yields there already; the
    settle branch must not run for it."""

    KW = dict(locality="aux", runtime=False)

    @staticmethod
    def fingerprint(result):
        return (
            [
                (snap.time, canonical_view_bytes(snap.view), snap.claimed_vector)
                for snap in result.recorder.snapshots
            ],
            dict(result.metrics.counters),
            {k: list(v) for k, v in result.metrics.observations.items()},
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_budgeted_plan_is_identical_with_settling_disabled(
        self, seed, monkeypatch
    ):
        # 10 rows per relation: a budget of 25 leaves at least one remote.
        budget = dict(locality_budget_rows=25)
        live = run_bursts(seed, **self.KW, **budget)
        assert 0 < live.locality_stats["covered_sources"] < (
            live.config.n_sources
        )
        assert live.metrics.counters["queries_sent"] > 0
        monkeypatch.setattr(QueryLocality, "covers_all", lambda self: False)
        assert self.fingerprint(run_bursts(seed, **self.KW, **budget)) == (
            self.fingerprint(live)
        )

    def test_control_all_covered_plan_does_depend_on_settling(
        self, monkeypatch
    ):
        live = run_bursts(0, **self.KW)
        monkeypatch.setattr(QueryLocality, "covers_all", lambda self: False)
        unsettled = run_bursts(0, **self.KW)
        assert (
            live.metrics.counters["installs"]
            < unsettled.metrics.counters["installs"]
        )
        assert live.final_view == unsettled.final_view
