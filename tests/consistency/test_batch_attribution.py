"""Batch-aware oracle accounting: attribution, completeness, staleness.

Positive direction: on real runs -- per-update SWEEP and the batching
scheduler -- every install is attributed to exactly its member updates,
the batch-aware completeness check passes, and per-update staleness has
one entry per delivered update regardless of batching.

Negative direction (the check must *catch* things): dropped installs,
regressing or over-claiming vectors, batches that are not delivery-order
prefixes, and installs whose content does not match their batch boundary
are each flagged with a distinct diagnostic.
"""

import pytest

from repro.consistency.checker import attribute_installs, check_batched_complete
from repro.consistency.levels import ConsistencyLevel
from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_experiment
from repro.warehouse.batched import BatchedSweepWarehouse
from repro.warehouse.registry import ALGORITHMS, AlgorithmInfo

WORKLOAD = dict(
    n_sources=3, n_updates=12, seed=0, mean_interarrival=2.0,
    check_consistency=True,
)


@pytest.fixture(scope="module")
def sweep_result():
    return run_experiment(ExperimentConfig(algorithm="sweep", **WORKLOAD))


@pytest.fixture(scope="module")
def batched_result():
    return run_experiment(
        ExperimentConfig(algorithm="batched-sweep", batch_max=4, **WORKLOAD)
    )


# ---------------------------------------------------------------------------
# Positive: real runs attribute cleanly
# ---------------------------------------------------------------------------

class TestAttribution:
    def test_per_update_sweep_attributes_one_to_one(self, sweep_result):
        attributions = sweep_result.recorder.attribute_installs()
        assert [a.batch_size for a in attributions] == [1] * 12
        members = [n for a in attributions for n in a.members]
        assert [n.delivery_seq for n in members] == list(range(1, 13))

    def test_batched_sweep_attributes_composite_installs(self, batched_result):
        attributions = batched_result.recorder.attribute_installs()
        sizes = [a.batch_size for a in attributions]
        assert sum(sizes) == 12  # every update attributed exactly once
        assert max(sizes) > 1  # and at least one install is composite
        assert all(size <= 4 for size in sizes)  # batch_max respected

    def test_members_are_contiguous_delivery_prefixes(self, batched_result):
        covered = 0
        for attribution in batched_result.recorder.attribute_installs():
            got = sorted(n.delivery_seq for n in attribution.members)
            assert got == list(range(covered + 1, covered + 1 + len(got)))
            covered += len(got)

    def test_batched_check_passes_for_both_schedulers(
        self, sweep_result, batched_result
    ):
        for result in (sweep_result, batched_result):
            verdict = result.recorder.check_batched()
            assert verdict.ok, verdict.detail
            assert verdict.method == "batched"


class TestPerUpdateStaleness:
    def test_one_entry_per_update_even_when_batched(self, batched_result):
        staleness = batched_result.recorder.per_update_staleness()
        assert len(staleness) == 12
        assert all(value >= 0 for value in staleness)

    def test_entries_match_install_minus_delivery(self, sweep_result):
        recorder = sweep_result.recorder
        staleness = recorder.per_update_staleness()
        expected = [
            attribution.snapshot.time - notice.delivered_at
            for attribution in recorder.attribute_installs()
            for notice in attribution.members
        ]
        assert staleness == pytest.approx(sorted_by_delivery(recorder, expected))

    def test_result_exposes_mean(self, batched_result):
        mean = batched_result.mean_per_update_staleness
        staleness = batched_result.recorder.per_update_staleness()
        assert mean == pytest.approx(sum(staleness) / len(staleness))
        assert "per-update stale" in batched_result.report()


def sorted_by_delivery(recorder, values):
    order = [
        notice.delivery_seq
        for attribution in recorder.attribute_installs()
        for notice in attribution.members
    ]
    return [value for _, value in sorted(zip(order, values))]


# ---------------------------------------------------------------------------
# Negative: malformed or dishonest snapshot logs are caught
# ---------------------------------------------------------------------------

def fresh_recorder():
    """A recorder from a fresh correct run, safe to mutate."""
    return run_experiment(
        ExperimentConfig(algorithm="sweep", **WORKLOAD)
    ).recorder


class TestCatchesBrokenAccounting:
    def test_dropped_install_leaves_updates_unattributed(self):
        recorder = fresh_recorder()
        recorder.snapshots.snapshots.pop()
        verdict = recorder.check_batched()
        assert not verdict.ok
        assert "never attributed" in verdict.detail

    def test_regressing_vector_is_rejected(self):
        recorder = fresh_recorder()
        snaps = recorder.snapshots.snapshots
        snaps[-1].claimed_vector = dict(snaps[0].claimed_vector)
        with pytest.raises(ValueError, match="regresses"):
            recorder.attribute_installs()
        assert not recorder.check_batched().ok

    def test_overclaiming_vector_is_rejected(self):
        recorder = fresh_recorder()
        snaps = recorder.snapshots.snapshots
        index, count = next(iter(snaps[-1].claimed_vector.items()))
        snaps[-1].claimed_vector[index] = count + 50
        with pytest.raises(ValueError, match="only"):
            recorder.attribute_installs()

    def test_missing_vector_is_rejected(self):
        recorder = fresh_recorder()
        recorder.snapshots.snapshots[3].claimed_vector = None
        with pytest.raises(ValueError, match="claims no state vector"):
            recorder.attribute_installs()

    def test_non_prefix_batch_is_flagged(self):
        """An install claiming a later source's update before an earlier
        delivered one breaks the delivery-order prefix property."""
        recorder = fresh_recorder()
        deliveries = recorder.deliveries
        snaps = recorder.snapshots.snapshots
        # find consecutive deliveries from two different sources
        t = next(
            i for i in range(len(deliveries) - 1)
            if deliveries[i].source_index != deliveries[i + 1].source_index
        )
        # install t+1 claims delivery t+2's update instead of t+1's own
        tampered = dict(snaps[t].claimed_vector)
        tampered[deliveries[t].source_index] -= 1
        tampered[deliveries[t + 1].source_index] = (
            tampered.get(deliveries[t + 1].source_index, 0) + 1
        )
        snaps[t].claimed_vector = {k: v for k, v in tampered.items() if v}
        verdict = recorder.check_batched()
        assert not verdict.ok
        assert "not a delivery-order prefix" in verdict.detail

    def test_wrong_install_content_is_flagged(self):
        """A batch whose boundaries are honest but whose view is stale."""
        recorder = fresh_recorder()
        snaps = recorder.snapshots.snapshots
        t = next(  # pick an install whose view actually changed
            i for i in range(1, len(snaps)) if snaps[i].view != snaps[i - 1].view
        )
        snaps[t].view = snaps[t - 1].view  # show the predecessor's state
        verdict = recorder.check_batched()
        assert not verdict.ok
        assert "does not match delivery prefix" in verdict.detail

    def test_staleness_unavailable_on_malformed_claims(self):
        """The RunResult surface degrades to None instead of raising."""
        result = run_experiment(ExperimentConfig(algorithm="sweep", **WORKLOAD))
        result.recorder.snapshots.snapshots[0].claimed_vector = None
        assert result.mean_per_update_staleness is None


# ---------------------------------------------------------------------------
# Mutation check: broken *batch* compensation must not slip past the oracle
# ---------------------------------------------------------------------------

class BrokenCompensationBatchedSweep(BatchedSweepWarehouse):
    """The batched-SWEEP bug the oracle exists to catch: answers routed
    while later updates sat in the queue are used as-is, so every
    mid-round-trip update's error term leaks into the composite install."""

    algorithm_name = "buggy-batched-compensation"

    def _compensate_queued(self, index, answer, temp, floor=None):
        return answer


#: Fast arrivals against slow sources: updates reliably land while a
#: wave's query is in flight, so skipped compensation has visible effect.
#: (Guarded by ``test_workload_exercises_compensation`` below.)
RACY_WORKLOAD = dict(
    n_sources=3, n_updates=30, mean_interarrival=0.5,
    latency=10.0, latency_model="uniform", match_fraction=1.0,
    insert_fraction=0.5, rows_per_relation=10, batch_max=2,
    check_consistency=True,
)

#: Seeds where the leaked error terms do not cancel in the composite sum.
DETECTING_SEEDS = (2, 4)


class TestBrokenCompensationCaught:
    @pytest.fixture
    def register_broken(self, monkeypatch):
        info = AlgorithmInfo(
            name=BrokenCompensationBatchedSweep.algorithm_name,
            cls=BrokenCompensationBatchedSweep,
            architecture="distributed",
            claimed_consistency=ConsistencyLevel.STRONG,
            message_cost="O(n)",
            requires_keys=False,
            requires_quiescence=False,
            comments="deliberately broken (test only)",
            in_paper_table=False,
        )
        monkeypatch.setitem(ALGORITHMS, info.name, info)
        return info.name

    @pytest.mark.parametrize("seed", DETECTING_SEEDS)
    def test_workload_exercises_compensation(self, seed):
        """Guard against vacuity: on these runs the *correct* scheduler
        must actually compensate -- otherwise the mutation is a no-op."""
        result = run_experiment(
            ExperimentConfig(algorithm="batched-sweep", seed=seed, **RACY_WORKLOAD)
        )
        assert result.metrics.counters.get("compensations", 0) > 0

    @pytest.mark.parametrize("seed", DETECTING_SEEDS)
    def test_broken_compensation_detected(self, register_broken, seed):
        result = run_experiment(
            ExperimentConfig(algorithm=register_broken, seed=seed, **RACY_WORKLOAD)
        )
        assert result.classified_level < ConsistencyLevel.STRONG
        verdict = result.recorder.check_batched()
        assert not verdict.ok
        assert "does not match delivery prefix" in verdict.detail

    @pytest.mark.parametrize("seed", DETECTING_SEEDS)
    def test_correct_batched_sweep_passes_same_gauntlet(self, seed):
        result = run_experiment(
            ExperimentConfig(algorithm="batched-sweep", seed=seed, **RACY_WORKLOAD)
        )
        assert result.classified_level >= ConsistencyLevel.STRONG
        assert result.recorder.check_batched().ok


def test_checker_functions_importable_from_package():
    from repro.consistency import (  # noqa: F401
        InstallAttribution,
        attribute_installs as _a,
        check_batched_complete as _c,
    )

    assert attribute_installs is _a
    assert check_batched_complete is _c
