"""Multi-view maintenance tests: shared sweeps, per-view consistency."""

import random

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.harness.multiview_runner import run_multi_view
from repro.relational.errors import SchemaError
from repro.relational.predicate import AttrCompare, Or
from repro.warehouse.multiview import validate_same_chain
from repro.warehouse.sharding import canonical_view_bytes, view_family
from repro.workloads.schema_gen import chain_view
from repro.workloads.scenarios import make_workload
from repro.workloads.stream import UpdateStreamConfig
from tests.warehouse.helpers import (
    final_states,
    mixed_family,
    same_chain_variant,
)


def three_views(n=3):
    """Three different views over the same chain."""
    full = chain_view(n, name="full")
    keyless = chain_view(n, project_keys=False, name="payloads")
    cheap = chain_view(
        n, name="cheap", selection=AttrCompare(f"V{n}", "<", 500)
    )
    return [full, keyless, cheap]


def workload(seed=5, n=3, n_updates=15, ia=1.0):
    return make_workload(
        n,
        random.Random(seed),
        rows_per_relation=10,
        match_fraction=1.0,
        stream=UpdateStreamConfig(
            n_updates=n_updates, mean_interarrival=ia, insert_fraction=0.5,
        ),
    )


class TestValidation:
    def test_same_chain_accepted(self):
        validate_same_chain(three_views())

    def test_different_names_rejected(self):
        with pytest.raises(SchemaError):
            validate_same_chain([chain_view(3), chain_view(4)])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            validate_same_chain([])


class TestMultiViewRuns:
    @pytest.mark.parametrize("seed", range(3))
    def test_every_view_completely_consistent(self, seed):
        result = run_multi_view(three_views(), workload(seed=seed), seed=seed)
        for name, level in result.levels.items():
            assert level == ConsistencyLevel.COMPLETE, name

    def test_message_count_independent_of_view_count(self):
        wl = workload()
        one = run_multi_view(three_views()[:1], wl, seed=1)
        three = run_multi_view(three_views(), wl, seed=1)
        assert one.queries_sent == three.queries_sent
        # queries (not answers) are counted: (n-1) per update, n=3
        assert three.queries_sent == three.updates_delivered * (3 - 1)

    def test_views_match_single_view_runs(self):
        """Each view's final contents equal a dedicated single-view run."""
        wl = workload(seed=2)
        multi = run_multi_view(three_views(), wl, seed=2)
        for view in three_views():
            solo = run_multi_view([view], wl, seed=2)
            assert multi.final_views[view.name] == solo.final_views[view.name]

    def test_selection_view_filters(self):
        result = run_multi_view(three_views(), workload(seed=3), seed=3)
        cheap = result.final_views["cheap"]
        idx = cheap.schema.index_of("V3")
        assert all(row[idx] < 500 for row in cheap.rows())

    def test_sqlite_backend(self):
        result = run_multi_view(
            three_views(), workload(seed=4), seed=4, backend="sqlite"
        )
        for level in result.levels.values():
            assert level == ConsistencyLevel.COMPLETE

    def test_under_heavy_concurrency(self):
        result = run_multi_view(
            three_views(), workload(seed=6, n_updates=20, ia=0.5),
            seed=6, latency=8.0,
        )
        assert result.metrics.counters.get("compensations", 0) > 0
        for name, level in result.levels.items():
            assert level == ConsistencyLevel.COMPLETE, name


# ---------------------------------------------------------------------------
# Sweep classes: same-join views share one partial view change
# ---------------------------------------------------------------------------

class TestSweepClasses:
    def test_join_work_is_per_update_not_per_view(self, sweep_step_spy):
        """A same-join family of 8 ships and joins exactly what 1 view does."""
        wl = workload(seed=9, n_updates=20, ia=0.5)
        base = chain_view(3, name="V")
        cost = {}
        for k in (1, 8):
            sweep_step_spy["partials_per_request"].clear()
            sweep_step_spy["compute_join_calls"] = 0
            result = run_multi_view(view_family(base, k), wl, seed=9, latency=8.0)
            assert set(sweep_step_spy["partials_per_request"]) == {1}
            assert result.metrics.counters["compensations"] > 0
            stats = result.metrics.by_kind
            cost[k] = (
                stats["query"].count,
                stats["query"].rows,
                stats["answer"].rows,
                sweep_step_spy["compute_join_calls"],
                result.metrics.counters["compensations"],
            )
            assert all(
                level == ConsistencyLevel.COMPLETE
                for level in result.levels.values()
            )
        assert cost[1] == cost[8]
        assert cost[8][3] == cost[8][0] == 2 * 20  # (n-1) joins per update

    @pytest.mark.parametrize("seed", range(50))
    def test_mixed_family_is_two_classes_and_exact(self, seed, sweep_step_spy):
        views = mixed_family()
        result = run_multi_view(
            views, workload(seed=seed, n_updates=12, ia=0.5),
            seed=seed, latency=8.0,
        )
        assert set(sweep_step_spy["partials_per_request"]) == {2}
        assert result.metrics.counters["compensations"] > 0
        states = final_states(result)
        for view in views:
            assert result.levels[view.name] == ConsistencyLevel.COMPLETE
            assert canonical_view_bytes(result.final_views[view.name]) == (
                canonical_view_bytes(view.evaluate(states))
            ), view.name

    def test_distinct_join_sets_stay_distinct_classes(self, sweep_step_spy):
        """k different join sets are k classes: the per-view behaviour."""
        base = chain_view(3, name="V")
        views = [base] + [
            same_chain_variant(
                base, f"V#j{k}",
                join_conditions=base.join_conditions
                + (Or(AttrCompare("V1", "<", 100 * k), AttrCompare("V3", "<", 500)),),
            )
            for k in (2, 4, 6)
        ]
        result = run_multi_view(views, workload(seed=3), seed=3)
        assert set(sweep_step_spy["partials_per_request"]) == {4}
        states = final_states(result)
        for view in views:
            assert result.final_views[view.name] == view.evaluate(states)


class TestSweepOptionsOnFamilies:
    """``SweepOptions`` apply to a hosted family as to a single view."""

    @staticmethod
    def run_family(**options):
        """A 4-view family on the A1 sweep-variants workload."""
        wl = make_workload(
            6,
            random.Random(6),
            rows_per_relation=8,
            match_fraction=1.0,
            stream=UpdateStreamConfig(
                n_updates=18, mean_interarrival=2.0, insert_fraction=0.5
            ),
        )
        views = view_family(wl.view, 4)
        result = run_multi_view(views, wl, seed=6, latency=6.0, **options)
        states = final_states(result)
        for view in views:
            assert result.levels[view.name] == ConsistencyLevel.COMPLETE
            assert canonical_view_bytes(result.final_views[view.name]) == (
                canonical_view_bytes(view.evaluate(states))
            ), view.name
        return result

    def test_parallel_family_installs_sooner(self):
        sequential = self.run_family()
        parallel = self.run_family(sweep_parallel=True)
        assert parallel.queries_sent == sequential.queries_sent
        assert parallel.metrics.mean_observation("install_delay") < (
            sequential.metrics.mean_observation("install_delay")
        )

    def test_unmerged_family_subtracts_one_term_per_update(self):
        merged = self.run_family()
        unmerged = self.run_family(sweep_merge_queue_updates=False)
        counters = unmerged.metrics.counters
        assert counters["compensations"] == merged.metrics.counters["compensations"]
        assert counters["compensation_terms"] > counters["compensations"]
