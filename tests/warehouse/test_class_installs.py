"""A multi-view warehouse pays per sweep class, and per view only where
the view changes.

The grouping of a shard's views into sweep classes is shard state: with no
migration in progress it is built once per warehouse, not once per unit of
work.  Installing a class's wide delta finalizes (selects + projects) it
for each member only when it is non-empty; an empty wide delta is an O(1)
install that is still counted and logged, so installs, queries, messages
and every consistency verdict stay what they were.
"""

import random

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.harness.config import ExperimentConfig
from repro.harness.multiview_runner import run_multi_view
from repro.relational.view import ViewDefinition
from repro.runtime import run_sharded
from repro.warehouse.multiview import MultiViewStateMixin
from repro.warehouse.sharding import canonical_view_bytes, view_family
from repro.workloads.scenarios import make_workload
from repro.workloads.stream import UpdateStreamConfig
from tests.warehouse.helpers import final_states

CLAIMED = {
    "sweep": ConsistencyLevel.COMPLETE,
    "batched-sweep": ConsistencyLevel.STRONG,
}


@pytest.fixture
def class_spy(monkeypatch):
    """Per warehouse: static groupings built and class installs; overall:
    finalize calls made by installs against the calls expected."""
    seen = {
        "built": {},
        "finalize": 0,
        "expected": 0,
        "empty_wide": 0,
        "nonempty_wide": 0,
        "views_installed": 0,
    }
    finalize = ViewDefinition.finalize
    static_classes = MultiViewStateMixin._static_classes
    install_classes = MultiViewStateMixin._install_classes

    def counting_finalize(self, wide):
        seen["finalize"] += 1
        return finalize(self, wide)

    def counting_static(self):
        seen["built"][id(self)] = seen["built"].get(id(self), 0) + 1
        return static_classes(self)

    def checked_install(self, classes, wide_deltas, note):
        before = seen["finalize"]
        install_classes(self, classes, wide_deltas, note)
        expected = sum(
            len(members)
            for members, wide in zip(classes, wide_deltas)
            if wide
        )
        assert seen["finalize"] - before == expected, note
        seen["expected"] += expected
        seen["views_installed"] += sum(len(members) for members in classes)
        for wide in wide_deltas:
            seen["nonempty_wide" if wide else "empty_wide"] += 1

    monkeypatch.setattr(ViewDefinition, "finalize", counting_finalize)
    monkeypatch.setattr(MultiViewStateMixin, "_static_classes", counting_static)
    monkeypatch.setattr(MultiViewStateMixin, "_install_classes", checked_install)
    return seen


def assert_saved_per_view_work(seen):
    """Both install paths ran, and the empty one finalized nothing."""
    assert seen["empty_wide"] > 0 and seen["nonempty_wide"] > 0
    assert seen["expected"] < seen["views_installed"]


# ---------------------------------------------------------------------------
# Simulator: one warehouse, deterministic counts
# ---------------------------------------------------------------------------

def simulated_workload(seed=11):
    return make_workload(
        3,
        random.Random(seed),
        rows_per_relation=12,
        match_fraction=0.5,
        stream=UpdateStreamConfig(
            n_updates=30, mean_interarrival=3.0, insert_fraction=0.6
        ),
    )


#: What the simulator run below counts, as counted before installs of
#: unchanged views became O(1) (the protocol must not move):
#: (installs, queries sent, compensations, messages by kind).
SIMULATED_COUNTS = {
    "sweep": (30, 60, 57, {"answer": 60, "query": 60, "update": 30}),
    "batched-sweep": (6, 21, 15, {"answer": 21, "query": 21, "update": 30}),
}


@pytest.mark.parametrize("algorithm", ["sweep", "batched-sweep"])
def test_simulated_family_pays_per_class(algorithm, class_spy):
    workload = simulated_workload()
    views = view_family(workload.view, 8)
    result = run_multi_view(
        views, workload, algorithm=algorithm, seed=3, latency=2.0
    )

    assert list(class_spy["built"].values()) == [1]
    assert_saved_per_view_work(class_spy)
    states = final_states(result)
    for view in views:
        assert result.levels[view.name] >= CLAIMED[algorithm], view.name
        assert canonical_view_bytes(result.final_views[view.name]) == (
            canonical_view_bytes(view.evaluate(states))
        ), view.name
    installs, queries, compensations, messages = SIMULATED_COUNTS[algorithm]
    assert result.metrics.counters["installs"] == installs
    assert result.queries_sent == queries
    assert result.metrics.counters["compensations"] == compensations
    assert {
        kind: stats.count for kind, stats in result.metrics.by_kind.items()
    } == messages
    # Every view logged one install per unit of work, empty ones included.
    for view in views:
        assert len(result.recorders[view.name].snapshots) == installs


# ---------------------------------------------------------------------------
# Local runtime: 1 and 2 shards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_shards", [1, 2])
@pytest.mark.parametrize("algorithm", ["sweep", "batched-sweep"])
def test_sharded_family_pays_per_class(algorithm, n_shards, class_spy):
    config = ExperimentConfig(
        algorithm=algorithm,
        n_sources=3,
        n_updates=24,
        seed=5,
        mean_interarrival=0.5,
        n_views=8,
        check_consistency=True,
    )
    result = run_sharded(
        config, n_shards=n_shards, transport="local", time_scale=0.001,
        timeout=60.0, strategy="round-robin",
    )
    assert len(result.final_views) == 8
    active = len(result.plan.active_shards)
    assert active == n_shards
    # One static grouping per shard warehouse, never rebuilt.
    assert sorted(class_spy["built"].values()) == [1] * n_shards
    assert_saved_per_view_work(class_spy)
    assert result.verified_at(CLAIMED[algorithm])
    states = final_states(result)
    for name, contents in result.final_views.items():
        view = result.recorders[name].view
        assert canonical_view_bytes(contents) == (
            canonical_view_bytes(view.evaluate(states))
        ), name

    counters = result.metrics.counters
    assert result.deliveries_total == active * config.n_updates
    if algorithm == "sweep":
        # One unit of work, one install and (n-1) queries per update and
        # shard.
        assert result.installs == active * config.n_updates
        assert counters["queries_sent"] == active * 2 * config.n_updates
    else:
        assert result.installs == counters["batched_sweeps"]
    # Every view of a shard installs once per unit of work, empty or not.
    units: dict[int, set[int]] = {}
    for name in result.final_views:
        units.setdefault(result.plan.shard_of(name), set()).add(
            len(result.recorders[name].snapshots)
        )
    assert all(len(counts) == 1 for counts in units.values()), units
    assert sum(counts.pop() for counts in units.values()) == result.installs
