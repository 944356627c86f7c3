"""The snapshot log keeps installed deltas, not copies of the view.

Three things are held here: the lazily rebuilt ``snap.view`` is the state
an eager copy would have held (for every algorithm family, in any access
order, with every verdict unchanged); recording is O(delta) in time and
memory; and a run that nobody checks rebuilds nothing.
"""

import gc
import random
import tracemalloc

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.consistency.oracle import RunRecorder
from repro.consistency.snapshots import SnapshotLog, ViewSnapshot
from repro.harness.config import ExperimentConfig
from repro.harness.multiview_runner import run_multi_view
from repro.harness.runner import run_experiment
from repro.relational.delta import delta_from_rows
from repro.relational.relation import Relation
from repro.runtime import run_distributed
from repro.warehouse.sharding import canonical_view_bytes, view_family
from repro.warehouse.view_store import MaterializedView
from repro.workloads.scenarios import make_workload
from repro.workloads.stream import UpdateStreamConfig

#: concurrent enough that compensation, composite installs and (for the
#: convergent baseline) clamped anomalies all occur
HOSTILE = dict(
    n_sources=3, n_updates=24, mean_interarrival=1.0, latency=8.0,
    match_fraction=1.0, insert_fraction=0.5, rows_per_relation=10,
    check_consistency=False,
)
LEVELS = (
    ConsistencyLevel.CONVERGENCE,
    ConsistencyLevel.WEAK,
    ConsistencyLevel.STRONG,
    ConsistencyLevel.COMPLETE,
)


@pytest.fixture
def spy(monkeypatch):
    """The eager path, test-only: copy the store at every ``on_install``.

    Returns ``{recorder: [(time, copy, claimed vector, note), ...]}``.
    """
    copies: dict[RunRecorder, list] = {}
    on_install = RunRecorder.on_install

    def copying(self, time, view_state, claimed_vector=None, note="", delta=None):
        vector = None if claimed_vector is None else dict(claimed_vector)
        copies.setdefault(self, []).append((time, view_state.copy(), vector, note))
        on_install(self, time, view_state, claimed_vector, note, delta)

    monkeypatch.setattr(RunRecorder, "on_install", copying)
    return copies


def run_family(family: str, seed: int) -> list[RunRecorder]:
    """The recorder(s) of one seeded simulator run."""
    if family == "multi-view-sweep":
        workload = make_workload(
            3,
            random.Random(seed),
            rows_per_relation=10,
            match_fraction=1.0,
            stream=UpdateStreamConfig(
                n_updates=16, mean_interarrival=1.0, insert_fraction=0.5
            ),
        )
        views = view_family(workload.view, 8)
        result = run_multi_view(views, workload, seed=seed, latency=8.0)
        return [result.recorders[view.name] for view in views]
    config = ExperimentConfig(algorithm=family, seed=seed, **HOSTILE)
    return [run_experiment(config).recorder]


def eager_twin(recorder: RunRecorder, copies: list) -> RunRecorder:
    """``recorder`` with its log rebuilt from full copies of the store."""
    twin = RunRecorder(recorder.view)
    twin.history = recorder.history
    twin.deliveries = recorder.deliveries
    twin.base_vector = recorder.base_vector
    twin.set_initial_view(recorder.snapshots.initial)
    for time, view, vector, note in copies:
        twin.on_install(time, view, vector, note)
    return twin


def attributions(recorder: RunRecorder) -> list:
    return [
        (
            a.install_index,
            a.snapshot.time,
            a.snapshot.claimed_vector,
            a.snapshot.note,
            [(n.source_index, n.seq) for n in a.members],
        )
        for a in recorder.attribute_installs()
    ]


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize(
    "family",
    [
        "sweep", "nested-sweep", "batched-sweep", "multi-view-sweep",
        "strobe", "c-strobe", "eca", "convergent",
    ],
)
def test_lazy_views_equal_eager_copies(spy, family, seed):
    recorders = run_family(family, seed)
    assert recorders and all(len(r.snapshots) for r in recorders)
    for recorder in recorders:
        copies = spy[recorder]
        snaps = list(recorder.snapshots)
        expected = [canonical_view_bytes(view) for _, view, _, _ in copies]
        assert len(snaps) == len(expected)
        assert all(snap.delta is not None for snap in snaps)
        # in order, then in a shuffled order (random access into the chain)
        assert [canonical_view_bytes(s.view) for s in snaps] == expected
        order = list(range(len(snaps)))
        random.Random(seed).shuffle(order)
        for position in order:
            assert canonical_view_bytes(snaps[position].view) == expected[position]
        assert [
            (s.time, s.claimed_vector, s.note) for s in snaps
        ] == [(time, vector, note) for time, _, vector, note in copies]

        twin = eager_twin(recorder, copies)
        for level in LEVELS:
            assert recorder.check(level) == twin.check(level), level
        assert recorder.check_batched() == twin.check_batched()
        assert recorder.classify() == twin.classify()
        assert attributions(recorder) == attributions(twin)
        assert recorder.snapshots.distinct_states() == (
            twin.snapshots.distinct_states()
        )
        assert canonical_view_bytes(recorder.snapshots.final_view) == expected[-1]


def test_convergent_run_above_really_clamps():
    """The tolerant rows of the equivalence test are not vacuous."""
    warehouses = []
    run_experiment(
        ExperimentConfig(algorithm="convergent", seed=3, **HOSTILE),
        warehouse_hook=warehouses.append,
    )
    assert warehouses[0].anomalies > 0


# ---------------------------------------------------------------------------
# The effective-delta rule (tolerant stores)
# ---------------------------------------------------------------------------

def test_tolerant_store_logs_the_effective_delta(paper_view, paper_states):
    """Over-deleting installs are clamped; the log must replay the clamp."""
    schema = paper_view.view_schema
    store = MaterializedView.from_states(paper_view, paper_states, strict=False)
    recorder = RunRecorder(paper_view)
    recorder.set_initial_view(store.relation)
    assert store.relation.as_dict() == {(7, 8): 2}
    installs = [
        # deletes one more (7,8) than exists and a row that never did
        delta_from_rows(schema, deletes=[(7, 8), (7, 8), (7, 8), (9, 9)]),
        delta_from_rows(schema, inserts=[(5, 6)], deletes=[(7, 8)]),
        delta_from_rows(schema, inserts=[(5, 6)], deletes=[(1, 1)]),
    ]
    anomalies = []
    for step, delta in enumerate(installs, start=1):
        asked = delta.as_dict()
        installed = store.apply(delta)
        recorder.on_install(float(step), store.relation, {1: step}, delta=installed)
        anomalies.append(store.anomalies)
        assert delta.as_dict() == asked  # the caller's delta is left alone
        assert recorder.snapshots.snapshots[-1].view == store.relation
    # one anomaly per row driven below zero, exactly as before
    assert anomalies == [2, 3, 4]
    assert [s.view.as_dict() for s in recorder.snapshots] == [
        {},
        {(5, 6): 1},
        {(5, 6): 2},
    ]
    assert [s.delta.as_dict() for s in recorder.snapshots] == [
        {(7, 8): -2},
        {(5, 6): 1},
        {(5, 6): 1},
    ]


def test_strict_store_hands_back_the_delta_it_was_given(paper_view, paper_states):
    store = MaterializedView.from_states(paper_view, paper_states)
    delta = delta_from_rows(paper_view.view_schema, deletes=[(7, 8)])
    assert store.apply(delta) is delta


# ---------------------------------------------------------------------------
# The log itself
# ---------------------------------------------------------------------------

def small_log(paper_view):
    """initial {(7,8):2}, then three delta installs (the last one empty)."""
    schema = paper_view.view_schema
    log = SnapshotLog()
    log.set_initial(Relation(schema, {(7, 8): 2}))
    log.record(1.0, None, {1: 1}, delta=delta_from_rows(schema, inserts=[(5, 6)]))
    log.record(2.0, None, {1: 2}, delta=delta_from_rows(schema, deletes=[(7, 8)]))
    log.record(3.0, None, {1: 3}, delta=delta_from_rows(schema))
    return log


STATES = [{(7, 8): 2, (5, 6): 1}, {(7, 8): 1, (5, 6): 1}, {(7, 8): 1, (5, 6): 1}]


def test_views_do_not_depend_on_list_position_or_on_each_other(paper_view):
    log = small_log(paper_view)
    snaps = log.snapshots
    snaps[0], snaps[2] = snaps[2], snaps[0]
    assert [s.view.as_dict() for s in snaps] == STATES[::-1]
    dropped = snaps.pop(1)
    assert [s.view.as_dict() for s in snaps] == [STATES[2], STATES[0]]
    assert dropped.view.as_dict() == STATES[1]


def test_a_retained_view_is_nobodys_alias(paper_view, paper_states):
    """Mutating the store, or a view a caller kept, changes no entry."""
    schema = paper_view.view_schema
    store = MaterializedView.from_states(paper_view, paper_states)
    recorder = RunRecorder(paper_view)
    recorder.set_initial_view(store.relation)
    for step, row in enumerate([(5, 6), (1, 2), (3, 4)], start=1):
        delta = store.apply(delta_from_rows(schema, inserts=[row]))
        recorder.on_install(float(step), store.relation, {1: step}, delta=delta)
    snaps = recorder.snapshots.snapshots
    before = [s.view.as_dict() for s in snaps]
    kept = snaps[1].view
    kept.insert((99, 99))
    store.relation.insert((42, 42))
    assert [s.view.as_dict() for s in snaps] == before
    assert recorder.snapshots.final_view.as_dict() == before[-1]
    assert kept.count((99, 99)) == 1 and snaps[1].view is not kept


def test_pinning_a_view_does_not_move_the_entries_chained_to_it(paper_view):
    log = small_log(paper_view)
    log.snapshots[0].view = Relation(paper_view.view_schema)
    assert log.snapshots[0].view.as_dict() == {}
    assert [s.view.as_dict() for s in log.snapshots[1:]] == STATES[1:]


def test_a_handed_view_is_a_full_state_later_deltas_build_on(paper_view):
    schema = paper_view.view_schema
    log = small_log(paper_view)
    log.record(4.0, Relation(schema, {(1, 1): 1}))
    log.record(5.0, None, delta=delta_from_rows(schema, inserts=[(2, 2)]))
    assert log.snapshots[3].delta is None
    assert log.final_view.as_dict() == {(1, 1): 1, (2, 2): 1}
    assert log.view_as_of(4.5).as_dict() == {(1, 1): 1}
    assert log.view_as_of(0.5).as_dict() == {(7, 8): 2}


def test_a_delta_needs_a_full_state_to_stand_on(paper_view):
    with pytest.raises(ValueError, match="before any full view state"):
        SnapshotLog().record(
            1.0, None, delta=delta_from_rows(paper_view.view_schema)
        )


def test_bookkeeping_reads_rebuild_nothing(paper_view, monkeypatch):
    log = small_log(paper_view)
    monkeypatch.setattr(Relation, "copy", None)  # any rebuild would raise
    assert len(log) == 3
    assert log.distinct_states() == 2  # the empty delta changed nothing
    assert "delta of 1 rows" in repr(log.snapshots[0])
    assert [s.claimed_vector for s in log] == [{1: 1}, {1: 2}, {1: 3}]


def test_the_claimed_vector_is_copied_at_record_time(paper_view):
    live = {1: 0}
    log = small_log(paper_view)
    log.record(9.0, None, live, delta=delta_from_rows(paper_view.view_schema))
    live[1] = 7
    assert log.snapshots[-1].claimed_vector == {1: 0}


# ---------------------------------------------------------------------------
# Cost: O(delta) per install, nothing rebuilt unless somebody looks
# ---------------------------------------------------------------------------

class ViewReads:
    """Counts reads of ``ViewSnapshot.view`` that had to rebuild a state."""

    def __init__(self, monkeypatch):
        self.rebuilt = 0
        getter = ViewSnapshot.view.fget

        def counting(snap):
            if snap._state is None:
                self.rebuilt += 1
            return getter(snap)

        monkeypatch.setattr(
            ViewSnapshot, "view", property(counting, ViewSnapshot.view.fset)
        )


def test_recording_a_run_copies_no_view(monkeypatch):
    """200 installs of a local-transport SWEEP run: between the first
    install and the last, nothing view-sized is copied at all."""
    copies_at_install = []
    copies = [0]
    copy, on_install = Relation.copy, RunRecorder.on_install

    def counting_copy(self):
        copies[0] += 1
        return copy(self)

    def watching(self, *args, **kwargs):
        on_install(self, *args, **kwargs)
        copies_at_install.append(copies[0])

    monkeypatch.setattr(Relation, "copy", counting_copy)
    monkeypatch.setattr(RunRecorder, "on_install", watching)
    result = run_distributed(
        ExperimentConfig(
            algorithm="sweep", seed=5, n_sources=3, n_updates=200,
            mean_interarrival=2.0, check_consistency=False,
        ),
        transport="local", time_scale=0.0005, timeout=60.0,
    )
    assert len(copies_at_install) == len(result.recorder.snapshots) == 200
    assert copies_at_install[-1] - copies_at_install[0] == 0


def test_an_unchecked_repetition_rebuilds_no_view(monkeypatch):
    """What ``bench/measure.py`` does after an untraced run -- attribute
    the installs, compare the final view, count deliveries -- plus the
    result's own report, without one snapshot being materialised."""
    reads = ViewReads(monkeypatch)
    config = ExperimentConfig(
        algorithm="sweep", seed=9, n_sources=3, n_updates=40,
        mean_interarrival=2.0, check_consistency=False,
    )
    result = run_distributed(
        config, transport="local", time_scale=0.0005, timeout=60.0
    )
    recorder = result.recorder
    attributed = recorder.attribute_installs()
    assert sum(a.batch_size for a in attributed) == recorder.updates_delivered == 40
    history = recorder.history
    expected = history.states_at_vector(history.final_vector())
    assert result.final_view == recorder.view.evaluate(expected)
    assert result.mean_unreflected_updates() >= 0.0
    assert recorder.per_update_staleness() and repr(result) and result.report()
    assert len(recorder.snapshots) == 40 and repr(recorder.snapshots.snapshots[0])
    assert reads.rebuilt == 0
    assert recorder.check(ConsistencyLevel.COMPLETE).ok
    assert reads.rebuilt == 40


def test_a_thousand_installs_cost_deltas_not_views():
    """500 rows per relation, 1,000 installs: the log retains well under
    1 MB (one copy of the view per install was ~9 MB), and a full
    ``check(COMPLETE)`` over it peaks below 2 MB on top."""
    tracemalloc.start()
    try:
        recorder = run_experiment(
            ExperimentConfig(
                algorithm="sweep", seed=7, n_sources=3, n_updates=1000,
                rows_per_relation=500, mean_interarrival=20.0, latency=1.0,
                check_consistency=False,
            )
        ).recorder
        assert len(recorder.snapshots) == 1000
        assert recorder.snapshots.initial.distinct_count > 150
        # The oracle's per-update source states are its own, not the log's.
        history = recorder.history
        for index in history.source_indices:
            history.state_at(index, history.n_updates(index))
        gc.collect()
        with_log = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert recorder.check(ConsistencyLevel.COMPLETE).ok
        peak = tracemalloc.get_traced_memory()[1]
        recorder.snapshots = SnapshotLog()
        gc.collect()
        without_log = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert with_log - without_log < 1_000_000
    assert peak - with_log < 2_000_000
