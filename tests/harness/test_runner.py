"""Harness tests: configuration, determinism, reporting, top-level API."""

import random

import pytest

from repro.api import quick_run
from repro.consistency.levels import ConsistencyLevel
from repro.harness.config import ExperimentConfig
from repro.harness.report import format_dict_table, format_table
from repro.harness.runner import build_latency_model, run_experiment


class TestConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.algorithm == "sweep"
        assert "sweep" in config.describe()

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_sources=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n_updates=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(backend="oracle")
        with pytest.raises(ValueError):
            ExperimentConfig(latency_model="warp")
        with pytest.raises(ValueError):
            ExperimentConfig(latency=-1)


class TestDeterminism:
    def test_identical_configs_identical_runs(self):
        config = dict(algorithm="sweep", n_sources=3, n_updates=15, seed=9,
                      mean_interarrival=1.0)
        a = run_experiment(ExperimentConfig(**config))
        b = run_experiment(ExperimentConfig(**config))
        assert a.final_view == b.final_view
        assert a.messages_total == b.messages_total
        assert a.sim_time == b.sim_time
        assert [s.view.as_dict() for s in a.recorder.snapshots] == [
            s.view.as_dict() for s in b.recorder.snapshots
        ]

    def test_seed_changes_run(self):
        a = run_experiment(ExperimentConfig(seed=1, n_updates=15))
        b = run_experiment(ExperimentConfig(seed=2, n_updates=15))
        assert a.sim_time != b.sim_time


class TestRunResult:
    def test_report_renders(self):
        result = run_experiment(ExperimentConfig(n_updates=8, seed=1))
        text = result.report()
        assert "algorithm" in text and "consistency" in text
        assert "complete" in text
        # asyncio reprs a finished task's result: one bounded line, not
        # the whole workload / recorder / warehouse.
        assert repr(result) == "RunResult(sweep, installs=8)"

    def test_zero_update_run(self):
        result = run_experiment(ExperimentConfig(n_updates=0))
        assert result.updates_delivered == 0
        assert result.messages_per_update == 0.0
        assert result.classified_level == ConsistencyLevel.COMPLETE

    def test_trace_capture(self):
        result = run_experiment(
            ExperimentConfig(n_updates=5, trace=True, seed=1)
        )
        assert result.trace is not None
        assert len(result.trace.filter(kind="install")) == result.installs

    def test_consistency_can_be_skipped(self):
        result = run_experiment(
            ExperimentConfig(n_updates=5, check_consistency=False)
        )
        assert result.consistency == {}
        assert result.classified_level is None
        assert result.consistency_verdict() == "unchecked"

    def test_mean_unreflected_updates(self):
        # sparse updates: every update installs before the next arrives,
        # so on average well under one update is pending
        sparse = run_experiment(ExperimentConfig(
            algorithm="sweep", n_updates=10, seed=1,
            mean_interarrival=500.0, latency=2.0, latency_model="constant",
        ))
        assert sparse.mean_unreflected_updates() < 0.5
        # dense updates: the backlog is visible to readers
        dense = run_experiment(ExperimentConfig(
            algorithm="sweep", n_updates=20, seed=1,
            mean_interarrival=0.5, latency=8.0, latency_model="constant",
        ))
        assert dense.mean_unreflected_updates() > 2.0

    def test_mean_unreflected_zero_updates(self):
        result = run_experiment(ExperimentConfig(n_updates=0))
        assert result.mean_unreflected_updates() == 0.0

    def test_uninstalled_updates_metric(self):
        busy = run_experiment(ExperimentConfig(
            algorithm="nested-sweep", n_updates=15, seed=1,
            mean_interarrival=0.5, latency=8.0, latency_model="constant",
        ))
        assert busy.uninstalled_updates == 0  # all absorbed eventually


class TestGuards:
    def test_max_events_guard_raises(self):
        from repro.simulation.errors import StalledSimulationError

        with pytest.raises(StalledSimulationError):
            run_experiment(ExperimentConfig(
                n_updates=30, mean_interarrival=0.5, max_events=50,
            ))


class TestServiceTime:
    def test_service_time_widens_interference_window(self):
        """A slow ComputeJoin at the sources lengthens the window in which
        updates interfere, so SWEEP compensates more often -- and stays
        completely consistent doing it."""
        from repro.consistency.levels import ConsistencyLevel

        common = dict(algorithm="sweep", seed=6, n_sources=4, n_updates=25,
                      mean_interarrival=1.0, latency=2.0,
                      latency_model="constant", match_fraction=1.0,
                      insert_fraction=0.5, rows_per_relation=8)
        fast = run_experiment(ExperimentConfig(**common))
        slow = run_experiment(
            ExperimentConfig(query_service_time=6.0, **common)
        )
        comp_fast = fast.metrics.counters.get("compensations", 0)
        comp_slow = slow.metrics.counters.get("compensations", 0)
        assert comp_slow > comp_fast
        assert slow.classified_level == ConsistencyLevel.COMPLETE


class TestQuickRun:
    def test_quick_run_round_trip(self):
        result = quick_run(algorithm="sweep", n_sources=3, n_updates=6, seed=3)
        assert result.info.name == "sweep"
        assert result.consistency[ConsistencyLevel.COMPLETE].ok

    def test_quick_run_overrides(self):
        result = quick_run(n_updates=4, mean_interarrival=2.0, backend="sqlite")
        assert result.config.backend == "sqlite"


class TestLatencyFactory:
    def test_all_models(self):
        rng = random.Random(1)
        assert build_latency_model("constant", 2.0, rng).sample() == 2.0
        assert 1.0 <= build_latency_model("uniform", 2.0, rng).sample() <= 3.0
        assert build_latency_model("exponential", 2.0, rng).sample() >= 0
        with pytest.raises(ValueError):
            build_latency_model("warp", 2.0, rng)


class TestReportFormatting:
    def test_format_table(self):
        text = format_table(
            ["name", "value"], [["sweep", 4.0], ["eca", None]], title="T"
        )
        assert "sweep" in text and "4.00" in text and "-" in text
        assert text.splitlines()[0] == "T"

    def test_row_width_validated(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "y"]])

    def test_format_dict_table(self):
        text = format_dict_table(
            [{"a": 1, "b": 2}, {"a": 3}], columns=["a", "b"]
        )
        assert "1" in text and "3" in text
