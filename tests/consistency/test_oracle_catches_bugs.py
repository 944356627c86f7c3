"""Negative testing: the oracle must *catch* deliberately broken algorithms.

A verification layer is only trustworthy if it fails when it should.
These tests inject classic maintenance bugs into SWEEP and assert the
independent checkers flag them (or the strict view store refuses the
corrupted delta outright).
"""

import pytest

from repro.consistency.levels import ConsistencyLevel
from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_experiment
from repro.relational.errors import NegativeCountError
from repro.warehouse.registry import ALGORITHMS, AlgorithmInfo
from repro.warehouse.sweep import SweepWarehouse

HOSTILE = dict(
    seed=3, n_sources=4, n_updates=25, mean_interarrival=1.0,
    latency=8.0, latency_model="uniform", match_fraction=1.0,
    insert_fraction=0.5, rows_per_relation=10,
)


class NoCompensationSweep(SweepWarehouse):
    """Bug #1: skip local error correction entirely."""

    algorithm_name = "buggy-no-compensation"

    def _compensate_queued(self, index, answer, temp, floor=None):
        return answer


class DoubleCompensationSweep(SweepWarehouse):
    """Bug #2: subtract every error term twice."""

    algorithm_name = "buggy-double-compensation"

    def _compensate_queued(self, index, answer, temp, floor=None):
        once = super()._compensate_queued(index, answer, temp, floor)
        return super()._compensate_queued(index, once, temp, floor)


class SkipInstallSweep(SweepWarehouse):
    """Bug #3: silently drop every third view change."""

    algorithm_name = "buggy-skip-install"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._counter = 0

    def install_wide(self, wide_delta, note=""):
        self._counter += 1
        if self._counter % 3 == 0:
            # pretend to install: record a snapshot of the unchanged view
            self._after_install(note + " [dropped]")
            return
        super().install_wide(wide_delta, note)


@pytest.fixture
def register(monkeypatch):
    """Temporarily register a buggy algorithm class."""

    def _register(cls):
        info = AlgorithmInfo(
            name=cls.algorithm_name,
            cls=cls,
            architecture="distributed",
            claimed_consistency=ConsistencyLevel.COMPLETE,
            message_cost="O(n)",
            requires_keys=False,
            requires_quiescence=False,
            comments="deliberately broken (test only)",
            in_paper_table=False,
        )
        monkeypatch.setitem(ALGORITHMS, cls.algorithm_name, info)
        return info

    return _register


def run_buggy(cls, register, strict=True):
    register(cls)
    return run_experiment(
        ExperimentConfig(algorithm=cls.algorithm_name, **HOSTILE)
    )


class TestOracleCatchesBugs:
    def test_missing_compensation_detected(self, register):
        """Without compensation, error terms corrupt the view: either the
        strict store refuses an impossible delete, or the oracle refuses to
        certify complete consistency."""
        try:
            result = run_buggy(NoCompensationSweep, register)
        except NegativeCountError:
            return  # the strict view store caught the corruption first
        assert result.classified_level != ConsistencyLevel.COMPLETE

    def test_double_compensation_detected(self, register):
        try:
            result = run_buggy(DoubleCompensationSweep, register)
        except NegativeCountError:
            return
        assert result.classified_level != ConsistencyLevel.COMPLETE

    def test_dropped_installs_detected(self, register):
        try:
            result = run_buggy(SkipInstallSweep, register)
        except NegativeCountError:
            return
        # dropped view changes either break convergence or complete order
        assert result.classified_level != ConsistencyLevel.COMPLETE

    def test_correct_sweep_passes_same_gauntlet(self):
        """Control: real SWEEP on the identical workload is COMPLETE."""
        result = run_experiment(ExperimentConfig(algorithm="sweep", **HOSTILE))
        assert result.classified_level == ConsistencyLevel.COMPLETE
