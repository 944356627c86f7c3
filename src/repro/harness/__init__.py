"""Experiment harness: configuration, wiring, results and reports.

One :class:`~repro.harness.config.ExperimentConfig` fully determines a run
(same config => bit-identical result).  :func:`~repro.harness.runner.run_experiment`
wires workload + sources + warehouse into a simulator, runs to quiescence
and returns a :class:`~repro.harness.results.RunResult` with message
metrics and consistency verdicts.  :mod:`repro.harness.experiments`
contains one module per paper artifact (Table 1, Figure 5, and the
analytical claims S1-S5 plus ablations A1-A2 of DESIGN.md).
"""

from repro.harness.config import ExperimentConfig
from repro.harness.results import RunResult
from repro.harness.runner import run_experiment
from repro.harness.report import format_table
from repro.simulation.latency import build_latency_model

__all__ = [
    "ExperimentConfig",
    "RunResult",
    "build_latency_model",
    "format_table",
    "run_experiment",
]
