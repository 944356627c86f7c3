"""Wiring for multi-view experiments.

The standard harness is single-view; this runner builds the one-warehouse
fleet of :func:`~repro.harness.sites.build_sites` hosting a view family
over a shared source chain on the simulator, records per-view consistency
independently, and returns one verdict per view.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

from repro.consistency.levels import ConsistencyLevel
from repro.consistency.oracle import RunRecorder
from repro.harness.config import ExperimentConfig
from repro.harness.runner import built
from repro.harness.sites import WAREHOUSE, build_sites, one_warehouse
from repro.relational.relation import Relation
from repro.relational.view import ViewDefinition
from repro.simulation.kernel import Simulator
from repro.simulation.links import SimLinks
from repro.simulation.metrics import MetricsCollector
from repro.simulation.rng import RngRegistry
from repro.workloads.scenarios import Workload


@dataclass
class MultiViewResult:
    """Per-view outcomes plus shared run metrics."""

    final_views: dict[str, Relation]
    levels: dict[str, ConsistencyLevel]
    recorders: dict[str, RunRecorder]
    metrics: MetricsCollector
    updates_delivered: int

    @property
    def queries_sent(self) -> int:
        return self.metrics.counters.get("queries_sent", 0)


def run_multi_view(
    views: Sequence[ViewDefinition], workload: Workload, **fields
) -> MultiViewResult:
    """Maintain ``views`` (views[0] primary) over ``workload``'s sources.

    ``workload.view`` is ignored; its initial states and schedules drive
    the sources.  ``fields`` are :class:`ExperimentConfig`'s (``seed``,
    ``latency``, ``backend``, ``algorithm`` -- ``sweep`` by default, or
    ``batched-sweep`` -- and its options, ...).  One warehouse hosts the
    family, and every view gets an independent consistency verdict.
    """
    views = list(views)
    workload = replace(workload, view=views[0])
    config = ExperimentConfig(**fields)
    sim = Simulator()
    metrics = MetricsCollector()
    sites = built(
        build_sites(
            sim,
            SimLinks(sim, config, RngRegistry(config.seed), metrics),
            config,
            workload,
            metrics,
            plan=one_warehouse(config, workload, family=views),
        )
    )
    sim.run(max_events=config.max_events)
    sites.close()

    site = sites.warehouses[WAREHOUSE]
    recorders = site.final_recorders()
    return MultiViewResult(
        final_views={
            view.name: site.warehouse.view_contents(view.name) for view in views
        },
        levels={
            view.name: recorders[view.name].classify(
                max_vectors=config.max_check_vectors
            )
            for view in views
        },
        recorders=recorders,
        metrics=metrics,
        updates_delivered=site.primary_recorder.updates_delivered,
    )


__all__ = ["MultiViewResult", "run_multi_view"]
