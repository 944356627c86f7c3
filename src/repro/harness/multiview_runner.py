"""Wiring for multi-view experiments.

The standard harness is single-view; this runner wires a
:class:`~repro.warehouse.multiview.MultiViewSweepWarehouse` over a shared
source chain, records per-view consistency independently, and returns one
verdict per view.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.consistency.levels import ConsistencyLevel
from repro.consistency.oracle import RunRecorder
from repro.harness.runner import build_latency_model
from repro.relational.relation import Relation
from repro.relational.view import ViewDefinition, evaluate_views
from repro.simulation.channel import Channel
from repro.simulation.kernel import Simulator
from repro.simulation.mailbox import Mailbox
from repro.simulation.metrics import MetricsCollector
from repro.simulation.rng import RngRegistry
from repro.sources.memory import MemoryBackend
from repro.sources.server import DataSourceServer
from repro.sources.sqlite import SqliteBackend
from repro.sources.updater import ScheduledUpdater
from repro.warehouse.multiview import MultiViewSweepWarehouse
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
    views: Sequence[ViewDefinition],
    workload: Workload,
    seed: int = 0,
    latency: float = 5.0,
    latency_model: str = "uniform",
    backend: str = "memory",
    max_check_vectors: int = 20_000,
    max_events: int = 2_000_000,
) -> MultiViewResult:
    """Maintain ``views`` (views[0] primary) over ``workload``'s sources.

    ``workload.view`` is ignored; its initial states and schedules drive
    the sources.  Every view gets an independent consistency verdict.
    """
    views = list(views)
    sim = Simulator()
    rngs = RngRegistry(seed)
    metrics = MetricsCollector()
    inbox = Mailbox(sim, "warehouse-inbox")

    recorders = {view.name: RunRecorder(view) for view in views}
    primary = views[0]

    def latency_for(name: str):
        return build_latency_model(
            latency_model, latency, rngs.stream(f"latency:{name}")
        )

    query_channels = {}
    backends = []
    for index in range(1, primary.n_relations + 1):
        name = primary.name_of(index)
        initial = workload.initial_states[name]
        if backend == "sqlite":
            store = SqliteBackend(primary, index, initial)
        else:
            store = MemoryBackend(primary, index, initial)
        backends.append(store)
        to_wh = Channel(sim, f"{name}->wh", inbox, latency_for(f"{name}-up"), metrics)
        server = DataSourceServer(sim, name, index, store, to_wh)
        for recorder in recorders.values():
            recorder.register_source(index, name, initial)
        server.add_update_listener(
            lambda notice: [
                r.history.on_source_update(notice) for r in recorders.values()
            ]
        )
        query_channels[index] = Channel(
            sim, f"wh->{name}", server.query_inbox,
            latency_for(f"{name}-down"), metrics,
        )
        ScheduledUpdater(
            sim, name, server.local_update, workload.schedules.get(index, [])
        )

    initial_views = evaluate_views(views, workload.initial_states)
    warehouse = MultiViewSweepWarehouse(
        sim,
        primary,
        query_channels,
        initial_view=initial_views[primary.name],
        recorder=recorders[primary.name],
        metrics=metrics,
        inbox=inbox,
        extra_views=views[1:],
        initial_views=initial_views,
        extra_recorders={v.name: recorders[v.name] for v in views[1:]},
    )

    sim.run(max_events=max_events)
    for backend_obj in backends:
        backend_obj.close()

    # extra recorders share the primary's delivery order
    primary_deliveries = recorders[primary.name].deliveries
    for view in views[1:]:
        recorders[view.name].deliveries = list(primary_deliveries)

    final_views = {
        view.name: warehouse.view_contents(view.name) for view in views
    }
    levels = {
        view.name: recorders[view.name].classify(max_vectors=max_check_vectors)
        for view in views
    }
    return MultiViewResult(
        final_views=final_views,
        levels=levels,
        recorders=recorders,
        metrics=metrics,
        updates_delivered=recorders[primary.name].updates_delivered,
    )


__all__ = ["MultiViewResult", "run_multi_view"]
