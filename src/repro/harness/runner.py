"""Running one experiment on the discrete-event simulator.

The simulator is one more host for the sites of
:mod:`repro.harness.sites`: :class:`~repro.simulation.links.SimLinks`
makes each channel a simulated channel with sampled latency, and
:func:`run_experiment` builds the fleet with the same
:func:`~repro.harness.sites.build_sites` that
:func:`repro.runtime.run_distributed` uses over real transports -- only
the kernel and the links differ.
"""

from __future__ import annotations

import time as _time

from repro.harness.config import ExperimentConfig
from repro.harness.results import RunResult
from repro.harness.sites import WAREHOUSE, build_sites
from repro.relational.predicate import compile_cache_stats
from repro.simulation.kernel import Simulator
from repro.simulation.links import SimLinks
from repro.simulation.metrics import MetricsCollector
from repro.simulation.rng import RngRegistry
from repro.simulation.trace import TraceLog
from repro.workloads.scenarios import Workload, make_workload
from repro.workloads.stream import UpdateStreamConfig


def built(coroutine):
    """The value of a coroutine that never suspends -- a fleet built over
    :class:`SimLinks`, whose ``start`` has nothing to wait for."""
    try:
        coroutine.send(None)
    except StopIteration as done:
        return done.value
    coroutine.close()
    raise RuntimeError("building a simulated fleet suspended")


def build_workload(config: ExperimentConfig, rngs: RngRegistry) -> Workload:
    """The workload a config describes, drawn from the registry's streams.

    Shared by the simulator harness and the distributed runtime so that an
    identical config replays an identical update history on both hosts
    (the basis of the simulator-vs-runtime equivalence tests).
    """
    if config.workload is not None:
        return config.workload
    stream = UpdateStreamConfig(
        n_updates=config.n_updates,
        mean_interarrival=config.mean_interarrival,
        distribution=config.interarrival_distribution,
        insert_fraction=config.insert_fraction,
        match_fraction=config.match_fraction,
        txn_fraction=config.txn_fraction,
        txn_max_rows=config.txn_max_rows,
        global_txn_fraction=config.global_txn_fraction,
    )
    return make_workload(
        config.n_sources,
        rngs.stream("workload"),
        rows_per_relation=config.rows_per_relation,
        stream=stream,
        project_keys=config.project_keys,
        match_fraction=config.match_fraction,
    )


def record_predicate_cache_delta(
    metrics: MetricsCollector, before: dict[str, int]
) -> None:
    """Fold this run's share of the process-global compile-cache traffic
    into its metrics (``before`` from :func:`compile_cache_stats`)."""
    after = compile_cache_stats()
    metrics.increment("predicate_cache_hits", after["hits"] - before["hits"])
    metrics.increment(
        "predicate_cache_misses", after["misses"] - before["misses"]
    )


def run_experiment(config: ExperimentConfig, warehouse_hook=None) -> RunResult:
    """Run one experiment to quiescence and return its results.

    ``warehouse_hook(warehouse)``, when given, is invoked after the
    warehouse is constructed and before the simulation starts -- e.g. to
    attach aggregate views that must observe every install.
    """
    predicate_stats_before = compile_cache_stats()
    rngs = RngRegistry(config.seed)
    workload = build_workload(config, rngs)

    sim = Simulator()
    metrics = MetricsCollector()
    trace = TraceLog() if config.trace else None
    sites = built(
        build_sites(
            sim,
            SimLinks(sim, config, rngs, metrics),
            config,
            workload,
            metrics,
            trace,
        )
    )
    site = sites.warehouses[WAREHOUSE]
    if warehouse_hook is not None:
        warehouse_hook(site.warehouse)

    started = _time.perf_counter()
    sim.run(max_events=config.max_events)
    wall = _time.perf_counter() - started
    record_predicate_cache_delta(metrics, predicate_stats_before)

    result = RunResult.judged(site, sim.now, wall, metrics, trace)
    sites.close()
    return result


__all__ = [
    "build_workload",
    "built",
    "record_predicate_cache_delta",
    "run_experiment",
]
