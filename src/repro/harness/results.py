"""Run results: metrics, consistency verdicts and report rendering."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.consistency.checker import CheckResult
from repro.consistency.levels import ConsistencyLevel
from repro.consistency.oracle import RunRecorder
from repro.harness.config import ExperimentConfig
from repro.relational.relation import Relation
from repro.simulation.metrics import MetricsCollector
from repro.simulation.trace import TraceLog
from repro.warehouse.base import WarehouseBase
from repro.warehouse.registry import AlgorithmInfo


@dataclass
class RunResult:
    """Everything an experiment run produced."""

    config: ExperimentConfig
    info: AlgorithmInfo
    final_view: Relation
    sim_time: float
    wall_seconds: float
    metrics: MetricsCollector
    recorder: RunRecorder
    warehouse: WarehouseBase
    trace: TraceLog | None = None
    consistency: dict[ConsistencyLevel, CheckResult] = field(default_factory=dict)
    classified_level: ConsistencyLevel | None = None

    @classmethod
    def judged(cls, site, sim_time, wall_seconds, metrics, trace=None, **fields):
        """The run of a single-warehouse ``site`` (a
        :class:`~repro.harness.sites.WarehouseSite`), judged
        (:meth:`judge`)."""
        result = cls(
            config=site.config,
            info=site.info,
            final_view=site.warehouse.current_view(),
            sim_time=sim_time,
            wall_seconds=wall_seconds,
            metrics=metrics,
            recorder=site.primary_recorder,
            warehouse=site.warehouse,
            trace=trace,
            **fields,
        )
        result.judge()
        return result

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def updates_delivered(self) -> int:
        return self.recorder.updates_delivered

    @property
    def installs(self) -> int:
        return len(self.recorder.snapshots)

    @property
    def queries_sent(self) -> int:
        return self.metrics.counters.get("queries_sent", 0)

    @property
    def messages_total(self) -> int:
        return self.metrics.messages_total

    @property
    def protocol_messages(self) -> int:
        """Messages excluding the unavoidable update notices themselves."""
        return self.messages_total - self.updates_delivered

    @property
    def messages_per_update(self) -> float:
        """Protocol messages (queries + answers) per delivered update."""
        if self.updates_delivered == 0:
            return 0.0
        return self.protocol_messages / self.updates_delivered

    @property
    def queries_per_update(self) -> float:
        if self.updates_delivered == 0:
            return 0.0
        return self.queries_sent / self.updates_delivered

    @property
    def query_rows_sent(self) -> int:
        """Total payload rows carried by query messages (size metric)."""
        return self.metrics.rows_of_kind("query")

    @property
    def mean_install_delay(self) -> float | None:
        """Mean virtual time from delivery to install (staleness proxy)."""
        return self.metrics.mean_observation("install_delay")

    @property
    def locality_stats(self) -> dict[str, int | str]:
        """Structured counters of the query-locality layer.

        ``mode`` is the configured planner mode; the counters are zero
        when the layer is off (they are plain metrics counters, so the
        same keys work for distributed and sharded runs).
        """
        counters = self.metrics.counters
        return {
            "mode": getattr(self.config, "locality", "off"),
            "covered_sources": counters.get("locality_covered_sources", 0),
            "aux_hits": counters.get("locality_aux_hits", 0),
            "cache_hits": counters.get("locality_cache_hits", 0),
            "cache_misses": counters.get("locality_cache_misses", 0),
            "cache_patches": counters.get("locality_cache_patches", 0),
            "cache_evictions": counters.get("locality_cache_evictions", 0),
            "cache_invalidations": counters.get(
                "locality_cache_invalidations", 0
            ),
            "dedup_saved": counters.get("locality_dedup_saved", 0),
        }

    @property
    def predicate_cache(self) -> dict[str, int]:
        """This run's predicate compile-cache traffic (hits/misses)."""
        counters = self.metrics.counters
        return {
            "hits": counters.get("predicate_cache_hits", 0),
            "misses": counters.get("predicate_cache_misses", 0),
        }

    @property
    def mean_per_update_staleness(self) -> float | None:
        """Mean delivery-to-install time attributed per *update*.

        Unlike :attr:`mean_install_delay` (one observation per install),
        this stays per-update under batching: a composite install covering
        ``k`` updates contributes ``k`` observations via the oracle's
        batch attribution.  ``None`` when no update was attributed or the
        claimed vectors do not support attribution.
        """
        try:
            staleness = self.recorder.per_update_staleness()
        except ValueError:
            return None
        if not staleness:
            return None
        return sum(staleness) / len(staleness)

    @property
    def uninstalled_updates(self) -> int:
        """Updates delivered but never reflected by an install."""
        return self.updates_delivered - self.metrics.counters.get(
            "updates_installed", 0
        )

    def mean_unreflected_updates(self) -> float:
        """Time-averaged count of delivered-but-unreflected updates.

        This is what a reader at the warehouse experiences: how many
        already-delivered updates are, on average over the run, *not yet*
        visible in the view it queries.  Computed post hoc by integrating
        a step function over the run: +1 at each delivery, -k at each
        install covering k updates (from the claimed state vectors).
        """
        deliveries = self.recorder.deliveries
        if not deliveries:
            return 0.0
        events: list[tuple[float, int]] = [
            (n.delivered_at, +1) for n in deliveries
        ]
        prev_total = 0
        for snap in self.recorder.snapshots:
            vector = snap.claimed_vector or {}
            total = sum(vector.values())
            if total > prev_total:
                events.append((snap.time, -(total - prev_total)))
                prev_total = total
        events.sort(key=lambda e: e[0])
        start = events[0][0]
        end = max(self.sim_time, events[-1][0])
        if end <= start:
            return 0.0
        area = 0.0
        level = 0
        prev_time = start
        for time, delta in events:
            area += level * (time - prev_time)
            level += delta
            prev_time = time
        area += level * (end - prev_time)
        return area / (end - start)

    # ------------------------------------------------------------------
    def judge(self) -> None:
        """Check the four consistency levels and classify the run, when
        the config asks for verdicts (``check_consistency``)."""
        config = self.config
        if not config.check_consistency:
            return
        for level in (
            ConsistencyLevel.CONVERGENCE,
            ConsistencyLevel.WEAK,
            ConsistencyLevel.STRONG,
            ConsistencyLevel.COMPLETE,
        ):
            self.consistency[level] = self.recorder.check(
                level, max_vectors=config.max_check_vectors
            )
        self.classified_level = self.recorder.classify(
            max_vectors=config.max_check_vectors
        )

    def consistency_verdict(self) -> str:
        """Short verdict string for reports."""
        if self.classified_level is not None:
            return self.classified_level.name.lower()
        passed = [
            lvl.name.lower() for lvl, res in sorted(self.consistency.items()) if res.ok
        ]
        return ",".join(passed) if passed else "unchecked"

    def __repr__(self) -> str:
        # Bounded: the generated dataclass repr renders the whole workload,
        # recorder and warehouse, and asyncio reprs a finished task's result.
        return (
            f"{type(self).__name__}({self.config.algorithm},"
            f" installs={self.installs})"
        )

    def report(self) -> str:
        """Multi-line human-readable summary of the run."""
        lines = [
            f"algorithm        : {self.info.name} ({self.info.architecture})",
            f"config           : {self.config.describe()}",
            f"updates delivered: {self.updates_delivered}",
            f"installs         : {self.installs}",
            f"queries sent     : {self.queries_sent}",
            f"messages total   : {self.messages_total}"
            f" (per update: {self.messages_per_update:.2f})",
            f"query payload    : {self.query_rows_sent} rows",
            f"sim time         : {self.sim_time:.2f}",
            f"wall time        : {self.wall_seconds * 1000:.1f} ms",
            f"final view       : {self.final_view.distinct_count} rows",
            f"consistency      : {self.consistency_verdict()}",
        ]
        locality = self.locality_stats
        if locality["mode"] != "off":
            lines.append(
                f"locality         : mode={locality['mode']}"
                f" aux_hits={locality['aux_hits']}"
                f" cache_hits={locality['cache_hits']}"
                f" cache_misses={locality['cache_misses']}"
                f" patches={locality['cache_patches']}"
                f" dedup_saved={locality['dedup_saved']}"
            )
        cache = self.predicate_cache
        if cache["hits"] or cache["misses"]:
            lines.append(
                f"predicate cache  : {cache['hits']} hits /"
                f" {cache['misses']} misses"
            )
        delay = self.mean_install_delay
        if delay is not None:
            lines.append(f"mean install lag : {delay:.2f}")
        staleness = self.mean_per_update_staleness
        if staleness is not None:
            lines.append(f"per-update stale : {staleness:.2f}")
        for level, result in sorted(self.consistency.items()):
            status = "PASS" if result.ok else "FAIL"
            suffix = f" ({result.detail})" if result.detail else ""
            lines.append(
                f"  {level.name.lower():<12}: {status} [{result.method}]{suffix}"
            )
        return "\n".join(lines)


__all__ = ["RunResult"]
