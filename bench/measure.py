"""One repetition: offer the load, time it, then check and dissect the run.

Everything that is timed happens inside :func:`run_repetition`'s call into
the program (``run_distributed`` / ``run_sharded``); staleness, lag,
correctness checks and recovery are worked out afterwards from what the
run recorded, outside the timed window.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

from repro.consistency.levels import ConsistencyLevel
from repro.durability.recovery import load_state
from repro.harness.config import ExperimentConfig
from repro.runtime import run_distributed, run_sharded
from repro.runtime.tcp import TcpChannelConfig
from repro.warehouse.sharding import canonical_view_bytes

from bench.inputs import Inputs, build_inputs


#: Full (generation-2) collections are put off until the ``gc.collect()``
#: between repetitions.  The recorder keeps a copy of the view per install,
#: so the heap grows all through a repetition and each full collection
#: stalls the loop for ~25 ms -- on the burst workloads that lands on about
#: one burst in twenty, right at the 95th percentile, which then flips
#: between two values from run to run.  Young collections still run.
FULL_COLLECTION_NEVER = 1_000_000


@dataclass
class Repetition:
    """What one repetition measured and what its checks found."""

    offered: int
    gen_s: float = 0.0
    cpu_s: float = 0.0
    wall_s: float = 0.0
    run_wall_s: float = 0.0
    #: per offered update and view, ordered by due time
    staleness_ms: list[float] = field(default_factory=list)
    lag_ms: list[float] = field(default_factory=list)
    batch_sizes: list[int] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    deliveries: int = 0
    recovery_s: float = 0.0
    durable_bytes: int = 0
    check_s: float = 0.0
    #: offered updates no install accounts for exactly once
    unattributed: int = 0
    #: a correctness check failed (wrong output, not merely too slow)
    incorrect: bool = False
    problems: list[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        """Input generation plus the run call's wiring and teardown."""
        return self.gen_s + max(0.0, self.wall_s - self.run_wall_s)

    @property
    def cpu_ms_per_update(self) -> float:
        return 1000.0 * self.cpu_s / self.offered

    @property
    def staleness_growth(self) -> float:
        """Median staleness of the second half of the updates over that of
        the first half (about 1 when the warehouse keeps up)."""
        half = len(self.staleness_ms) // 2
        return statistics.median(self.staleness_ms[half:]) / statistics.median(
            self.staleness_ms[:half]
        )

    @property
    def failed(self) -> int:
        return self.offered if self.incorrect else self.unattributed

    def wrong(self, problem: str) -> None:
        self.incorrect = True
        self.problems.append(problem)


def percentile(ordered: list[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


# ---------------------------------------------------------------------------
# Calling the program
# ---------------------------------------------------------------------------

def _call_program(spec: dict, load: dict, inputs: Inputs, seed: int, durable_dir):
    config = ExperimentConfig(
        algorithm=spec["algorithm"],
        seed=seed,
        n_sources=spec["n_sources"],
        workload=inputs.workload,
        latency=0.0,
        query_service_time=0.0,
        locality=spec["locality"],
        n_views=spec.get("n_views", 1),
        check_consistency=False,
    )
    common = dict(
        transport=spec["transport"],
        time_scale=load["time_scale"],
        timeout=load["run_timeout_s"],
    )
    if spec["transport"] == "tcp":
        common["tcp_config"] = TcpChannelConfig(
            codec_version=spec["codec_version"]
        )
    if spec["runner"] == "sharded":
        return run_sharded(
            config,
            n_shards=spec["n_shards"],
            strategy=spec["strategy"],
            durable_dir=durable_dir,
            fsync_batch=spec.get("fsync_batch", 8),
            **common,
        )
    return run_distributed(config, **common)


def _views(spec: dict, inputs: Inputs, result):
    """(view definition, its recorder, its final contents) per view."""
    if spec["runner"] == "sharded":
        return [
            (view, result.recorders[view.name], result.final_views[view.name])
            for view in result.plan.views
        ]
    return [(inputs.workload.view, result.recorder, result.final_view)]


# ---------------------------------------------------------------------------
# After the run
# ---------------------------------------------------------------------------

def staleness_from_due(
    attributions, due: dict[tuple[int, int], float], time_scale: float
) -> tuple[list[tuple[float, float]], int]:
    """Per update: ``(due time, ms from due time to the install that first
    reflects it)``, plus how many offered updates are *not* attributed to
    exactly one install.  ``attributions`` is what the recorder's
    ``attribute_installs()`` returned."""
    seen: dict[tuple[int, int], int] = {}
    pairs: list[tuple[float, float]] = []
    for attribution in attributions:
        for notice in attribution.members:
            key = (notice.source_index, notice.seq)
            seen[key] = seen.get(key, 0) + 1
            if key in due:
                pairs.append(
                    (
                        due[key],
                        (attribution.snapshot.time - due[key]) * time_scale * 1e3,
                    )
                )
    wrong = sum(1 for key in due if seen.get(key, 0) != 1)
    wrong += sum(1 for key in seen if key not in due)
    return pairs, wrong


def _check_outputs(rep: Repetition, inputs: Inputs, views) -> None:
    expected_states = inputs.states_at(inputs.final_vector())
    for view, _, final in views:
        if final != view.evaluate(expected_states):
            rep.wrong(f"view {view.name}: final contents != view over final sources")


def _check_claimed_level(rep: Repetition, spec: dict, views) -> None:
    level = ConsistencyLevel[spec["claimed_level"].upper()]
    started = time.perf_counter()
    for view, recorder, _ in views:
        verdict = recorder.check(level)
        if not verdict.ok:
            rep.wrong(f"view {view.name}: not {level.name}: {verdict.detail}")
    rep.check_s = time.perf_counter() - started


def _check_recovery(rep: Repetition, inputs: Inputs, result, durable_dir) -> None:
    """Read every shard's durable state back and hold it to the inputs.

    ``load_state`` returns the newest checkpoint plus the log written
    after it.  The checkpointed views must be byte-equal to the views
    over the sources at the checkpoint's own vector, and the log must
    hold exactly the updates beyond that vector -- so when nothing was
    logged after the checkpoint this is byte-equality with the final
    views.
    """
    final = inputs.final_vector()
    for shard in result.plan.active_shards:
        views = result.plan.views_for(shard)
        directory = os.path.join(durable_dir, f"shard{shard}")
        started = time.perf_counter()
        state = load_state(directory, views)
        rep.recovery_s += time.perf_counter() - started
        if state is None:
            rep.wrong(f"shard {shard}: no durable state in {directory}")
            continue
        applied = {i: state.applied_counts.get(i, 0) for i in final}
        at_checkpoint = inputs.states_at(applied)
        for view in views:
            if canonical_view_bytes(state.view_states[view.name]) != (
                canonical_view_bytes(view.evaluate(at_checkpoint))
            ):
                rep.wrong(f"shard {shard}: recovered {view.name} differs")
        logged = sorted((n.source_index, n.seq) for n in state.pending)
        beyond = sorted(
            (i, seq) for i in final for seq in range(applied[i] + 1, final[i] + 1)
        )
        if logged != beyond:
            rep.wrong(f"shard {shard}: log does not cover the checkpoint's tail")
    rep.durable_bytes = sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(durable_dir)
        for name in names
    )


def unsustainable(reps: list[Repetition], rule: dict) -> list[str]:
    """Open-loop hygiene, judged over a whole run: was the load offered on
    schedule, and did the warehouse keep up?

    Returns the reasons the run is unsustainable (empty: it is not).  Both
    tests are built so that a stall of the box inside one repetition (a
    400 ms fsync, a 100 ms steal) cannot trip them, while a backlog that
    grows whenever load is offered must: the generator's lag p90 over all
    repetitions, and the median over the repetitions of each one's
    staleness growth (median of its second half of updates over median of
    its first half).
    """
    reasons = []
    lag = sorted(ms for rep in reps for ms in rep.lag_ms)
    if lag and percentile(lag, 0.90) > rule["generator_lag_p90_ms"]:
        reasons.append(
            f"unsustainable: generator lag p90 {percentile(lag, 0.90):.1f} ms"
        )
    growth = [rep.staleness_growth for rep in reps if rep.staleness_ms]
    if growth and statistics.median(growth) > rule["median_repetition_staleness_growth"]:
        reasons.append(
            "unsustainable: staleness grows within a repetition, x"
            f"{statistics.median(growth):.2f} from first to second half"
        )
    return reasons


def run_repetition(
    name: str,
    spec: dict,
    load: dict,
    seed: int,
    seconds: float,
    workdir: str,
    tracer=None,
) -> Repetition:
    """Generate the inputs, run the program once on them, check the result.

    With ``tracer`` the layer entry points are wrapped for the duration
    of the run call only, and the claimed consistency level is checked.
    """
    gc.collect()
    started = time.perf_counter()
    inputs = build_inputs(name, spec, load, seed, seconds)
    rep = Repetition(offered=inputs.offered)
    rep.gen_s = time.perf_counter() - started

    durable_dir = None
    if spec.get("durable"):
        # A used directory would make the run recover instead of start.
        durable_dir = tempfile.mkdtemp(prefix="durable-", dir=workdir)
    try:
        if tracer is not None:
            tracer.install()
        thresholds = gc.get_threshold()
        gc.set_threshold(thresholds[0], thresholds[1], FULL_COLLECTION_NEVER)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            result = _call_program(spec, load, inputs, seed, durable_dir)
        except Exception as exc:  # the repetition fails, the benchmark goes on
            rep.wrong(f"run raised {type(exc).__name__}: {exc}")
            return rep
        finally:
            rep.cpu_s = time.process_time() - cpu0
            rep.wall_s = time.perf_counter() - wall0
            gc.set_threshold(*thresholds)
            if tracer is not None:
                tracer.uninstall()
        rep.run_wall_s = result.wall_seconds
        rep.counters = dict(result.metrics.counters)

        views = _views(spec, inputs, result)
        rep.deliveries = getattr(result, "deliveries_total", None) or (
            views[0][1].updates_delivered
        )
        pairs: list[tuple[float, float]] = []
        for view, recorder, _ in views:
            try:
                attributions = recorder.attribute_installs()
            except ValueError as exc:  # malformed claimed vectors
                rep.wrong(f"view {view.name}: {exc}")
                continue
            found, wrong = staleness_from_due(
                attributions, inputs.due, load["time_scale"]
            )
            pairs.extend(found)
            rep.unattributed = max(rep.unattributed, wrong)
            rep.batch_sizes.extend(a.batch_size for a in attributions)
        if rep.unattributed:
            rep.problems.append(
                f"{rep.unattributed} update(s) not attributed to exactly one install"
            )
        pairs.sort()
        rep.staleness_ms = [ms for _, ms in pairs]
        history = views[0][1].history
        rep.lag_ms = [
            (notice.applied_at - inputs.due[(index, notice.seq)])
            * load["time_scale"] * 1e3
            for index in history.source_indices
            for notice in history.updates_of(index)
        ]

        _check_outputs(rep, inputs, views)
        if tracer is not None:
            _check_claimed_level(rep, spec, views)
        if durable_dir is not None:
            _check_recovery(rep, inputs, result, durable_dir)
        return rep
    finally:
        if durable_dir is not None:
            shutil.rmtree(durable_dir, ignore_errors=True)


__all__ = [
    "Repetition",
    "percentile",
    "run_repetition",
    "staleness_from_due",
    "unsustainable",
]
