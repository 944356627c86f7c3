"""One fault-scenario harness: a perturbed run against its unperturbed twin.

The paper's claims are consistency levels *given reliable FIFO channels*
(complete for SWEEP, strong for the batched scheduler), so every
fault-tolerance layer of the runtime is proven the same way.  One *case*
is (algorithm, seed, perturbations): the seeded workload runs once
unperturbed over local queues -- the **twin** -- and once with the
perturbations applied, and the case passes only if

* every view of the perturbed run reaches at least the scheduler's
  claimed level under the independent oracle (whose bag-semantics
  convergence check doubles as the no-lost / no-double-installed-update
  check: a missing or duplicated delta leaves the view observably wrong),
* every final view is **byte-equal**
  (:func:`~repro.warehouse.sharding.canonical_view_bytes`) to the twin's,
* and each perturbation's own checks hold.

An exception anywhere in a case is a verdict -- a failed row carrying the
error -- never an aborted sweep.

A :class:`Perturbation` describes one fault by what it adds to that
shape: a deterministic per-seed spec, the ``FleetSpec`` field overrides
(``run_distributed`` keyword arguments) that inject it, its row facts and
checks, its report columns and, where the runtime has a mutation hook,
a *mutant* the oracle must catch.  A mutant row passes only if the
mutation was *non-vacuous* (it actually dropped or duplicated something)
**and** caught -- a harness that cannot see the bug it guards against
proves nothing.

Perturbations compose: a list of two is a composed scenario (chaos under
failover, failover of the shard that just received a migrated view, ...)
judged by the same invariants.  :func:`run_sweep` is the seed sweep
behind ``repro recovery-sweep`` / ``failover-sweep`` / ``rebalance-sweep``,
:func:`run_matrix` the cross product behind ``repro conformance``, and
:func:`sigkill_smoke` the multiprocess variant: a real ``SIGKILL``
against a ``repro serve-shard`` process under the supervisor.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import os
import signal
import tempfile
import time as _time
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

from repro.consistency.levels import ConsistencyLevel
from repro.durability.errors import SimulatedCrash
from repro.durability.manager import CheckpointPolicy, CrashPlan
from repro.harness.config import ExperimentConfig
from repro.harness.report import format_table, load_report, write_report
from repro.runtime.chaos import PROFILES
from repro.runtime.shard import FailoverSpec, FleetSpec, RebalanceSpec
from repro.warehouse.locality import SUPPORTED_ALGORITHMS as LOCALITY_ALGORITHMS
from repro.warehouse.registry import ALGORITHMS as REGISTRY
from repro.warehouse.registry import algorithm_info
from repro.warehouse.sharding import canonical_view_bytes, pick_migration

#: Workload shared by every case.  Small enough that a case's two or
#: three runs stay cheap and the vector-space checker runs in exact mode,
#: long enough that kill points and blackout windows land inside the run.
CASE_DEFAULTS = dict(n_sources=3, n_updates=12, mean_interarrival=6.0)
#: Sharded cases: a 4-view family over 2 shards, round-robin so both
#: shards host work (and a migratable non-primary view).
N_VIEWS = 4
N_SHARDS = 2
#: Aggressive roll rate so every crash case exercises checkpoint + WAL replay.
CHECKPOINT_POLICY = CheckpointPolicy(every_installs=3)

#: The sharded runtime's two claimants; seed sweeps alternate them.
ALGORITHMS = ("sweep", "batched-sweep")
#: Algorithms whose installs are composite by design: the batch-aware
#: completeness check is a hard gate for them, informational otherwise.
BATCHING_ALGORITHMS = ("batched-sweep",)

#: Protocol points a primary can die at; seeds rotate through all three.
KILL_POINTS = ("mid-batch", "mid-compensation", "mid-query")
#: Protocol points the migration can fire at; seeds rotate through all.
MIGRATION_POINTS = ("mid-batch", "mid-compensation", "late-drain")
#: Mid-compensation seeds (seed % 3 == 1) a mutant probes for a fire
#: point where the mutation actually has something to drop or duplicate.
MUTATION_SEEDS = (1, 4, 7, 10, 13)
#: Error prefix of a mutant that dropped/duplicated nothing (probe on).
VACUOUS = "mutation vacuous"

#: Wall seconds the supervisor gets to notice a SIGKILLed primary and
#: promote its standby (the poll interval is 0.2s; the budget leaves
#: slack for a loaded CI host).
DETECTION_BUDGET = 5.0

#: ``repro conformance`` defaults: every registered algorithm against the
#: healthy control plus one profile per fault family -- transport faults
#: first, then the source-side profiles.
DEFAULT_ALGORITHMS: tuple[str, ...] = tuple(REGISTRY)
DEFAULT_PROFILES: tuple[str, ...] = (
    "healthy", "delay", "dup", "crash", "source-stall", "source-reorder",
)
#: Sharded-runtime conformance names (opt-in via ``--algorithms``): the
#: scheduler runs over the sharded family and the verdict is the
#: *minimum* across every view of every shard.  ``-r1`` pairs each shard
#: with a hot standby installing in lockstep; standbys are mute on the
#: answer path, so the claimed level must not move.
SHARDED_ALGORITHMS: dict[str, dict] = {
    "sharded-sweep": {"algorithm": "sweep"},
    "sharded-batched-sweep": {"algorithm": "batched-sweep"},
    "sharded-sweep-r1": {"algorithm": "sweep", "replicas": 1},
}


# ---------------------------------------------------------------------------
# Deterministic per-seed specs
# ---------------------------------------------------------------------------

def crash_spec(seed: int) -> dict:
    """The deterministic crash point for a seed.

    Even seeds crash on a delivery count (deliveries tick inside the
    dispatcher, which interleaves with sweep steps -- mid-compensation),
    odd seeds once installs reflect that many updates (mid-batch for the
    batched scheduler, however its bursts fold into batches).
    """
    if seed % 2 == 0:
        return {"after_deliveries": 4 + (seed // 2) % 7}
    return {"after_installs": 2 + (seed // 2) % 6}


def failover_spec(seed: int, shard: int) -> FailoverSpec:
    """The deterministic kill for a seed: point and threshold both vary.

    Thresholds are kept small enough that every kill point fires before
    the 12-update workload drains on either scheduler (batched-sweep
    compresses installs and queries, so those counts stay low).
    """
    point = KILL_POINTS[seed % len(KILL_POINTS)]
    if point == "mid-batch":
        return FailoverSpec(shard=shard, after_installs=1 + (seed // 3) % 3)
    if point == "mid-compensation":
        return FailoverSpec(shard=shard, after_deliveries=2 + (seed // 3) % 5)
    return FailoverSpec(shard=shard, after_queries=1 + (seed // 3) % 3)


def rebalance_spec(
    seed: int, view: str, to_shard: int, mutated: bool = False
) -> RebalanceSpec:
    """The deterministic migration for a seed: point and threshold vary.

    Thresholds stay below the 12-delivery drain of the shared workload
    on either scheduler, so the trigger always fires; the ``late-drain``
    band sits in the last third of the stream, where the straggler
    window closes against nearly exhausted channels.
    """
    point = MIGRATION_POINTS[seed % len(MIGRATION_POINTS)]
    if point == "mid-batch":
        kwargs = dict(after_installs=1 + (seed // 3) % 3)
    elif point == "mid-compensation":
        kwargs = dict(after_deliveries=2 + (seed // 3) % 5)
    else:
        kwargs = dict(after_deliveries=8 + (seed // 3) % 3)
    return RebalanceSpec(
        view=view,
        to_shard=to_shard,
        skip_straggler_forwarding=mutated,
        **kwargs,
    )


def _thresholds(spec) -> dict:
    """The one ``after_*`` threshold a fault spec sets, as a row fact."""
    return {
        key: value
        for key in ("after_installs", "after_deliveries", "after_queries")
        if (value := getattr(spec, key, None)) is not None
    }


def _threshold_text(thresholds: dict) -> str:
    return ",".join(f"{k.split('_')[1]}={v}" for k, v in thresholds.items())


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------

@dataclass
class Case:
    """What a perturbation sees of the case it is part of."""

    config: ExperimentConfig
    #: sharded runtime (4 views / 2 shards) vs. one distributed warehouse.
    sharded: bool
    claimed: ConsistencyLevel
    #: the report row under construction; perturbations add their facts.
    row: dict
    #: ``run(**overrides)``: one run of the deployment under test.
    run: Callable[..., object]
    #: closed when the case ends (scratch directories).
    cleanup: contextlib.ExitStack
    #: the unperturbed twin's result, and the perturbed run's level.
    baseline: object = None
    achieved: ConsistencyLevel = ConsistencyLevel.NONE


@dataclass(frozen=True)
class Smoke:
    """The multiprocess variant of a perturbation (:func:`sigkill_smoke`):
    how the fleet is launched, when ``shard0`` is ripe for its SIGKILL,
    and what the supervisor must have done about it."""

    title: str
    #: :class:`ExperimentConfig` fields beyond the shared smoke workload.
    workload: dict
    time_scale: float
    #: scratch directory -> :class:`FleetSpec` field overrides.
    fleet: Callable[[str], dict]
    #: ``build_sharded_supervisor`` keyword arguments (restart policy).
    policy: dict
    #: ``armed(scratch directory, seconds since launch)`` -> kill now.
    armed: Callable[[str, float], bool]
    #: ``verdict(supervisor, report)`` records what the supervisor did and
    #: returns the first failed expectation ("" = pass).
    verdict: Callable[[object, dict], str]


@dataclass(frozen=True)
class Perturbation:
    """One fault family, reduced to what it adds to a twin comparison.

    Instance fields other than ``mutated`` are the perturbation's
    parameters; they become row facts and part of the row's ``scenario``
    tag (``chaos:dup``).
    """

    #: run the variant carrying the runtime's mutation hook instead.
    mutated: bool = False

    #: stable identifier: ``scenario`` tags and the column registry.
    name: ClassVar[str] = ""
    #: report suite of a sweep over this perturbation alone.
    suite: ClassVar[str] = ""
    #: the runtime has a mutation hook for this fault ...
    has_mutant: ClassVar[bool] = False
    #: ... and its mutant needs these workload fields (the twin gets them too).
    mutant_workload: ClassVar[dict] = {}
    #: outcome facts and their initial values (failed rows keep the schema).
    facts: ClassVar[dict] = {}
    #: seed sweeps run every N-th seed with ``locality="aux"`` (0 = never).
    aux_every: ClassVar[int] = 0
    smoke: ClassVar[Smoke | None] = None

    def params(self) -> dict:
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "mutated"
        }

    @property
    def tag(self) -> str:
        set_params = (str(v) for v in self.params().values() if v is not None)
        return ":".join([self.name, *set_params])

    def arm(self, case: Case) -> dict:
        """Record the per-seed spec on the row; return the overrides."""
        return {}

    def prelude(self, case: Case, overrides: dict) -> None:
        """A run that must happen before the judged one (the crash)."""

    def check(self, case: Case, result) -> str:
        """Record outcome facts; return the first failed check ("" = ok)."""
        return ""

    @staticmethod
    def columns(row: dict) -> dict:
        """Report columns (header -> cell), from a row alone."""
        return {}


def _deliveries_check(case: Case, result, what: str) -> str:
    """No frame lost or double-counted across the perturbation."""
    equal = result.deliveries_total == case.baseline.deliveries_total
    case.row["deliveries_equal"] = equal
    if equal:
        return ""
    return (
        f"{what} run delivered {result.deliveries_total} updates,"
        f" baseline {case.baseline.deliveries_total}"
    )


def _has_wal(durable_dir: str, _elapsed: float) -> bool:
    """shard0 holds durable state worth recovering: the attach-time
    checkpoint plus at least one WAL-logged update."""
    wal_dir = os.path.join(durable_dir, "shard0")
    return os.path.isdir(wal_dir) and any(
        name.endswith(".wal")
        and os.path.getsize(os.path.join(wal_dir, name)) > 64
        for name in os.listdir(wal_dir)
    )


def _restart_verdict(supervisor, report: dict) -> str:
    report["restarts"] = supervisor.restarts.get("shard0", 0)
    # Only the injected SIGKILL (exit -9) may have triggered a relaunch.
    # A recovered incarnation crashing on its own and being saved by the
    # restart budget is a recovery bug this smoke exists to catch.
    unexpected = [
        line for line in supervisor.restart_log if "exit -9," not in line
    ]
    if report["restarts"] < 1:
        return "supervisor never restarted shard0"
    if unexpected:
        return "recovered incarnation crashed: " + "; ".join(unexpected)
    return ""


def _promotion_verdict(supervisor, report: dict) -> str:
    report["promoted"] = supervisor.promoted.get("shard0", "")
    report["detection_seconds"] = None
    # wait() starts its failover-log clock at the SIGKILL, so the logged
    # ``t+`` stamp of the promotion IS the detection latency.
    for entry in supervisor.failover_log:
        if "promoted standby" in entry:
            report["detection_seconds"] = float(
                entry.split("]", 1)[0].lstrip("[t+").rstrip("s")
            )
            break
    if report["promoted"] != "shard0r1":
        return f"supervisor did not promote shard0r1: {supervisor.failover_log}"
    if supervisor.restarts.get("shard0", 0) > 0:
        return "dead primary was restarted, not promoted"
    detected = report["detection_seconds"]
    if detected is None or detected > DETECTION_BUDGET:
        return f"promotion took {detected}s, budget is {DETECTION_BUDGET}s"
    return ""


@dataclass(frozen=True)
class CrashRestart(Perturbation):
    """Kill one shard mid-protocol, re-enter over its durable directory.

    Durability on (checkpoints + WAL in a fresh directory) and a
    :class:`~repro.durability.manager.CrashPlan` kills one shard after
    its N-th delivery (mid-compensation) or at the install that reflects
    its N-th update (between the member installs of one composite
    batch); the run must die with
    :class:`~repro.durability.errors.SimulatedCrash`, and the identical
    run re-entered over the same directory must recover every shard
    (checkpoint + WAL replay), re-issue the in-flight sweeps and end
    equal to the twin.  The runtime has no mutation hook for this fault.
    """

    name = "crash-restart"
    suite = "crash-restart"
    facts = {
        "crash_shard": None,
        "crash_spec": {},
        "crash_fired": False,
        "recovered_pending": 0,
    }
    # Every third seed crashes with warehouse-local source copies on, so
    # checkpointed auxiliary copies and their recovery stay under test.
    aux_every = 3
    # Paced slowly enough that the kill lands mid-protocol once the
    # victim has durable state; locality on, so the kill also carries
    # checkpointed auxiliary copies through a real process restart.
    smoke = Smoke(
        title="kill-and-recover smoke",
        workload=dict(mean_interarrival=4.0, locality="aux"),
        time_scale=0.05,
        fleet=lambda root: dict(durable_dir=root),
        policy=dict(restart="on-crash", max_restarts=2),
        armed=_has_wal,
        verdict=_restart_verdict,
    )

    def arm(self, case: Case) -> dict:
        seed = case.config.seed
        case.row.update(crash_shard=seed % N_SHARDS, crash_spec=crash_spec(seed))
        root = case.cleanup.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-recovery-")
        )
        return dict(durable_dir=root, checkpoint_policy=CHECKPOINT_POLICY)

    def prelude(self, case: Case, overrides: dict) -> None:
        spec = case.row["crash_spec"]
        plans = {case.row["crash_shard"]: CrashPlan(**spec)}
        try:
            case.run(**overrides, crash_plans=plans)
        except SimulatedCrash:
            case.row["crash_fired"] = True
        else:
            raise RuntimeError(f"crash plan {spec} never fired")

    def check(self, case: Case, result) -> str:
        if result.recovered_pending is None:
            return "second run did not recover durable state"
        case.row["recovered_pending"] = sum(result.recovered_pending.values())
        return ""

    @staticmethod
    def columns(row: dict) -> dict:
        crash = f"{_threshold_text(row['crash_spec'])}@s{row['crash_shard']}"
        return {"crash": crash, "replayed": row["recovered_pending"]}


@dataclass(frozen=True)
class PrimaryKill(Perturbation):
    """Kill a shard's primary mid-protocol; its hot standby takes over.

    ``replicas=1`` and a :class:`~repro.runtime.shard.FailoverSpec` that
    kills the primary inside its own protocol frame: *mid-batch* (after
    the N-th install, so a composite batch is split by the death),
    *mid-compensation* (after the N-th delivery, between a sweep's query
    and its answer), or *mid-query* (right after the N-th query left for
    a source, so the answer arrives addressed to a dead member and is
    dropped -- the observable equivalent of epoch fencing).  The standby
    must be promoted and deliver exactly the twin's update count.
    Mutant: ``unfenced_replay`` re-injects the dead primary's last frame
    into the standby, what a fence-skipping takeover would deliver.
    """

    #: victim shard; ``None`` rotates over the active shards by seed.
    kill_shard: int | None = None

    name = "primary-kill"
    suite = "failover-equivalence"
    has_mutant = True
    # Insert-only, so the mutant's duplicate lands as a double count the
    # oracle must catch rather than a NegativeCountError crash.
    mutant_workload = {"insert_fraction": 1.0}
    facts = {
        "kill_spec": {},
        "promoted": "",
        "deliveries_equal": False,
    }
    # The supervisor must notice the SIGKILL and promote within
    # DETECTION_BUDGET -- no restart may fire, the dead primary stays
    # dead.  The kill waits out fleet wire-up and the first deliveries
    # so it lands mid-protocol.
    smoke = Smoke(
        title="promotion smoke",
        workload=dict(mean_interarrival=5.0),
        time_scale=0.02,
        fleet=lambda _root: dict(replicas=1),
        policy={},
        armed=lambda _root, elapsed: elapsed >= 2.5,
        verdict=_promotion_verdict,
    )

    def arm(self, case: Case) -> dict:
        seed, shard = case.config.seed, self.kill_shard
        if shard is None:
            active = case.baseline.plan.active_shards
            shard = active[seed % len(active)]
        spec = dataclasses.replace(
            failover_spec(seed, shard), unfenced_replay=self.mutated
        )
        case.row.update(kill_shard=shard, kill_spec=_thresholds(spec))
        return dict(replicas=1, failover=spec)

    def check(self, case: Case, result) -> str:
        row = case.row
        row["promoted"] = (result.promotions or {}).get(row["kill_shard"], "")
        recount = _deliveries_check(case, result, "promoted")
        if not row["promoted"]:
            # A kill switch that never fires is a configuration error.
            return "primary died but no standby was promoted"
        if not self.mutated:
            return recount
        if not recount:
            return f"{VACUOUS}: no frame was replayed into the standby"
        if case.achieved >= case.claimed:
            return "oracle blind: frame replayed but the claimed level held"
        return ""

    @staticmethod
    def columns(row: dict) -> dict:
        kill = f"{_threshold_text(row['kill_spec'])}@s{row['kill_shard']}"
        return {
            "kill": kill + (" MUT" if row["mutated"] else ""),
            "promoted": row["promoted"] or "-",
        }


@dataclass(frozen=True)
class Migrate(Perturbation):
    """Seal a view on its donor mid-run, drain, hand off, re-route.

    A :class:`~repro.runtime.shard.RebalanceSpec` moves the plan-derived
    view (:func:`~repro.warehouse.sharding.pick_migration`) inside the
    donor primary's own protocol frame: *mid-batch*, *mid-compensation*,
    or *late* (within the last few deliveries, so the gap window closes
    against an almost-drained stream).  Catch-up must complete on every
    recipient member, the run must deliver exactly the twin's update
    count, and the migrated view -- which classifies under its own
    spliced delivery order (donor prefix + forwarded gap + pen + steady
    state) -- must show **no delivery holes**
    (:meth:`~repro.consistency.oracle.RunRecorder.missing_deliveries`).
    Mutant: ``skip_straggler_forwarding`` seals and hands off but drops
    the straggler window ``(P_i, B_i]``.
    """

    name = "migrate"
    suite = "rebalance-equivalence"
    has_mutant = True
    facts = {
        "view": "",
        "from_shard": None,
        "to_shard": None,
        "move_spec": {},
        "completed": False,
        "deliveries_equal": False,
        "missing": {},
        "gap_forwarded": 0,
        "gap_skipped": 0,
        "pen_retained": 0,
    }

    def arm(self, case: Case) -> dict:
        plan = case.baseline.plan
        view, to_shard = pick_migration(plan)
        spec = rebalance_spec(case.config.seed, view, to_shard, mutated=self.mutated)
        case.row.update(
            view=view,
            from_shard=plan.shard_of(view),
            to_shard=to_shard,
            move_spec=_thresholds(spec),
        )
        return dict(rebalance=spec)

    def check(self, case: Case, result) -> str:
        row = case.row
        stats = result.rebalance_stats or {}
        row["completed"] = bool(stats.get("completed"))
        for counter in ("gap_forwarded", "gap_skipped", "pen_retained"):
            row[counter] = stats.get(counter, 0)
        holes = result.recorders[row["view"]].missing_deliveries()
        row["missing"] = {str(index): seqs for index, seqs in holes.items()}
        recount = _deliveries_check(case, result, "rebalanced")
        if self.mutated:
            # Delivery holes are the check that stays sharp even when a
            # skipped straggler's delta joins to nothing.
            if row["gap_skipped"] < 1:
                return f"{VACUOUS}: no straggler was actually skipped"
            if not holes:
                return (
                    "oracle blind: stragglers skipped but no delivery"
                    " holes reported"
                )
            return ""
        if not row["completed"]:
            # A trigger that never fires is a configuration error.
            return "migration did not complete catch-up"
        if holes:
            return f"migrated view has delivery holes: {row['missing']}"
        return recount

    @staticmethod
    def columns(row: dict) -> dict:
        mutated = row["mutated"]
        return {
            "move": f"{row['view'] or '?'}"
                    f" s{row['from_shard']}->s{row['to_shard']}",
            "fire": _threshold_text(row["move_spec"])
                    + (" MUT" if mutated else ""),
            "gap": f"{row['gap_forwarded']}+{row['pen_retained']}p"
                   + (f" skip={row['gap_skipped']}" if mutated else ""),
        }


@dataclass(frozen=True)
class ChaosProfile(Perturbation):
    """A :mod:`repro.runtime.chaos` profile misbehaving below the FIFO
    contract -- delayed, duplicated, dropped-and-retransmitted, blacked
    out -- plus, for batching schedulers, the batch-aware completeness
    check: every composite install a contiguous delivery-order prefix,
    every delivered update attributed to exactly one install."""

    profile: str = "healthy"

    name = "chaos"
    facts = {
        "faults": 0,
        "installs": 0,
        "updates": 0,
        "batched_ok": None,
        "mean_staleness": None,
    }

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise KeyError(
                f"unknown chaos profile {self.profile!r};"
                f" available: {sorted(PROFILES)}"
            )

    def arm(self, case: Case) -> dict:
        return dict(chaos=self.profile)

    def check(self, case: Case, result) -> str:
        recorders = (
            result.recorders.values() if case.sharded else [result.recorder]
        )
        batched = [recorder.check_batched() for recorder in recorders]
        bad = next((check for check in batched if not check.ok), None)
        stale = getattr(result, "mean_per_update_staleness", None)
        stats = result.chaos_stats
        case.row.update(
            faults=stats.faults_injected if stats is not None else 0,
            installs=result.installs,
            updates=(
                result.updates_total if case.sharded
                else result.updates_delivered
            ),
            batched_ok=bad is None,
            mean_staleness=round(stale, 3) if stale is not None else None,
        )
        if bad is not None and case.config.algorithm in BATCHING_ALGORITHMS:
            return f"batched check: {bad.detail}"
        return ""

    @staticmethod
    def columns(row: dict) -> dict:
        batched = {True: "ok", False: "FAIL", None: "-"}[row["batched_ok"]]
        return {
            "profile": row["profile"],
            "faults": row["faults"],
            "installs": row["installs"],
            "stale": row["mean_staleness"],
            "batched": batched,
        }


@dataclass(frozen=True)
class Standbys(Perturbation):
    """Hot standbys installing in lockstep, with nothing killed."""

    replicas: int = 1

    name = "standbys"

    def arm(self, case: Case) -> dict:
        return dict(replicas=self.replicas)


#: name -> class, so a report loaded from JSON still finds its columns.
PERTURBATIONS: dict[str, type[Perturbation]] = {
    cls.name: cls
    for cls in (
        CrashRestart, PrimaryKill, Migrate, ChaosProfile, Standbys
    )
}


# ---------------------------------------------------------------------------
# The case runner
# ---------------------------------------------------------------------------

def run_case(
    algorithm: str,
    seed: int,
    perturbations: Sequence[Perturbation] = (),
    transport: str = "local",
    time_scale: float = 0.002,
    timeout: float = 120.0,
    locality: str = "off",
    sharded: bool = True,
    label: str | None = None,
    **workload,
) -> dict:
    """One twin/perturbed pair; returns a flat report row.

    ``sharded`` picks the deployment: the sharded runtime's 4-view /
    2-shard family (``algorithm`` one of :data:`ALGORITHMS`) or a single
    distributed warehouse running any registered algorithm.  ``label``
    overrides the row's algorithm name; ``workload`` overrides
    :data:`CASE_DEFAULTS`.  An unknown algorithm is a :class:`KeyError`,
    not a row.
    """
    from repro.runtime import run_distributed, run_sharded

    claimed = algorithm_info(algorithm).claimed_consistency
    if sharded and algorithm not in ALGORITHMS:
        raise KeyError(f"no sharded {algorithm!r}; sharded: {list(ALGORITHMS)}")
    row = {
        "algorithm": label or algorithm,
        "transport": transport,
        "seed": seed,
        "locality": locality,
        "scenario": "+".join(p.tag for p in perturbations),
        "mutated": any(p.mutated for p in perturbations),
        "claimed": claimed.name.lower(),
        "achieved": "none",
        "views_equal": False,
        "ok": False,
        "error": "",
        "wall_seconds": 0.0,
    }
    settings = {**CASE_DEFAULTS, **workload}
    for perturbation in perturbations:
        row.update(copy.deepcopy(perturbation.facts), **perturbation.params())
        if perturbation.mutated:
            settings.update(perturbation.mutant_workload)
    config = ExperimentConfig(
        algorithm=algorithm,
        seed=seed,
        locality=locality,
        n_views=N_VIEWS if sharded else 1,
        **settings,
    )

    pacing = dict(time_scale=time_scale, timeout=timeout)
    if sharded:
        fleet = FleetSpec(
            config, n_shards=N_SHARDS, strategy="round-robin", **pacing
        )

    def run(**overrides):
        if not sharded:
            return run_distributed(
                config, **{"transport": "local", **pacing, **overrides}
            )
        # (through repro.runtime.run_sharded, where tests intercept runs)
        spec = dataclasses.replace(fleet, **overrides)
        return run_sharded(
            **{f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
        )

    started = _time.perf_counter()
    with contextlib.ExitStack() as cleanup:
        case = Case(config, sharded, claimed, row, run, cleanup)
        try:
            case.baseline = run()
            overrides: dict = {"transport": transport}
            for perturbation in perturbations:
                overrides.update(perturbation.arm(case))
            for perturbation in perturbations:
                perturbation.prelude(case, overrides)
            row["error"] = _judge(case, run(**overrides), perturbations)
            row["ok"] = not row["error"]
        except Exception as exc:  # noqa: BLE001 - a crash is a verdict row
            row["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            row["wall_seconds"] = round(_time.perf_counter() - started, 3)
    return row


def _view_bytes(case: Case, result) -> dict[str, bytes]:
    views = result.final_views if case.sharded else {"V": result.final_view}
    return {name: canonical_view_bytes(view) for name, view in views.items()}


def _judge(case: Case, result, perturbations: Sequence[Perturbation]) -> str:
    """Record the shared facts and return the first failed check.

    A mutant case inverts the question: the shared invariants are what
    the mutation is *supposed* to break, so only the perturbations' own
    non-vacuous-and-caught checks decide it.
    """
    row = case.row
    if case.sharded:
        case.achieved = result.min_level()
    else:
        case.achieved = result.classified_level or ConsistencyLevel.NONE
    row["achieved"] = case.achieved.name.lower()
    expected = _view_bytes(case, case.baseline)
    mismatched = sorted(
        name
        for name, data in _view_bytes(case, result).items()
        if data != expected.get(name)
    )
    row["views_equal"] = not mismatched
    errors = [p.check(case, result) for p in perturbations]
    if not row["mutated"]:
        if case.achieved < case.claimed:
            errors.append(f"achieved {row['achieved']} < claimed")
        if mismatched:
            errors.append(
                f"view(s) {', '.join(mismatched)} differ from the"
                " unperturbed baseline"
            )
    return next(filter(None, errors), "")


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def run_sweep(
    perturbations: Sequence[Perturbation],
    seeds: Sequence[int] = range(30),
    tcp_every: int = 5,
    time_scale: float = 0.002,
    timeout: float = 120.0,
    progress=None,
) -> list[dict]:
    """The seed sweep over the sharded runtime.

    Fault points rotate with the seed (mod 3) and schedulers alternate
    (mod 2), so over 30 seeds every (algorithm, point) pair recurs; every
    ``tcp_every``-th seed runs over loopback TCP (0 disables), so
    listener sessions, per-member channel naming and fences on real
    sockets are exercised.  Each perturbation that has a mutant then
    rides one mutant row per scheduler at the end, so the harness proves
    on every run that it can still see the bug it guards against.
    """
    rows: list[dict] = []

    def emit(row: dict) -> None:
        rows.append(row)
        if progress is not None:
            progress(row)

    pacing = dict(time_scale=time_scale, timeout=timeout)
    aux_every = max((p.aux_every for p in perturbations), default=0)
    for seed in seeds:
        tcp = tcp_every and seed % tcp_every == tcp_every - 1
        aux = aux_every and seed % aux_every == aux_every - 1
        emit(run_case(
            ALGORITHMS[seed % len(ALGORITHMS)],
            seed,
            perturbations,
            transport="tcp" if tcp else "local",
            locality="aux" if aux else "off",
            **pacing,
        ))
    for index, perturbation in enumerate(perturbations):
        if not perturbation.has_mutant:
            continue
        mutant = list(perturbations)
        mutant[index] = dataclasses.replace(perturbation, mutated=True)
        for algorithm in ALGORITHMS:
            # Whether the fire point leaves the mutation something to
            # drop or duplicate depends on queue depths, so probe the
            # mid-compensation band until it is non-vacuous; a caught
            # (or blind) mutation ends the probe, and a fully vacuous
            # band is itself a failure.
            for candidate in MUTATION_SEEDS:
                row = run_case(algorithm, candidate, mutant, **pacing)
                if not row["error"].startswith(VACUOUS):
                    break
            emit(row)
    return rows


def run_matrix(
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    profiles: Sequence[str] = DEFAULT_PROFILES,
    seeds: Sequence[int] = (0,),
    transport: str = "local",
    localities: Sequence[str] = ("off",),
    progress=None,
    **case_kwargs,
) -> list[dict]:
    """The conformance cross product; ``progress`` is called per row.

    Algorithm names are registry names (one distributed warehouse) or
    :data:`SHARDED_ALGORITHMS` keys.  Locality modes beyond ``off`` only
    apply to the sweep-family schedulers
    (:data:`repro.warehouse.locality.SUPPORTED_ALGORITHMS`); unsupported
    (algorithm, locality) pairs are skipped, not failed.
    """
    rows = []
    for name in algorithms:
        sharded = SHARDED_ALGORITHMS.get(name)
        base = sharded["algorithm"] if sharded is not None else name
        fixed = []
        if sharded is not None and "replicas" in sharded:
            fixed.append(Standbys(replicas=sharded["replicas"]))
        for locality in localities:
            if locality != "off" and base not in LOCALITY_ALGORITHMS:
                continue
            for profile in profiles:
                for seed in seeds:
                    row = run_case(
                        base,
                        seed,
                        [ChaosProfile(profile=profile), *fixed],
                        transport=transport,
                        locality=locality,
                        sharded=sharded is not None,
                        label=name,
                        **case_kwargs,
                    )
                    rows.append(row)
                    if progress is not None:
                        progress(row)
    return rows


# ---------------------------------------------------------------------------
# Multiprocess SIGKILL smoke
# ---------------------------------------------------------------------------

def sigkill_smoke(
    smoke: Smoke, timeout: float = 240.0, host: str = "127.0.0.1"
) -> dict:
    """SIGKILL ``shard0`` of a real ``serve-shard`` fleet, mid-protocol.

    The fleet is launched per ``smoke.fleet``; once ``smoke.armed`` (or
    after half the timeout) the primary is killed, and the fleet must
    still finish with every member exiting 0 -- shards verify their own
    views before exiting, so a clean fleet exit means the recovered or
    promoted member's views passed the oracle.  ``smoke.verdict`` then
    checks *how* the supervisor got there.  The fleet is torn down on
    every path, so a failed smoke never leaks ``serve-shard`` children.
    """
    from repro.runtime.shard import build_sharded_supervisor

    config = ExperimentConfig(
        algorithm="sweep",
        seed=11,
        n_sources=3,
        n_updates=16,
        n_views=N_VIEWS,
        **smoke.workload,
    )
    report = {
        "title": smoke.title,
        "ok": False,
        "error": "",
        "log": [],
        "killed": "shard0",
    }
    with tempfile.TemporaryDirectory(prefix="repro-sigkill-") as root:
        fleet = FleetSpec(
            config,
            n_shards=N_SHARDS,
            strategy="round-robin",
            time_scale=smoke.time_scale,
            host=host,
            timeout=timeout,
            **smoke.fleet(root),
        )
        supervisor = build_sharded_supervisor(fleet, **smoke.policy)
        try:
            target = supervisor.procs["shard0"]
            launched = _time.monotonic()
            while target.poll() is None:
                elapsed = _time.monotonic() - launched
                if elapsed > timeout / 2 or smoke.armed(root, elapsed):
                    break
                _time.sleep(0.05)
            if target.poll() is not None:
                report["error"] = "shard0 exited before the kill was armed"
            else:
                target.send_signal(signal.SIGKILL)
                supervisor.wait(timeout=timeout)
                report["error"] = smoke.verdict(supervisor, report)
            report["ok"] = not report["error"]
        except Exception as exc:  # noqa: BLE001 - smoke reports, not raises
            report["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            report["log"] = [*supervisor.restart_log, *supervisor.failover_log]
            supervisor.terminate_all()
    return report


# ---------------------------------------------------------------------------
# Reports: one schema for every suite
# ---------------------------------------------------------------------------

#: suite -> (report title, closing line of an all-pass report).
SUITES = {
    "conformance": (
        "Protocol conformance under fault injection",
        "all cases conform",
    ),
    CrashRestart.suite: (
        "Crash-restart recovery: recovered runs vs uncrashed baselines",
        "all cases recovered",
    ),
    PrimaryKill.suite: (
        "Failover equivalence: promoted runs vs uncrashed baselines",
        "all promoted runs equivalent (mutations caught)",
    ),
    Migrate.suite: (
        "Rebalance equivalence: migrated runs vs static baselines",
        "all migrated runs equivalent (mutations caught)",
    ),
}


def build_report(suite: str, rows: list[dict], smoke: dict | None = None) -> dict:
    report = {
        "suite": suite,
        "cases": len(rows),
        "failed": sum(1 for row in rows if not row["ok"]),
        "ok": all(row["ok"] for row in rows)
        and (smoke is None or smoke["ok"]),
        "rows": rows,
    }
    if smoke is not None:
        report["smoke"] = smoke
    return report


def format_report(report: dict) -> str:
    """Human-readable verdict table: the shared columns around whatever
    columns the rows' perturbations contribute."""
    title, all_pass = SUITES.get(
        report["suite"], (report["suite"], "all cases passed")
    )
    extras = []
    for row in report["rows"]:
        extra: dict = {}
        for tag in filter(None, row["scenario"].split("+")):
            # A tag nothing owns any more (an older report's codec pin)
            # adds no columns.
            owner = PERTURBATIONS.get(tag.split(":")[0], Perturbation)
            extra.update(owner.columns(row))
        extras.append(extra)
    headers = list(dict.fromkeys(key for extra in extras for key in extra))
    table = format_table(
        ["algorithm", "transport", "seed", "locality", *headers, "claimed",
         "achieved", "views", "wall s", "verdict"],
        [
            [
                row["algorithm"],
                row["transport"],
                row["seed"],
                row["locality"],
                *(extra.get(header) for header in headers),
                row["claimed"],
                row["achieved"],
                "equal" if row["views_equal"] else "DIFFER",
                row["wall_seconds"],
                "PASS" if row["ok"] else f"FAIL ({row['error']})",
            ]
            for row, extra in zip(report["rows"], extras)
        ],
        title=title,
    )
    lines = [table]
    smoke = report.get("smoke")
    if smoke is not None:
        verdict = "PASS" if smoke["ok"] else f"FAIL ({smoke['error']})"
        facts = ", ".join(
            f"{key}={value}"
            for key, value in smoke.items()
            if key not in ("title", "ok", "error", "log")
        )
        lines.append(f"\n{smoke['title']}: {verdict} ({facts})")
        lines.extend(f"  {entry}" for entry in smoke["log"])
    lines.append(
        f"\n{all_pass}" if report["ok"]
        else f"\n{report['failed']} of {report['cases']} case(s) FAILED"
    )
    return "\n".join(lines)


__all__ = [
    "ALGORITHMS",
    "CASE_DEFAULTS",
    "Case",
    "ChaosProfile",
    "CrashRestart",
    "DEFAULT_ALGORITHMS",
    "DEFAULT_PROFILES",
    "Migrate",
    "PERTURBATIONS",
    "Perturbation",
    "PrimaryKill",
    "SHARDED_ALGORITHMS",
    "Smoke",
    "Standbys",
    "build_report",
    "crash_spec",
    "failover_spec",
    "format_report",
    "load_report",
    "rebalance_spec",
    "run_case",
    "run_matrix",
    "run_sweep",
    "sigkill_smoke",
    "write_report",
]
