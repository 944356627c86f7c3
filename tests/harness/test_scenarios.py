"""The fault-scenario harness: case rows, sweeps, smokes and reports.

Each case drives real runs (the unperturbed twin plus the perturbed
one), so the matrices here stay tiny and assert the *harness* semantics:
verdict composition, crash-as-verdict rows, mutants that must be caught,
composition, process teardown, report shape and round-tripping.  The
30-seed sweeps and the full conformance registry are what the
``python -m repro *-sweep`` / ``conformance`` commands are for.
"""

import dataclasses
import random

import pytest

import repro.runtime
import repro.runtime.shard
from repro.cli import main
from repro.consistency.levels import ConsistencyLevel
from repro.durability.errors import SimulatedCrash
from repro.durability.manager import CrashPlan
from repro.harness.config import ExperimentConfig
from repro.harness.runner import built
from repro.harness.scenarios import (
    ALGORITHMS,
    DEFAULT_ALGORITHMS,
    DEFAULT_PROFILES,
    PERTURBATIONS,
    SHARDED_ALGORITHMS,
    ChaosProfile,
    CrashRestart,
    Migrate,
    PrimaryKill,
    Standbys,
    build_report,
    crash_spec,
    format_report,
    load_report,
    run_case,
    run_matrix,
    run_sweep,
    sigkill_smoke,
    write_report,
)
from repro.harness.sites import WAREHOUSE, build_sites, one_warehouse
from repro.runtime.chaos import PROFILES
from repro.simulation.kernel import Simulator
from repro.simulation.links import SimLinks
from repro.simulation.metrics import MetricsCollector
from repro.simulation.rng import RngRegistry
from repro.warehouse.registry import ALGORITHMS as REGISTRY
from repro.warehouse.registry import AlgorithmInfo
from repro.warehouse.sweep import SweepWarehouse
from repro.workloads.scenarios import make_workload
from repro.workloads.stream import UpdateStreamConfig

FAST = dict(n_updates=8, mean_interarrival=4.0, time_scale=0.001)

#: Every row of every suite carries these.
SHARED_KEYS = {
    "algorithm", "transport", "seed", "claimed", "achieved", "ok", "error",
    "wall_seconds",
}

#: The sweeps' three perturbations and one report suite each.
SWEPT = [CrashRestart, PrimaryKill, Migrate]


def chaos_case(algorithm, profile, seed=0, sharded=False, **kwargs):
    """One conformance case, the way ``run_matrix`` builds it."""
    return run_case(
        algorithm, seed, [ChaosProfile(profile=profile)], sharded=sharded,
        **kwargs,
    )


def assert_equivalent(row):
    assert row["error"] == ""
    assert row["ok"], row
    assert row["views_equal"]
    achieved = ConsistencyLevel[row["achieved"].upper()]
    assert achieved >= ConsistencyLevel[row["claimed"].upper()]


def test_defaults_cover_registry_and_profiles():
    assert DEFAULT_ALGORITHMS == tuple(REGISTRY)
    assert set(DEFAULT_PROFILES) <= set(PROFILES)
    assert "healthy" in DEFAULT_PROFILES  # always keep the control column
    for spec in SHARDED_ALGORITHMS.values():
        assert spec["algorithm"] in ALGORITHMS
    assert set(PERTURBATIONS) == {
        "crash-restart", "primary-kill", "migrate", "chaos", "standbys",
    }


# ---------------------------------------------------------------------------
# Single perturbations over the sharded runtime
# ---------------------------------------------------------------------------

class TestSinglePerturbations:
    @pytest.mark.parametrize("perturbation", SWEPT)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", [3, 4])
    def test_perturbed_run_matches_its_twin(self, perturbation, algorithm, seed):
        # Seed 3 is the batched parked-release regression seed of the
        # crash-restart layer; 3/4 cover two fault points of each family.
        row = run_case(algorithm, seed, [perturbation()])
        assert_equivalent(row)
        assert SHARED_KEYS <= set(row)
        assert row["scenario"] == perturbation.name
        assert not row["mutated"]
        assert row["wall_seconds"] > 0

    @pytest.mark.parametrize("perturbation", SWEPT)
    def test_over_tcp_transport(self, perturbation):
        row = run_case("sweep", 4, [perturbation()], transport="tcp")
        assert_equivalent(row)
        assert row["transport"] == "tcp"

    def test_crash_restart_facts(self):
        row = run_case("batched-sweep", 3, [CrashRestart()])
        assert_equivalent(row)
        assert row["crash_fired"]
        assert row["crash_spec"] == crash_spec(3) == {"after_installs": 3}
        assert row["crash_shard"] == 1
        assert row["recovered_pending"] > 0

    def test_primary_kill_facts(self):
        row = run_case("sweep", 4, [PrimaryKill()])
        assert_equivalent(row)
        assert row["kill_shard"] == 0
        assert row["kill_spec"] == {"after_deliveries": 3}
        assert row["promoted"] == "sh0r1"
        assert row["deliveries_equal"]

    def test_migrate_facts(self):
        row = run_case("sweep", 4, [Migrate()])
        assert_equivalent(row)
        assert (row["view"], row["from_shard"], row["to_shard"]) == (
            "V#s2", 0, 1
        )
        assert row["move_spec"] == {"after_deliveries": 3}
        assert row["completed"]
        assert row["missing"] == {}
        assert row["deliveries_equal"]

    def test_unknown_algorithm_is_an_error_not_a_row(self):
        with pytest.raises(KeyError):
            run_case("no-such-algorithm", 0, [Migrate()])

    @pytest.mark.parametrize("perturbation", SWEPT)
    def test_exception_becomes_a_failed_row(self, perturbation, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom mid-run")

        monkeypatch.setattr(repro.runtime, "run_sharded", boom)
        row = run_case("sweep", 0, [perturbation()])
        assert not row["ok"]
        assert row["error"] == "RuntimeError: boom mid-run"
        assert row["achieved"] == "none"  # never got far enough to classify
        # A failed row keeps the full schema, so the report still renders.
        text = format_report(build_report(perturbation.suite, [row]))
        assert "FAIL (RuntimeError: boom mid-run)" in text

    def test_fault_that_never_fires_fails_the_row(self, monkeypatch):
        # A crash plan beyond the workload: the doomed incarnation runs to
        # quiescence, which must not pass as "recovered".
        monkeypatch.setattr(
            "repro.harness.scenarios.crash_spec",
            lambda seed: {"after_deliveries": 10_000},
        )
        row = run_case("sweep", 0, [CrashRestart()])
        assert not row["ok"] and not row["crash_fired"]
        assert "never fired" in row["error"]


def run_one_burst(tmp_path, crash_plan=None) -> MetricsCollector:
    """A durable batched-SWEEP warehouse on the simulator whose 12
    updates all commit at once, so one composite batch installs them."""
    workload = make_workload(
        3,
        random.Random(1),
        rows_per_relation=10,
        match_fraction=1.0,
        stream=UpdateStreamConfig(n_updates=12, insert_fraction=0.5),
    )
    workload = dataclasses.replace(
        workload,
        schedules={
            index: [dataclasses.replace(update, time=1.0) for update in updates]
            for index, updates in workload.schedules.items()
        },
    )
    config = ExperimentConfig(
        algorithm="batched-sweep", locality="aux", latency_model="constant"
    )
    sim, metrics = Simulator(), MetricsCollector()
    plan = one_warehouse(
        config,
        workload,
        durable_dirs={WAREHOUSE: str(tmp_path)},
        crash_plans={WAREHOUSE: crash_plan} if crash_plan else {},
    )
    sites = built(
        build_sites(
            sim,
            SimLinks(sim, config, RngRegistry(config.seed), metrics),
            config,
            workload,
            metrics,
            plan=plan,
        )
    )
    try:
        sim.run(max_events=config.max_events)
    finally:
        sites.close()
    return metrics


@pytest.mark.parametrize("seed", range(1, 13, 2))
def test_install_crash_plans_count_updates_not_batches(tmp_path, seed):
    """An odd seed's plan crashes once installs reflect N updates: a burst
    folded into a single install still crosses every threshold."""
    metrics = run_one_burst(tmp_path / "twin")
    assert metrics.counters["installs"] == 1
    assert metrics.counters["updates_installed"] == 12
    plan = CrashPlan(**crash_spec(seed))
    with pytest.raises(SimulatedCrash, match="installed update #12"):
        run_one_burst(tmp_path / "crash", plan)
    assert plan.fired


# ---------------------------------------------------------------------------
# Mutants: the harness must see the bugs it guards against
# ---------------------------------------------------------------------------

class TestMutants:
    @pytest.fixture(scope="class")
    def kill_rows(self):
        return run_sweep([PrimaryKill()], seeds=())

    @pytest.fixture(scope="class")
    def migrate_rows(self):
        return run_sweep([Migrate()], seeds=())

    def test_one_mutant_row_per_scheduler(self, kill_rows, migrate_rows):
        for rows in (kill_rows, migrate_rows):
            assert [row["algorithm"] for row in rows] == list(ALGORITHMS)
            assert all(row["mutated"] and row["ok"] for row in rows), rows

    def test_unfenced_replay_is_non_vacuous_and_caught(self, kill_rows):
        for row in kill_rows:
            assert row["promoted"]
            assert not row["deliveries_equal"], "no frame was replayed"
            assert ConsistencyLevel[row["achieved"].upper()] < (
                ConsistencyLevel[row["claimed"].upper()]
            )

    def test_straggler_skipping_is_non_vacuous_and_caught(self, migrate_rows):
        for row in migrate_rows:
            assert row["gap_skipped"] >= 1
            holes = sum(len(seqs) for seqs in row["missing"].values())
            assert holes >= row["gap_skipped"]

    def test_crash_restart_has_no_mutant(self):
        assert run_sweep([CrashRestart()], seeds=()) == []

    def test_vacuous_mutation_is_a_failure(self, monkeypatch):
        # A mutation that dropped nothing must not count as caught.
        real = repro.runtime.run_sharded

        def empty_gap(*args, **kwargs):
            result = real(*args, **kwargs)
            if result.rebalance_stats is not None:
                result.rebalance_stats["gap_skipped"] = 0
            return result

        monkeypatch.setattr(repro.runtime, "run_sharded", empty_gap)
        row = run_case("sweep", 1, [Migrate(mutated=True)])
        assert not row["ok"]
        assert row["error"].startswith("mutation vacuous")

    def test_sweep_rides_its_mutant_rows_last(self):
        seen = []
        rows = run_sweep(
            [Migrate()], seeds=range(2), tcp_every=2, progress=seen.append
        )
        assert seen == rows
        assert [(r["algorithm"], r["seed"], r["transport"], r["mutated"])
                for r in rows[:2]] == [
            ("sweep", 0, "local", False), ("batched-sweep", 1, "tcp", False),
        ]
        assert [r["mutated"] for r in rows[2:]] == [True, True]
        assert all(row["ok"] for row in rows), rows


# ---------------------------------------------------------------------------
# Composition: a perturbation list of length two
# ---------------------------------------------------------------------------

COMPOSED = {
    "dup-x-primary-kill": [ChaosProfile(profile="dup"), PrimaryKill()],
    "delay-x-migrate": [ChaosProfile(profile="delay"), Migrate()],
    # round-robin over 2 shards moves V#s2 0 -> 1, so shard 1 is the
    # recipient: its primary dies holding the view it just adopted.
    "migrate-x-kill-recipient": [Migrate(), PrimaryKill(kill_shard=1)],
    "crash-restart-x-standbys": [CrashRestart(), Standbys(replicas=1)],
}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(COMPOSED))
def test_composed_scenario_matches_its_twin(name, algorithm, seed):
    row = run_case(algorithm, seed, COMPOSED[name])
    assert_equivalent(row)
    if name == "dup-x-primary-kill":
        assert row["faults"] > 0 and row["promoted"]
        assert row["batched_ok"]
    elif name == "delay-x-migrate":
        assert row["faults"] > 0 and row["completed"]
    elif name == "migrate-x-kill-recipient":
        assert row["to_shard"] == row["kill_shard"] == 1
        assert row["completed"] and row["promoted"] == "sh1r1"
        assert row["missing"] == {}
    else:
        assert row["crash_fired"] and row["replicas"] == 1


# ---------------------------------------------------------------------------
# Conformance: chaos profiles, the matrix
# ---------------------------------------------------------------------------

class TestConformanceCases:
    def test_healthy_sweep_row(self):
        row = chaos_case("sweep", "healthy", **FAST)
        assert_equivalent(row)
        assert row["algorithm"] == "sweep"
        assert row["profile"] == "healthy"
        assert row["claimed"] == "complete"
        assert row["achieved"] == "complete"
        assert row["updates"] == FAST["n_updates"]
        assert row["faults"] == 0  # healthy profile wraps nothing
        assert row["batched_ok"] is True
        assert row["wall_seconds"] > 0

    def test_chaos_profile_actually_injects(self):
        row = chaos_case("sweep", "dup", **FAST)
        assert_equivalent(row)
        assert row["faults"] > 0

    def test_replicated_sharded_row_keeps_claimed_level(self):
        # Hot standbys are mute on the answer path, so replicas=1 must
        # not move the claimed or achieved level of the sharded case.
        (row,) = run_matrix(
            ("sharded-sweep-r1",), ("healthy",), seeds=(1,), **FAST
        )
        assert_equivalent(row)
        assert row["algorithm"] == "sharded-sweep-r1"
        assert row["replicas"] == 1
        assert row["claimed"] == "complete"
        assert row["achieved"] == "complete"

    def test_sharded_batched_row_gates_on_batched_completeness(self):
        row = chaos_case("batched-sweep", "dup", sharded=True, **FAST)
        assert_equivalent(row)
        assert row["claimed"] == "strong"
        assert row["batched_ok"] is True

    @pytest.mark.parametrize("profile", ["source-stall", "source-burst"])
    def test_source_fault_profiles_inject_and_converge(self, profile):
        """The seeded sender-side faults fire and SWEEP still converges."""
        row = chaos_case("sweep", profile, seed=1, **FAST)
        assert_equivalent(row)
        assert row["faults"] > 0
        assert row["achieved"] == "complete"

    def test_source_reorder_profile_converges(self):
        # Whether a reorder fires depends on two frames being in flight
        # at once (timing-dependent); deterministic injection is asserted
        # at the channel level in tests/runtime/test_chaos_transport.py.
        row = chaos_case(
            "sweep", "source-reorder", seed=1,
            n_updates=12, mean_interarrival=1.0, time_scale=0.001,
        )
        assert_equivalent(row)
        assert row["achieved"] == "complete"

    def test_batched_check_failure_fails_a_batching_scheduler(self, monkeypatch):
        from repro.consistency.oracle import RunRecorder

        real = RunRecorder.check_batched

        def broken(self):
            return dataclasses.replace(real(self), ok=False, detail="forced")

        monkeypatch.setattr(RunRecorder, "check_batched", broken)
        gated = chaos_case("batched-sweep", "healthy", **FAST)
        assert not gated["ok"]
        assert gated["error"] == "batched check: forced"
        informational = chaos_case("sweep", "healthy", **FAST)
        assert informational["ok"] and informational["batched_ok"] is False

    def test_unknown_profile_is_an_error_not_a_row(self):
        with pytest.raises(KeyError, match="unknown chaos profile"):
            chaos_case("sweep", "no-such-profile")

    def test_unknown_algorithm_is_an_error_not_a_row(self):
        with pytest.raises(KeyError):
            chaos_case("no-such-algorithm", "healthy")

    def test_crash_is_a_conformance_verdict(self, monkeypatch):
        class ExplodingWarehouse(SweepWarehouse):
            algorithm_name = "exploding"

            def __init__(self, *args, **kwargs):
                raise RuntimeError("boom at startup")

        monkeypatch.setitem(
            REGISTRY,
            "exploding",
            AlgorithmInfo(
                name="exploding",
                cls=ExplodingWarehouse,
                architecture="distributed",
                claimed_consistency=ConsistencyLevel.COMPLETE,
                message_cost="O(n)",
                requires_keys=False,
                requires_quiescence=False,
                comments="test only",
                in_paper_table=False,
            ),
        )
        row = chaos_case("exploding", "healthy", **FAST)
        assert not row["ok"]
        assert "RuntimeError" in row["error"]
        assert row["achieved"] == "none"  # never got far enough to classify


class TestMatrix:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_matrix(
            algorithms=("sweep",), profiles=("healthy", "dup"), seeds=(0,),
            **FAST
        )

    def test_matrix_shape_and_verdict(self, rows):
        report = build_report("conformance", rows)
        assert report["suite"] == "conformance"
        assert report["cases"] == 2
        assert report["failed"] == 0
        assert report["ok"] is True
        assert [r["profile"] for r in rows] == ["healthy", "dup"]
        assert {r["transport"] for r in rows} == {"local"}

    def test_progress_callback_sees_every_row(self):
        seen = []
        run_matrix(
            algorithms=("sweep",), profiles=("healthy",), seeds=(0, 1),
            progress=seen.append, **FAST
        )
        assert [(r["algorithm"], r["seed"]) for r in seen] == [
            ("sweep", 0), ("sweep", 1)
        ]

    def test_unsupported_pairs_are_skipped_not_failed(self):
        # ECA never issues sweep-step queries (no locality layer).
        assert run_matrix(("eca",), ("healthy",), localities=("aux",)) == []

    def test_format_report_renders_verdicts(self, rows):
        text = format_report(build_report("conformance", rows))
        assert "Protocol conformance under fault injection" in text
        assert "PASS" in text
        assert "all cases conform" in text


# ---------------------------------------------------------------------------
# One report schema
# ---------------------------------------------------------------------------

class TestReports:
    @pytest.fixture(scope="class")
    def reports(self):
        out = {
            cls.suite: build_report(
                cls.suite, [run_case("sweep", 1, [cls()], **FAST)]
            )
            for cls in SWEPT
        }
        out["conformance"] = build_report(
            "conformance", run_matrix(("sweep",), ("dup",), **FAST)
        )
        return out

    def test_every_suite_shares_one_schema(self, reports):
        assert len(reports) == 4
        for suite, report in reports.items():
            assert set(report) == {"suite", "cases", "failed", "ok", "rows"}
            assert report["suite"] == suite
            assert report["ok"] and report["cases"] == 1, report
            assert SHARED_KEYS <= set(report["rows"][0])

    def test_reports_round_trip_through_json(self, reports, tmp_path):
        for suite, report in reports.items():
            path = write_report(report, tmp_path / f"{suite}.json")
            loaded = load_report(path)
            assert loaded == report
            assert format_report(loaded) == format_report(report)

    def test_format_report_shows_each_perturbations_spec(self, reports):
        assert "installs=2@s1" in format_report(reports["crash-restart"])
        assert "sh1r1" in format_report(reports["failover-equivalence"])
        assert "V#s2 s0->s1" in format_report(reports["rebalance-equivalence"])
        assert "dup" in format_report(reports["conformance"])

    def test_format_report_surfaces_failures(self, reports):
        for suite, report in reports.items():
            row = dict(
                report["rows"][0], ok=False, achieved="weak",
                error="achieved weak < claimed",
            )
            text = format_report(build_report(suite, [row]))
            assert "FAIL (achieved weak < claimed)" in text
            assert "1 of 1 case(s) FAILED" in text
            assert "all " not in text.splitlines()[-1]

    def test_failed_smoke_fails_the_report(self, reports):
        rows = reports["crash-restart"]["rows"]
        smoke = {
            "title": "kill-and-recover smoke", "ok": False,
            "error": "supervisor never restarted shard0",
            "log": ["[t+0.2s] shard0 exit -9, restart 1/2"],
            "killed": "shard0", "restarts": 0,
        }
        report = build_report("crash-restart", rows, smoke=smoke)
        assert report["smoke"] == smoke and not report["ok"]
        text = format_report(report)
        assert "kill-and-recover smoke: FAIL (supervisor never restarted" in text
        assert "restarts=0" in text and "  [t+0.2s] shard0 exit -9" in text


# ---------------------------------------------------------------------------
# The SIGKILL smoke tears its fleet down (no real processes)
# ---------------------------------------------------------------------------

class FakeProc:
    def __init__(self, code=None):
        self.code = code
        self.signals = []

    def poll(self):
        return self.code

    def send_signal(self, sig):
        self.signals.append(sig)

    def terminate(self):
        self.code = -15

    def wait(self, timeout=None):
        return self.code


class FakeSupervisor(repro.runtime.shard.ShardSupervisor):
    def __init__(self, procs, wait_error=None):
        super().__init__()
        self.procs.update(procs)
        self.wait_error = wait_error

    def wait(self, timeout=300.0):
        if self.wait_error is not None:
            raise self.wait_error
        return {}


class TestSigkillSmokeTeardown:
    def fleet(self, monkeypatch, supervisor):
        launched = {}

        def build(spec, **policy):
            launched.update(policy, spec=spec)
            return supervisor

        monkeypatch.setattr(
            repro.runtime.shard, "build_sharded_supervisor", build
        )
        return launched

    @pytest.mark.parametrize("perturbation", [CrashRestart, PrimaryKill])
    def test_missing_victim_still_tears_the_fleet_down(
        self, perturbation, monkeypatch
    ):
        # No "shard0" member: the KeyError must become a failed report,
        # and the members that did launch must not outlive the smoke.
        procs = {"shard1": FakeProc(), "source1": FakeProc()}
        self.fleet(monkeypatch, FakeSupervisor(procs))
        report = sigkill_smoke(perturbation.smoke)
        assert not report["ok"]
        assert report["error"].startswith("KeyError")
        assert [proc.code for proc in procs.values()] == [-15, -15]

    def test_failed_wait_tears_the_fleet_down(self, monkeypatch):
        procs = {"shard0": FakeProc(), "shard0r1": FakeProc()}
        supervisor = FakeSupervisor(procs, wait_error=TimeoutError("stuck"))
        launched = self.fleet(monkeypatch, supervisor)
        armed = dataclasses.replace(PrimaryKill.smoke, armed=lambda *_: True)
        report = sigkill_smoke(armed)
        assert launched["spec"].replicas == 1
        assert launched["spec"].durable_dir is None
        assert procs["shard0"].signals, "the kill was never sent"
        assert report["error"] == "TimeoutError: stuck" and not report["ok"]
        assert procs["shard0r1"].code == -15

    def test_victim_exiting_early_is_reported(self, monkeypatch):
        procs = {"shard0": FakeProc(code=0), "shard1": FakeProc()}
        launched = self.fleet(monkeypatch, FakeSupervisor(procs))
        report = sigkill_smoke(CrashRestart.smoke)
        assert launched["restart"] == "on-crash" and launched["spec"].durable_dir
        assert launched["spec"].config.locality == "aux"
        assert report["error"] == "shard0 exited before the kill was armed"
        assert not procs["shard0"].signals
        assert procs["shard1"].code == -15


# ---------------------------------------------------------------------------
# CLI: four commands, one parser helper, one handler
# ---------------------------------------------------------------------------

class TestCli:
    @pytest.mark.parametrize(
        "command",
        ["conformance", "recovery-sweep", "failover-sweep", "rebalance-sweep"],
    )
    def test_seeds_and_runs_are_one_option(self, command):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args([command, "--runs", "3"]).seeds == 3
        assert parser.parse_args([command, "--seeds", "4"]).seeds == 4
        args = parser.parse_args([command])
        assert args.json == command.removesuffix("-sweep") + "_report.json"
        assert args.smoke is False
        if command in ("recovery-sweep", "failover-sweep"):
            assert parser.parse_args([command, "--smoke"]).smoke is True
        else:
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--smoke"])

    def test_sweep_command_writes_the_shared_report(self, tmp_path, capsys):
        path = tmp_path / "failover.json"
        code = main([
            "failover-sweep", "--seed", "4", "--runs", "1", "--tcp-every", "0",
            "--json", str(path),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "deliveries=3@s0" in out
        assert out.count(" MUT ") >= 2  # one caught mutant per scheduler
        assert "all promoted runs equivalent (mutations caught)" in out
        report = load_report(path)
        assert report["suite"] == "failover-equivalence"
        assert report["ok"] and report["cases"] == 3

    def test_conformance_command(self, tmp_path, capsys):
        path = tmp_path / "conformance.json"
        code = main([
            "conformance", "--algorithms", "sweep", "--profiles", "dup",
            "--updates", "8", "--time-scale", "0.001", "--json", str(path),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "all cases conform" in out
        assert load_report(path)["rows"][0]["updates"] == 8

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--localities", "off,nope", "unknown locality mode 'nope'"),
            ("--profiles", "nope", "unknown chaos profile 'nope'"),
            ("--algorithms", "nope", "unknown algorithm 'nope'"),
        ],
    )
    def test_conformance_rejects_unknown_axes(self, flag, value, message, capsys):
        assert main(["conformance", flag, value]) == 2
        err = capsys.readouterr().err
        assert message in err and "available:" in err

    def test_localities_follow_the_locality_package(self, capsys):
        from repro.warehouse.locality import MODES

        main(["conformance", "--localities", "nope"])
        assert ",".join(MODES) in capsys.readouterr().err
